"""Truncated-Taylor (jet) arithmetic.

Two fixed-order jet types carry exact derivatives through every formula in
the library:

* :class:`Jet1` -- a scalar of one parameter with derivative coefficients
  d0..d4.  Order 4 is the smallest that covers fourth curve derivatives
  (needed for the derivative of the torsion and the spherical-curve test).
* :class:`Jet2` -- a scalar of two parameters with every partial of total
  order <= 3.  Order 3 is the smallest that covers the Codazzi-Mainardi and
  compatibility residuals.

Coefficients are plain derivatives (not Taylor coefficients), so the square
of the variable lift at 3 reads (9, 6, 2, 0, 0).  Elementary functions are
composed by Faa di Bruno's formula against per-function derivative tables;
the tables are exercised against finite differences in the test suite.

The module-level functions ``sin``, ``cos``, ... and :func:`power`
dispatch on ``float``, ``Jet1`` and ``Jet2`` so the same formula code
evaluates values and jets; a jet being recorded (``expr._TapeJet``) does
its own arithmetic, so the same code is recorded once as generated code.
"""

import math

from .errors import DomainError

__all__ = [
    "Jet1", "Jet2",
    "sin", "cos", "tan", "exp", "log", "sqrt",
    "sinh", "cosh", "tanh", "asin", "acos", "atan",
    "power", "FUNCTIONS",
]


# --------------------------------------------------------------------------
# derivative tables: name -> (value, d1, d2, d3, d4) at a point
# --------------------------------------------------------------------------

def _tab_exp(a):
    e = math.exp(a)
    return (e, e, e, e, e)


def _tab_log(a):
    if a <= 0.0:
        raise DomainError(f"log of non-positive value {a!r}")
    i = 1.0 / a
    return (math.log(a), i, -i * i, 2.0 * i ** 3, -6.0 * i ** 4)


def _tab_sqrt(a):
    if a <= 0.0:
        raise DomainError(f"sqrt of non-positive value {a!r}")
    s = math.sqrt(a)
    return (s, 0.5 / s, -0.25 / (s * a), 0.375 / (s * a * a),
            -0.9375 / (s * a * a * a))


def _tab_sin(a):
    s, c = math.sin(a), math.cos(a)
    return (s, c, -s, -c, s)


def _tab_cos(a):
    s, c = math.sin(a), math.cos(a)
    return (c, -s, -c, s, c)


def _tab_tan(a):
    c = math.cos(a)
    if abs(c) < 1e-300:
        raise DomainError(f"tan undefined at {a!r}")
    t = math.tan(a)
    t2 = t * t
    return (t,
            1.0 + t2,
            2.0 * t + 2.0 * t * t2,
            2.0 + 8.0 * t2 + 6.0 * t2 * t2,
            16.0 * t + 40.0 * t * t2 + 24.0 * t * t2 * t2)


def _tab_sinh(a):
    s, c = math.sinh(a), math.cosh(a)
    return (s, c, s, c, s)


def _tab_cosh(a):
    s, c = math.sinh(a), math.cosh(a)
    return (c, s, c, s, c)


def _tab_tanh(a):
    t = math.tanh(a)
    t2 = t * t
    return (t,
            1.0 - t2,
            -2.0 * t + 2.0 * t * t2,
            -2.0 + 8.0 * t2 - 6.0 * t2 * t2,
            16.0 * t - 40.0 * t * t2 + 24.0 * t * t2 * t2)


def _tab_asin(a):
    if not -1.0 < a < 1.0:
        raise DomainError(f"asin argument {a!r} outside (-1, 1)")
    w = 1.0 - a * a
    r = w ** -0.5
    return (math.asin(a), r, a * r / w, (1.0 + 2.0 * a * a) * r / (w * w),
            (9.0 * a + 6.0 * a ** 3) * r / (w ** 3))


def _tab_acos(a):
    v, d1, d2, d3, d4 = _tab_asin(a)
    return (math.acos(a), -d1, -d2, -d3, -d4)


def _tab_atan(a):
    q = 1.0 + a * a
    return (math.atan(a), 1.0 / q, -2.0 * a / q ** 2,
            (6.0 * a * a - 2.0) / q ** 3,
            (24.0 * a - 24.0 * a ** 3) / q ** 4)


def _tab_recip(a):
    if a == 0.0:
        raise DomainError("division by zero")
    i = 1.0 / a
    return (i, -i * i, 2.0 * i ** 3, -6.0 * i ** 4, 24.0 * i ** 5)


def _tab_pow(a, p):
    """The table of x^p: for an integer p at any base but a zero one with
    p < 0, else at a positive base.  A derivative whose factor p(p-1)..
    vanishes is 0.0."""
    if not float(p).is_integer() and a <= 0.0:
        raise DomainError(
            f"power with non-integer exponent needs a positive base, got {a!r}")
    if a == 0.0 and p < 0.0:
        raise DomainError("zero base with negative exponent")
    d = []
    coeff = 1.0
    for k in range(5):
        d.append(coeff * a ** (p - k) if coeff else 0.0)
        coeff *= (p - k)
    return tuple(d)


_TABLES = {
    "sin": _tab_sin, "cos": _tab_cos, "tan": _tab_tan,
    "exp": _tab_exp, "log": _tab_log, "sqrt": _tab_sqrt,
    "sinh": _tab_sinh, "cosh": _tab_cosh, "tanh": _tab_tanh,
    "asin": _tab_asin, "acos": _tab_acos, "atan": _tab_atan,
}


# --------------------------------------------------------------------------
# Jet1
# --------------------------------------------------------------------------

def _raw1(coeffs):
    jet = Jet1.__new__(Jet1)
    jet.c = coeffs
    return jet


def _raw2(coeffs):
    jet = Jet2.__new__(Jet2)
    jet.c = coeffs
    return jet


class Jet1:
    """Value plus exact derivatives d1..d4 with respect to one parameter."""

    __slots__ = ("c",)

    def __init__(self, c0, c1=0.0, c2=0.0, c3=0.0, c4=0.0):
        self.c = (float(c0), float(c1), float(c2), float(c3), float(c4))

    @staticmethod
    def constant(x):
        return Jet1(x)

    @staticmethod
    def variable(x):
        return Jet1(x, 1.0)

    @property
    def value(self):
        return self.c[0]

    def derivative(self):
        """Jet of df/dt.  The top coefficient is unknown and set to zero, so
        the result is exact only through order 3."""
        c = self.c
        return _raw1((c[1], c[2], c[3], c[4], 0.0))

    def __repr__(self):
        return f"Jet1{self.c}"

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet1):
            return other
        if isinstance(other, (int, float)):
            return _raw1((float(other), 0.0, 0.0, 0.0, 0.0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        return _raw1((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3],
                      a[4] + b[4]))

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        return _raw1((-a[0], -a[1], -a[2], -a[3], -a[4]))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        return _raw1((
            a[0] * b[0],
            a[1] * b[0] + a[0] * b[1],
            a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2],
            a[3] * b[0] + 3.0 * a[2] * b[1] + 3.0 * a[1] * b[2] + a[0] * b[3],
            a[4] * b[0] + 4.0 * a[3] * b[1] + 6.0 * a[2] * b[2]
            + 4.0 * a[1] * b[3] + a[0] * b[4],
        ))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._compose(_tab_recip(o.c[0]))

    def __rtruediv__(self, other):
        return Jet1(other) / self

    def __pow__(self, p):
        return power(self, p)

    # -- composition ---------------------------------------------------------

    def _compose(self, d):
        """Faa di Bruno through order 4; ``d`` = (phi, phi', .., phi'''')."""
        return _raw1(compose1(self.c, d))


def compose1(c, d):
    """The Jet1 coefficients of phi(x), for the coefficients ``c`` of x and
    ``d`` = (phi, phi', .., phi'''') at its value: Faa di Bruno through
    order 4 over floats, rounded as Jet1 rounds it."""
    _, u1, u2, u3, u4 = c
    return (
        d[0],
        d[1] * u1,
        d[1] * u2 + d[2] * u1 * u1,
        d[1] * u3 + 3.0 * d[2] * u1 * u2 + d[3] * u1 ** 3,
        d[1] * u4 + d[2] * (4.0 * u1 * u3 + 3.0 * u2 * u2)
        + 6.0 * d[3] * u1 * u1 * u2 + d[4] * u1 ** 4,
    )


# --------------------------------------------------------------------------
# Jet2
# --------------------------------------------------------------------------

# coefficient order: f, fu, fv, fuu, fuv, fvv, fuuu, fuuv, fuvv, fvvv
_J2_ZERO = (0.0,) * 10


class Jet2:
    """Value plus every partial of total order <= 3 in two parameters.

    Mixed partials are stored once (fuv = fvu by construction)."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(float(x) for x in coeffs)

    @staticmethod
    def constant(x):
        return Jet2((float(x),) + _J2_ZERO[1:])

    @staticmethod
    def variable_u(x):
        return Jet2((float(x), 1.0, 0.0) + _J2_ZERO[3:])

    @staticmethod
    def variable_v(x):
        return Jet2((float(x), 0.0, 1.0) + _J2_ZERO[3:])

    @property
    def value(self):
        return self.c[0]

    def __repr__(self):
        return f"Jet2{self.c}"

    def _coerce(self, other):
        if isinstance(other, Jet2):
            return other
        if isinstance(other, (int, float)):
            return _raw2((float(other),) + _J2_ZERO[1:])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        return _raw2((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3],
                      a[4] + b[4], a[5] + b[5], a[6] + b[6], a[7] + b[7],
                      a[8] + b[8], a[9] + b[9]))

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        return _raw2((-a[0], -a[1], -a[2], -a[3], -a[4], -a[5], -a[6],
                      -a[7], -a[8], -a[9]))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        return _raw2((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3],
                      a[4] - b[4], a[5] - b[5], a[6] - b[6], a[7] - b[7],
                      a[8] - b[8], a[9] - b[9]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f, fu, fv, fuu, fuv, fvv, fuuu, fuuv, fuvv, fvvv = self.c
        g, gu, gv, guu, guv, gvv, guuu, guuv, guvv, gvvv = o.c
        return _raw2((
            f * g,
            fu * g + f * gu,
            fv * g + f * gv,
            fuu * g + 2.0 * fu * gu + f * guu,
            fuv * g + fu * gv + fv * gu + f * guv,
            fvv * g + 2.0 * fv * gv + f * gvv,
            fuuu * g + 3.0 * fuu * gu + 3.0 * fu * guu + f * guuu,
            fuuv * g + fuu * gv + 2.0 * fuv * gu + 2.0 * fu * guv
            + fv * guu + f * guuv,
            fuvv * g + fvv * gu + 2.0 * fuv * gv + 2.0 * fv * guv
            + fu * gvv + f * guvv,
            fvvv * g + 3.0 * fvv * gv + 3.0 * fv * gvv + f * gvvv,
        ))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._compose(_tab_recip(o.c[0]))

    def __rtruediv__(self, other):
        return Jet2.constant(other) / self

    def __pow__(self, p):
        return power(self, p)

    def _compose(self, d):
        """Multivariate Faa di Bruno through total order 3 for a univariate
        outer function with derivatives ``d`` at the value coefficient."""
        _, u, v, uu, uv, vv, uuu, uuv, uvv, vvv = self.c
        d0, d1, d2, d3 = d[0], d[1], d[2], d[3]
        return _raw2((
            d0,
            d1 * u,
            d1 * v,
            d1 * uu + d2 * u * u,
            d1 * uv + d2 * u * v,
            d1 * vv + d2 * v * v,
            d1 * uuu + 3.0 * d2 * u * uu + d3 * u ** 3,
            d1 * uuv + d2 * (v * uu + 2.0 * u * uv) + d3 * u * u * v,
            d1 * uvv + d2 * (u * vv + 2.0 * v * uv) + d3 * u * v * v,
            d1 * vvv + 3.0 * d2 * v * vv + d3 * v ** 3,
        ))


# --------------------------------------------------------------------------
# elementary functions, dispatching on float, Jet1 and Jet2
# --------------------------------------------------------------------------

def _elementary(name, table):
    def fn(x):
        if isinstance(x, (Jet1, Jet2)):
            return x._compose(table(x.value))
        if hasattr(x, "call"):     # a jet being recorded (expr._TapeJet)
            return x.call(name)
        try:
            return table(float(x))[0]
        except (ValueError, OverflowError) as exc:  # pragma: no cover - math guard
            raise DomainError(str(exc)) from exc

    fn.__name__ = fn.__qualname__ = name
    return fn


#: single-argument elementary functions available to the expression language
FUNCTIONS = {name: _elementary(name, table) for name, table in _TABLES.items()}
sin, cos, tan = FUNCTIONS["sin"], FUNCTIONS["cos"], FUNCTIONS["tan"]
exp, log, sqrt = FUNCTIONS["exp"], FUNCTIONS["log"], FUNCTIONS["sqrt"]
sinh, cosh, tanh = FUNCTIONS["sinh"], FUNCTIONS["cosh"], FUNCTIONS["tanh"]
asin, acos, atan = FUNCTIONS["asin"], FUNCTIONS["acos"], FUNCTIONS["atan"]


def _is_constant_jet(x):
    return all(c == 0.0 for c in x.c[1:])


def _int_power(base, n):
    if n == 0:
        return base * 0.0 + 1.0
    out = base
    for _ in range(abs(n) - 1):
        out = out * base
    if n < 0:
        out = 1.0 / out
    return out


def power(base, exponent):
    """``base ** exponent`` for floats and jets.

    Integer exponents use repeated multiplication (valid for any base);
    other exponents require a positive base value.  A jet exponent with
    nonzero derivatives goes through exp(exponent * log(base)).  A jet
    being recorded takes the rule of generated code (``expr._Recorder``).
    """
    if hasattr(base, "call") or hasattr(exponent, "call"):
        return base ** exponent
    exp_scalar = None
    if isinstance(exponent, (int, float)):
        exp_scalar = float(exponent)
    elif isinstance(exponent, (Jet1, Jet2)) and _is_constant_jet(exponent):
        exp_scalar = exponent.value

    if exp_scalar is not None:
        if exp_scalar == int(exp_scalar):
            n = int(exp_scalar)
            if isinstance(base, (Jet1, Jet2)):
                if n < 0 and base.value == 0.0:
                    raise DomainError("zero base with negative exponent")
                return _int_power(base, n)
            if n < 0 and base == 0.0:
                raise DomainError("zero base with negative exponent")
            return float(_int_power(float(base), n))
        if isinstance(base, (Jet1, Jet2)):
            return base._compose(_tab_pow(base.value, exp_scalar))
        if base <= 0.0:
            raise DomainError(
                f"power with non-integer exponent needs a positive base, got {base!r}")
        return float(base) ** exp_scalar

    # genuinely variable exponent: base must stay positive
    return exp(exponent * log(base))
