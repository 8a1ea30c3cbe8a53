"""Shared helpers: finite-difference oracles, random expressions,
and frequently used shapes."""

import collections
import math
import random

import pytest

from diffgeo import catalog, expr, jets
from diffgeo.errors import ArityError, UnknownIdentifier
from diffgeo.expr import ShapeDefinition, parse_text
from diffgeo.vectors import Vec3


# --------------------------------------------------------------------------
# finite-difference oracles (independent of the jet implementation)
# --------------------------------------------------------------------------

def _stencil(f, x, h, order):
    fm2, fm1, f0, fp1, fp2 = (f(x - 2 * h), f(x - h), f(x), f(x + h),
                              f(x + 2 * h))
    if order == 1:
        return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
    if order == 2:
        return (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
    if order == 3:
        return (-fm2 + 2 * fm1 - 2 * fp1 + fp2) / (2 * h ** 3)
    return (fm2 - 4 * fm1 + 6 * f0 - 4 * fp1 + fp2) / h ** 4


def fd_derivative(f, x, order, h=None):
    """5-point central stencils, Richardson-extrapolated for orders 3-4."""
    if order <= 2:
        h = h or 1e-2
        d_h = _stencil(f, x, h, order)
        d_h2 = _stencil(f, x, 0.5 * h, order)
        return (16.0 * d_h2 - d_h) / 15.0
    h = h or 0.08
    vals = [_stencil(f, x, h / 2 ** k, order) for k in range(3)]
    r1 = [(4 * vals[i + 1] - vals[i]) / 3 for i in range(2)]
    return (16.0 * r1[1] - r1[0]) / 15.0


def fd_partial(f, u, v, iu, iv, h=5e-3):
    """Mixed partial by nested central differences (orders <= 3 total)."""
    if iu > 0:
        return (fd_partial(lambda uu, vv: f(uu + h, vv), u, v, iu - 1, iv, h)
                - fd_partial(lambda uu, vv: f(uu - h, vv), u, v, iu - 1, iv, h)
                ) / (2 * h)
    if iv > 0:
        return (fd_partial(lambda uu, vv: f(uu, vv + h), u, v, iu, iv - 1, h)
                - fd_partial(lambda uu, vv: f(uu, vv - h), u, v, iu, iv - 1, h)
                ) / (2 * h)
    return f(u, v)


# --------------------------------------------------------------------------
# random expressions
# --------------------------------------------------------------------------

_SAFE_FUNCTIONS = ("sin", "cos", "exp", "sinh", "cosh", "tanh", "atan")
_ALL_FUNCTIONS = _SAFE_FUNCTIONS + ("tan", "log", "sqrt", "asin", "acos")


def random_text(rng, depth, var_names=("t",), functions=_ALL_FUNCTIONS):
    """Random expression text, at most ``depth`` operators deep, over the
    given variables; every compound operand is parenthesized."""
    def sub():
        return f"({random_text(rng, depth - 1, var_names, functions)})"

    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return repr(round(rng.uniform(0.1, 3.0), 3))
        return rng.choice(var_names)
    pick = rng.random()
    if pick < 0.15:
        return f"-{sub()}"
    if pick < 0.40:
        return rng.choice(functions) + sub()
    if pick < 0.52:
        return f"{sub()}^{rng.randint(2, 3)}"
    op = rng.choice("+-*/")
    return sub() + op + sub()


def random_program(rng, depth, var_names=("t",), functions=_ALL_FUNCTIONS):
    """The program of a random_text."""
    return parse_text(random_text(rng, depth, var_names, functions))


EVAL_SAFE = _SAFE_FUNCTIONS


# --------------------------------------------------------------------------
# reference evaluator (independent of the generated code)
# --------------------------------------------------------------------------

def reference_eval(program, env, power=jets.power):
    """The documented semantics of a program as a plain stack walk:
    ``env`` maps identifiers to floats or jets, a divisor (which comes
    first) is divided into its dividend by ``expr._div``, '^' is
    ``jets.power`` (or ``power``, told whether the exponent holds no
    name), a call goes to ``jets.FUNCTIONS``, and an identifier fails in
    one of three ways."""
    stack = []      # (value, whether its expression holds no name)
    for op, arg in program:
        if op == "num":
            stack.append((arg, True))
        elif op == "var":
            if arg not in env:
                raise UnknownIdentifier(f"undeclared identifier {arg!r}")
            stack.append((env[arg], False))
        elif op == "fail":
            if arg in env or arg == "pi":
                raise ArityError(f"{arg!r} is not a function")
            raise UnknownIdentifier(f"unknown function {arg!r}")
        elif op in ("neg", "call"):
            x, literal = stack.pop()
            stack.append((-x if op == "neg" else jets.FUNCTIONS[arg](x),
                          literal))
        else:
            (second, literal2), (first, literal1) = stack.pop(), stack.pop()
            if op == "/":
                value = expr._div(second, first)
            elif op == "+":
                value = first + second
            elif op == "-":
                value = first - second
            elif op == "*":
                value = first * second
            elif power is jets.power:
                value = power(first, second)
            else:
                value = power(first, second, literal2)
            stack.append((value, literal1 and literal2))
    return stack.pop()[0]


def kernel_power(base, p, literal):
    """'^' by the rule of generated code (``expr._Recorder.power``), in
    jet arithmetic, ``literal`` when the exponent holds no name: a jet
    exponent is exp(p log(base)); over a jet base, an exponent other than
    a literal integer of at most 64 composes the table of x^p; else
    jets.power."""
    if isinstance(p, (jets.Jet1, jets.Jet2)):
        return jets.exp(p * jets.log(base))
    if isinstance(base, (jets.Jet1, jets.Jet2)) and not (
            literal and float(p).is_integer() and abs(p) <= 64):
        return base._compose(jets._tab_pow(base.value, p))
    return jets.power(base, p)


def rule_evaluator(definition):
    """The jet evaluator of ``definition`` by the stack walk, '^' taken by
    the rule of generated code (kernel_power): the jet reference of its
    kernels where an exponent is known only at run time or is a jet whose
    partials vanish.  A float component is lifted to the first jet."""
    def evaluator(*args):
        env = dict(definition.constants)
        env.update(zip(definition.params, args))
        return Vec3(*(args[0] * 0.0 + v if isinstance(v, float) else v
                      for v in (reference_eval(c, env, kernel_power)
                                for c in definition.components)))

    return evaluator


# --------------------------------------------------------------------------
# shapes
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def sphere():
    return catalog.make("sphere")


@pytest.fixture(scope="session")
def sphere2():
    return catalog.make("sphere", R=2.0)


@pytest.fixture(scope="session")
def torus13():
    return catalog.make("torus", r=1.0, R=3.0)


@pytest.fixture(scope="session")
def plane():
    return catalog.make("plane")


@pytest.fixture(scope="session")
def catenoid():
    return catalog.make("catenoid")


@pytest.fixture(scope="session")
def helix_curve():
    return catalog.make("helix")


def surface_samples(name, shape, rng, n):
    ent = catalog.entry(name)
    rect = ent.sample_domain or shape.domain
    return [(rng.uniform(rect[0], rect[1]), rng.uniform(rect[2], rect[3]))
            for _ in range(n)]


def count_evals(monkeypatch):
    """Patch ShapeDefinition.eval to count shape evaluations by the kind
    of their first argument ('Jet2' or 'Jet1'); returns the Counter."""
    real = ShapeDefinition.eval
    counts = collections.Counter()

    def counted(self, *args, **kwargs):
        counts[type(args[0]).__name__] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ShapeDefinition, "eval", counted)
    return counts
