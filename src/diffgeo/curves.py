"""Space-curve kernel: Frenet apparatus, osculating elements, arc length,
classification, involutes, spherical indicatrices and reconstruction from
curvature and torsion.

A curve is its float kernel: at a float t, the five coefficient triples r,
r', r'', r''', r'''' of the position, so curvature and torsion derivatives
are exact Taylor coefficients rather than finite differences.  A curve
built from a definition runs code generated per template
(``expr.position_kernel`` at order 4); Hermite interpolants read their
quintics; arc-length reparametrizations compose the base kernel with the
inverse of the arc length by Faa di Bruno over floats; involutes and
spherical indicatrices are written over the base kernel.  A jet-generic
Python function of t makes a kernel through :func:`jet_kernel`, recorded
once as generated code, as a definition is.  The Frenet formulas over the
kernel are written once, over jets, in ``_frenet``, and run as generated
float code that keeps the Jet1 arithmetic (``expr.taped``); every such
value is read from one point bundle, ``_CurveJets``.  The torsion sign
convention is the right-handed Frenet system dB/ds = -tau N.
"""

import bisect
import math
from functools import cached_property

from .errors import (DomainError, InflectionPoint, NonOrthonormalSeed,
                     SingularPoint, ZeroTorsion)
from .expr import position_kernel, recorded, taped
from .interpolate import HermiteChannel, taylor_kernel
from .jets import compose1
from .ode import OdeSpec, linspace, ode_solve
from .quadrature import QuadSpec, _sum, quad_adaptive
from .records import Frozen, Record, _set
from .vectors import Vec3, _spread

__all__ = [
    "ParametricCurve", "jet_kernel", "FrenetData", "OsculatingCircle",
    "OsculatingSphere", "CurveClass", "frenet", "frenet_residuals",
    "arc_length", "reparam_to_arclength", "osculating_circle",
    "osculating_sphere", "frenet_lines_and_planes", "classify_curve",
    "sphericity_residual", "involute", "spherical_indicatrix",
    "indicatrix_kappa_tau", "reconstruct_from_kappa_tau",
    "ReconstructedCurve",
]

EPS_REG = 1e-12       # times curve scale: regularity floor for |dr/dt|
EPS_INFLECT = 1e-10   # over curve scale: curvature floor for N, B, tau
_N_KNOTS = 256        # arc-length knots cached by reparam_to_arclength


class ParametricCurve:
    """A map t -> R^3 given by its float kernel.

    ``kernel(t)`` gives, at a float t, the five (x, y, z) triples r, r',
    r'', r''', r'''' of the position's derivatives.  ``definition`` is the
    'curve' definition that the curve evaluates, if any: the kernel (None
    here) is then code generated from it, on first use.  A jet-generic
    Python function of t makes a kernel through :func:`jet_kernel`.
    """

    def __init__(self, kernel, domain, unit_speed=False, definition=None):
        if kernel is not None:
            self.kernel = kernel
        elif definition is None:
            raise TypeError("a curve needs a kernel or a definition")
        self.domain = (float(domain[0]), float(domain[1]))
        self.unit_speed = unit_speed
        self.definition = definition
        self._scale = None

    def eval(self, t):
        """The position at the float ``t``, a Vec3: from the definition's
        order-0 code for a definition curve (float arithmetic, so a
        quotient may differ from ``kernel(t)[0]`` in the last bit), else
        from the kernel."""
        if self.definition is not None:
            return self.definition.eval(float(t), check_domain=False)
        return Vec3(*self.kernel(t)[0])

    @cached_property
    def kernel(self):
        """Floats t -> (x, y, z) triples r, r', r'', r''', r''''."""
        return position_kernel(self.definition, 4)

    def composite(self, rows):
        """Floats: the five Taylor rows (t_k,) of a change of parameter
        t(s) -> the five triples of r(t(s)), by Faa di Bruno over the
        kernel at t_0 (``jets.compose1`` per coordinate)."""
        t = tuple(row[0] for row in rows)
        return tuple(zip(*(compose1(t, d) for d in zip(*self.kernel(t[0])))))

    @property
    def scale(self):
        """Length scale: the ``_spread`` of 16 probe points.  Cached."""
        if self._scale is None:
            t0, t1 = self.domain
            probes = []
            for k in range(16):
                t = t0 + (t1 - t0) * (k + 0.5) / 16.0
                try:
                    probes.append(self.kernel(t)[0])
                except (DomainError, SingularPoint, InflectionPoint):
                    continue
            self._scale = _spread(probes)
        return self._scale

    def chebyshev_points(self, n):
        t0, t1 = self.domain
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        return [mid + half * math.cos(math.pi * (2 * k + 1) / (2 * n))
                for k in range(n)]


def jet_kernel(fn):
    """The kernel of the curve ``fn``, a jet-generic Python function of t
    that returns a Vec3: floats t -> the five triples of its Jet1
    coefficients at the variable t, from code recorded on the first call
    (``expr.recorded``)."""
    return recorded(fn)


class FrenetData(Record):
    """T, N, B (Vec3s), kappa, tau and the Darboux vector tau*T + kappa*B;
    N, B, tau and the Darboux vector are None at an inflection point."""

    __slots__ = _fields = ("T", "N", "B", "kappa", "tau", "darboux")

    def __init__(self, T, N, B, kappa, tau, darboux):
        self.T = T
        self.N = N
        self.B = B
        self.kappa = kappa
        self.tau = tau
        self.darboux = darboux


class _CenterRadius(Frozen):
    __slots__ = _fields = ("center", "radius")

    def __init__(self, center, radius):
        _set(self, "center", center)
        _set(self, "radius", radius)


class OsculatingCircle(_CenterRadius):
    __slots__ = ()


class OsculatingSphere(_CenterRadius):
    __slots__ = ()


class CurveClass(Frozen):
    """``kind`` is StraightLine, Planar, Helix or General; ``ratio_rsd`` is
    the relative standard deviation of tau/kappa."""

    __slots__ = _fields = ("kind", "max_kappa", "max_abs_tau", "ratio_rsd")

    def __init__(self, kind, max_kappa, max_abs_tau, ratio_rsd):
        _set(self, "kind", kind)
        _set(self, "max_kappa", max_kappa)
        _set(self, "max_abs_tau", max_abs_tau)
        _set(self, "ratio_rsd", ratio_rsd)


def _frenet(r):
    """The Frenet apparatus of the position jet ``r``, written once over
    jets: expr.taped records its Jet1 arithmetic as float code (so each
    value equals the Jet1 coefficient it stands for).  Exactness (orders
    that are true Taylor coefficients): position 4, velocity and sigma 3,
    T 3, B/N/kappa 2, tau 1."""
    rd = r.derivative()
    rdd = rd.derivative()
    sig_sq = rd.norm_sq()
    sigma = sig_sq.call("sqrt")
    T = rd / sigma
    C = rd.cross(rdd)
    cn_sq = C.norm_sq()
    cn = cn_sq.call("sqrt")
    kappa = cn / (sigma * sigma * sigma)
    B = C / cn
    N = B.cross(T)
    tau = rd.dot(rdd.cross(rdd.derivative())) / (cn * cn)
    rk = 1.0 / kappa                # radius of curvature, exact to order 2
    rt = 1.0 / tau                  # radius of torsion, exact to order 1
    return {"sig_sq": sig_sq, "sigma": sigma, "cn_sq": cn_sq, "kappa": kappa,
            "tau": tau, "rk": rk, "rt": rt,
            "rt_drk_ds": rt * (rk.derivative() / sigma),
            **{name + c: getattr(vec, c)
               for name, vec in (("T", T), ("N", N), ("B", B))
               for c in "xyz"}}


def _vec(name, slot):
    return tuple((name + c, slot) for c in "xyz")


# the quantities of _CurveJets, each group one program of _frenet's
# (jet, slot) pairs
_SPEED = (("sig_sq", 0),)
_SIGMA = (("sigma", 0), ("sigma", 1), ("sigma", 2), ("sigma", 3),
          ("cn_sq", 0))
_KAPPA = (("kappa", 0),)
_TAU = (("tau", 0),)
_T = _vec("T", 0)
_DT = _vec("T", 1)
_FRAME = _vec("T", 0) + _vec("N", 0) + _vec("B", 0)
_FRAME_DT = _vec("T", 1) + _vec("N", 1) + _vec("B", 1)
_RATES = (("kappa", 1), ("tau", 1))
_SPHERE = (("rk", 0), ("rk", 1))
_SPHERICITY = (("rk", 0), ("rt", 0), ("rt_drk_ds", 1))
_JETS = {(name, n): tuple((name + c, s) for c in "xyz" for s in range(n))
         for name in "TNB" for n in (2, 5)}


def _overflow(t):
    return OverflowError(f"curve jets overflow at t={t!r}")


class _CurveJets:
    """The Frenet apparatus at ``t`` over floats, for every space curve:
    ``k`` holds the five (x, y, z) coefficient triples r, r', r'', r''',
    r'''' at t, from a ParametricCurve's kernel or a surface's composite
    kernel (r(u(t), v(t)) along a surface curve).  Construction checks
    regularity and computes sigma = |dr/dt| through its third derivative
    and |r' x r''|^2; kappa, T, the frame, tau and their derivatives follow
    on first use, each group one program of ``_frenet``.  The branches (the
    regularity floor, r' x r'' = 0, the inflection floor) sit between the
    programs.  The length ``scale`` sets the inflection floor and
    ``min_speed`` the regularity floor on |dr/dt|; a composite curve is
    regular wherever its surface is and (u', v') != 0, so it keeps 0.  An
    overflow on the way names t."""

    def __init__(self, k, scale, t, min_speed=0.0):
        self.t = float(t)
        self.scale = scale
        self.k = k
        (sig_sq,) = self._run(_SPEED)
        if sig_sq <= min_speed * min_speed:
            raise SingularPoint(t)
        *sigma, self.cn_sq = self._run(_SIGMA)
        self.sigma = tuple(sigma)   # |dr/dt| and its t-derivatives 1..3

    @classmethod
    def at(cls, curve, t):
        """The bundle of a ParametricCurve at ``t``."""
        try:
            k = curve.kernel(float(t))
        except OverflowError:
            raise _overflow(t) from None
        return cls(k, curve.scale, t, EPS_REG * curve.scale)

    def _run(self, outputs):
        try:
            return taped(_frenet, outputs, 4)(self.k)
        except OverflowError:
            raise _overflow(self.t) from None

    def _ds_vec(self, d):
        """d/ds of a vector whose t-derivative is ``d``."""
        s = 1.0 / self.sigma[0]
        return Vec3(d[0] * s, d[1] * s, d[2] * s)

    @property
    def pos(self):
        return Vec3(*self.k[0])

    @property
    def rd(self):
        return Vec3(*self.k[1])

    @property
    def rdd(self):
        return Vec3(*self.k[2])

    @property
    def eps_inflect(self):
        return EPS_INFLECT / self.scale

    @cached_property
    def kappa_value(self):
        """kappa at t; 0.0 where r' x r'' vanishes."""
        return self._run(_KAPPA)[0] if self.cn_sq > 0.0 else 0.0

    @property
    def bent(self):
        """Whether kappa clears the inflection floor, so N, B, tau exist."""
        return self.kappa_value > self.eps_inflect

    def require_bent(self):
        if not self.bent:
            raise InflectionPoint(self.t)

    @cached_property
    def T(self):
        return Vec3(*self._run(_T))

    @cached_property
    def dT_ds(self):
        return self._ds_vec(self._run(_DT))

    @cached_property
    def frame(self):
        """(T, N, B) at t."""
        self.require_bent()
        x = self._run(_FRAME)
        return Vec3(*x[0:3]), Vec3(*x[3:6]), Vec3(*x[6:9])

    def frame_ds(self):
        """(dT/ds, dN/ds, dB/ds) at t."""
        self.require_bent()
        x = self._run(_FRAME_DT)
        return (self._ds_vec(x[0:3]), self._ds_vec(x[3:6]),
                self._ds_vec(x[6:9]))

    @cached_property
    def tau(self):
        self.require_bent()
        return self._run(_TAU)[0]

    def vec_coefficients(self, name, n=5):
        """The first ``n`` t-derivatives of the unit vector ``name`` (T, N
        or B; T exact through order 3, N and B through 2): x's, then y's,
        then z's."""
        if name != "T":
            self.require_bent()
        return self._run(_JETS[name, n])


def frenet(curve, t, partial=False):
    """Full Frenet data at ``t``.

    At an inflection point (kappa below the curvature floor) raises
    InflectionPoint unless ``partial`` is set, in which case T and kappa are
    returned with N, B, tau, darboux as None.
    """
    cj = _CurveJets.at(curve, t)
    kap = cj.kappa_value
    if partial and not cj.bent:
        return FrenetData(T=cj.T, N=None, B=None, kappa=kap, tau=None,
                          darboux=None)
    T, N, B = cj.frame
    tau = cj.tau
    return FrenetData(T=T, N=N, B=B, kappa=kap, tau=tau,
                      darboux=T * tau + B * kap)


def frenet_residuals(curve, t):
    """Norms of the three Frenet-Serret defects at ``t``:
    |dT/ds - kappa N|, |dN/ds - (tau B - kappa T)|, |dB/ds + tau N|."""
    cj = _CurveJets.at(curve, t)
    T, N, B = cj.frame
    kap = cj.kappa_value
    tau = cj.tau
    dT, dN, dB = cj.frame_ds()
    r1 = (dT - N * kap).norm()
    r2 = (dN - (B * tau - T * kap)).norm()
    r3 = (dB + N * tau).norm()
    return r1, r2, r3


def arc_length(curve, t1, t2, spec=QuadSpec()):
    """L = integral of |dr/dt| over [t1, t2]."""
    def integrand(t):
        return _CurveJets.at(curve, t).sigma[0]

    return quad_adaptive(integrand, (t1, t2), spec)


def reparam_to_arclength(curve):
    """The same trace parameterized by arc length (domain [0, L]).

    Inversion integrates dt/ds = 1/|dr/dt|; each evaluation refines from the
    nearest cached knot, and the inverse-function rule gives t(s)'s four
    s-derivatives, so the kernel stays exact through order 4: it composes
    them with s by Faa di Bruno over floats and reads r(t(s)) from the
    curve's composite.
    """
    t0, t1 = curve.domain
    total = arc_length(curve, t0, t1)

    def dt_ds(s, y):
        return (1.0 / _CurveJets.at(curve, y[0]).sigma[0],)

    table = ode_solve(dt_ds, (t0,), linspace(0.0, total, _N_KNOTS))
    knot_s = table.ts
    knot_t = [y[0] for y in table.ys]

    def t_of_s(s0):
        lo = bisect.bisect_right(knot_s, s0) - 1
        if knot_s[lo] == s0:
            return knot_t[lo]
        seg = ode_solve(dt_ds, (knot_t[lo],), (knot_s[lo], s0))
        return seg.y_end[0]

    def t_derivatives(s0):
        """t(s0) and its four s-derivatives."""
        if not -1e-9 <= s0 <= total + 1e-9:
            raise DomainError(f"arc length {s0!r} outside [0, {total!r}]")
        s0 = min(max(s0, 0.0), total)
        tv = t_of_s(s0)
        # |dr/dt| and its derivatives, exact to order 3
        f1, f2, f3, f4 = _CurveJets.at(curve, tv).sigma
        # inverse-function derivatives of t(s) from s'(t) = sigma
        g1 = 1.0 / f1
        g2 = -f2 * g1 ** 3
        g3 = (3.0 * f2 * f2 - f1 * f3) * g1 ** 5
        g4 = (-15.0 * f2 ** 3 + 10.0 * f1 * f2 * f3 - f1 * f1 * f4) * g1 ** 7
        return tv, g1, g2, g3, g4

    def kernel(s):
        s = float(s)
        t = compose1((s, 1.0, 0.0, 0.0, 0.0), t_derivatives(s))
        return curve.composite(tuple((c,) for c in t))

    return ParametricCurve(kernel, (0.0, total), unit_speed=True)


def osculating_circle(curve, t):
    cj = _CurveJets.at(curve, t)
    _, N, _ = cj.frame
    kap = cj.kappa_value
    center = cj.pos + N * (1.0 / kap)
    return OsculatingCircle(center=center, radius=1.0 / kap)


def osculating_sphere(curve, t):
    """Center r + R_k N + R_t R_k' B; radius sqrt(R_k^2 + (R_t R_k')^2)."""
    cj = _CurveJets.at(curve, t)
    _, N, B = cj.frame
    tau = cj.tau
    if abs(tau) <= cj.eps_inflect:
        raise ZeroTorsion(f"osculating sphere undefined: tau={tau!r} at t={t!r}")
    r_tau = 1.0 / tau
    rk, rk_dt = cj._run(_SPHERE)     # radius of curvature and d/dt of it
    rk_prime = rk_dt / cj.sigma[0]   # dR_k/ds
    off = r_tau * rk_prime
    center = cj.pos + N * rk + B * off
    return OsculatingSphere(center=center, radius=math.hypot(rk, off))


def frenet_lines_and_planes(curve, t):
    """Three (point, direction) lines and three (point, unit normal) planes:
    lines along T, N, B; osculating/rectifying/normal planes with normals
    B, N, T respectively."""
    fd = frenet(curve, t)
    p = Vec3(*curve.kernel(t)[0])
    lines = {"tangent": (p, fd.T), "normal": (p, fd.N), "binormal": (p, fd.B)}
    planes = {"osculating": (p, fd.B), "rectifying": (p, fd.N),
              "normal": (p, fd.T)}
    return lines, planes


def classify_curve(curve, n_samples=64, tol=1e-8):
    """Most specific of StraightLine / Planar / Helix / General, judged on
    Chebyshev-spaced interior samples."""
    pts = curve.chebyshev_points(n_samples)
    kappas, taus, ratios = [], [], []
    for t in pts:
        cj = _CurveJets.at(curve, t)
        kap = cj.kappa_value
        kappas.append(kap)
        if cj.bent:
            tau = cj.tau
            taus.append(tau)
            ratios.append(tau / kap)
    max_kappa = max(kappas)
    max_tau = max((abs(x) for x in taus), default=0.0)
    rsd = 0.0
    if ratios:
        mean = _sum(ratios) / len(ratios)
        var = _sum((x - mean) ** 2 for x in ratios) / len(ratios)
        rsd = math.sqrt(var) / abs(mean) if mean != 0.0 else float("inf")

    if max_kappa <= tol / curve.scale:
        kind = "StraightLine"
    elif max_tau <= tol:
        kind = "Planar"
    elif ratios and rsd <= tol:
        kind = "Helix"
    else:
        kind = "General"
    return CurveClass(kind=kind, max_kappa=max_kappa, max_abs_tau=max_tau,
                      ratio_rsd=rsd)


def sphericity_residual(curve, t):
    """R_k/R_t + d/ds(R_t dR_k/ds); near zero along spherical curves."""
    cj = _CurveJets.at(curve, t)
    if abs(cj.tau) <= cj.eps_inflect:
        raise ZeroTorsion(f"tau vanishes at t={t!r}")
    rk, rt, inner_dt = cj._run(_SPHERICITY)
    return rk / rt + inner_dt / cj.sigma[0]


def involute(curve, c):
    """The involute r_e(s) + (c - s) T_e(s) of an arclength-parameterized
    curve; its tangent is orthogonal to the base tangent at each s.  With
    T_e = r_e', row k of its kernel is r_k + (c - s) r_{k+1} - k r_k, r_5
    taken as zero (the base kernel stops at order 4)."""
    if not curve.unit_speed:
        raise ValueError("involute needs a naturally parameterized curve; "
                         "use reparam_to_arclength first")

    def kernel(s):
        r = curve.kernel(s)
        f = c - float(s)
        return tuple(tuple(x + (f * y - k * x) for x, y in zip(r[k], nxt))
                     for k, nxt in enumerate(r[1:] + ((0.0, 0.0, 0.0),)))

    return ParametricCurve(kernel, curve.domain)


def spherical_indicatrix(curve, which="T"):
    """The chosen unit Frenet vector traced on the unit sphere."""
    if which not in ("T", "N", "B"):
        raise ValueError("which must be 'T', 'N' or 'B'")

    def kernel(t):
        cj = _CurveJets(curve.kernel(t), curve.scale, t, EPS_REG * curve.scale)
        x = cj.vec_coefficients(which)
        return tuple(zip(x[0:5], x[5:10], x[10:15]))

    return ParametricCurve(kernel, curve.domain)


def indicatrix_kappa_tau(curve, t, which="T"):
    """Closed-form curvature and torsion of the tangent or binormal
    indicatrix from kappa, tau and their arclength derivatives.

    Signs follow the right-handed Frenet system used throughout: expanding
    the indicatrix derivatives in the (T, N, B) frame gives
    tau_T = (kappa tau' - kappa' tau) / (kappa (kappa^2 + tau^2)) and
    tau_B = (kappa' tau - kappa tau') / (tau (kappa^2 + tau^2)); both are
    cross-checked against the measured indicatrix curves in the tests."""
    cj = _CurveJets.at(curve, t)
    tau = cj.tau
    kap = cj.kappa_value
    kp, tp = (d / cj.sigma[0] for d in cj._run(_RATES))
    w = kap * kap + tau * tau
    if which == "T":
        kappa_ind = math.sqrt(w) / kap
        tau_ind = (kap * tp - kp * tau) / (kap * w)
    elif which == "B":
        if abs(tau) <= cj.eps_inflect:
            raise ZeroTorsion(f"binormal indicatrix needs tau != 0 at t={t!r}")
        kappa_ind = math.sqrt(w) / abs(tau)
        tau_ind = (kp * tau - kap * tp) / (tau * w)
    else:
        raise ValueError("which must be 'T' or 'B'")
    return kappa_ind, tau_ind


# --------------------------------------------------------------------------
# reconstruction from kappa(s), tau(s)
# --------------------------------------------------------------------------

class ReconstructedCurve(Record):
    """Samples at arc lengths ``s``: positions ``r`` and the frame T, N, B
    (Vec3s); ``_rdd`` is r'' = kappa N at the knots, for interpolation."""

    __slots__ = _fields = ("s", "r", "T", "N", "B", "_rdd")

    def __init__(self, s, r, T, N, B, _rdd=None):
        self.s = s
        self.r = r
        self.T = T
        self.N = N
        self.B = B
        self._rdd = _rdd

    def as_curve(self):
        """Quintic-Hermite interpolant through the integrated states.

        Derivative data at the knots: r' = T, r'' follows from the Frenet
        system, so the interpolant is an honest C^2 curve for re-checking
        kappa and tau."""
        knots = self.s
        chans = []
        for axis in ("x", "y", "z"):
            vals = [getattr(p, axis) for p in self.r]
            d1 = [getattr(v, axis) for v in self.T]
            d2 = [getattr(v, axis) for v in self._rdd]
            chans.append(HermiteChannel(knots, vals, d1, d2))
        return ParametricCurve(taylor_kernel(chans), (knots[0], knots[-1]),
                               unit_speed=True)


def _gram_schmidt(T, N, B):
    T = T.normalized()
    N = (N - T * T.dot(N)).normalized()
    B2 = T.cross(N)
    return T, N, B2


def reconstruct_from_kappa_tau(kappa, tau, r0, frame0, length,
                               spec=OdeSpec(), n_samples=257):
    """Integrate dr/ds = T plus the Frenet system from s=0 to ``length``.

    ``kappa`` and ``tau`` are callables of arc length with kappa > 0;
    ``frame0`` is the orthonormal right-handed triad (T0, N0, B0).  The
    frame is re-orthonormalized after every accepted step.
    """
    T0, N0, B0 = frame0
    ortho_err = max(abs(T0.norm() - 1.0), abs(N0.norm() - 1.0),
                    abs(B0.norm() - 1.0), abs(T0.dot(N0)), abs(T0.dot(B0)),
                    abs(N0.dot(B0)))
    if ortho_err > 1e-8 or T0.cross(N0).dot(B0) < 0.9:
        raise NonOrthonormalSeed(
            f"initial frame is not an orthonormal right-handed triad "
            f"(defect {ortho_err:.2e})")
    bad = [s for s in linspace(0.0, length, 65) if kappa(s) <= 0.0]
    if bad:
        raise DomainError(f"kappa(s) must stay positive; fails at s={bad[0]!r}")

    def field(s, y):
        T = y[3:6]
        N = y[6:9]
        B = y[9:12]
        k = kappa(s)
        tt = tau(s)
        return (
            T[0], T[1], T[2],
            k * N[0], k * N[1], k * N[2],
            tt * B[0] - k * T[0], tt * B[1] - k * T[1], tt * B[2] - k * T[2],
            -tt * N[0], -tt * N[1], -tt * N[2],
        )

    def renorm(s, y):
        T, N, B = (Vec3(*y[3:6]), Vec3(*y[6:9]), Vec3(*y[9:12]))
        T, N, B = _gram_schmidt(T, N, B)
        return y[0:3] + tuple(T) + tuple(N) + tuple(B)

    y0 = tuple(r0) + tuple(T0) + tuple(N0) + tuple(B0)
    sol = ode_solve(field, y0, linspace(0.0, length, n_samples), spec,
                    post_step=renorm)

    out = ReconstructedCurve(s=[], r=[], T=[], N=[], B=[])
    rdd = []
    for s, y in zip(sol.ts, sol.ys):
        out.s.append(s)
        out.r.append(Vec3(*y[0:3]))
        out.T.append(Vec3(*y[3:6]))
        out.N.append(Vec3(*y[6:9]))
        out.B.append(Vec3(*y[9:12]))
        rdd.append(Vec3(*y[6:9]) * kappa(s))
    out._rdd = rdd
    return out
