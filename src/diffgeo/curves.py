"""Space-curve kernel: Frenet apparatus, osculating elements, arc length,
classification, involutes, spherical indicatrices and reconstruction from
curvature and torsion.

All differential quantities come from order-4 jets of the curve evaluator,
so curvature and torsion derivatives are exact Taylor coefficients rather
than finite differences.  The torsion sign convention is the right-handed
Frenet system dB/ds = -tau N.
"""

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

from . import jets
from .errors import (DomainError, InflectionPoint, NonOrthonormalSeed,
                     SingularPoint, ZeroTorsion)
from .interpolate import HermiteChannel
from .jets import Jet1
from .ode import OdeSpec, linspace, ode_solve
from .quadrature import QuadSpec, quad_adaptive
from .vectors import Vec3, _spread

__all__ = [
    "ParametricCurve", "FrenetData", "OsculatingCircle", "OsculatingSphere",
    "CurveClass", "frenet", "frenet_residuals", "arc_length",
    "reparam_to_arclength", "osculating_circle", "osculating_sphere",
    "frenet_lines_and_planes", "classify_curve", "sphericity_residual",
    "involute", "spherical_indicatrix", "indicatrix_kappa_tau",
    "reconstruct_from_kappa_tau", "ReconstructedCurve",
]

EPS_REG = 1e-12       # times curve scale: regularity floor for |dr/dt|
EPS_INFLECT = 1e-10   # over curve scale: curvature floor for N, B, tau
_N_KNOTS = 256        # arc-length knots cached by reparam_to_arclength


class ParametricCurve:
    """A map t -> R^3 evaluated into jets.

    ``evaluator`` receives the parameter as a Jet1 (possibly a composed jet)
    and must return a Vec3 of Jet1 built jet-generically.
    """

    def __init__(self, evaluator, domain, unit_speed=False):
        self.evaluator = evaluator
        self.domain = (float(domain[0]), float(domain[1]))
        self.unit_speed = unit_speed
        self._scale = None

    def eval(self, t):
        if not isinstance(t, Jet1):
            t = Jet1.variable(t)
        return self.evaluator(t)

    @property
    def scale(self):
        """Length scale: the ``_spread`` of 16 probe points.  Cached."""
        if self._scale is None:
            t0, t1 = self.domain
            probes = []
            for k in range(16):
                t = t0 + (t1 - t0) * (k + 0.5) / 16.0
                try:
                    probes.append(self.eval(t).value())
                except (DomainError, SingularPoint, InflectionPoint):
                    continue
            self._scale = _spread(probes)
        return self._scale

    def chebyshev_points(self, n):
        t0, t1 = self.domain
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        return [mid + half * math.cos(math.pi * (2 * k + 1) / (2 * n))
                for k in range(n)]


@dataclass
class FrenetData:
    T: Vec3
    N: object          # Vec3, or None at an inflection point
    B: object
    kappa: float
    tau: object        # float, or None at an inflection point
    darboux: object    # tau*T + kappa*B, or None


@dataclass(frozen=True)
class OsculatingCircle:
    center: Vec3
    radius: float


@dataclass(frozen=True)
class OsculatingSphere:
    center: Vec3
    radius: float


@dataclass(frozen=True)
class CurveClass:
    kind: str               # StraightLine | Planar | Helix | General
    max_kappa: float
    max_abs_tau: float
    ratio_rsd: float        # relative std deviation of tau/kappa


class _CurveJets:
    """Frenet apparatus as jets of the position jet ``pos`` at ``t``, for
    every space curve: a ParametricCurve or the composite r(u(t), v(t)) of a
    surface curve.  The length ``scale`` sets the inflection floor and
    ``min_speed`` the regularity floor on |dr/dt|; a composite curve is
    regular wherever its surface is and (u', v') != 0, so it keeps 0.

    Exactness bookkeeping (derivative orders that are true Taylor
    coefficients): position 4, velocity 3, T 3, B/N/kappa 2, tau 1.
    """

    def __init__(self, pos, scale, t, min_speed=0.0):
        self.t = float(t)
        self.scale = scale
        self.pos = pos
        self.rd = pos.derivative()
        self.rdd = self.rd.derivative()
        sig_sq = self.rd.norm_sq()
        if sig_sq.value <= min_speed * min_speed:
            raise SingularPoint(t)
        self.sigma = jets.sqrt(sig_sq)
        # the rest is built on first use: arc length and dt/ds read sigma only

    @cached_property
    def T(self):
        return self.rd / self.sigma

    @cached_property
    def rddd(self):
        return self.rdd.derivative()

    @cached_property
    def C(self):
        return self.rd.cross(self.rdd)

    @cached_property
    def Cn(self):
        """|r' x r''|; its square (zero) where r' x r'' vanishes."""
        cn_sq = self.C.norm_sq()
        return jets.sqrt(cn_sq) if cn_sq.value > 0.0 else cn_sq

    @cached_property
    def kappa(self):
        """kappa as a jet; None where r' x r'' vanishes."""
        cn = self.Cn
        return (cn / (self.sigma * self.sigma * self.sigma) if cn.value > 0.0
                else None)

    @classmethod
    def at(cls, curve, t):
        """The kernel of a ParametricCurve at ``t``."""
        return cls(curve.eval(Jet1.variable(t)), curve.scale, t,
                   EPS_REG * curve.scale)

    @property
    def eps_inflect(self):
        return EPS_INFLECT / self.scale

    @property
    def kappa_value(self):
        """kappa at t; 0.0 where r' x r'' vanishes."""
        return 0.0 if self.kappa is None else self.kappa.value

    @property
    def bent(self):
        """Whether kappa clears the inflection floor, so N, B, tau exist."""
        return self.kappa_value > self.eps_inflect

    def require_bent(self):
        if not self.bent:
            raise InflectionPoint(self.t)

    def frame_jets(self):
        """(T, N, B) as Vec3 of Jet1; N, B exact through order 2."""
        self.require_bent()
        B = self.C / self.Cn
        N = B.cross(self.T)
        return self.T, N, B

    def tau_jet(self):
        self.require_bent()
        return self.rd.dot(self.rdd.cross(self.rddd)) / (self.Cn * self.Cn)

    def ds(self, jet):
        """Value of d(jet)/ds at t (jet exact through order >= 1)."""
        return jet.c[1] / self.sigma.value

    def ds_vec(self, vec):
        s = 1.0 / self.sigma.value
        return Vec3(vec.x.c[1] * s, vec.y.c[1] * s, vec.z.c[1] * s)


def frenet(curve, t, partial=False):
    """Full Frenet data at ``t``.

    At an inflection point (kappa below the curvature floor) raises
    InflectionPoint unless ``partial`` is set, in which case T and kappa are
    returned with N, B, tau, darboux as None.
    """
    cj = _CurveJets.at(curve, t)
    T = cj.T.value()
    kap = cj.kappa_value
    if partial and not cj.bent:
        return FrenetData(T=T, N=None, B=None, kappa=kap, tau=None, darboux=None)
    _, Nj, Bj = cj.frame_jets()
    N, B = Nj.value(), Bj.value()
    tau = cj.tau_jet().value
    return FrenetData(T=T, N=N, B=B, kappa=kap, tau=tau,
                      darboux=T * tau + B * kap)


def frenet_residuals(curve, t):
    """Norms of the three Frenet-Serret defects at ``t``:
    |dT/ds - kappa N|, |dN/ds - (tau B - kappa T)|, |dB/ds + tau N|."""
    cj = _CurveJets.at(curve, t)
    Tj, Nj, Bj = cj.frame_jets()
    kap = cj.kappa.value
    tau = cj.tau_jet().value
    T, N, B = Tj.value(), Nj.value(), Bj.value()
    r1 = (cj.ds_vec(Tj) - N * kap).norm()
    r2 = (cj.ds_vec(Nj) - (B * tau - T * kap)).norm()
    r3 = (cj.ds_vec(Bj) + N * tau).norm()
    return r1, r2, r3


def arc_length(curve, t1, t2, spec=QuadSpec()):
    """L = integral of |dr/dt| over [t1, t2]."""
    def integrand(t):
        return _CurveJets.at(curve, t).sigma.value

    return quad_adaptive(integrand, (t1, t2), spec)


def reparam_to_arclength(curve):
    """The same trace parameterized by arc length (domain [0, L]).

    Inversion integrates dt/ds = 1/|dr/dt|; each evaluation refines from the
    nearest cached knot and lifts t(s) into jets by the inverse-function
    derivatives, so jet output stays exact through order 4.
    """
    t0, t1 = curve.domain
    total = arc_length(curve, t0, t1)

    def dt_ds(s, y):
        return (1.0 / _CurveJets.at(curve, y[0]).sigma.value,)

    table = ode_solve(dt_ds, (t0,), linspace(0.0, total, _N_KNOTS))
    knot_s = table.ts
    knot_t = [y[0] for y in table.ys]

    def t_of_s(s0):
        lo = bisect.bisect_right(knot_s, s0) - 1
        if knot_s[lo] == s0:
            return knot_t[lo]
        seg = ode_solve(dt_ds, (knot_t[lo],), (knot_s[lo], s0))
        return seg.y_end[0]

    def evaluator(s_jet):
        s0 = s_jet.value
        if not -1e-9 <= s0 <= total + 1e-9:
            raise DomainError(f"arc length {s0!r} outside [0, {total!r}]")
        s0 = min(max(s0, 0.0), total)
        tv = t_of_s(s0)
        sig = _CurveJets.at(curve, tv).sigma  # jet of |dr/dt|, exact to order 3
        f1, f2, f3, f4 = sig.c[0], sig.c[1], sig.c[2], sig.c[3]
        # inverse-function derivatives of t(s) from s'(t) = sigma
        g1 = 1.0 / f1
        g2 = -f2 * g1 ** 3
        g3 = (3.0 * f2 * f2 - f1 * f3) * g1 ** 5
        g4 = (-15.0 * f2 ** 3 + 10.0 * f1 * f2 * f3 - f1 * f1 * f4) * g1 ** 7
        t_jet = s_jet._compose((tv, g1, g2, g3, g4))
        return curve.eval(t_jet)

    return ParametricCurve(evaluator, (0.0, total), unit_speed=True)


def osculating_circle(curve, t):
    cj = _CurveJets.at(curve, t)
    _, Nj, _ = cj.frame_jets()
    kap = cj.kappa.value
    center = cj.pos.value() + Nj.value() * (1.0 / kap)
    return OsculatingCircle(center=center, radius=1.0 / kap)


def osculating_sphere(curve, t):
    """Center r + R_k N + R_t R_k' B; radius sqrt(R_k^2 + (R_t R_k')^2)."""
    cj = _CurveJets.at(curve, t)
    _, Nj, Bj = cj.frame_jets()
    tau = cj.tau_jet().value
    if abs(tau) <= cj.eps_inflect:
        raise ZeroTorsion(f"osculating sphere undefined: tau={tau!r} at t={t!r}")
    r_tau = 1.0 / tau
    rk_jet = 1.0 / cj.kappa          # radius of curvature as a jet
    rk_prime = cj.ds(rk_jet)         # dR_k/ds
    off = r_tau * rk_prime
    center = cj.pos.value() + Nj.value() * rk_jet.value + Bj.value() * off
    return OsculatingSphere(center=center,
                            radius=math.hypot(rk_jet.value, off))


def frenet_lines_and_planes(curve, t):
    """Three (point, direction) lines and three (point, unit normal) planes:
    lines along T, N, B; osculating/rectifying/normal planes with normals
    B, N, T respectively."""
    fd = frenet(curve, t)
    p = curve.eval(t).value()
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
            tau = cj.tau_jet().value
            taus.append(tau)
            ratios.append(tau / kap)
    max_kappa = max(kappas)
    max_tau = max((abs(x) for x in taus), default=0.0)
    rsd = 0.0
    if ratios:
        mean = sum(ratios) / len(ratios)
        var = sum((x - mean) ** 2 for x in ratios) / len(ratios)
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
    tau_j = cj.tau_jet()
    if abs(tau_j.value) <= cj.eps_inflect:
        raise ZeroTorsion(f"tau vanishes at t={t!r}")
    rk = 1.0 / cj.kappa                      # exact to order 2
    drk_ds = rk.derivative() / cj.sigma      # exact to order 1
    rt = 1.0 / tau_j                         # exact to order 1
    inner = rt * drk_ds
    return rk.value / rt.value + cj.ds(inner)


def involute(curve, c):
    """The involute r_e(s) + (c - s) T_e(s) of an arclength-parameterized
    curve; its tangent is orthogonal to the base tangent at each s."""
    if not curve.unit_speed:
        raise ValueError("involute needs a naturally parameterized curve; "
                         "use reparam_to_arclength first")

    def evaluator(s_jet):
        pos = curve.eval(s_jet)
        tangent = pos.derivative()  # unit tangent of the base curve
        factor = -s_jet + c
        return pos + tangent * factor

    return ParametricCurve(evaluator, curve.domain)


def spherical_indicatrix(curve, which="T"):
    """The chosen unit Frenet vector traced on the unit sphere."""
    if which not in ("T", "N", "B"):
        raise ValueError("which must be 'T', 'N' or 'B'")

    def evaluator(t_jet):
        cj = _CurveJets(curve.evaluator(t_jet), curve.scale, t_jet.value,
                        EPS_REG * curve.scale)
        if which == "T":
            return cj.T
        _, N, B = cj.frame_jets()
        return B if which == "B" else N

    return ParametricCurve(evaluator, curve.domain)


def indicatrix_kappa_tau(curve, t, which="T"):
    """Closed-form curvature and torsion of the tangent or binormal
    indicatrix from kappa, tau and their arclength derivatives.

    Signs follow the right-handed Frenet system used throughout: expanding
    the indicatrix derivatives in the (T, N, B) frame gives
    tau_T = (kappa tau' - kappa' tau) / (kappa (kappa^2 + tau^2)) and
    tau_B = (kappa' tau - kappa tau') / (tau (kappa^2 + tau^2)); both are
    cross-checked against the measured indicatrix curves in the tests."""
    cj = _CurveJets.at(curve, t)
    kap_j = cj.kappa
    tau_j = cj.tau_jet()
    kap, tau = kap_j.value, tau_j.value
    kp = cj.ds(kap_j)
    tp = cj.ds(tau_j)
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

@dataclass
class ReconstructedCurve:
    s: list
    r: list       # Vec3 samples
    T: list
    N: list
    B: list
    _rdd: list = None  # r'' = kappa N at the knots, for interpolation

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

        def evaluator(s_jet):
            return Vec3(chans[0](s_jet), chans[1](s_jet), chans[2](s_jet))

        return ParametricCurve(evaluator, (knots[0], knots[-1]), unit_speed=True)


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
