"""Curves on surfaces: the normal/geodesic curvature split, geodesic
torsion, geodesic initial- and boundary-value problems, parallel transport
and holonomy, asymptotic/principal/conjugate directions, Liouville and
Bonnet checks, and the local/global Gauss-Bonnet budgets.

A surface curve is a parameter-plane path t -> (u(t), v(t)) over a host
surface.  Its composite space curve is evaluated by feeding the curve's
Jet1 parameters straight through the surface evaluator, so space-curve
derivatives (up to fourth order) are exact; its speed, Frenet frame,
curvature and torsion come from ``curves._CurveJets``.  Surface fields
along the curve (the normal, metric coefficients) are composed from the
pointwise Jet2 data with the chain rule.
"""

import math
from dataclasses import dataclass, replace

from . import jets
from .curves import _CurveJets
from .errors import (AsymptoticPoint, DegenerateMultiplicity,
                     MaxStepsExceeded, NoConvergence, NonOrthogonalPatch,
                     NoUniqueConjugate, OpenLoop, SingularSurfacePoint,
                     StepUnderflow, UmbilicPoint, ZeroVector)
from .interpolate import HermiteChannel
from .jets import Jet1
from .ode import OdeSpec, linspace, ode_solve
from .quadrature import QuadSpec, quad_adaptive
from .surfaces import (_SurfaceJets, _curvatures_from_jets, _metric_dot,
                       _metric_unit, _normal_curvature, metric_and_gamma,
                       total_curvature)
from .vectors import Vec3

__all__ = [
    "SurfaceCurve", "CurvatureSplit", "GeodesicPath", "TransportState",
    "BoundaryLoop", "GaussBonnetBudget",
    "curvature_split", "geodesic_torsion", "geodesic_ivp", "geodesic_bvp",
    "parallel_transport", "asymptotic_directions",
    "principal_direction_field", "conjugate_direction",
    "gauss_bonnet_local", "gauss_bonnet_global",
    "liouville_check", "bonnet_torsion_check", "asymptotic_line_trace",
]

EPS_CLOSED = 1e-6    # times surface scale: largest gap between loop arcs
_N_SEEDS = 8         # launch angles fanned out by geodesic_bvp
_N_SCAN = 48         # samples of a seed's scan
_N_ITER = 20         # Broyden iterates per seed
_N_CUTS = 3          # step halvings before a seed is abandoned
_N_TRANSPORT = 257   # samples of a parallel-transport solve
_N_ASYMPTOTIC = 65   # Hermite knots of a traced asymptotic line


class SurfaceCurve:
    """t -> (u(t), v(t)) on a host surface.

    ``uv`` receives the parameter as Jet1 and returns a (u_jet, v_jet) pair
    built jet-generically.
    """

    def __init__(self, surface, uv, domain):
        self.surface = surface
        self.uv = uv
        self.domain = (float(domain[0]), float(domain[1]))

    @staticmethod
    def const_v(surface, v0):
        """The u-coordinate sweep at fixed v (a latitude-style loop)."""
        def uv(t):
            return t, t * 0.0 + v0

        return SurfaceCurve(surface, uv, surface.domain[0:2])

    @staticmethod
    def const_u(surface, u0):
        """The v-coordinate sweep at fixed u (a meridian-style loop)."""
        def uv(t):
            return t * 0.0 + u0, t

        return SurfaceCurve(surface, uv, surface.domain[2:4])

    @staticmethod
    def straight(surface, p0, direction, domain=(0.0, 1.0)):
        """Parameter-space straight line p0 + t * direction."""
        def uv(t):
            return p0[0] + t * direction[0], p0[1] + t * direction[1]

        return SurfaceCurve(surface, uv, domain)

    def uv_jets(self, t):
        return self.uv(Jet1.variable(float(t)))

    def point(self, t):
        uj, vj = self.uv_jets(t)
        return uj.value, vj.value

    def space_jets(self, t):
        uj, vj = self.uv_jets(t)
        return self.surface.evaluator(uj, vj)


def _field_along_curve(f2, uj, vj):
    """Jet1 of a surface scalar field (given as Jet2 coefficients at the
    point) composed with the curve jets; exact through order 3 at most,
    and through the field jet's own exact order in any case."""
    f, fu, fv, fuu, fuv, fvv, fuuu, fuuv, fuvv, fvvv = f2.c
    u1, u2, u3 = uj.c[1], uj.c[2], uj.c[3]
    v1, v2, v3 = vj.c[1], vj.c[2], vj.c[3]
    g1 = fu * u1 + fv * v1
    g2 = (fuu * u1 * u1 + 2.0 * fuv * u1 * v1 + fvv * v1 * v1
          + fu * u2 + fv * v2)
    g3 = (fuuu * u1 ** 3 + 3.0 * fuuv * u1 * u1 * v1
          + 3.0 * fuvv * u1 * v1 * v1 + fvvv * v1 ** 3
          + 3.0 * (fuu * u1 + fuv * v1) * u2
          + 3.0 * (fuv * u1 + fvv * v1) * v2
          + fu * u3 + fv * v3)
    return Jet1(f, g1, g2, g3, 0.0)


def _normal_along_curve(sj, uj, vj):
    return Vec3(_field_along_curve(sj.nj.x, uj, vj),
                _field_along_curve(sj.nj.y, uj, vj),
                _field_along_curve(sj.nj.z, uj, vj))


@dataclass
class CurvatureSplit:
    K_vec: Vec3      # curvature vector dT/ds
    kappa_n: float
    kappa_g: float
    u_vec: Vec3      # geodesic normal n x T
    kappa: float
    T: Vec3
    n: Vec3


def _point_jets(sc, t):
    """(surface jets at the curve point, uv jets)."""
    uj, vj = sc.uv_jets(t)
    return _SurfaceJets(sc.surface, uj.value, vj.value), uj, vj


def _composite_jets(sc, t):
    """_point_jets plus the Frenet kernel of the composite space curve
    r(u(t), v(t)), whose floors follow the surface scale."""
    sj, uj, vj = _point_jets(sc, t)
    return sj, uj, vj, _CurveJets(sc.surface.evaluator(uj, vj),
                                  sc.surface.scale, t)


def _split(sj, cj):
    T = cj.T.value()
    K_vec = cj.ds_vec(cj.T)                        # dT/ds
    n = sj.n
    u_vec = n.cross(T)
    return CurvatureSplit(K_vec=K_vec, kappa_n=n.dot(K_vec),
                          kappa_g=u_vec.dot(K_vec), u_vec=u_vec,
                          kappa=cj.kappa_value, T=T, n=n)


def curvature_split(sc, t):
    """Split of the curvature vector into normal and geodesic parts:
    K = kappa_n n + kappa_g (n x T)."""
    sj, _, _, cj = _composite_jets(sc, t)
    return _split(sj, cj)


def kappa_n_quotient(sc, t):
    """Normal curvature as II/I in the curve's direction."""
    sj, uj, vj = _point_jets(sc, t)
    return _normal_curvature(*sj.EFG, *sj.efg(), (uj.c[1], vj.c[1]))


def kappa_g_extrinsic(sc, t):
    """kappa_g = r''.(n x r') / |r'|^3 (speed-corrected form)."""
    sj, _, _, cj = _composite_jets(sc, t)
    return (cj.rdd.value().dot(sj.n.cross(cj.rd.value()))
            / cj.sigma.value ** 3)


def kappa_g_intrinsic(sc, t):
    """kappa_g from the Christoffel symbols and intrinsic path data."""
    sj, uj, vj, cj = _composite_jets(sc, t)
    s1 = cj.sigma.value
    s2 = cj.sigma.c[1]
    # d/ds and d2/ds2 of the parameters
    u1, v1 = uj.c[1] / s1, vj.c[1] / s1
    u2 = uj.c[2] / s1 ** 2 - uj.c[1] * s2 / s1 ** 3
    v2 = vj.c[2] / s1 ** 2 - vj.c[1] * s2 / s1 ** 3
    g = sj.gamma2()
    sa = sj.sqrt_a
    return sa * (g[1] * u1 ** 3
                 + (2.0 * g[3] - g[0]) * u1 * u1 * v1
                 + (g[5] - 2.0 * g[2]) * u1 * v1 * v1
                 - g[4] * v1 ** 3
                 + u1 * v2 - u2 * v1)


def _geodesic_torsion(sj, uj, vj, cj):
    dn_du, dn_dv = sj.dn()
    n_s = (dn_du * uj.c[1] + dn_dv * vj.c[1]) / cj.sigma.value
    return sj.n.dot(n_s.cross(cj.T.value()))


def geodesic_torsion(sc, t):
    """tau_g = n . (dn/ds x dr/ds) along the curve."""
    return _geodesic_torsion(*_composite_jets(sc, t))


def geodesic_torsion_principal(sc, t):
    """(kappa1 - kappa2) sin th cos th with th the angle from the first
    principal direction to the curve tangent; umbilics are rejected."""
    sj, uj, vj = _point_jets(sc, t)
    cur = _curvatures_from_jets(sj)
    if cur.is_umbilic:
        raise UmbilicPoint("principal-direction route undefined at an umbilic")
    E, F, G = sj.EFG
    d = _metric_unit(E, F, G, (uj.c[1], vj.c[1]))
    p = cur.dir1_uv
    c = _metric_dot(E, F, G, d, p)
    s = sj.sqrt_a * (d[0] * p[1] - d[1] * p[0])
    return (cur.kappa1 - cur.kappa2) * s * c


def _turning_rate(x, y):
    """d/dt of the angle atan2(y, x) of two Jet1 values."""
    x0, y0 = x.value, y.value
    return (x0 * y.c[1] - y0 * x.c[1]) / (x0 * x0 + y0 * y0)


# --------------------------------------------------------------------------
# geodesics
# --------------------------------------------------------------------------

@dataclass
class GeodesicPath:
    surface: object
    s: list                  # arc length samples
    states: list             # (u, v, du/ds, dv/ds) at each sample
    length: float
    left_domain: bool = False   # the path ends at its first sample outside

    @property
    def end_uv(self):
        st = self.states[-1]
        return st[0], st[1]

    def as_curve(self):
        """Quintic-Hermite surface curve through the integrated states
        (second derivatives from the geodesic equations at the knots)."""
        rhs = _geodesic_rhs(self.surface)
        u_vals = [st[0] for st in self.states]
        v_vals = [st[1] for st in self.states]
        u_d1 = [st[2] for st in self.states]
        v_d1 = [st[3] for st in self.states]
        u_d2, v_d2 = [], []
        for s_i, st in zip(self.s, self.states):
            _, _, ddu, ddv = rhs(s_i, st)
            u_d2.append(ddu)
            v_d2.append(ddv)
        cu = HermiteChannel(self.s, u_vals, u_d1, u_d2)
        cv = HermiteChannel(self.s, v_vals, v_d1, v_d2)
        return SurfaceCurve(self.surface, lambda t: (cu(t), cv(t)),
                            (self.s[0], self.s[-1]))


def _geodesic_rhs(surface):
    def rhs(s, y):
        u, v, du, dv = y
        g = metric_and_gamma(surface, u, v).gamma2
        ddu = -(g[0] * du * du + 2.0 * g[2] * du * dv + g[4] * dv * dv)
        ddv = -(g[1] * du * du + 2.0 * g[3] * du * dv + g[5] * dv * dv)
        return (du, dv, ddu, ddv)

    return rhs


def unit_speed_direction(surface, u, v, direction):
    """Scale parameter-space ``direction`` to unit metric speed."""
    md = metric_and_gamma(surface, u, v)
    return _metric_unit(md.E, md.F, md.G,
                        (float(direction[0]), float(direction[1])))


def geodesic_ivp(surface, u0, v0, direction, length, spec=OdeSpec()):
    """Unit-speed geodesic from (u0, v0) in the given parameter direction.

    If the path leaves a non-periodic side of the parameter rectangle the
    integration stops at the first sample outside and the result is
    flagged ``left_domain`` (a partial path whose ``length`` is that
    sample's arc length)."""
    du, dv = unit_speed_direction(surface, u0, v0, direction)
    length = float(length)
    n_samples = max(33, min(513, int(abs(length) * 32) + 1))

    def outside(s, y):
        return not surface.contains(y[0], y[1])

    sol = ode_solve(_geodesic_rhs(surface), (float(u0), float(v0), du, dv),
                    linspace(0.0, length, n_samples), spec, stop=outside)
    return GeodesicPath(surface=surface, s=sol.ts, states=sol.ys,
                        length=sol.ts[-1],
                        left_domain=outside(sol.ts[-1], sol.y_end))


def _orthonormal_frame(E, F, G):
    """Metric-orthonormal frame components: e1 along E1, e2 = Gram-Schmidt."""
    a = E * G - F * F
    e1 = (1.0 / math.sqrt(E), 0.0)
    e2 = (-F / math.sqrt(a * E), math.sqrt(E / a))
    return e1, e2


def _chord(surface, p0, p1):
    """The orthonormal frame at p0, the angle of the parameter-space chord
    p0 -> p1 in it (wrapped over periodic directions) and a metric length
    estimate of the chord."""
    dU, dV = surface.wrap_delta(p1[0] - p0[0], p1[1] - p0[1])
    md = metric_and_gamma(surface, p0[0], p0[1])
    e1, e2 = _orthonormal_frame(md.E, md.F, md.G)
    x = _metric_dot(md.E, md.F, md.G, (dU, dV), e1)
    y = _metric_dot(md.E, md.F, md.G, (dU, dV), e2)
    length = 0.0
    n = 8
    for k in range(n):
        u = p0[0] + dU * (k + 0.5) / n
        v = p0[1] + dV * (k + 0.5) / n
        mdk = metric_and_gamma(surface, u, v)
        length += math.sqrt(max(_metric_dot(mdk.E, mdk.F, mdk.G,
                                            (dU / n, dV / n),
                                            (dU / n, dV / n)), 0.0))
    return e1, e2, math.atan2(y, x), length


# a trial geodesic that raises one of these has run into the chart's edge
_SHOT_ERRORS = (StepUnderflow, MaxStepsExceeded, SingularSurfacePoint,
                OverflowError)


def geodesic_bvp(surface, p0, p1, spec=OdeSpec(), endpoint_tol=1e-6):
    """Shortest connecting geodesic by shooting on the launch angle theta
    and the length s.

    Eight launch angles fan out from the parameter-space chord direction.
    One coarse scan of each ranks it by its sample nearest p1.  From the
    three best, a Broyden iteration solves gamma_theta(s) = p1, starting
    at that sample: each further iterate is one solve over (0, s), the s
    column of the Jacobian is the exact end velocity, and the theta column
    starts as the flat Jacobi field and takes rank-one secant updates.  A
    seed is dropped when its s leaves (0, s_max] or its launch angle comes
    within 1e-4 of a root already found.  If two distinct paths tie in
    length within 1e-8 the ambiguity is reported as DegenerateMultiplicity
    (carrying every tied path).  The returned path is integrated once
    more and must end within endpoint_tol of p1."""
    p0 = (float(p0[0]), float(p0[1]))
    p1 = (float(p1[0]), float(p1[1]))
    e1, e2, theta0, d_chord = _chord(surface, p0, p1)
    if d_chord <= endpoint_tol:
        raise ZeroVector("boundary points coincide")
    s_max = 1.6 * d_chord + 0.01 * (1.0 + d_chord)
    # ranking seeds only needs trajectories good to well below the
    # endpoint tolerance
    scan_spec = replace(spec, tol=max(spec.tol,
                                      min(1e-8, 0.01 * endpoint_tol)))
    goal = 0.01 * endpoint_tol
    rhs = _geodesic_rhs(surface)
    m1 = metric_and_gamma(surface, p1[0], p1[1])

    def launch(theta):
        c, s = math.cos(theta), math.sin(theta)
        return (c * e1[0] + s * e2[0], c * e1[1] + s * e2[1])

    def shoot(theta, ts, at_spec):
        d = launch(theta)
        return ode_solve(rhs, (p0[0], p0[1], d[0], d[1]), ts, at_spec)

    def miss(y):
        """Parameter-space residual y - p1 and its metric length at p1."""
        r = surface.wrap_delta(y[0] - p1[0], y[1] - p1[1])
        return r, math.sqrt(max(_metric_dot(m1.E, m1.F, m1.G, r, r), 0.0))

    seeds = []    # (miss of the nearest sample, seed, theta, its s, state)
    for i in range(_N_SEEDS):
        theta = theta0 + 2.0 * math.pi * i / _N_SEEDS
        try:
            sol = shoot(theta, linspace(0.0, s_max, _N_SCAN), scan_spec)
        except _SHOT_ERRORS as exc:
            sol = exc.partial   # rank on the samples reached
        if len(sol.ts) > 1:
            seeds.append(min((miss(y)[1], i, theta, s, y)
                             for s, y in zip(sol.ts[1:], sol.ys[1:])))
    seeds.sort()
    best = (seeds[0][0], seeds[0][2]) if seeds else (math.inf, theta0)

    solutions = []    # (length, seed, theta); angles at least 1e-4 apart

    def known(theta):
        return any(abs((theta - th + math.pi) % (2.0 * math.pi) - math.pi)
                   < 1e-4 for _, _, th in solutions)

    def converge(i, theta, s, y0):
        """Record in ``solutions`` the root reached from seed i, whose scan
        sample y0 is the first iterate, if any.  A trial that fails or does
        not reduce the miss is not taken: the step from the last accepted
        iterate is halved, at most _N_CUTS times in a row, and the trial's
        secant still corrects the theta column."""
        nonlocal best
        jac = at = None     # at: accepted (theta, s, residual, miss, velocity)
        for it in range(_N_ITER):
            if known(theta):
                return
            try:
                y = shoot(theta, (0.0, s), spec).y_end if it else y0
            except _SHOT_ERRORS:
                y, m = None, math.inf
            else:
                r, m = miss(y)
            if m <= goal:
                solutions.append((s, i, theta))
                return
            best = min(best, (m, theta))
            if y is not None and jac is None:
                # flat Jacobi field: s times the velocity's unit normal
                md = metric_and_gamma(surface, y[0], y[1])
                f = s / math.sqrt(md.a)
                jac = [-(md.F * y[2] + md.G * y[3]) * f,
                       (md.E * y[2] + md.F * y[3]) * f]
            elif y is not None:
                # rank-one secant update; the s column is exact at ``at``
                d_th, d_s = step
                w = d_th / (d_th * d_th + d_s * d_s)
                for c in (0, 1):
                    jac[c] += (r[c] - at[2][c] - jac[c] * d_th
                               - at[4][c] * d_s) * w
            if m < (at[3] if at else math.inf):
                at, cuts = (theta, s, r, m, (y[2], y[3])), 0
                du, dv = at[4]
                det = jac[0] * dv - jac[1] * du
                if det == 0.0:
                    return
                step = ((r[1] * du - r[0] * dv) / det,
                        (jac[1] * r[0] - jac[0] * r[1]) / det)
            elif at is None or cuts == _N_CUTS:
                return
            else:
                step, cuts = (0.5 * step[0], 0.5 * step[1]), cuts + 1
            theta, s = at[0] + step[0], at[1] + step[1]
            if not 0.0 < s <= s_max:
                return

    for _, i, theta, s, y in seeds[:3]:
        converge(i, theta, s, y)

    def build(theta, s):
        path = geodesic_ivp(surface, p0[0], p0[1], launch(theta), s, spec)
        m = miss(path.end_uv)[1]
        if m > endpoint_tol:
            raise NoConvergence(
                f"geodesic shooting failed: built path ends {m:.3e} from "
                f"the target", best=(theta, m))
        return path

    if not solutions:
        raise NoConvergence(
            f"geodesic shooting failed: best endpoint distance "
            f"{best[0]:.3e}", best=(best[1], best[0]))

    solutions.sort()
    ties = [rec for rec in solutions if rec[0] - solutions[0][0] <= 1e-8]
    if len(ties) > 1:
        raise DegenerateMultiplicity([build(th, s) for s, _, th in ties])
    return build(solutions[0][2], solutions[0][0])


# --------------------------------------------------------------------------
# parallel transport
# --------------------------------------------------------------------------

@dataclass
class TransportState:
    curve: object
    ts: list
    components: list     # (A1, A2) samples
    norms: list          # metric norms |A|
    frame_angles: list   # unwrapped angle in the orthonormal frame

    @property
    def holonomy(self):
        """Net frame rotation over the whole path (closed loops: the
        holonomy angle)."""
        return self.frame_angles[-1] - self.frame_angles[0]

    def angles_to_initial(self):
        base = self.frame_angles[0]
        return [a - base for a in self.frame_angles]


def parallel_transport(sc, A0, spec=OdeSpec()):
    """Transport surface-vector components A along the curve:
    dA^a/dt = -G^a_bc A^c du^b/dt."""
    t0, t1 = sc.domain

    def rhs(t, y):
        uj, vj = sc.uv_jets(t)
        g = metric_and_gamma(sc.surface, uj.value, vj.value).gamma2
        du, dv = uj.c[1], vj.c[1]
        A1, A2 = y
        dA1 = -(g[0] * du * A1 + g[2] * (du * A2 + dv * A1) + g[4] * dv * A2)
        dA2 = -(g[1] * du * A1 + g[3] * (du * A2 + dv * A1) + g[5] * dv * A2)
        return (dA1, dA2)

    sol = ode_solve(rhs, (float(A0[0]), float(A0[1])),
                    linspace(t0, t1, _N_TRANSPORT), spec)
    ts, comps = sol.ts, sol.ys

    norms, angles = [], []
    prev = None
    for t, (A1, A2) in zip(ts, comps):
        u, v = sc.point(t)
        md = metric_and_gamma(sc.surface, u, v)
        E, F, G = md.E, md.F, md.G
        norms.append(math.sqrt(max(_metric_dot(E, F, G, (A1, A2), (A1, A2)),
                                   0.0)))
        e1, e2 = _orthonormal_frame(E, F, G)
        x = _metric_dot(E, F, G, (A1, A2), e1)
        y_ = _metric_dot(E, F, G, (A1, A2), e2)
        ang = math.atan2(y_, x)
        if prev is not None:
            while ang - prev > math.pi:
                ang -= 2.0 * math.pi
            while ang - prev < -math.pi:
                ang += 2.0 * math.pi
        angles.append(ang)
        prev = ang
    return TransportState(curve=sc, ts=ts, components=comps, norms=norms,
                          frame_angles=angles)


# --------------------------------------------------------------------------
# direction fields
# --------------------------------------------------------------------------

def asymptotic_directions(surface, u, v):
    """Metric-unit directions with zero normal curvature.

    Returns the string 'all' at flat points, else a list of 0, 1 or 2
    (du, dv) pairs."""
    sj = _SurfaceJets(surface, u, v)
    cur = _curvatures_from_jets(sj)
    if cur.shape == "Flat":
        return "all"
    if cur.shape == "Elliptic":
        return []
    e, f, g = sj.efg()
    disc = max(-(e * g - f * f), 0.0)
    rt = math.sqrt(disc)
    b_scale = max(abs(e), abs(f), abs(g))
    dirs = []
    if max(abs(e), abs(g)) <= 1e-14 * b_scale:
        # purely off-diagonal form: 2 f du dv = 0
        dirs = [(1.0, 0.0), (0.0, 1.0)]
    elif abs(e) >= abs(g):
        for sign in (1.0, -1.0):
            dirs.append(((-f + sign * rt) / e, 1.0))
    else:
        for sign in (1.0, -1.0):
            dirs.append((1.0, (-f + sign * rt) / g))
    if cur.shape == "Parabolic":
        dirs = dirs[:1]
    return [_metric_unit(*sj.EFG, d) for d in dirs]


def principal_direction_field(surface, u, v):
    """Two metric-unit principal directions plus their Rodrigues defects
    |dn + kappa_i dr| (per metric-unit step)."""
    sj = _SurfaceJets(surface, u, v)
    cur = _curvatures_from_jets(sj)
    if cur.is_umbilic:
        raise UmbilicPoint(f"no principal directions at ({u!r}, {v!r})")
    dn_du, dn_dv = sj.dn()
    out_dirs, out_res = [], []
    for d, kap in ((cur.dir1_uv, cur.kappa1), (cur.dir2_uv, cur.kappa2)):
        dn = dn_du * d[0] + dn_dv * d[1]
        dr = sj.E1 * d[0] + sj.E2 * d[1]
        out_dirs.append(d)
        out_res.append((dn + dr * kap).norm())
    return tuple(out_dirs), tuple(out_res)


def conjugate_direction(surface, u, v, direction):
    """The direction conjugate to ``direction``: b(d, delta) = 0."""
    sj = _SurfaceJets(surface, u, v)
    e, f, g = sj.efg()
    d1, d2 = float(direction[0]), float(direction[1])
    w1 = e * d1 + f * d2
    w2 = f * d1 + g * d2
    b_scale = max(abs(e), abs(f), abs(g)) * math.hypot(d1, d2)
    if math.hypot(w1, w2) <= 1e-10 * max(b_scale, 1e-30) or b_scale == 0.0:
        raise NoUniqueConjugate(
            "the second fundamental form degenerates along this direction")
    return _metric_unit(*sj.EFG, (-w2, w1))


def asymptotic_line_trace(surface, start, length, branch=0):
    """Trace an asymptotic line by integrating the chosen direction branch
    (continuity-corrected sign), returning it as a SurfaceCurve.

    The curve is a quintic Hermite interpolant whose knots' second
    derivatives are the library's one finite difference: a central
    difference of the direction field with step 1e-6, good to about 1e-10
    (rounding over the step), not to machine precision."""
    state = {"last": None}

    def direction(u, v):
        dirs = asymptotic_directions(surface, u, v)
        if dirs == "all" or not dirs:
            raise AsymptoticPoint(
                f"no discrete asymptotic direction at ({u!r}, {v!r})")
        if state["last"] is None:
            d = dirs[min(branch, len(dirs) - 1)]
        else:
            lx, ly = state["last"]
            best, best_dot = None, -2.0
            for cand in dirs:
                for sgn in (1.0, -1.0):
                    dd = (sgn * cand[0], sgn * cand[1])
                    dot = dd[0] * lx + dd[1] * ly
                    if dot > best_dot:
                        best, best_dot = dd, dot
            d = best
        state["last"] = d
        return d

    def rhs(s, y):
        return direction(y[0], y[1])

    sol = ode_solve(rhs, (float(start[0]), float(start[1])),
                    linspace(0.0, length, _N_ASYMPTOTIC))
    ss = sol.ts
    us = [y[0] for y in sol.ys]
    vs = [y[1] for y in sol.ys]
    d1u, d1v, d2u, d2v = [], [], [], []
    h = 1e-6
    for s, u, v in zip(ss, us, vs):
        state["last"] = None if s == ss[0] else state["last"]
        du, dv = direction(u, v)
        d1u.append(du)
        d1v.append(dv)
        # second derivative: directional derivative of the field
        dp = direction(u + h * du, v + h * dv)
        dm = direction(u - h * du, v - h * dv)
        d2u.append((dp[0] - dm[0]) / (2.0 * h))
        d2v.append((dp[1] - dm[1]) / (2.0 * h))
        state["last"] = (du, dv)
    cu = HermiteChannel(ss, us, d1u, d2u)
    cv = HermiteChannel(ss, vs, d1v, d2v)
    return SurfaceCurve(surface, lambda t: (cu(t), cv(t)), (ss[0], ss[-1]))


# --------------------------------------------------------------------------
# Gauss-Bonnet
# --------------------------------------------------------------------------

@dataclass
class BoundaryLoop:
    """Piecewise boundary of a simply connected parameter region.

    ``arcs`` run end-to-start in order; ``corner_angles[j]`` is the exterior
    angle where arc j meets arc j+1 (None = compute from one-sided
    tangents); ``region_rects`` decompose the enclosed parameter region for
    the area integral."""

    arcs: list
    corner_angles: list
    region_rects: list

    def validate(self):
        """Arcs must connect end-to-start in ambient space (so boundaries
        through chart poles or seams still count as closed)."""
        n = len(self.arcs)
        if n == 0:
            raise OpenLoop("boundary has no arcs")
        for j, arc in enumerate(self.arcs):
            nxt = self.arcs[(j + 1) % n]
            p_end = arc.space_jets(arc.domain[1]).value()
            p_start = nxt.space_jets(nxt.domain[0]).value()
            scale = arc.surface.scale
            if (p_end - p_start).norm() > EPS_CLOSED * scale:
                ue, ve = arc.point(arc.domain[1])
                us, vs = nxt.point(nxt.domain[0])
                raise OpenLoop(
                    f"arc {j} ends at ({ue:.6g}, {ve:.6g}) but arc "
                    f"{(j + 1) % n} starts at ({us:.6g}, {vs:.6g})")


@dataclass
class GaussBonnetBudget:
    sum_kg: float
    sum_angles: float
    total_K: float

    @property
    def defect(self):
        return self.sum_kg + self.sum_angles + self.total_K - 2.0 * math.pi


def _exterior_angle(arc_in, arc_out):
    """Signed exterior angle between one-sided tangents at a junction."""
    surface = arc_in.surface
    uj, vj = arc_in.uv_jets(arc_in.domain[1])
    t_in = (uj.c[1], vj.c[1])
    u0, v0 = uj.value, vj.value
    uj2, vj2 = arc_out.uv_jets(arc_out.domain[0])
    t_out = (uj2.c[1], vj2.c[1])
    sj = _SurfaceJets(surface, u0, v0)
    cross = sj.sqrt_a * (t_in[0] * t_out[1] - t_in[1] * t_out[0])
    return math.atan2(cross, _metric_dot(*sj.EFG, t_in, t_out))


def gauss_bonnet_local(surface, loop, spec=QuadSpec(tol=1e-7)):
    """Boundary + corner + area budget of the local Gauss-Bonnet theorem;
    the defect is the deviation of the total from 2 pi."""
    loop.validate()
    sum_kg = 0.0
    for arc in loop.arcs:
        def integrand(t, arc=arc):
            sj, _, _, cj = _composite_jets(arc, t)
            kappa_g = sj.n.cross(cj.T.value()).dot(cj.ds_vec(cj.T))
            return kappa_g * cj.sigma.value

        sum_kg += quad_adaptive(integrand, arc.domain, spec)

    sum_angles = 0.0
    n = len(loop.arcs)
    for j in range(n):
        phi = loop.corner_angles[j] if loop.corner_angles else None
        if phi is None:
            phi = _exterior_angle(loop.arcs[j], loop.arcs[(j + 1) % n])
        sum_angles += phi

    total_K = 0.0
    for rect in loop.region_rects:
        total_K += total_curvature(surface, rect, spec)
    return GaussBonnetBudget(sum_kg=sum_kg, sum_angles=sum_angles,
                             total_K=total_K)


def gauss_bonnet_global(surface, rect, chi, spec=QuadSpec(tol=1e-7)):
    """(total curvature, defect vs 2 pi chi) over a closure rectangle."""
    total = total_curvature(surface, rect, spec)
    return total, total - 2.0 * math.pi * chi


# --------------------------------------------------------------------------
# Liouville and Bonnet checks
# --------------------------------------------------------------------------

def liouville_check(sc, t):
    """Defect of kappa_g = dphi/ds + kappa_u cos(phi) + kappa_v sin(phi)
    on an orthogonal patch (F = 0)."""
    sj, uj, vj, cj = _composite_jets(sc, t)
    E_j, F_j, G_j = sj.a11, sj.a12, sj.a22
    scale2 = max(1.0, sc.surface.scale * sc.surface.scale)
    if abs(F_j.value) > 1e-9 * scale2:
        raise NonOrthogonalPatch(
            f"F = {F_j.value!r} at t={t!r}; Liouville needs orthogonal "
            "coordinate curves")
    E, G = E_j.value, G_j.value
    Ev = E_j.c[2]
    Gu = G_j.c[1]
    kappa_u = -Ev / (2.0 * E * math.sqrt(G))
    kappa_v = Gu / (2.0 * G * math.sqrt(E))

    # phi(t) through jets: x = sqrt(E) du/dt, y = sqrt(G) dv/dt
    x = jets.sqrt(_field_along_curve(E_j, uj, vj)) * uj.derivative()
    y = jets.sqrt(_field_along_curve(G_j, uj, vj)) * vj.derivative()
    dphi_ds = _turning_rate(x, y) / cj.sigma.value
    phi = math.atan2(y.value, x.value)

    kg = _split(sj, cj).kappa_g
    return kg - (dphi_ds + kappa_u * math.cos(phi) + kappa_v * math.sin(phi))


def bonnet_torsion_check(sc, t):
    """Defect of the Bonnet relation between geodesic torsion, torsion and
    the turning rate of the principal normal against the surface normal.

    With the signed angle phi = atan2((n x T).N, n.N), expanding the Frenet
    system in the oriented Darboux frame (T, n x T, n) gives
    tau_g = tau + dphi/ds; the unsigned-arccos statement of the formula
    matches after orienting the angle."""
    sj, uj, vj, cj = _composite_jets(sc, t)
    T, N, _ = cj.frame_jets()
    split = _split(sj, cj)
    if abs(split.kappa_n) <= 1e-9 * max(1.0, split.kappa):
        raise AsymptoticPoint(
            f"Bonnet formula does not apply along asymptotic direction "
            f"at t={t!r}")
    n_t = _normal_along_curve(sj, uj, vj)
    u_t = n_t.cross(T)                 # geodesic normal along the curve
    # signed angle of N in the (n, u) frame: phi = atan2(N.u, N.n)
    dphi_ds = _turning_rate(n_t.dot(N), u_t.dot(N)) / cj.sigma.value
    tau_g = _geodesic_torsion(sj, uj, vj, cj)
    return tau_g - (cj.tau_jet().value + dphi_ds)
