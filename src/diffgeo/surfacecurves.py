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
from .roots import root_find
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


def _direction_from_angle(surface, u, v, theta):
    md = metric_and_gamma(surface, u, v)
    e1, e2 = _orthonormal_frame(md.E, md.F, md.G)
    c, s = math.cos(theta), math.sin(theta)
    return (c * e1[0] + s * e2[0], c * e1[1] + s * e2[1])


def _chord(surface, p0, p1):
    """Initial shooting angle and a metric length estimate of the
    parameter-space chord p0 -> p1 (wrapped over periodic directions)."""
    dU, dV = surface.wrap_delta(p1[0] - p0[0], p1[1] - p0[1])
    md = metric_and_gamma(surface, p0[0], p0[1])
    e1, e2 = _orthonormal_frame(md.E, md.F, md.G)
    x = _metric_dot(md.E, md.F, md.G, (dU, dV), e1)
    y = _metric_dot(md.E, md.F, md.G, (dU, dV), e2)
    theta = math.atan2(y, x)
    length = 0.0
    n = 8
    for k in range(n):
        u = p0[0] + dU * (k + 0.5) / n
        v = p0[1] + dV * (k + 0.5) / n
        mdk = metric_and_gamma(surface, u, v)
        length += math.sqrt(max(_metric_dot(mdk.E, mdk.F, mdk.G,
                                            (dU / n, dV / n),
                                            (dU / n, dV / n)), 0.0))
    return theta, length


class _Shot:
    """One trajectory of the shooting problem with closest-approach data.

    One solve samples the trajectory at ``_N_SCAN`` points and silently
    truncates if the trial heads into a chart singularity; a truncated shot
    simply scores its closest approach over the samples it reached."""

    _N_SCAN = 48

    def __init__(self, surface, p0, theta, target, s_max, spec):
        self.surface = surface
        self.theta = theta
        rhs = _geodesic_rhs(surface)
        d = _direction_from_angle(surface, p0[0], p0[1], theta)
        y0 = (p0[0], p0[1], d[0], d[1])
        try:
            sol = ode_solve(rhs, y0, linspace(0.0, s_max, self._N_SCAN), spec)
        except (StepUnderflow, MaxStepsExceeded, SingularSurfacePoint,
                OverflowError) as exc:
            sol = exc.partial
        self.ts, self.ys = sol.ts, sol.ys
        self.target = target

        def dist_sq(idx):
            y = self.ys[idx]
            du, dv = surface.wrap_delta(target[0] - y[0], target[1] - y[1])
            return du * du + dv * dv

        best = min(range(len(self.ts)), key=dist_sq)
        self.s_star, self.state_star = self._refine(rhs, best, spec)
        du, dv = surface.wrap_delta(target[0] - self.state_star[0],
                                    target[1] - self.state_star[1])
        md = metric_and_gamma(surface, self.state_star[0], self.state_star[1])
        self.miss_dist = math.sqrt(max(
            _metric_dot(md.E, md.F, md.G, (du, dv), (du, dv)), 0.0))
        cross = self.state_star[2] * dv - self.state_star[3] * du
        self.miss = math.copysign(self.miss_dist, cross) if cross != 0.0 else 0.0

    def _refine(self, rhs, idx, spec):
        lo = max(idx - 1, 0)
        hi = min(idx + 1, len(self.ts) - 1)
        base_s, base_y = self.ts[lo], self.ys[lo]
        cache = {}

        def state(s):
            if s not in cache:
                if s == base_s:
                    cache[s] = base_y
                else:
                    cache[s] = ode_solve(rhs, base_y, (base_s, s), spec).y_end
            return cache[s]

        def proj(s):
            y = state(s)
            du, dv = self.surface.wrap_delta(self.target[0] - y[0],
                                             self.target[1] - y[1])
            return -(du * y[2] + dv * y[3])

        a, b = self.ts[lo], self.ts[hi]
        pa, pb = proj(a), proj(b)
        if pa >= 0.0:  # not approaching: closest approach at segment start
            return a, state(a)
        if pb < 0.0:  # still approaching at segment end
            return b, state(b)
        try:
            s_star = root_find(proj, (a, b), tol=1e-12, max_iter=60)
        except NoConvergence as exc:
            s_star = exc.best[0]
        return s_star, state(s_star)


def geodesic_bvp(surface, p0, p1, spec=OdeSpec(), endpoint_tol=1e-6):
    """Shortest connecting geodesic by single shooting on the launch angle.

    Seeds fan out from the parameter-space chord direction.  Converged
    solutions are deduplicated by angle; if two distinct paths tie in
    length within 1e-8 the ambiguity is reported as
    DegenerateMultiplicity (carrying every tied path).  No launch angle is
    integrated twice at the same tolerance."""
    p0 = (float(p0[0]), float(p0[1]))
    p1 = (float(p1[0]), float(p1[1]))
    theta0, d_chord = _chord(surface, p0, p1)
    if d_chord <= endpoint_tol:
        raise ZeroVector("boundary points coincide")
    s_max = 1.6 * d_chord + 0.01 * (1.0 + d_chord)
    # the angle search only needs trajectories good to well below the
    # endpoint tolerance; full accuracy is restored in the polish stage
    scan_spec = replace(spec, tol=max(spec.tol,
                                      min(1e-8, 0.01 * endpoint_tol)))
    shots = {}

    def shot_at(theta, at_spec=scan_spec):
        key = (theta, at_spec)
        if key not in shots:
            shots[key] = _Shot(surface, p0, theta, p1, s_max, at_spec)
        return shots[key]

    seeds = [theta0 + 2.0 * math.pi * k / _N_SEEDS for k in range(_N_SEEDS)]
    probes = [shot_at(th) for th in seeds]
    order = sorted(range(_N_SEEDS), key=lambda i: abs(probes[i].miss))
    attempt = {i for i in order[:3]}
    attempt |= {i for i in range(_N_SEEDS)
                if abs(probes[i].miss) <= 10.0 * endpoint_tol}

    solutions = []
    best_shot = probes[order[0]]
    twopi = 2.0 * math.pi
    for i in sorted(attempt):
        th = seeds[i]
        shot = probes[i]
        near_solution = abs(shot.miss) <= 10.0 * endpoint_tol
        if not near_solution and any(
                abs((th - th2 + math.pi) % twopi - math.pi)
                <= twopi / _N_SEEDS + 0.3 for _, th2, _ in solutions):
            continue  # adjacent seed would converge to a known root
        if abs(shot.miss) > endpoint_tol:
            try:
                th = root_find(lambda x: shot_at(x).miss, (th, th + 0.05),
                               tol=0.3 * endpoint_tol, max_iter=28)
            except NoConvergence as exc:
                if exc.best is not None:
                    cand = shot_at(exc.best[0])
                    if cand.miss_dist < best_shot.miss_dist:
                        best_shot = cand
                continue
        # polish at the caller's tolerance; no second secant, since the
        # scan already ran at endpoint_tol / 100 or tighter
        polished = shot_at(th, spec)
        if polished.miss_dist < best_shot.miss_dist:
            best_shot = polished
        if polished.miss_dist <= endpoint_tol:
            solutions.append((i, th, polished))

    if not solutions:
        raise NoConvergence(
            f"geodesic shooting failed: best endpoint distance "
            f"{best_shot.miss_dist:.3e}", best=(best_shot.theta,
                                                best_shot.miss_dist))

    # deduplicate by launch angle modulo 2 pi (seed order wins)
    distinct = []
    for i, th, shot in solutions:
        if any(abs((th - th2 + math.pi) % twopi - math.pi) < 1e-4
               for _, th2, _ in distinct):
            continue
        distinct.append((i, th, shot))

    def build(shot):
        d = _direction_from_angle(surface, p0[0], p0[1], shot.theta)
        return geodesic_ivp(surface, p0[0], p0[1], d, shot.s_star, spec)

    distinct.sort(key=lambda rec: (rec[2].s_star, rec[0]))
    shortest = distinct[0]
    ties = [rec for rec in distinct
            if abs(rec[2].s_star - shortest[2].s_star) <= 1e-8]
    if len(ties) > 1:
        raise DegenerateMultiplicity([build(rec[2]) for rec in ties])
    return build(shortest[2])


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
            return _split(sj, cj).kappa_g * cj.sigma.value

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
    scale2 = max(1.0, sc.surface.scale ** 2)
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
