"""Curves on surfaces: the normal/geodesic curvature split, geodesic
torsion, geodesic initial- and boundary-value problems, parallel transport
and holonomy, asymptotic/principal/conjugate directions, Liouville and
Bonnet checks, and the local/global Gauss-Bonnet budgets.

A surface curve is a parameter-plane path t -> (u(t), v(t)) over a host
surface, given by its float kernel: the Taylor coefficients of u and v at
t, as five rows (u_k, v_k).  The built-in lines and parabolas write them
directly, 'surfacecurve' definitions and loop arcs run generated order-4
code, and Hermite paths (geodesics, asymptotic lines) read their
quintics.  A jet-generic Python function of t makes a kernel through
:func:`jet_kernel`, recorded once as generated code, as a definition is.
The surface's composite kernel, order-4 code
generated per surface template with those rows as jet inputs, carries
them through r(u(t), v(t)), so space-curve derivatives (up to fourth
order) are exact; the speed, Frenet frame, curvature and torsion come
from ``curves._CurveJets``.  Surface fields along the curve (the normal,
metric coefficients) are composed from the pointwise values and first
partials with the chain rule, in Jet1 arithmetic recorded once as float
code (``expr.jet_program``).  The geodesic and parallel-transport
equations are surface programs over one tangent projection (``_accel``),
and each carries the Dormand-Prince attempt that ``ode_solve`` steps it
with, its lines written into every stage.
"""

import math

from .curves import _CurveJets
from .errors import (AsymptoticPoint, DegenerateMultiplicity,
                     MaxStepsExceeded, NoConvergence, NonOrthogonalPatch,
                     NoUniqueConjugate, OpenLoop, SingularSurfacePoint,
                     StepUnderflow, UmbilicPoint, ZeroVector)
from .expr import jet_program, position_kernel, recorded
from .interpolate import HermiteChannel, taylor_kernel
from .ode import OdeSpec, linspace, ode_solve
from .quadrature import QuadSpec, quad_adaptive
from .records import Record
from .surfaces import (_curvatures, _metric_dot, _metric_unit,
                       _normal_curvature, _overflow, _point, _regular,
                       metric_and_gamma, total_curvature)
from .vectors import Vec3

__all__ = [
    "SurfaceCurve", "jet_kernel", "CurvatureSplit", "GeodesicPath",
    "TransportState", "BoundaryLoop", "GaussBonnetBudget",
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
    """t -> (u(t), v(t)) on a host surface, given by its float kernel.

    ``kernel(t)`` gives, at a float t, the five rows (u_k, v_k) of the
    curve's Taylor coefficients (plain derivatives, k = 0..4).  A
    jet-generic Python function of t makes a kernel through
    :func:`jet_kernel`.
    """

    def __init__(self, surface, kernel, domain):
        self.surface = surface
        self.kernel = kernel
        self.domain = (float(domain[0]), float(domain[1]))

    @staticmethod
    def const_v(surface, v0):
        """The u-coordinate sweep at fixed v (a latitude-style loop)."""
        def kernel(t):
            t = float(t)
            return tuple(zip((t, 1.0, 0.0, 0.0, 0.0), _line(v0, 0.0, t)))

        return SurfaceCurve(surface, kernel, surface.domain[0:2])

    @staticmethod
    def const_u(surface, u0):
        """The v-coordinate sweep at fixed u (a meridian-style loop)."""
        def kernel(t):
            t = float(t)
            return tuple(zip(_line(u0, 0.0, t), (t, 1.0, 0.0, 0.0, 0.0)))

        return SurfaceCurve(surface, kernel, surface.domain[2:4])

    @staticmethod
    def straight(surface, p0, direction, domain=(0.0, 1.0)):
        """Parameter-space straight line p0 + t * direction."""
        def kernel(t):
            return tuple(zip(_line(p0[0], direction[0], t),
                             _line(p0[1], direction[1], t)))

        return SurfaceCurve(surface, kernel, domain)

    @staticmethod
    def quadratic(surface, p0, direction, bend, domain):
        """Parameter-space parabola p0 + t * direction + t^2 * bend."""
        def kernel(t):
            return tuple(zip(_quadratic(p0[0], direction[0], bend[0], t),
                             _quadratic(p0[1], direction[1], bend[1], t)))

        return SurfaceCurve(surface, kernel, domain)

    @staticmethod
    def of_definition(surface, definition):
        """A 'surfacecurve' definition over ``surface``: rows from its
        generated order-4 kernel, at parameter values in its domain
        (DomainError outside, as ``definition.eval`` raises)."""
        (domain,) = definition.params.values()
        rows = position_kernel(definition, 4)

        def kernel(t):
            definition.check_domain(t)
            return rows(t)

        return SurfaceCurve(surface, kernel, domain)

    def point(self, t):
        return self.kernel(t)[0]


def jet_kernel(uv):
    """The kernel of the surface curve ``uv``, a jet-generic Python
    function of t that returns a (u, v) pair: floats t -> the five rows of
    their Jet1 coefficients at the variable t, from code recorded on the
    first call (``expr.recorded``)."""
    return recorded(uv)


def _line(p, d, t):
    """The coefficients of p + t * d for the Jet1 variable t, rounded as
    Jet1 rounds them (zeros and their signs included); with d = 0.0, those
    of t * 0.0 + p."""
    z = t * 0.0
    h = 0.0 * d + 0.0 + z
    return t * d + p, d + z + 0.0, h, h, h


def _quadratic(p, d, q, t):
    """The same for p + d * t + q * t * t: the line plus the Jet1 product
    of q t (c) with the variable t, written out term by term."""
    z = t * 0.0
    c0, c1, c2 = t * q, q + z, 0.0 * q + 0.0 + z      # q t
    return tuple(a + b for a, b in zip(_line(p, d, t), (
        c0 * t, c1 * t + c0, c2 * t + 2.0 * c1 + c0 * 0.0,
        c2 * t + 3.0 * c2 + 3.0 * c1 * 0.0 + c0 * 0.0,
        c2 * t + 4.0 * c2 + 6.0 * c2 * 0.0 + 4.0 * c1 * 0.0 + c0 * 0.0)))


def _field_along_curve(rec, f, fu, fv, du, dv):
    """The jet of a surface scalar field with value ``f`` and partials
    ``fu``, ``fv`` at the point, along a curve with parameter velocity
    (du, dv): exact through order 1, its higher coefficients zero (the
    callers' turning rates read orders 0 and 1 only)."""
    return rec.jet(f, fu * du + fv * dv)


def _normal_along_curve(rec, n, dn, du, dv):
    """The jet of the unit normal ``n`` along the curve, from dn/du and
    dn/dv (``dn``, six terms)."""
    return Vec3(*(_field_along_curve(rec, n[i], dn[i], dn[3 + i], du, dv)
                  for i in range(3)))


class CurvatureSplit(Record):
    """The curvature vector ``K_vec`` = dT/ds, its normal and geodesic
    parts ``kappa_n`` and ``kappa_g``, the geodesic normal ``u_vec`` = n x T,
    kappa, T and n."""

    __slots__ = _fields = ("K_vec", "kappa_n", "kappa_g", "u_vec", "kappa",
                           "T", "n")

    def __init__(self, K_vec, kappa_n, kappa_g, u_vec, kappa, T, n):
        self.K_vec = K_vec
        self.kappa_n = kappa_n
        self.kappa_g = kappa_g
        self.u_vec = u_vec
        self.kappa = kappa
        self.T = T
        self.n = n


def _point_rows(sc, t):
    """(the surface point under the curve point, the curve's rows at t)."""
    k = sc.kernel(t)
    return _point(sc.surface, *k[0]), k


def _composite(sc, t):
    """_point_rows plus the Frenet kernel of the composite space curve
    r(u(t), v(t)), whose floors follow the surface scale."""
    p, k = _point_rows(sc, t)
    scale = sc.surface.scale
    try:
        cj = _CurveJets(sc.surface.composite(k), scale, t)
    except (OverflowError, ZeroDivisionError):
        raise _overflow(p.u, p.v) from None
    return p, k, cj


def _split(p, cj):
    T = cj.T
    K_vec = cj.dT_ds
    n = p.n
    u_vec = n.cross(T)
    return CurvatureSplit(K_vec=K_vec, kappa_n=n.dot(K_vec),
                          kappa_g=u_vec.dot(K_vec), u_vec=u_vec,
                          kappa=cj.kappa_value, T=T, n=n)


def curvature_split(sc, t):
    """Split of the curvature vector into normal and geodesic parts:
    K = kappa_n n + kappa_g (n x T)."""
    p, _, cj = _composite(sc, t)
    return _split(p, cj)


def kappa_n_quotient(sc, t):
    """Normal curvature as II/I in the curve's direction."""
    p, k = _point_rows(sc, t)
    return _normal_curvature(*p.EFG, *p.efg, k[1])


def kappa_g_extrinsic(sc, t):
    """kappa_g = r''.(n x r') / |r'|^3 (speed-corrected form)."""
    p, _, cj = _composite(sc, t)
    return cj.rdd.dot(p.n.cross(cj.rd)) / cj.sigma[0] ** 3


def kappa_g_intrinsic(sc, t):
    """kappa_g from the Christoffel symbols and intrinsic path data."""
    p, k, cj = _composite(sc, t)
    s1, s2 = cj.sigma[:2]
    (du, dv), (ddu, ddv) = k[1], k[2]
    # d/ds and d2/ds2 of the parameters
    u1, v1 = du / s1, dv / s1
    u2 = ddu / s1 ** 2 - du * s2 / s1 ** 3
    v2 = ddv / s1 ** 2 - dv * s2 / s1 ** 3
    g = p.gamma2
    sa = p.sqrt_a
    return sa * (g[1] * u1 ** 3
                 + (2.0 * g[3] - g[0]) * u1 * u1 * v1
                 + (g[5] - 2.0 * g[2]) * u1 * v1 * v1
                 - g[4] * v1 ** 3
                 + u1 * v2 - u2 * v1)


def _geodesic_torsion(p, k, cj):
    dn, (du, dv), s = p.dn, k[1], cj.sigma[0]
    n_s = Vec3(*((dn[i] * du + dn[3 + i] * dv) / s for i in range(3)))
    return p.n.dot(n_s.cross(cj.T))


def geodesic_torsion(sc, t):
    """tau_g = n . (dn/ds x dr/ds) along the curve."""
    return _geodesic_torsion(*_composite(sc, t))


def geodesic_torsion_principal(sc, t):
    """(kappa1 - kappa2) sin th cos th with th the angle from the first
    principal direction to the curve tangent; umbilics are rejected."""
    p, k = _point_rows(sc, t)
    cur = _curvatures(p)
    if cur.is_umbilic:
        raise UmbilicPoint("principal-direction route undefined at an umbilic")
    E, F, G = p.EFG
    d = _metric_unit(E, F, G, k[1])
    d1 = cur.dir1_uv
    c = _metric_dot(E, F, G, d, d1)
    s = p.sqrt_a * (d[0] * d1[1] - d[1] * d1[0])
    return (cur.kappa1 - cur.kappa2) * s * c


def _turning_rate(x, y):
    """d/dt of the angle atan2(y, x) of two jets."""
    x0, y0 = x[0], y[0]
    return (x0 * y[1] - y0 * x[1]) / (x0 * x0 + y0 * y0)


# --------------------------------------------------------------------------
# geodesics
# --------------------------------------------------------------------------

class GeodesicPath(Record):
    """Arc length samples ``s``, the state (u, v, du/ds, dv/ds) at each and
    the length; ``left_domain``: the path ends at its first sample outside
    the domain."""

    __slots__ = _fields = ("surface", "s", "states", "length", "left_domain")

    def __init__(self, surface, s, states, length, left_domain=False):
        self.surface = surface
        self.s = s
        self.states = states
        self.length = length
        self.left_domain = left_domain

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
        return SurfaceCurve(self.surface, taylor_kernel((cu, cv)),
                            (self.s[0], self.s[-1]))


def _accel(rec, u, v, X, Y):
    """-Gamma^k_ij X^i Y^j (k = 1, 2) at the regular point (u, v), recorded
    into a surface program (``rec``, see ``ParametricSurface.program``) by
    tangent projection (do Carmo, *Differential Geometry of Curves and
    Surfaces*, 4-3): with w = r_ij X^i Y^j, Gamma^k_ij X^i Y^j is
    g^kl <r_l, w>, so one 3-vector, two dot products and the 2x2 solve by
    the inverse metric, from the order-2 kernel triples alone."""
    ru, rv, ruu, ruv, rvv = (Vec3(*r)
                             for r in rec.kernel(u, v, _overflow)[1:])
    E, F, G = ru.dot(ru), ru.dot(rv), rv.dot(rv)
    a = E * G - F * F
    _regular(rec, a, E + G, u, v)
    w = (ruu * (X[0] * Y[0]) + ruv * (X[0] * Y[1] + X[1] * Y[0])
         + rvv * (X[1] * Y[1]))
    p, q = ru.dot(w), rv.dot(w)
    inv_a = 1.0 / a
    return (F * q - G * p) * inv_a, (F * p - E * q) * inv_a


def _geodesic(rec, s, y):
    """The geodesic equations as the first-order field
    (s, (u, v, u', v')) -> (u', v', u'', v''), with
    (u'', v'') = -Gamma(X, X) for X = (u', v'), recorded into one program
    per surface template that carries its fused attempt."""
    u, v, du, dv = y
    return (du, dv, *_accel(rec, u, v, (du, dv), (du, dv)))


def _geodesic_rhs(surface):
    return surface.program(_geodesic, (1, 4))


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


def _orthonormal_frame(md):
    """Metric-orthonormal frame components from a MetricData: e1 along E1,
    e2 = Gram-Schmidt."""
    E, F, a = md.E, md.F, md.a
    e1 = (1.0 / math.sqrt(E), 0.0)
    e2 = (-F / math.sqrt(a * E), math.sqrt(E / a))
    return e1, e2


def _chord(surface, p0, p1):
    """The orthonormal frame at p0, the angle of the parameter-space chord
    p0 -> p1 in it (wrapped over periodic directions) and a metric length
    estimate of the chord."""
    dU, dV = surface.wrap_delta(p1[0] - p0[0], p1[1] - p0[1])
    md = metric_and_gamma(surface, p0[0], p0[1])
    e1, e2 = _orthonormal_frame(md)
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
    One coarse scan of each ranks it by its sample nearest p1; its steps
    follow error control alone, and the samples are read from the
    integrator's continuous extension.  From the three best, a Broyden
    iteration solves gamma_theta(s) = p1, starting at that sample: each
    further iterate is one solve over (0, s), the s column of the Jacobian
    is the exact end velocity, and the theta column starts as the flat
    Jacobi field and takes rank-one secant updates.  Iterates are shot at
    the scan tolerance until one misses p1 by at most 1% of endpoint_tol;
    that iterate is shot again at ``spec``, and the iteration goes on at
    ``spec`` from there, keeping its Jacobian.  Only a shot at ``spec``
    records a root.  A seed is dropped when its s leaves (0, s_max] or its
    launch angle comes within 1e-4 of a root already found.  If two
    distinct paths tie in length within 1e-8 the ambiguity is reported as
    DegenerateMultiplicity (carrying every tied path).  The returned path
    is integrated once more and must end within endpoint_tol of p1."""
    p0 = (float(p0[0]), float(p0[1]))
    p1 = (float(p1[0]), float(p1[1]))
    e1, e2, theta0, d_chord = _chord(surface, p0, p1)
    if d_chord <= endpoint_tol:
        raise ZeroVector("boundary points coincide")
    s_max = 1.6 * d_chord + 0.01 * (1.0 + d_chord)
    # ranking seeds, and iterating while the miss is large, only needs
    # trajectories good to well below the endpoint tolerance
    scan_spec = OdeSpec(max(spec.tol, min(1e-8, 0.01 * endpoint_tol)),
                        spec.min_step, spec.max_steps)
    goal = 0.01 * endpoint_tol
    rhs = _geodesic_rhs(surface)
    m1 = metric_and_gamma(surface, p1[0], p1[1])

    def launch(theta):
        c, s = math.cos(theta), math.sin(theta)
        return (c * e1[0] + s * e2[0], c * e1[1] + s * e2[1])

    def shoot(theta, ts, at_spec, dense=False):
        d = launch(theta)
        return ode_solve(rhs, (p0[0], p0[1], d[0], d[1]), ts, at_spec,
                         dense=dense)

    def miss(y):
        """Parameter-space residual y - p1 and its metric length at p1."""
        r = surface.wrap_delta(y[0] - p1[0], y[1] - p1[1])
        return r, math.sqrt(max(_metric_dot(m1.E, m1.F, m1.G, r, r), 0.0))

    def trial(theta, s, at_spec):
        """End state, residual and miss of one shot over (0, s); the state
        None and the miss inf where the shot fails."""
        try:
            y = shoot(theta, (0.0, s), at_spec).y_end
        except _SHOT_ERRORS:
            return None, None, math.inf
        return (y, *miss(y))

    seeds = []    # (miss of the nearest sample, seed, theta, its s, state)
    for i in range(_N_SEEDS):
        theta = theta0 + 2.0 * math.pi * i / _N_SEEDS
        try:
            sol = shoot(theta, linspace(0.0, s_max, _N_SCAN), scan_spec,
                        dense=True)
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
        at_spec = scan_spec
        for it in range(_N_ITER):
            if known(theta):
                return
            y, r, m = trial(theta, s, at_spec) if it else (y0, *miss(y0))
            # a root is recorded only from a shot at the caller's spec
            if m <= goal and it and at_spec == spec:
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
                if m <= goal:
                    # tighten: this iterate again at spec, the accepted
                    # one from here on
                    at_spec = spec
                    y, r, m = trial(theta, s, spec)
                    if m <= goal:
                        solutions.append((s, i, theta))
                        return
                    if y is None:
                        return
                    best = min(best, (m, theta))
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

class TransportState(Record):
    """At each parameter sample: the components (A1, A2), the metric norm
    |A| and the unwrapped angle in the orthonormal frame."""

    __slots__ = _fields = ("curve", "ts", "components", "norms",
                           "frame_angles")

    def __init__(self, curve, ts, components, norms, frame_angles):
        self.curve = curve
        self.ts = ts
        self.components = components
        self.norms = norms
        self.frame_angles = frame_angles

    @property
    def holonomy(self):
        """Net frame rotation over the whole path (closed loops: the
        holonomy angle)."""
        return self.frame_angles[-1] - self.frame_angles[0]

    def angles_to_initial(self):
        base = self.frame_angles[0]
        return [a - base for a in self.frame_angles]


def _transport(rec, t, A):
    """The transport equations' field (t, A) -> dA/dt = -Gamma(X, A) along
    the curve that ``rec.curve`` reads, X its velocity (u', v'): one
    program per surface template that carries its fused attempt, the
    curve's kernel called first at each stage."""
    (u, v), velocity = rec.curve(t)
    return _accel(rec, u, v, velocity, A)


def _transport_rhs(sc):
    """The transport equations along ``sc``: (t, A) -> dA/dt."""
    return sc.surface.program(_transport, (1, 2), sc.kernel)


def _frame_components(md, A):
    """The components of the surface vector ``A`` in the orthonormal frame
    of the MetricData ``md``."""
    e1, e2 = _orthonormal_frame(md)
    return (_metric_dot(md.E, md.F, md.G, A, e1),
            _metric_dot(md.E, md.F, md.G, A, e2))


def _metric_norm(md, A):
    """sqrt(I(A, A)), with A scaled by 2^-e (e the frexp exponent of its
    larger component) before I(A, A) and the root by 2^e after, so that a
    tiny or huge vector does not underflow or overflow.  Scaling by a power
    of two is exact: where the unscaled sum does neither, the norm is the
    same to the last bit."""
    e = math.frexp(max(abs(A[0]), abs(A[1])))[1]
    a = (math.ldexp(A[0], -e), math.ldexp(A[1], -e))
    return math.ldexp(math.sqrt(max(_metric_dot(md.E, md.F, md.G, a, a),
                                    0.0)), e)


def parallel_transport(sc, A0, spec=OdeSpec()):
    """Transport surface-vector components A along the curve:
    dA^a/dt = -G^a_bc A^c du^b/dt.  A vector of zero metric norm has no
    angle to transport: ZeroVector."""
    t0, t1 = sc.domain
    A0 = (float(A0[0]), float(A0[1]))
    samples = linspace(t0, t1, _N_TRANSPORT)
    md0 = metric_and_gamma(sc.surface, *sc.point(samples[0]))
    if math.hypot(*_frame_components(md0, A0)) == 0.0:
        raise ZeroVector("the transported vector has zero metric norm")
    sol = ode_solve(_transport_rhs(sc), A0, samples, spec)
    ts, comps = sol.ts, sol.ys

    norms, angles = [], []
    prev = None
    for i, (t, (A1, A2)) in enumerate(zip(ts, comps)):
        # the first sample's metric is read above
        md = md0 if i == 0 else metric_and_gamma(sc.surface, *sc.point(t))
        norms.append(_metric_norm(md, (A1, A2)))
        x, y = _frame_components(md, (A1, A2))
        ang = math.atan2(y, x)
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
    p = _point(surface, u, v)
    cur = _curvatures(p)
    if cur.shape == "Flat":
        return "all"
    if cur.shape == "Elliptic":
        return []
    e, f, g = p.efg
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
    return [_metric_unit(*p.EFG, d) for d in dirs]


def principal_direction_field(surface, u, v):
    """Two metric-unit principal directions plus their Rodrigues defects
    |dn + kappa_i dr| (per metric-unit step)."""
    p = _point(surface, u, v)
    cur = _curvatures(p)
    if cur.is_umbilic:
        raise UmbilicPoint(f"no principal directions at ({u!r}, {v!r})")
    dn_du, dn_dv = Vec3(*p.dn[:3]), Vec3(*p.dn[3:])
    out_dirs, out_res = [], []
    for d, kap in ((cur.dir1_uv, cur.kappa1), (cur.dir2_uv, cur.kappa2)):
        dn = dn_du * d[0] + dn_dv * d[1]
        dr = p.E1 * d[0] + p.E2 * d[1]
        out_dirs.append(d)
        out_res.append((dn + dr * kap).norm())
    return tuple(out_dirs), tuple(out_res)


def conjugate_direction(surface, u, v, direction):
    """The direction conjugate to ``direction``: b(d, delta) = 0."""
    p = _point(surface, u, v)
    e, f, g = p.efg
    d1, d2 = float(direction[0]), float(direction[1])
    w1 = e * d1 + f * d2
    w2 = f * d1 + g * d2
    b_scale = max(abs(e), abs(f), abs(g)) * math.hypot(d1, d2)
    if math.hypot(w1, w2) <= 1e-10 * max(b_scale, 1e-30) or b_scale == 0.0:
        raise NoUniqueConjugate(
            "the second fundamental form degenerates along this direction")
    return _metric_unit(*p.EFG, (-w2, w1))


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
    return SurfaceCurve(surface, taylor_kernel((cu, cv)), (ss[0], ss[-1]))


# --------------------------------------------------------------------------
# Gauss-Bonnet
# --------------------------------------------------------------------------

class BoundaryLoop(Record):
    """Piecewise boundary of a simply connected parameter region.

    ``arcs`` run end-to-start in order; ``corner_angles[j]`` is the exterior
    angle where arc j meets arc j+1 (None = compute from one-sided
    tangents); ``region_rects`` decompose the enclosed parameter region for
    the area integral."""

    __slots__ = _fields = ("arcs", "corner_angles", "region_rects")

    def __init__(self, arcs, corner_angles, region_rects):
        self.arcs = arcs
        self.corner_angles = corner_angles
        self.region_rects = region_rects

    def validate(self):
        """Arcs must connect end-to-start in ambient space (so boundaries
        through chart poles or seams still count as closed)."""
        n = len(self.arcs)
        if n == 0:
            raise OpenLoop("boundary has no arcs")
        for j, arc in enumerate(self.arcs):
            nxt = self.arcs[(j + 1) % n]
            p_end = Vec3(*arc.surface.kernel(*arc.point(arc.domain[1]))[0])
            p_start = Vec3(*nxt.surface.kernel(*nxt.point(nxt.domain[0]))[0])
            scale = arc.surface.scale
            if (p_end - p_start).norm() > EPS_CLOSED * scale:
                ue, ve = arc.point(arc.domain[1])
                us, vs = nxt.point(nxt.domain[0])
                raise OpenLoop(
                    f"arc {j} ends at ({ue:.6g}, {ve:.6g}) but arc "
                    f"{(j + 1) % n} starts at ({us:.6g}, {vs:.6g})")


class GaussBonnetBudget(Record):
    __slots__ = _fields = ("sum_kg", "sum_angles", "total_K")

    def __init__(self, sum_kg, sum_angles, total_K):
        self.sum_kg = sum_kg
        self.sum_angles = sum_angles
        self.total_K = total_K

    @property
    def defect(self):
        return self.sum_kg + self.sum_angles + self.total_K - 2.0 * math.pi


def _exterior_angle(arc_in, arc_out):
    """Signed exterior angle between one-sided tangents at a junction."""
    (u0, v0), t_in = arc_in.kernel(arc_in.domain[1])[:2]
    t_out = arc_out.kernel(arc_out.domain[0])[1]
    p = _point(arc_in.surface, u0, v0)
    cross = p.sqrt_a * (t_in[0] * t_out[1] - t_in[1] * t_out[0])
    return math.atan2(cross, _metric_dot(*p.EFG, t_in, t_out))


def _kappa_g_dt(arc, t):
    """kappa_g |dr/dt| at t: the boundary integrand of Gauss-Bonnet."""
    p, _, cj = _composite(arc, t)
    kappa_g = p.n.cross(cj.T).dot(cj.dT_ds)
    return kappa_g * cj.sigma[0]


def gauss_bonnet_local(surface, loop, spec=QuadSpec(tol=1e-7)):
    """Boundary + corner + area budget of the local Gauss-Bonnet theorem;
    the defect is the deviation of the total from 2 pi."""
    loop.validate()
    sum_kg = 0.0
    for arc in loop.arcs:
        sum_kg += quad_adaptive(lambda t, arc=arc: _kappa_g_dt(arc, t),
                                arc.domain, spec)

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
    p, k, cj = _composite(sc, t)
    E, F, G = p.EFG
    scale2 = max(1.0, sc.surface.scale * sc.surface.scale)
    if abs(F) > 1e-9 * scale2:
        raise NonOrthogonalPatch(
            f"F = {F!r} at t={t!r}; Liouville needs orthogonal "
            "coordinate curves")
    Eu, Ev, _, _, Gu, Gv = p.metric_partials
    kappa_u = -Ev / (2.0 * E * math.sqrt(G))
    kappa_v = Gu / (2.0 * G * math.sqrt(E))

    rate, x, y = jet_program(_liouville_angle, (6, 8))(
        (E, Eu, Ev, G, Gu, Gv), (*k[1], *k[2], *k[3], *k[4]))
    dphi_ds = rate / cj.sigma[0]
    phi = math.atan2(y, x)

    kg = _split(p, cj).kappa_g
    return kg - (dphi_ds + kappa_u * math.cos(phi) + kappa_v * math.sin(phi))


def _liouville_angle(rec, metric, rows):
    """(d phi/dt, x, y) for the angle phi = atan2(y, x) of the tangent
    against the u-curve on an orthogonal patch: x = sqrt(E) du/dt and
    y = sqrt(G) dv/dt along the curve, from E, G, their partials and the
    curve's rows 1..4, as Jet1 computes them."""
    E, Eu, Ev, G, Gu, Gv = metric
    du, dv = rows[0::2], rows[1::2]     # derivatives 1..4 of u and v
    x = (_field_along_curve(rec, E, Eu, Ev, du[0], dv[0]).call("sqrt")
         * rec.jet(*du))
    y = (_field_along_curve(rec, G, Gu, Gv, du[0], dv[0]).call("sqrt")
         * rec.jet(*dv))
    return _turning_rate(x, y), x[0], y[0]


def bonnet_torsion_check(sc, t):
    """Defect of the Bonnet relation between geodesic torsion, torsion and
    the turning rate of the principal normal against the surface normal.

    With the signed angle phi = atan2((n x T).N, n.N), expanding the Frenet
    system in the oriented Darboux frame (T, n x T, n) gives
    tau_g = tau + dphi/ds; the unsigned-arccos statement of the formula
    matches after orienting the angle."""
    p, k, cj = _composite(sc, t)
    cj.bend()
    split = _split(p, cj)
    if abs(split.kappa_n) <= 1e-9 * max(1.0, split.kappa):
        raise AsymptoticPoint(
            f"Bonnet formula does not apply along asymptotic direction "
            f"at t={t!r}")
    dphi_ds = jet_program(_bonnet_angle, (3, 6, 2, 3, 3, 3, 3))(
        tuple(p.n), p.dn, k[1], cj.N, cj.dN, cj.T, cj.dT) / cj.sigma[0]
    tau_g = _geodesic_torsion(p, k, cj)
    return tau_g - (cj.tau + dphi_ds)


def _bonnet_angle(rec, n, dn, velocity, N, dN, T, dT):
    """d/dt of the signed angle phi = atan2(N.u, N.n) of the principal
    normal N in the (n, u) frame, u = n x T the geodesic normal, along the
    curve, as Jet1 computes it from n, dn/du, dn/dv, (u', v'), and N and T
    with their t-derivatives (exact through order 1 suffices)."""
    n_t = _normal_along_curve(rec, n, dn, *velocity)
    N, T = (Vec3(*map(rec.jet, w, dw)) for w, dw in ((N, dN), (T, dT)))
    u_t = n_t.cross(T)
    return _turning_rate(n_t.dot(N), u_t.dot(N))
