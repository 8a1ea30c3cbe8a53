"""The solver fields and integrands as plain Python over the surface's
kernel and its point bundle, and the surface-curve checks as Jet1
arithmetic over a curve's Jet1 form (:class:`JetCurve`) and the surface's
``evaluator``: the chains that the generated surface programs, curve
rows, composite kernels and recorded jet programs replace, kept as the
reference they must equal by ``repr``, errors included.  Nothing here is
generated."""

import math

from diffgeo import jets
from diffgeo.curves import _coefficients, _CurveJets
from diffgeo.errors import AsymptoticPoint, NonOrthogonalPatch, UmbilicPoint
from diffgeo.interpolate import HermiteChannel
from diffgeo.jets import Jet1
from diffgeo.surfacecurves import _geodesic_rhs, _split
from diffgeo.surfaces import (MetricData, _check_regular, _christoffel2,
                              _metric_dot, _metric_unit, _normal_curvature,
                              _overflow, _point, _SurfacePoint)
from diffgeo.vectors import Vec3


def metric_gamma(kernel, u, v):
    """E, F, G, a and the second-kind Christoffel values from one call of
    an order-2 ``kernel``."""
    try:
        (_, (xu, yu, zu), (xv, yv, zv), (xuu, yuu, zuu), (xuv, yuv, zuv),
         (xvv, yvv, zvv)) = kernel(u, v)
    except OverflowError:
        raise _overflow(u, v) from None
    E = xu * xu + yu * yu + zu * zu
    F = xu * xv + yu * yv + zu * zv
    G = xv * xv + yv * yv + zv * zv
    a = E * G - F * F
    _check_regular(a, E + G, u, v)
    Eu = 2.0 * (xu * xuu + yu * yuu + zu * zuu)
    Ev = 2.0 * (xu * xuv + yu * yuv + zu * zuv)
    Fu = (xuu * xv + yuu * yv + zuu * zv) + (xu * xuv + yu * yuv + zu * zuv)
    Fv = (xuv * xv + yuv * yv + zuv * zv) + (xu * xvv + yu * yvv + zu * zvv)
    Gu = 2.0 * (xv * xuv + yv * yuv + zv * zuv)
    Gv = 2.0 * (xv * xvv + yv * yvv + zv * zvv)
    return E, F, G, a, _christoffel2(E, F, G, Eu, Ev, Fu, Fv, Gu, Gv, a)


def metric_and_gamma(surface, u, v):
    return MetricData(*metric_gamma(surface.kernel, float(u), float(v)))


def accel(kernel, u, v, X, Y):
    """-Gamma^k_ij X^i Y^j by tangent projection: w = r_ij X^i Y^j, then
    the inverse metric times (<r_u, w>, <r_v, w>), from one call of an
    order-2 ``kernel``."""
    try:
        _, ru, rv, ruu, ruv, rvv = kernel(u, v)
    except OverflowError:
        raise _overflow(u, v) from None
    E = ru[0] * ru[0] + ru[1] * ru[1] + ru[2] * ru[2]
    F = ru[0] * rv[0] + ru[1] * rv[1] + ru[2] * rv[2]
    G = rv[0] * rv[0] + rv[1] * rv[1] + rv[2] * rv[2]
    a = E * G - F * F
    _check_regular(a, E + G, u, v)
    c11 = X[0] * Y[0]
    c12 = X[0] * Y[1] + X[1] * Y[0]
    c22 = X[1] * Y[1]
    w = [p * c11 + q * c12 + r * c22 for p, q, r in zip(ruu, ruv, rvv)]
    p = ru[0] * w[0] + ru[1] * w[1] + ru[2] * w[2]
    q = rv[0] * w[0] + rv[1] * w[1] + rv[2] * w[2]
    inv_a = 1.0 / a
    return ((F * q - G * p) * inv_a, (F * p - E * q) * inv_a)


def geodesic_field(surface):
    def rhs(s, y):
        u, v, du, dv = y
        return (du, dv, *accel(surface.kernel, u, v, (du, dv), (du, dv)))

    return rhs


def transport_field(surface):
    def field(u, v, du, dv, A1, A2):
        return accel(surface.kernel, u, v, (du, dv), (A1, A2))

    return field


def area_integrand(surface):
    return lambda u, v: _SurfacePoint(surface, u, v).sqrt_a


def curvature_integrand(surface):
    def integrand(u, v):
        p = _SurfacePoint(surface, u, v)
        e, f, g = p.efg
        return (e * g - f * f) / p.sqrt_a

    return integrand


# --------------------------------------------------------------------------
# verify's reparametrization: the Jet1 chain its float rows replace
# --------------------------------------------------------------------------

def resubstituted(curve, w):
    """The Jet1 coefficients of t = w + 0.1 sin w at the Jet1 variable w,
    and the five (x, y, z) triples of the definition curve ``curve``
    evaluated on that jet."""
    wj = Jet1.variable(w)
    tj = wj + 0.1 * jets.sin(wj)
    return tj.c, _coefficients(curve.definition.eval(tj, check_domain=False))


# --------------------------------------------------------------------------
# surface curves: the Jet1 chains that the curves' float rows, the
# composite kernels and the recorded jet programs replace
# --------------------------------------------------------------------------

class JetCurve:
    """The Jet1 form of the float surface curve ``sc``: ``uv`` is a Python
    function of a Jet1 parameter that returns the (u, v) jets, over the
    same surface and domain."""

    def __init__(self, sc, uv):
        self.surface, self.domain, self.uv = sc.surface, sc.domain, uv

    def uv_jets(self, t):
        return self.uv(Jet1.variable(float(t)))


def geodesic_path_uv(path):
    """The Jet1 form of ``path.as_curve()``: its quintic Hermite channels
    through the states, second derivatives from the geodesic equations,
    evaluated on jets."""
    rhs = _geodesic_rhs(path.surface)
    acc = [rhs(s, st)[2:] for s, st in zip(path.s, path.states)]
    cu, cv = (HermiteChannel(path.s, [st[i] for st in path.states],
                             [st[2 + i] for st in path.states],
                             [a[i] for a in acc]) for i in (0, 1))
    return lambda t: (cu(t), cv(t))


def _vec_jet(cj, name, n):
    """The first ``n`` t-derivatives of the Frenet vector ``name`` as a
    Vec3 of Jet1, the rest of each jet zero."""
    x = cj.vec_coefficients(name, n)
    return Vec3(*(Jet1(*x[i:i + n]) for i in (0, n, 2 * n)))


def point_jets(sc, t):
    uj, vj = sc.uv_jets(t)
    return _point(sc.surface, uj.value, vj.value), uj, vj


def composite_jets(sc, t):
    p, uj, vj = point_jets(sc, t)
    scale = sc.surface.scale
    try:
        cj = _CurveJets(_coefficients(sc.surface.evaluator(uj, vj)), scale,
                        t)
    except OverflowError:
        raise _overflow(p.u, p.v) from None
    return p, uj, vj, cj


def curvature_split(sc, t):
    p, _, _, cj = composite_jets(sc, t)
    return _split(p, cj)


def kappa_n_quotient(sc, t):
    p, uj, vj = point_jets(sc, t)
    return _normal_curvature(*p.EFG, *p.efg, (uj.c[1], vj.c[1]))


def kappa_g_extrinsic(sc, t):
    p, _, _, cj = composite_jets(sc, t)
    return cj.rdd.dot(p.n.cross(cj.rd)) / cj.sigma[0] ** 3


def kappa_g_intrinsic(sc, t):
    p, uj, vj, cj = composite_jets(sc, t)
    s1, s2 = cj.sigma[:2]
    u1, v1 = uj.c[1] / s1, vj.c[1] / s1
    u2 = uj.c[2] / s1 ** 2 - uj.c[1] * s2 / s1 ** 3
    v2 = vj.c[2] / s1 ** 2 - vj.c[1] * s2 / s1 ** 3
    g = p.gamma2
    sa = p.sqrt_a
    return sa * (g[1] * u1 ** 3
                 + (2.0 * g[3] - g[0]) * u1 * u1 * v1
                 + (g[5] - 2.0 * g[2]) * u1 * v1 * v1
                 - g[4] * v1 ** 3
                 + u1 * v2 - u2 * v1)


def _geodesic_torsion(p, uj, vj, cj):
    dn_du, dn_dv = p.dn
    n_s = (dn_du * uj.c[1] + dn_dv * vj.c[1]) / cj.sigma[0]
    return p.n.dot(n_s.cross(cj.T))


def geodesic_torsion(sc, t):
    return _geodesic_torsion(*composite_jets(sc, t))


def geodesic_torsion_principal(sc, t):
    p, uj, vj = point_jets(sc, t)
    cur = p.curvatures
    if cur.is_umbilic:
        raise UmbilicPoint("principal-direction route undefined at an umbilic")
    E, F, G = p.EFG
    d = _metric_unit(E, F, G, (uj.c[1], vj.c[1]))
    d1 = cur.dir1_uv
    c = _metric_dot(E, F, G, d, d1)
    s = p.sqrt_a * (d[0] * d1[1] - d[1] * d1[0])
    return (cur.kappa1 - cur.kappa2) * s * c


def _field_along_curve(f, fu, fv, uj, vj):
    return Jet1(f, fu * uj.c[1] + fv * vj.c[1])


def _turning_rate(x, y):
    x0, y0 = x.value, y.value
    return (x0 * y.c[1] - y0 * x.c[1]) / (x0 * x0 + y0 * y0)


def liouville_check(sc, t):
    p, uj, vj, cj = composite_jets(sc, t)
    E, F, G = p.EFG
    scale2 = max(1.0, sc.surface.scale * sc.surface.scale)
    if abs(F) > 1e-9 * scale2:
        raise NonOrthogonalPatch(
            f"F = {F!r} at t={t!r}; Liouville needs orthogonal "
            "coordinate curves")
    Eu, Ev, _, _, Gu, Gv = p.metric_partials
    kappa_u = -Ev / (2.0 * E * math.sqrt(G))
    kappa_v = Gu / (2.0 * G * math.sqrt(E))
    x = jets.sqrt(_field_along_curve(E, Eu, Ev, uj, vj)) * uj.derivative()
    y = jets.sqrt(_field_along_curve(G, Gu, Gv, uj, vj)) * vj.derivative()
    dphi_ds = _turning_rate(x, y) / cj.sigma[0]
    phi = math.atan2(y.value, x.value)
    kg = _split(p, cj).kappa_g
    return kg - (dphi_ds + kappa_u * math.cos(phi) + kappa_v * math.sin(phi))


def bonnet_torsion_check(sc, t):
    p, uj, vj, cj = composite_jets(sc, t)
    N = _vec_jet(cj, "N", 2)
    T = _vec_jet(cj, "T", 2)
    split = _split(p, cj)
    if abs(split.kappa_n) <= 1e-9 * max(1.0, split.kappa):
        raise AsymptoticPoint(
            f"Bonnet formula does not apply along asymptotic direction "
            f"at t={t!r}")
    n_t = Vec3(*(_field_along_curve(n, n_u, n_v, uj, vj)
                 for n, n_u, n_v in zip(p.n, *p.dn)))
    u_t = n_t.cross(T)
    dphi_ds = _turning_rate(n_t.dot(N), u_t.dot(N)) / cj.sigma[0]
    tau_g = _geodesic_torsion(p, uj, vj, cj)
    return tau_g - (cj.tau + dphi_ds)


def transport_rhs(sc):
    field = transport_field(sc.surface)

    def rhs(t, y):
        uj, vj = sc.uv_jets(t)
        return field(uj.value, vj.value, uj.c[1], vj.c[1], y[0], y[1])

    return rhs


def gauss_bonnet_integrand(arc):
    def integrand(t):
        p, _, _, cj = composite_jets(arc, t)
        kappa_g = p.n.cross(cj.T).dot(cj.dT_ds)
        return kappa_g * cj.sigma[0]

    return integrand


def exterior_angle(arc_in, arc_out):
    uj, vj = arc_in.uv_jets(arc_in.domain[1])
    t_in = (uj.c[1], vj.c[1])
    uj2, vj2 = arc_out.uv_jets(arc_out.domain[0])
    t_out = (uj2.c[1], vj2.c[1])
    p = _point(arc_in.surface, uj.value, vj.value)
    cross = p.sqrt_a * (t_in[0] * t_out[1] - t_in[1] * t_out[0])
    return math.atan2(cross, _metric_dot(*p.EFG, t_in, t_out))
