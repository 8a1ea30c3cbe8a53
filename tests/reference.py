"""The point bundle as it was built before the point program (lazy tapes
over one kernel call, the regularity checks in Python), the solver fields
and integrands as plain Python over the surface's kernel and that bundle,
the four identity checks as Vec3 and float arithmetic over the bundle and
the order-3 kernel's terms, and the surface-curve checks as Jet1
arithmetic over a curve's Jet1 form (:class:`JetCurve`) and the surface's
``evaluator``: the chains that the generated surface programs, curve
rows, composite kernels and recorded jet programs replace, kept as the
reference they must equal by ``repr``, errors included.  Nothing here is
generated."""

import math
from functools import cached_property

from diffgeo import expr, jets
from diffgeo.curves import _CurveJets
from diffgeo.errors import AsymptoticPoint, NonOrthogonalPatch, UmbilicPoint
from diffgeo.expr import position_kernel
from diffgeo.interpolate import HermiteChannel
from diffgeo.jets import Jet1, Jet2
from diffgeo.surfacecurves import _geodesic_rhs, _split
from diffgeo.quadrature import _sum
from diffgeo.surfaces import (_DN, _GAMMA2, _METRIC, _NORMAL, _PARTIALS,
                              _THIRD, MetricData, ParametricSurface,
                              _check_regular, _christoffel2, _curvatures,
                              _forms_of, _geometry, _metric_dot,
                              _metric_unit, _normal_curvature, _overflow,
                              _scaled_defect)
from diffgeo.vectors import Vec3


def _tape_code(template, order, formulas, outputs):
    """A standalone tape: the records of the Jet2 tape of ``formulas``
    that ``outputs`` read, after an unpacking of each triple of ``_k``."""
    records, named = expr._GENERATED[None, (expr._recording, formulas),
                                     order]
    terms = tuple(named[name][slot] for name, slot in outputs)
    records = tuple(((f"_r{i}x", f"_r{i}y", f"_r{i}z"), f"_k[{i}]", ())
                    for i in range(10)) + records
    body = [records[i] for i in expr._live(records, terms)]
    return expr._compile(["def _program(_k):", *expr._body(
        body + [expr._source(terms, "return ")], order)],
        "<tape>")["_program"]


def taped(formulas, outputs):
    """The function ``k -> tuple`` that reads the (x, y, z) triples ``k``
    of a surface kernel and returns, for each ``(name, slot)`` of
    ``outputs``, coefficient ``slot`` of the jet named ``name`` of
    ``formulas(r)``, computed as Jet2 computes it: straight-line code made
    from ``expr``'s recorder and printer, run on its own, as no program
    of the library runs a tape."""
    return expr._GENERATED[None, (_tape_code, formulas, outputs), 2]


def coefficients(pos):
    """The (x, y, z) coefficient triples of a Vec3 of jets."""
    return tuple(zip(pos.x.c, pos.y.c, pos.z.c))


def jet1_rows(fn, t):
    """The five rows of the Jet1 coefficients of the curve or surface
    curve ``fn`` (a Vec3, or a (u, v) pair, of jets) at the Jet1 variable
    t: what ``curves.jet_kernel`` and ``surfacecurves.jet_kernel`` record."""
    return tuple(zip(*(j.c for j in fn(Jet1.variable(t)))))


def jet2_triples(surface, u, v):
    """The ten triples of ``surface.evaluator`` at the Jet2 variables u
    and v: what ``kernel3`` gives, and ``kernel`` the first six of."""
    return coefficients(surface.evaluator(Jet2.variable_u(u),
                                          Jet2.variable_v(v)))


def jet1_composite(surface, rows):
    """The five triples of ``surface.evaluator`` at the Jet1 parameters
    whose coefficients are the rows (u_k, v_k): what ``composite`` gives."""
    return coefficients(surface.evaluator(*(Jet1(*c) for c in zip(*rows))))


def kernel3(surface):
    """The order-3 kernel of ``surface``: ``kernel``'s six triples, then
    r_uuu, r_uuv, r_uvv and r_vvv (a jet-fed surface's Jet2 evaluation)."""
    return (getattr(surface, "kernel3", None)
            or position_kernel(surface._shape, 3))


def jet_fed(shape):
    """A surface of ``shape``'s evaluator whose kernels are one jet
    evaluation per call: Jet2 for ``kernel`` and ``kernel3``, Jet1 for
    ``composite``.  Its programs are recorded from the evaluator."""
    fed = ParametricSurface(shape.evaluator, shape.domain, shape.periodic)
    fed.kernel = lambda u, v: jet2_triples(shape, u, v)[:6]
    fed.kernel3 = lambda u, v: jet2_triples(shape, u, v)
    fed.composite = lambda rows: jet1_composite(shape, rows)
    return fed


class SurfacePoint:
    """The fields of ``surfaces._SurfacePoint`` at (u, v), as the bundle
    computed them before one program did: construction calls the
    surface's ``kernel`` once (kept as ``k``), runs the _METRIC tape, the
    two regularity checks in Python and the _NORMAL tape; the metric
    partials, the Christoffel symbols (a tape of ``_christoffel2`` over
    jets) and dn each run their own tape on first read.  An overflow
    names the point.  It is built anew on each call, with no store."""

    def __init__(self, surface, u, v):
        self.scale = surface.scale
        self.u, self.v = u, v = float(u), float(v)
        self.curvatures = self.identities = None
        self.k = self._call(surface.kernel, u, v)
        E, F, G, self.a, cross_sq = self._run(_METRIC)
        self.EFG = E, F, G
        _check_regular(cross_sq, E + G, u, v)
        _check_regular(self.a, E + G, u, v)
        self.sqrt_a, nx, ny, nz, *efg = self._run(_NORMAL)
        self.n = Vec3(nx, ny, nz)
        self.efg = tuple(efg)
        self.E1, self.E2 = Vec3(*self.k[1]), Vec3(*self.k[2])

    def _call(self, fn, *args):
        try:
            return fn(*args)
        except OverflowError:
            raise _overflow(self.u, self.v) from None

    def _run(self, outputs):
        return self._call(taped(_geometry, outputs), self.k)

    @cached_property
    def metric_partials(self):
        return self._run(_PARTIALS)

    @cached_property
    def gamma2(self):
        return self._run(_GAMMA2)

    @cached_property
    def dn(self):
        return self._run(_DN)


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
    return lambda u, v: SurfacePoint(surface, u, v).sqrt_a


def curvature_integrand(surface):
    def integrand(u, v):
        p = SurfacePoint(surface, u, v)
        e, f, g = p.efg
        return (e * g - f * f) / p.sqrt_a

    return integrand


# --------------------------------------------------------------------------
# the identity checks: the Python that the identity program replaces
# --------------------------------------------------------------------------

def _third(surface, u, v):
    """The point bundle at (u, v) and the _THIRD terms of the order-3
    kernel there, an overflow naming the point."""
    p = SurfacePoint(surface, u, v)
    try:
        return p, taped(_geometry, _THIRD)(kernel3(surface)(p.u, p.v))
    except OverflowError:
        raise _overflow(p.u, p.v) from None


def riemann_R1212(surface, u, v):
    p, third = _third(surface, u, v)
    F_uv, E_vv, G_uu = third[:3]
    term = 0.5 * (2.0 * F_uv - E_vv - G_uu)
    g = p.gamma2
    g11 = (g[0], g[1])
    g12 = (g[2], g[3])
    g22 = (g[4], g[5])
    E, F, G = p.EFG
    amat = ((E, F), (F, G))
    acc = 0.0
    for al in range(2):
        for be in range(2):
            acc += amat[al][be] * (g12[al] * g12[be] - g11[al] * g22[be])
    return term + acc


def gauss_weingarten_residuals(surface, u, v):
    p = SurfacePoint(surface, u, v)
    E, F, G = p.EFG
    e, f, g = p.efg
    a = p.a
    gam = p.gamma2
    r_uu, r_uv, r_vv = (Vec3(*r) for r in p.k[3:6])
    n = p.n
    out = []
    for lhs, (g1, g2), b in (
        (r_uu, (gam[0], gam[1]), e),
        (r_uv, (gam[2], gam[3]), f),
        (r_vv, (gam[4], gam[5]), g),
    ):
        rhs = p.E1 * g1 + p.E2 * g2 + n * b
        out.append(_scaled_defect(lhs, rhs))
    dn_du, dn_dv = Vec3(*p.dn[:3]), Vec3(*p.dn[3:])
    w1 = p.E1 * ((f * F - e * G) / a) + p.E2 * ((e * F - f * E) / a)
    w2 = p.E1 * ((g * F - f * G) / a) + p.E2 * ((f * F - g * E) / a)
    out.append(_scaled_defect(dn_du, w1))
    out.append(_scaled_defect(dn_dv, w2))
    return tuple(out)


def codazzi_compatibility_residuals(surface, u, v):
    p, third = _third(surface, u, v)
    e, f, g = b11, b12, b22 = p.efg
    g111, g112, g121, g122, g221, g222 = p.gamma2
    (b12_u, b11_v, b22_u, b12_v,
     g222_u, g122_v, g221_u, g121_v) = third[3:]

    lhs1 = b12_u - b11_v
    rhs1 = b22 * g112 - b12 * (g122 - g111) - b11 * g121
    lhs2 = b22_u - b12_v
    rhs2 = b22 * g122 - b12 * (g222 - g121) - b11 * g221
    r1 = abs(lhs1 - rhs1) / max(1.0, abs(lhs1), abs(rhs1))
    r2 = abs(lhs2 - rhs2) / max(1.0, abs(lhs2), abs(rhs2))

    E, F, _ = p.EFG
    term_f = g222_u - g122_v + g221 * g112 - g121 * g122
    term_e = (g221_u - g121_v + g221 * g111
              + g222 * g121 - g121 * g121 - g122 * g221)
    lhs3 = e * g - f * f
    rhs3 = F * term_f + E * term_e
    r3 = abs(lhs3 - rhs3) / max(1.0, abs(lhs3), abs(rhs3))
    return r1, r2, r3


def form_identity_residual(surface, u, v):
    p = SurfacePoint(surface, u, v)
    fb = _forms_of(p)
    cur = _curvatures(p)
    K, H = cur.K, cur.H
    worst = 0.0
    scale = 1e-300
    for a_c, b_c, c_c in ((fb.E, fb.e, fb.c11), (fb.F, fb.f, fb.c12),
                          (fb.G, fb.g, fb.c22)):
        terms = (K * a_c, -2.0 * H * b_c, c_c)
        scale = max(scale, *(abs(t) for t in terms))
        worst = max(worst, abs(_sum(terms)))
    return worst / max(1.0, scale)


def euler_directions(cd):
    """verify's eight euler directions at a point of curvatures ``cd``,
    each with kappa1 cos^2 + kappa2 sin^2 of its angle."""
    for k in range(8):
        th = math.pi * k / 8.0
        d = (math.cos(th) * cd.dir1_uv[0] + math.sin(th) * cd.dir2_uv[0],
             math.cos(th) * cd.dir1_uv[1] + math.sin(th) * cd.dir2_uv[1])
        yield d, (cd.kappa1 * math.cos(th) ** 2
                  + cd.kappa2 * math.sin(th) ** 2)


def egregium(surface, u, v):
    """verify's egregium residual at (u, v)."""
    fb = _forms_of(SurfacePoint(surface, u, v))
    k_ext = (fb.e * fb.g - fb.f ** 2) / fb.a
    k_int = riemann_R1212(surface, u, v) / fb.a
    return (abs(k_int - k_ext) / max(1.0, abs(k_ext)),)


# --------------------------------------------------------------------------
# verify's reparametrization: the Jet1 chain its float rows replace
# --------------------------------------------------------------------------

def resubstituted(curve, w):
    """The Jet1 coefficients of t = w + 0.1 sin w at the Jet1 variable w,
    and the five (x, y, z) triples of the definition curve ``curve``
    evaluated on that jet."""
    wj = Jet1.variable(w)
    tj = wj + 0.1 * jets.sin(wj)
    return tj.c, coefficients(curve.definition.eval(tj, check_domain=False))


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


def _vec_jet(vec, dvec):
    """A Frenet vector and its t-derivative as a Vec3 of Jet1, the rest
    of each jet zero."""
    return Vec3(*map(Jet1, vec, dvec))


def point_jets(sc, t):
    uj, vj = sc.uv_jets(t)
    return SurfacePoint(sc.surface, uj.value, vj.value), uj, vj


def composite_jets(sc, t):
    p, uj, vj = point_jets(sc, t)
    scale = sc.surface.scale
    try:
        cj = _CurveJets(coefficients(sc.surface.evaluator(uj, vj)), scale,
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
    dn_du, dn_dv = Vec3(*p.dn[:3]), Vec3(*p.dn[3:])
    n_s = (dn_du * uj.c[1] + dn_dv * vj.c[1]) / cj.sigma[0]
    return p.n.dot(n_s.cross(cj.T))


def geodesic_torsion(sc, t):
    return _geodesic_torsion(*composite_jets(sc, t))


def geodesic_torsion_principal(sc, t):
    p, uj, vj = point_jets(sc, t)
    cur = _curvatures(p)
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
    cj.bend()
    N = _vec_jet(cj.N, cj.dN)
    T = _vec_jet(cj.T, cj.dT)
    split = _split(p, cj)
    if abs(split.kappa_n) <= 1e-9 * max(1.0, split.kappa):
        raise AsymptoticPoint(
            f"Bonnet formula does not apply along asymptotic direction "
            f"at t={t!r}")
    n_t = Vec3(*(_field_along_curve(n, n_u, n_v, uj, vj)
                 for n, n_u, n_v in zip(p.n, p.dn[:3], p.dn[3:])))
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
    p = SurfacePoint(arc_in.surface, uj.value, vj.value)
    cross = p.sqrt_a * (t_in[0] * t_out[1] - t_in[1] * t_out[0])
    return math.atan2(cross, _metric_dot(*p.EFG, t_in, t_out))
