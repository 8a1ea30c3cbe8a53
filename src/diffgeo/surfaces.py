"""Pointwise surface machinery: fundamental forms, Christoffel symbols,
the intrinsic curvature component R1212, principal/Gaussian/mean curvature,
local-shape and umbilic classification, and residual verifiers for the
Gauss, Weingarten, Codazzi-Mainardi and compatibility identities.

Pointwise quantities derive from one order-3 jet evaluation of the position
map (third derivatives, for Codazzi and R1212, are exact); the metric,
Christoffel symbols and integrands read order 2 from the surface's kernel.
The unit normal is fixed by parameter order, n = E1 x E2 / |E1 x E2|; the
catalog documents which geometric side that is for each entry.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from . import jets
from .errors import SingularSurfacePoint, ZeroVector
from .jets import Jet2
from .quadrature import QuadSpec, quad2d
from .vectors import Vec3, _spread

__all__ = [
    "ParametricSurface", "SurfaceFrame", "FormBundle", "CurvatureData",
    "surface_frame", "forms", "riemann_R1212", "curvatures",
    "gauss_weingarten_residuals", "codazzi_compatibility_residuals",
    "form_identity_residual", "surface_area", "total_curvature",
    "angle_between", "dupin_classification",
]

EPS_REG = 1e-12   # times E + G: regularity floor for |E1 x E2|
EPS_UMB = 1e-10   # relative umbilic threshold on H^2 - K
EPS_DOMAIN = 1e-12  # slack on the non-periodic sides of the domain

# index order of Jet2 coefficients, for readability below
_F, _FU, _FV, _FUU, _FUV, _FVV, _FUUU, _FUUV, _FUVV, _FVVV = range(10)


class ParametricSurface:
    """A map (u, v) -> R^3 evaluated into jets.

    ``evaluator`` receives the parameters as jets (Jet2 for surface work,
    Jet1 along composite curves) and must be written jet-generically.
    ``periodic`` gives the period per parameter or None; periodic
    directions are never flagged as domain exits.  ``make_kernel(jet2)``
    returns a faster ``kernel`` with jet2's values; it runs on first use.
    """

    def __init__(self, evaluator, domain, periodic=(None, None),
                 make_kernel=None):
        self.evaluator = evaluator
        self.domain = tuple(float(x) for x in domain)  # (u0, u1, v0, v1)
        self.periodic = periodic
        self._make_kernel = make_kernel or (lambda jet2: jet2)
        self._scale = None

    @cached_property
    def kernel(self):
        """Floats (u, v) -> (x, y, z) triples r, r_u, r_v, r_uu, r_uv, r_vv."""
        return self._make_kernel(self._jet_kernel)

    def _jet_kernel(self, u, v):
        """The kernel from one Jet2 evaluation of the evaluator."""
        x, y, z = self.evaluator(Jet2.variable_u(u), Jet2.variable_v(v))
        return tuple(zip(x.c, y.c, z.c))[:6]

    def eval(self, u, v):
        if not isinstance(u, (Jet2,)) and not hasattr(u, "value"):
            u = Jet2.variable_u(u)
            v = Jet2.variable_v(v)
        return self.evaluator(u, v)

    @property
    def scale(self):
        """Length scale: the ``_spread`` of a 4x4 probe grid.  Cached."""
        if self._scale is None:
            u0, u1, v0, v1 = self.domain
            probes = []
            for i in range(4):
                for j in range(4):
                    u = u0 + (u1 - u0) * (i + 0.5) / 4.0
                    v = v0 + (v1 - v0) * (j + 0.5) / 4.0
                    try:
                        probes.append(self.eval(u, v).value())
                    except Exception:
                        continue
            self._scale = _spread(probes)
        return self._scale

    def contains(self, u, v):
        u0, u1, v0, v1 = self.domain
        tol = EPS_DOMAIN
        ok_u = self.periodic[0] is not None or (u0 - tol <= u <= u1 + tol)
        ok_v = self.periodic[1] is not None or (v0 - tol <= v <= v1 + tol)
        return ok_u and ok_v

    def wrap_delta(self, du, dv):
        """Parameter-space difference reduced modulo the periods."""
        pu, pv = self.periodic
        if pu is not None:
            du = (du + 0.5 * pu) % pu - 0.5 * pu
        if pv is not None:
            dv = (dv + 0.5 * pv) % pv - 0.5 * pv
        return du, dv


@dataclass
class SurfaceFrame:
    E1: Vec3
    E2: Vec3
    n: Vec3
    sqrt_a: float


@dataclass
class FormBundle:
    E: float
    F: float
    G: float
    e: float
    f: float
    g: float
    c11: float
    c12: float
    c22: float
    gamma1: tuple   # first kind, order (11-1, 11-2, 12-1, 12-2, 22-1, 22-2)
    gamma2: tuple   # second kind, same order
    sqrt_a: float
    n: Vec3

    @property
    def a(self):
        return self.E * self.G - self.F * self.F

    @property
    def b(self):
        return self.e * self.g - self.f * self.f


@dataclass
class CurvatureData:
    K: float
    H: float
    kappa1: float
    kappa2: float
    dir1: object      # unit tangent Vec3, or None at umbilics
    dir2: object
    dir1_uv: object   # metric-unit parameter components, or None
    dir2_uv: object
    shape: str        # Flat | Elliptic | Parabolic | Hyperbolic
    is_umbilic: bool


class _SurfaceJets:
    """All pointwise machinery derived from one Jet2 evaluation.

    Exactness: position jets carry total order 3, so E_alpha jets are exact
    to order 2, metric jets to order 2, b and Gamma jets to order 1.
    """

    def __init__(self, surface, u, v):
        self.surface = surface
        self.u, self.v = float(u), float(v)
        uj = Jet2.variable_u(self.u)
        vj = Jet2.variable_v(self.v)
        pos = surface.evaluator(uj, vj)
        self.pos = pos
        self.E1j = pos.du()
        self.E2j = pos.dv()
        self.E1 = self.E1j.value()
        self.E2 = self.E2j.value()
        # metric jets (exact to order 2)
        self.a11 = self.E1j.dot(self.E1j)
        self.a12 = self.E1j.dot(self.E2j)
        self.a22 = self.E2j.dot(self.E2j)
        crossj = self.E1j.cross(self.E2j)
        cross_sq = crossj.norm_sq()
        _check_regular(cross_sq.value, self.a11.value + self.a22.value, u, v)
        self.sqrt_a_j = jets.sqrt(cross_sq)
        self.nj = crossj / self.sqrt_a_j     # unit normal, exact to order 2
        self.n = self.nj.value()
        self.aj = self.a11 * self.a22 - self.a12 * self.a12
        self._gamma2_jets = None

    # -- scalars -------------------------------------------------------------

    @property
    def EFG(self):
        return self.a11.value, self.a12.value, self.a22.value

    @property
    def sqrt_a(self):
        return self.sqrt_a_j.value

    @property
    def a(self):
        return self.aj.value

    def second_partials(self):
        """d2r/du^a du^b as float Vec3s: (r_uu, r_uv, r_vv)."""
        c = self.pos
        return (
            Vec3(c.x.c[_FUU], c.y.c[_FUU], c.z.c[_FUU]),
            Vec3(c.x.c[_FUV], c.y.c[_FUV], c.z.c[_FUV]),
            Vec3(c.x.c[_FVV], c.y.c[_FVV], c.z.c[_FVV]),
        )

    def efg(self):
        r_uu, r_uv, r_vv = self.second_partials()
        return r_uu.dot(self.n), r_uv.dot(self.n), r_vv.dot(self.n)

    def b_jets(self):
        """b11, b12, b22 as Jet2 (exact to order 1), for Codazzi."""
        return (self.E1j.du().dot(self.nj),
                self.E1j.dv().dot(self.nj),
                self.E2j.dv().dot(self.nj))

    def gamma2_jets(self):
        """Second-kind Christoffel symbols as jets (exact to order 1),
        in the order (11-1, 11-2, 12-1, 12-2, 22-1, 22-2)."""
        if self._gamma2_jets is None:
            E, F, G = self.a11, self.a12, self.a22
            self._gamma2_jets = _christoffel2(
                E, F, G, E.du(), E.dv(), F.du(), F.dv(), G.du(), G.dv(),
                self.aj)
        return self._gamma2_jets

    def gamma2(self):
        return tuple(g.value for g in self.gamma2_jets())

    def gamma1(self):
        """First-kind Christoffel symbols, same index order."""
        Eu, Ev = self.a11.c[_FU], self.a11.c[_FV]
        Fu, Fv = self.a12.c[_FU], self.a12.c[_FV]
        Gu, Gv = self.a22.c[_FU], self.a22.c[_FV]
        return (0.5 * Eu, Fu - 0.5 * Ev, 0.5 * Ev, 0.5 * Gu,
                Fv - 0.5 * Gu, 0.5 * Gv)

    def dn(self):
        """(dn/du, dn/dv) as float Vec3s from the normal jet."""
        n = self.nj
        return (Vec3(n.x.c[_FU], n.y.c[_FU], n.z.c[_FU]),
                Vec3(n.x.c[_FV], n.y.c[_FV], n.z.c[_FV]))


def _check_regular(a, trace, u, v):
    """Raise unless sqrt(a) = |E1 x E2| > EPS_REG * ``trace`` (E + G), i.e.
    unless sigma_min/sigma_max of the Jacobian clears about EPS_REG; an inf
    or nan metric is an overflow, not a singular point."""
    if not a < math.inf:
        raise OverflowError(
            f"surface metric overflows at (u, v)=({u!r}, {v!r})")
    eps = EPS_REG * trace
    if a <= eps * eps:
        raise SingularSurfacePoint(u, v)


def _christoffel2(E, F, G, Eu, Ev, Fu, Fv, Gu, Gv, a):
    """Second-kind Christoffel symbols from the metric, its first partials
    and a = EG - F^2, in the order (11-1, 11-2, 12-1, 12-2, 22-1, 22-2).
    Written for floats and Jet2 alike."""
    inv2a = 1.0 / (2.0 * a)
    return (
        (G * Eu - 2.0 * F * Fu + F * Ev) * inv2a,
        (2.0 * E * Fu - E * Ev - F * Eu) * inv2a,
        (G * Ev - F * Gu) * inv2a,
        (E * Gu - F * Ev) * inv2a,
        (2.0 * G * Fv - G * Gu - F * Gv) * inv2a,
        (E * Gv - 2.0 * F * Fv + F * Gu) * inv2a,
    )


def _metric_dot(E, F, G, X, Y):
    """First fundamental form I(X, Y) of two parameter-space vectors."""
    return E * X[0] * Y[0] + F * (X[0] * Y[1] + X[1] * Y[0]) + G * X[1] * Y[1]


@dataclass(frozen=True)
class MetricData:
    """Metric coefficients E, F, G, a = EG - F^2 and the second-kind
    Christoffel values; the lean path for geodesic/transport fields."""

    E: float
    F: float
    G: float
    a: float
    gamma2: tuple


def metric_and_gamma(surface, u, v):
    """Metric and second-kind Christoffel values at a regular point, from
    one call of the surface's order-2 kernel (no normal, no jets)."""
    (_, (xu, yu, zu), (xv, yv, zv), (xuu, yuu, zuu), (xuv, yuv, zuv),
     (xvv, yvv, zvv)) = surface.kernel(float(u), float(v))
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
    return MetricData(E=E, F=F, G=G, a=a,
                      gamma2=_christoffel2(E, F, G, Eu, Ev, Fu, Fv, Gu, Gv, a))


def surface_frame(surface, u, v):
    sj = _SurfaceJets(surface, u, v)
    return SurfaceFrame(E1=sj.E1, E2=sj.E2, n=sj.n, sqrt_a=sj.sqrt_a)


def forms(surface, u, v):
    """First, second and third fundamental forms plus both Christoffel
    kinds at a regular point."""
    sj = _SurfaceJets(surface, u, v)
    return _forms_from_jets(sj)


def _forms_from_jets(sj):
    E, F, G = sj.EFG
    e, f, g = sj.efg()
    a = sj.a
    iu, im, iv = G / a, -F / a, E / a   # contravariant metric
    c11 = iu * e * e + 2.0 * im * e * f + iv * f * f
    c12 = iu * e * f + im * (e * g + f * f) + iv * f * g
    c22 = iu * f * f + 2.0 * im * f * g + iv * g * g
    return FormBundle(E=E, F=F, G=G, e=e, f=f, g=g,
                      c11=c11, c12=c12, c22=c22,
                      gamma1=sj.gamma1(), gamma2=sj.gamma2(),
                      sqrt_a=sj.sqrt_a, n=sj.n)


def riemann_R1212(surface, u, v):
    """The single independent Riemann component, intrinsically:
    R1212 = (2 a12,uv - a11,vv - a22,uu)/2
            + a_ab (G^a_12 G^b_12 - G^a_11 G^b_22)."""
    sj = _SurfaceJets(surface, u, v)
    return _r1212_from_jets(sj)


def _r1212_from_jets(sj):
    a11, a12, a22 = sj.a11, sj.a12, sj.a22
    term = 0.5 * (2.0 * a12.c[_FUV] - a11.c[_FVV] - a22.c[_FUU])
    g = sj.gamma2()
    g11 = (g[0], g[1])
    g12 = (g[2], g[3])
    g22 = (g[4], g[5])
    amat = ((a11.value, a12.value), (a12.value, a22.value))
    acc = 0.0
    for al in range(2):
        for be in range(2):
            acc += amat[al][be] * (g12[al] * g12[be] - g11[al] * g22[be])
    return term + acc


def curvatures(surface, u, v):
    sj = _SurfaceJets(surface, u, v)
    return _curvatures_from_jets(sj)


def _curvatures_from_jets(sj):
    E, F, G = sj.EFG
    e, f, g = sj.efg()
    a = sj.a
    disc_b = e * g - f * f
    K = disc_b / a
    H = (e * G - 2.0 * f * F + g * E) / (2.0 * a)
    rad = max(H * H - K, 0.0)
    kappa1 = H + math.sqrt(rad)
    kappa2 = H - math.sqrt(rad)

    scale = sj.surface.scale
    b_mag = e * e + f * f + g * g
    flat = b_mag <= (1e-10 * max(1.0, 1.0 / scale)) ** 2
    thr = 1e-10 * (b_mag + scale ** -2)
    if flat:
        shape = "Flat"
    elif abs(disc_b) <= thr:
        shape = "Parabolic"
    elif disc_b > 0.0:
        shape = "Elliptic"
    else:
        shape = "Hyperbolic"

    umb = (H * H - K) <= EPS_UMB * max(H * H, abs(K), scale ** -4)
    if umb:
        kappa1 = kappa2 = H  # the sqrt term is pure roundoff at an umbilic

    dir1 = dir2 = dir1_uv = dir2_uv = None
    if not umb:
        roots = _principal_uv(E, F, G, e, f, g)
        if roots is not None:
            d1, d2 = roots
            kn1 = _normal_curvature(E, F, G, e, f, g, d1)
            if abs(kn1 - kappa1) > abs(kn1 - kappa2):
                d1, d2 = d2, d1
            dir1_uv = _metric_unit(E, F, G, d1)
            dir2_uv = _metric_unit(E, F, G, d2)
            dir1 = (sj.E1 * dir1_uv[0] + sj.E2 * dir1_uv[1]).normalized()
            dir2 = (sj.E1 * dir2_uv[0] + sj.E2 * dir2_uv[1]).normalized()

    return CurvatureData(K=K, H=H, kappa1=kappa1, kappa2=kappa2,
                         dir1=dir1, dir2=dir2,
                         dir1_uv=dir1_uv, dir2_uv=dir2_uv,
                         shape=shape, is_umbilic=umb)


def _normal_curvature(E, F, G, e, f, g, d):
    du, dv = d
    num = e * du * du + 2.0 * f * du * dv + g * dv * dv
    den = E * du * du + 2.0 * F * du * dv + G * dv * dv
    return num / den


def _metric_unit(E, F, G, d):
    """``d`` scaled to unit length in the metric."""
    du, dv = d
    n = math.sqrt(E * du * du + 2.0 * F * du * dv + G * dv * dv)
    if n == 0.0:
        raise ZeroVector("direction must be nonzero")
    return (du / n, dv / n)


def _principal_uv(E, F, G, e, f, g):
    """Directions solving (fE-eF) du^2 + (gE-eG) du dv + (gF-fG) dv^2 = 0,
    as (du, dv) pairs with dv/du = lambda."""
    A0 = f * E - e * F
    A1 = g * E - e * G
    A2 = g * F - f * G
    mag = max(abs(A0), abs(A1), abs(A2))
    if mag == 0.0:
        return None
    A0, A1, A2 = A0 / mag, A1 / mag, A2 / mag
    if abs(A2) < 1e-14:
        if abs(A1) < 1e-14:
            return None
        return ((1.0, -A0 / A1), (0.0, 1.0))
    disc = A1 * A1 - 4.0 * A2 * A0
    if disc < 0.0:
        disc = 0.0
    rt = math.sqrt(disc)
    if A1 >= 0.0:
        q = -0.5 * (A1 + rt)
    else:
        q = -0.5 * (A1 - rt)
    lam1 = q / A2
    lam2 = A0 / q if q != 0.0 else -A1 / A2
    return ((1.0, lam1), (1.0, lam2))


def gauss_weingarten_residuals(surface, u, v):
    """Scaled defect norms of the three Gauss equations
    dE_a/du^b = G^c_ab E_c + b_ab n and the two Weingarten equations
    dn/du^a = -b_a^b E_b.  Each residual is |lhs - rhs| / max(1, |lhs|, |rhs|)."""
    sj = _SurfaceJets(surface, u, v)
    E, F, G = sj.EFG
    e, f, g = sj.efg()
    a = sj.a
    gam = sj.gamma2()
    r_uu, r_uv, r_vv = sj.second_partials()
    n = sj.n
    out = []
    for lhs, (g1, g2), b in (
        (r_uu, (gam[0], gam[1]), e),
        (r_uv, (gam[2], gam[3]), f),
        (r_vv, (gam[4], gam[5]), g),
    ):
        rhs = sj.E1 * g1 + sj.E2 * g2 + n * b
        out.append(_scaled_defect(lhs, rhs))
    dn_du, dn_dv = sj.dn()
    w1 = sj.E1 * ((f * F - e * G) / a) + sj.E2 * ((e * F - f * E) / a)
    w2 = sj.E1 * ((g * F - f * G) / a) + sj.E2 * ((f * F - g * E) / a)
    out.append(_scaled_defect(dn_du, w1))
    out.append(_scaled_defect(dn_dv, w2))
    return tuple(out)


def _scaled_defect(lhs, rhs):
    return (lhs - rhs).norm() / max(1.0, lhs.norm(), rhs.norm())


def codazzi_compatibility_residuals(surface, u, v):
    """(two Codazzi-Mainardi defects, one compatibility defect), scaled.

    Codazzi:  b12,u - b11,v = b22 G^2_11 - b12 (G^2_12 - G^1_11) - b11 G^1_12
              b22,u - b12,v = b22 G^2_12 - b12 (G^2_22 - G^1_12) - b11 G^1_22
    Compatibility: eg - f^2 equals its Christoffel expression.
    """
    sj = _SurfaceJets(surface, u, v)
    b11, b12, b22 = sj.b_jets()
    gam = sj.gamma2()
    g111, g112, g121, g122, g221, g222 = gam

    lhs1 = b12.c[_FU] - b11.c[_FV]
    rhs1 = b22.value * g112 - b12.value * (g122 - g111) - b11.value * g121
    lhs2 = b22.c[_FU] - b12.c[_FV]
    rhs2 = b22.value * g122 - b12.value * (g222 - g121) - b11.value * g221
    r1 = abs(lhs1 - rhs1) / max(1.0, abs(lhs1), abs(rhs1))
    r2 = abs(lhs2 - rhs2) / max(1.0, abs(lhs2), abs(rhs2))

    gj = sj.gamma2_jets()
    E, F, _ = sj.EFG
    term_f = gj[5].c[_FU] - gj[3].c[_FV] + gj[4].value * g112 - gj[2].value * g122
    term_e = (gj[4].c[_FU] - gj[2].c[_FV] + gj[4].value * g111
              + gj[5].value * g121 - g121 * g121 - g122 * gj[4].value)
    e, f, g = sj.efg()
    lhs3 = e * g - f * f
    rhs3 = F * term_f + E * term_e
    r3 = abs(lhs3 - rhs3) / max(1.0, abs(lhs3), abs(rhs3))
    return r1, r2, r3


def form_identity_residual(surface, u, v):
    """max over indices of |K a_ab - 2H b_ab + c_ab|, scaled by the largest
    coefficient magnitude entering the identity."""
    sj = _SurfaceJets(surface, u, v)
    fb = _forms_from_jets(sj)
    cur = _curvatures_from_jets(sj)
    K, H = cur.K, cur.H
    worst = 0.0
    scale = 1e-300
    for a_c, b_c, c_c in ((fb.E, fb.e, fb.c11), (fb.F, fb.f, fb.c12),
                          (fb.G, fb.g, fb.c22)):
        terms = (K * a_c, -2.0 * H * b_c, c_c)
        scale = max(scale, *(abs(t) for t in terms))
        worst = max(worst, abs(sum(terms)))
    return worst / max(1.0, scale)


def _area_element(surface, u, v):
    """((r_uu, r_uv, r_vv), n, sqrt(a)) as Vec3s and a float, from the
    order-2 kernel, with the arithmetic of _SurfaceJets' values."""
    _, E1, E2, *second = [Vec3(*r) for r in surface.kernel(u, v)]
    cross = E1.cross(E2)
    a = cross.norm_sq()
    _check_regular(a, E1.dot(E1) + E2.dot(E2), u, v)
    sqrt_a = math.sqrt(a)
    return second, cross * (1.0 / sqrt_a), sqrt_a


def surface_area(surface, rect=None, spec=QuadSpec(tol=1e-9)):
    """Integral of sqrt(a) over the parameter rectangle (default: domain)."""
    rect = surface.domain if rect is None else rect

    def integrand(u, v):
        return _area_element(surface, u, v)[2]

    return quad2d(integrand, rect, spec)


def total_curvature(surface, rect=None, spec=QuadSpec(tol=1e-9)):
    """Integral of K dsigma = K sqrt(a) du dv over the rectangle."""
    rect = surface.domain if rect is None else rect

    def integrand(u, v):
        second, n, sqrt_a = _area_element(surface, u, v)
        e, f, g = (r.dot(n) for r in second)
        return (e * g - f * f) / sqrt_a

    return quad2d(integrand, rect, spec)


def angle_between(surface, u, v, A, B):
    """Angle in [0, pi] between tangent vectors given by surface components."""
    E, F, G = _SurfaceJets(surface, u, v).EFG
    na = math.sqrt(_metric_dot(E, F, G, A, A))
    nb = math.sqrt(_metric_dot(E, F, G, B, B))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("angle_between needs nonzero tangent vectors")
    c = _metric_dot(E, F, G, A, B) / (na * nb)
    return math.acos(min(1.0, max(-1.0, c)))


def sin_angle_between(surface, u, v, A, B):
    """sin(theta) via the surface alternating tensor, for cross-checks."""
    sj = _SurfaceJets(surface, u, v)
    E, F, G = sj.EFG
    A = _metric_unit(E, F, G, A)
    B = _metric_unit(E, F, G, B)
    return sj.sqrt_a * (A[0] * B[1] - A[1] * B[0])


def dupin_classification(surface, u, v):
    """Conic class of the Dupin indicatrix at the point."""
    shape = curvatures(surface, u, v).shape
    return {
        "Elliptic": "Ellipse",
        "Parabolic": "TwoParallelLines",
        "Hyperbolic": "ConjugateHyperbolas",
        "Flat": "Undefined",
    }[shape]
