"""Pointwise surface machinery: fundamental forms, Christoffel symbols,
the intrinsic curvature component R1212, principal/Gaussian/mean curvature,
local-shape and umbilic classification, and residual verifiers for the
Gauss, Weingarten, Codazzi-Mainardi and compatibility identities.

Pointwise quantities are floats computed from the surface's kernel, code
generated per surface definition, or recorded once from a jet-generic
Python function, that gives the position's partials through order 2.
Each is read through programs generated once per surface template
(``ParametricSurface.program``), the kernel's lines followed by the
consumer's; the formulas over the partials are written once, over jets,
in ``_geometry``, and taped into a program as float code that keeps the
Jet2 arithmetic.  The forms, curvatures, Christoffel symbols and dn are
read from one point bundle, ``_SurfacePoint``, built by one call of the
point program (``_point_terms``): the metric and normal tapes with the
regularity checks between them (``_normal_terms``), the tapes of the
metric partials and of dn, and the second-kind Christoffel symbols over
those floats (``_christoffel2``), so that it calls no derivative table
beyond the normal's.  The curvatures and the identity terms are filled in
on first read.  The identity checks read one program over the order-3
kernel (``_identity_terms``, third derivatives exact), run once per
bundle, and fold its sides and terms into scaled defects over floats.
The solvers' inner loops read no bundle: the tangent projection of
``surfacecurves._accel`` under the geodesic and transport fields,
``_metric_terms`` (E, F, G, a and ``_christoffel2``) under
``metric_and_gamma``, and ``_normal_terms`` under the ``surface_area``
and ``total_curvature`` integrands, which equal the bundle's values.  A
program's regularity checks are comparisons written into it
(``_regular``); only a point that fails one calls ``_check_regular``,
which raises.  An OverflowError in a program, or a ZeroDivisionError (a
derivative table's divisor underflows to 0 on a surface of scale 1e-30),
raises the OverflowError that names (u, v), which the CLI answers with
exit code 3 (5 for geodesic).
The unit normal is fixed by parameter order, n = E1 x E2 / |E1 x E2|; the
catalog documents which geometric side that is for each entry.  A point is
singular when a divisor, |E1 x E2|^2 or a = EG - F^2, is at most
(EPS_REG (E + G))^2.
"""

import math
from functools import cached_property

from .errors import DiffGeoError, SingularSurfacePoint, ZeroVector
from .expr import Recording, position_kernel, surface_program
from .quadrature import QuadSpec, _sum, quad2d
from .records import Record, Row, _new_row
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
# point bundles a surface keeps: twice the 40 sample points of a default
# verify table
_N_POINTS = 80

class ParametricSurface:
    """A map (u, v) -> R^3, evaluated through generated code.

    ``evaluator`` is the map as a Python function of u and v, written
    jet-generically (with the arithmetic, ``**`` and the functions of
    :mod:`diffgeo.jets`): run once on recorded jets, on first use, it
    becomes the surface's kernels and programs (``expr.Recording``).
    ``definition`` is the 'surface' definition that ``evaluator``
    evaluates, if any: the code is then generated from the definition.
    ``periodic`` gives the period per parameter or None; periodic
    directions are never flagged as domain exits.
    """

    def __init__(self, evaluator, domain, periodic=(None, None),
                 definition=None):
        self.evaluator = evaluator
        self.domain = tuple(float(x) for x in domain)  # (u0, u1, v0, v1)
        self.periodic = periodic
        self.definition = definition
        self._shape = (Recording(evaluator, ("u", "v")) if definition is None
                       else definition)
        self._points = {}   # _point's store: key -> bundle, oldest first
        self._programs = {}

    @cached_property
    def kernel(self):
        """Floats (u, v) -> (x, y, z) triples r, r_u, r_v, r_uu, r_uv, r_vv."""
        return position_kernel(self._shape, 2)

    @cached_property
    def composite(self):
        """Floats: the five Taylor rows (u_k, v_k) of a surface curve at t
        -> the five (x, y, z) triples r, r', .., r'''' of the composite
        r(u(t), v(t)) (order-4 code with jet inputs), equal to the Jet1
        coefficients of ``evaluator`` at those jets."""
        return position_kernel(self._shape, 4, jets=True)

    def program(self, formulas, sizes, curve=None, order=2):
        """``formulas`` over this surface's kernel through ``order`` as one
        generated function of arguments of ``sizes`` (surface_program),
        made on first use.  Formulas that read a curve are bound to the
        curve kernel ``curve`` on each call, and not kept."""
        fn = self._programs.get(formulas) if curve is None else None
        if fn is None:
            fn = surface_program(formulas, sizes, self._shape, curve, order)
            if curve is None:
                self._programs[formulas] = fn
        return fn

    def eval(self, u, v):
        """The position at (u, v) from ``evaluator``: a Vec3 of floats at
        floats (a definition's order-0 code), of jets at jets.  No kernel
        is generated."""
        return self.evaluator(u, v)

    @cached_property
    def scale(self):
        """Length scale: the ``_spread`` of r on a 4x4 probe grid, points
        where the kernel raises as at a bad point left out.  A definition
        surface's is kept on the definition per domain."""
        known = self._shape._scales
        if self.domain not in known:
            u0, u1, v0, v1 = self.domain
            kernel, probes = self.kernel, []   # made, or raising, here
            for i in range(4):
                for j in range(4):
                    u = u0 + (u1 - u0) * (i + 0.5) / 4.0
                    v = v0 + (v1 - v0) * (j + 0.5) / 4.0
                    try:
                        probes.append(kernel(u, v)[0])
                    except (DiffGeoError, ArithmeticError, ValueError):
                        continue
            known[self.domain] = _spread(probes)
        return known[self.domain]

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


class SurfaceFrame(Record):
    __slots__ = _fields = ("E1", "E2", "n", "sqrt_a")

    def __init__(self, E1, E2, n, sqrt_a):
        self.E1 = E1
        self.E2 = E2
        self.n = n
        self.sqrt_a = sqrt_a


class FormBundle(Record):
    """The three fundamental forms' coefficients, the Christoffel values of
    the first and second kind in the order (11-1, 11-2, 12-1, 12-2, 22-1,
    22-2), sqrt(a), the unit normal and a = EG - F^2."""

    __slots__ = _fields = ("E", "F", "G", "e", "f", "g", "c11", "c12",
                           "c22", "gamma1", "gamma2", "sqrt_a", "n", "a")

    def __init__(self, E, F, G, e, f, g, c11, c12, c22, gamma1, gamma2,
                 sqrt_a, n, a):
        self.E = E
        self.F = F
        self.G = G
        self.e = e
        self.f = f
        self.g = g
        self.c11 = c11
        self.c12 = c12
        self.c22 = c22
        self.gamma1 = gamma1
        self.gamma2 = gamma2
        self.sqrt_a = sqrt_a
        self.n = n
        self.a = a


class CurvatureData(Row):
    """Curvatures at one point; immutable, as points share them.  ``dir1``
    and ``dir2`` are unit tangent Vec3s and ``dir1_uv``, ``dir2_uv`` their
    metric-unit parameter components, all None at umbilics; ``shape`` is
    Flat, Elliptic, Parabolic or Hyperbolic."""

    __slots__ = ()
    _fields = ("K", "H", "kappa1", "kappa2", "dir1", "dir2", "dir1_uv",
               "dir2_uv", "shape", "is_umbilic")

    def __new__(cls, K, H, kappa1, kappa2, dir1, dir2, dir1_uv, dir2_uv,
                shape, is_umbilic):
        return _new_row(cls, (K, H, kappa1, kappa2, dir1, dir2, dir1_uv,
                              dir2_uv, shape, is_umbilic))


def _geometry(r):
    """The pointwise geometry of the position jet ``r``, written once over
    jets: a program's ``rec.tape`` records its Jet2 arithmetic as float
    code (so each value equals the Jet2 coefficient it stands for).
    Exactness: with r through total order 3, the metric is exact to order
    2, the normal to order 2, b and Gamma to order 1."""
    E1, E2 = r.du(), r.dv()
    E, F, G = E1.dot(E1), E1.dot(E2), E2.dot(E2)
    cross = E1.cross(E2)
    cross_sq = cross.norm_sq()
    sqrt_a = cross_sq.call("sqrt")
    n = cross / sqrt_a
    a = E * G - F * F
    gamma2 = _christoffel2(E, F, G, E.du(), E.dv(), F.du(), F.dv(), G.du(),
                           G.dv(), a)
    return {"E": E, "F": F, "G": G, "a": a, "cross_sq": cross_sq,
            "sqrt_a": sqrt_a, "nx": n.x, "ny": n.y, "nz": n.z,
            "b11": E1.du().dot(n), "b12": E1.dv().dot(n),
            "b22": E2.dv().dot(n),
            **dict(zip(("g11_1", "g11_2", "g12_1", "g12_2", "g22_1", "g22_2"),
                       gamma2))}


# groups of _geometry's (jet, slot) pairs, each one tape in a surface
# program; only _THIRD, of the identity program, reads third partials of
# the position
_METRIC = (("E", 0), ("F", 0), ("G", 0), ("a", 0), ("cross_sq", 0))
_NORMAL = (("sqrt_a", 0), ("nx", 0), ("ny", 0), ("nz", 0), ("b11", 0),
           ("b12", 0), ("b22", 0))
_PARTIALS = (("E", 1), ("E", 2), ("F", 1), ("F", 2), ("G", 1), ("G", 2))
_GAMMA2 = tuple((g, 0) for g in ("g11_1", "g11_2", "g12_1", "g12_2", "g22_1",
                                 "g22_2"))
_DN = (("nx", 1), ("ny", 1), ("nz", 1), ("nx", 2), ("ny", 2), ("nz", 2))
_THIRD = (("F", 4), ("E", 5), ("G", 3),             # R1212
          ("b12", 1), ("b11", 2), ("b22", 1), ("b12", 2),       # Codazzi
          ("g22_2", 1), ("g12_2", 2), ("g22_1", 1), ("g12_1", 2))


def _overflow(u, v):
    return OverflowError(f"surface jets overflow at (u, v)=({u!r}, {v!r})")


class _SurfacePoint:
    """The pointwise geometry of a surface at (u, v), over floats.

    Construction makes one call of the surface's point program
    (``_point_terms``), which checks regularity and computes the tangents
    E1 and E2, the metric, the normal, e, f, g, the metric partials, the
    second-kind Christoffel symbols over those floats and dn = (dn/du,
    dn/dv) as six floats.  An overflow on the way, or a derivative table
    dividing by an underflowed 0 (a surface of scale 1e-30), raises the
    OverflowError naming the point: exit 3 in the CLI.  ``curvatures`` and
    ``identities`` stay None until ``_curvatures`` and ``_identities``
    first read them.  It keeps the surface's scale, for the curvatures,
    and no reference to the surface that stores it."""

    __slots__ = ("u", "v", "scale", "E1", "E2", "EFG", "a", "sqrt_a", "n",
                 "efg", "metric_partials", "gamma2", "dn", "curvatures",
                 "identities")

    def __init__(self, surface, u, v):
        self.u, self.v = u, v = float(u), float(v)
        self.scale = surface.scale
        (E1, E2, self.EFG, self.a, self.sqrt_a, n, self.efg,
         self.metric_partials, self.gamma2, self.dn) = surface.program(
            _point_terms, (1, 1))(u, v)
        self.E1, self.E2, self.n = Vec3(*E1), Vec3(*E2), Vec3(*n)
        self.curvatures = self.identities = None


def _point(surface, u, v):
    """The _SurfacePoint of ``surface`` at (u, v), from the surface's store
    of its last _N_POINTS bundles, keyed by the exact point (signed zeros
    told apart).  A point not in the store is built and stored, the oldest
    evicted first, so the last point is always kept.  Pointwise checks,
    ``verify`` above all, ask for each point many times."""
    u, v = float(u), float(v)
    key = (u, v, math.copysign(1.0, u), math.copysign(1.0, v))
    store = surface._points
    p = store.get(key)
    if p is None:
        p = _SurfacePoint(surface, u, v)
        if len(store) == _N_POINTS:
            del store[next(iter(store))]
        store[key] = p
    return p


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


def _regular(rec, a, trace, u, v):
    """``_check_regular(a, trace, u, v)`` recorded into a surface program
    behind its fast path: the call, which raises, is made only where a is
    not both finite and above (EPS_REG * trace)^2."""
    eps = EPS_REG * trace
    rec.check(_check_regular, a, trace, u, v, floor=eps * eps)


def _christoffel2(E, F, G, Eu, Ev, Fu, Fv, Gu, Gv, a):
    """Second-kind Christoffel symbols from the metric, its first partials
    and a = EG - F^2, in the order (11-1, 11-2, 12-1, 12-2, 22-1, 22-2).
    Written for jets and tape terms alike."""
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


class MetricData(Row):
    """Metric coefficients E, F, G, a = EG - F^2 and the second-kind
    Christoffel values at one point."""

    __slots__ = ()
    _fields = ("E", "F", "G", "a", "gamma2")

    def __new__(cls, E, F, G, a, gamma2):
        return _new_row(cls, (E, F, G, a, gamma2))


def _metric_terms(rec, u, v):
    """E, F, G, a and the second-kind Christoffel values at the regular
    point (u, v), from the order-2 kernel triples alone (no normal, no
    jets): float formulas recorded into a surface program (``rec``, see
    ``ParametricSurface.program``), in the order of sums that the solver
    goldens were made with."""
    (_, (xu, yu, zu), (xv, yv, zv), (xuu, yuu, zuu), (xuv, yuv, zuv),
     (xvv, yvv, zvv)) = rec.kernel(u, v, _overflow)
    E = xu * xu + yu * yu + zu * zu
    F = xu * xv + yu * yv + zu * zv
    G = xv * xv + yv * yv + zv * zv
    a = E * G - F * F
    _regular(rec, a, E + G, u, v)
    Eu = 2.0 * (xu * xuu + yu * yuu + zu * zuu)
    Ev = 2.0 * (xu * xuv + yu * yuv + zu * zuv)
    Fu = (xuu * xv + yuu * yv + zuu * zv) + (xu * xuv + yu * yuv + zu * zuv)
    Fv = (xuv * xv + yuv * yv + zuv * zv) + (xu * xvv + yu * yvv + zu * zvv)
    Gu = 2.0 * (xv * xuv + yv * yuv + zv * zuv)
    Gv = 2.0 * (xv * xvv + yv * yvv + zv * zvv)
    return E, F, G, a, _christoffel2(E, F, G, Eu, Ev, Fu, Fv, Gu, Gv, a)


def _normal_terms(rec, u, v):
    """The kernel triples at (u, v), the _METRIC terms and the _NORMAL
    terms: the _METRIC tape, its two regularity checks (|E1 x E2|^2, which
    the normal divides by the root of, and a, which Gamma, K and H divide
    by), then the _NORMAL tape."""
    k = rec.kernel(u, v, _overflow)
    metric = E, F, G, a, cross_sq = rec.tape(_geometry, _METRIC, k)
    _regular(rec, cross_sq, E + G, u, v)
    _regular(rec, a, E + G, u, v)
    return k, metric, rec.tape(_geometry, _NORMAL, k)


def _point_terms(rec, u, v):
    """The fields of a _SurfacePoint at (u, v), in the order it unpacks
    them: E1, E2, (E, F, G), a, sqrt(a), n, (e, f, g), the _PARTIALS and
    the second-kind Christoffel values, over the floats of those terms
    (``_christoffel2``), then the _DN terms.  The tapes call no derivative
    table that the normal does not."""
    k, (E, F, G, a, _), (sqrt_a, nx, ny, nz, e, f, g) = _normal_terms(
        rec, u, v)
    partials = rec.tape(_geometry, _PARTIALS, k)
    return (k[1], k[2], (E, F, G), a, sqrt_a, (nx, ny, nz), (e, f, g),
            partials, _christoffel2(E, F, G, *partials, a),
            rec.tape(_geometry, _DN, k))


def _area_element(rec, u, v):
    return _normal_terms(rec, u, v)[2][0]


def _curvature_element(rec, u, v):
    """K sqrt(a) = (eg - f^2) / sqrt(a)."""
    sqrt_a, *_, e, f, g = _normal_terms(rec, u, v)[2]
    return (e * g - f * f) / sqrt_a


def _identity_terms(rec, u, v):
    """The inputs of the identity checks at (u, v), recorded over the
    order-3 kernel op for op as the _geometry tapes give them, one flat
    tuple: [0:30] the lhs and rhs triples of the three Gauss equations,
    then of the two Weingarten equations; [30:36] lhs, rhs of the two
    Codazzi equations and of the compatibility equation; [36:45] K a_ab,
    -2H b_ab and c_ab for ab = 11, 12, 22; [45] R1212; [46] eg - f ** 2."""
    k, (E, F, G, a, _), (_, nx, ny, nz, e, f, g) = _normal_terms(rec, u, v)
    terms = rec.tape(_geometry, _GAMMA2 + _DN + _THIRD, k)
    gam, dn = terms[:6], terms[6:12]
    F_uv, E_vv, G_uu, b12_u, b11_v, b22_u, b12_v, *dgam = terms[12:]
    E1, E2, n = Vec3(*k[1]), Vec3(*k[2]), Vec3(nx, ny, nz)
    out = []
    for lhs, g1, g2, b in zip(k[3:6], gam[0::2], gam[1::2], (e, f, g)):
        out += (*lhs, *(E1 * g1 + E2 * g2 + n * b))
    for lhs, w1, w2 in ((dn[:3], f * F - e * G, e * F - f * E),
                        (dn[3:], g * F - f * G, f * F - g * E)):
        out += (*lhs, *(E1 * (w1 / a) + E2 * (w2 / a)))

    g111, g112, g121, g122, g221, g222 = gam
    g222_u, g122_v, g221_u, g121_v = dgam
    term_f = g222_u - g122_v + g221 * g112 - g121 * g122
    term_e = (g221_u - g121_v + g221 * g111
              + g222 * g121 - g121 * g121 - g122 * g221)
    disc_b, K, H = _gauss_mean(E, F, G, e, f, g, a)
    out += (b12_u - b11_v, g * g112 - f * (g122 - g111) - e * g121,
            b22_u - b12_v, g * g122 - f * (g222 - g121) - e * g221,
            disc_b, F * term_f + E * term_e)

    c11, c12, c22 = _third_form(E, F, G, e, f, g, a)
    out += (K * E, -2.0 * H * e, c11, K * F, -2.0 * H * f, c12,
            K * G, -2.0 * H * g, c22)

    term = 0.5 * (2.0 * F_uv - E_vv - G_uu)
    amat = ((E, F), (F, G))
    g11, g12, g22 = gam[0:2], gam[2:4], gam[4:6]
    acc = 0.0
    for al in range(2):
        for be in range(2):
            acc += amat[al][be] * (g12[al] * g12[be] - g11[al] * g22[be])
    # the egregium row's eg - f^2 squares f by ``**``, as it always has
    return (*out, term + acc, rec.scalar("{} - {} ** 2", lambda p, q:
                                         p - q ** 2, (e * g).c, f.c))


def _identities(surface, u, v):
    """The identity program's outputs at (u, v) (``_identity_terms``), run
    once per point bundle and kept on it."""
    p = _point(surface, u, v)
    if p.identities is None:
        p.identities = surface.program(_identity_terms, (1, 1),
                                       order=3)(p.u, p.v)
    return p.identities


def metric_and_gamma(surface, u, v):
    """Metric and second-kind Christoffel values at a regular point, from
    the surface's generated program over its order-2 kernel (no normal, no
    jets)."""
    return MetricData(*surface.program(_metric_terms, (1, 1))(float(u),
                                                              float(v)))


def surface_frame(surface, u, v):
    p = _point(surface, u, v)
    return SurfaceFrame(E1=p.E1, E2=p.E2, n=p.n, sqrt_a=p.sqrt_a)


def forms(surface, u, v):
    """First, second and third fundamental forms plus both Christoffel
    kinds at a regular point."""
    return _forms_of(_point(surface, u, v))


def _forms_of(p):
    E, F, G = p.EFG
    e, f, g = p.efg
    a = p.a
    c11, c12, c22 = _third_form(E, F, G, e, f, g, a)
    Eu, Ev, Fu, Fv, Gu, Gv = p.metric_partials
    gamma1 = (0.5 * Eu, Fu - 0.5 * Ev, 0.5 * Ev, 0.5 * Gu, Fv - 0.5 * Gu,
              0.5 * Gv)
    return FormBundle(E=E, F=F, G=G, e=e, f=f, g=g,
                      c11=c11, c12=c12, c22=c22,
                      gamma1=gamma1, gamma2=p.gamma2,
                      sqrt_a=p.sqrt_a, n=p.n, a=a)


def _third_form(E, F, G, e, f, g, a):
    """The third form's c11, c12, c22 through the contravariant metric;
    written for floats and tape terms alike."""
    iu, im, iv = G / a, -F / a, E / a
    return (iu * e * e + 2.0 * im * e * f + iv * f * f,
            iu * e * f + im * (e * g + f * f) + iv * f * g,
            iu * f * f + 2.0 * im * f * g + iv * g * g)


def _gauss_mean(E, F, G, e, f, g, a):
    """eg - f^2, K and H; written for floats and tape terms alike."""
    disc_b = e * g - f * f
    return disc_b, disc_b / a, (e * G - 2.0 * f * F + g * E) / (2.0 * a)


def riemann_R1212(surface, u, v):
    """The single independent Riemann component, intrinsically:
    R1212 = (2 a12,uv - a11,vv - a22,uu)/2
            + a_ab (G^a_12 G^b_12 - G^a_11 G^b_22),
    from the identity program."""
    return _identities(surface, u, v)[45]


def curvatures(surface, u, v):
    return _curvatures(_point(surface, u, v))


def _curvatures(p):
    """K, H, the principal curvatures and directions and the shape at the
    point bundle ``p``: one immutable CurvatureData, made on first read and
    kept on ``p``, so every caller at the point shares it."""
    if p.curvatures is not None:
        return p.curvatures
    E, F, G = p.EFG
    e, f, g = p.efg
    disc_b, K, H = _gauss_mean(E, F, G, e, f, g, p.a)
    rad = max(H * H - K, 0.0)
    kappa1 = H + math.sqrt(rad)
    kappa2 = H - math.sqrt(rad)

    scale = p.scale
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
            dir1 = (p.E1 * dir1_uv[0] + p.E2 * dir1_uv[1]).normalized()
            dir2 = (p.E1 * dir2_uv[0] + p.E2 * dir2_uv[1]).normalized()

    p.curvatures = CurvatureData(K=K, H=H, kappa1=kappa1, kappa2=kappa2,
                                 dir1=dir1, dir2=dir2,
                                 dir1_uv=dir1_uv, dir2_uv=dir2_uv,
                                 shape=shape, is_umbilic=umb)
    return p.curvatures


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
    dn/du^a = -b_a^b E_b, from the identity program's lhs and rhs.  Each
    residual is |lhs - rhs| / max(1, |lhs|, |rhs|)."""
    t = _identities(surface, u, v)
    return tuple(_scaled_defect(t[i:i + 3], t[i + 3:i + 6])
                 for i in range(0, 30, 6))


def _scaled_defect(lhs, rhs):
    """|lhs - rhs| / max(1, |lhs|, |rhs|) for two (x, y, z) triples, each
    norm rounded as Vec3.norm rounds it."""
    (x, y, z), (p, q, r) = lhs, rhs
    dx, dy, dz = x - p, y - q, z - r
    return math.sqrt(dx * dx + dy * dy + dz * dz) / max(
        1.0, math.sqrt(x * x + y * y + z * z), math.sqrt(p * p + q * q + r * r))


def codazzi_compatibility_residuals(surface, u, v):
    """(two Codazzi-Mainardi defects, one compatibility defect), scaled.

    Codazzi:  b12,u - b11,v = b22 G^2_11 - b12 (G^2_12 - G^1_11) - b11 G^1_12
              b22,u - b12,v = b22 G^2_12 - b12 (G^2_22 - G^1_12) - b11 G^1_22
    Compatibility: eg - f^2 equals its Christoffel expression.
    Both sides of each are read from the identity program.
    """
    t = _identities(surface, u, v)
    return tuple(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
                 for lhs, rhs in (t[30:32], t[32:34], t[34:36]))


def form_identity_residual(surface, u, v):
    """max over indices of |K a_ab - 2H b_ab + c_ab|, scaled by the largest
    coefficient magnitude entering the identity; the terms are read from
    the identity program."""
    t = _identities(surface, u, v)
    worst = 0.0
    scale = 1e-300
    for terms in (t[36:39], t[39:42], t[42:45]):
        scale = max(scale, *map(abs, terms))
        worst = max(worst, abs(_sum(terms)))
    return worst / max(1.0, scale)


def surface_area(surface, rect=None, spec=QuadSpec(tol=1e-9)):
    """Integral of sqrt(a) over the parameter rectangle (default: domain)."""
    rect = surface.domain if rect is None else rect
    return quad2d(surface.program(_area_element, (1, 1)), rect, spec)


def total_curvature(surface, rect=None, spec=QuadSpec(tol=1e-9)):
    """Integral of K dsigma = K sqrt(a) du dv over the rectangle."""
    rect = surface.domain if rect is None else rect
    return quad2d(surface.program(_curvature_element, (1, 1)), rect, spec)


def angle_between(surface, u, v, A, B):
    """Angle in [0, pi] between tangent vectors given by surface components."""
    E, F, G = _point(surface, u, v).EFG
    na = math.sqrt(_metric_dot(E, F, G, A, A))
    nb = math.sqrt(_metric_dot(E, F, G, B, B))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("angle_between needs nonzero tangent vectors")
    c = _metric_dot(E, F, G, A, B) / (na * nb)
    return math.acos(min(1.0, max(-1.0, c)))


def sin_angle_between(surface, u, v, A, B):
    """sin(theta) via the surface alternating tensor, for cross-checks."""
    p = _point(surface, u, v)
    E, F, G = p.EFG
    A = _metric_unit(E, F, G, A)
    B = _metric_unit(E, F, G, B)
    return p.sqrt_a * (A[0] * B[1] - A[1] * B[0])


def dupin_classification(surface, u, v):
    """Conic class of the Dupin indicatrix at the point."""
    shape = curvatures(surface, u, v).shape
    return {
        "Elliptic": "Ellipse",
        "Parabolic": "TwoParallelLines",
        "Hyperbolic": "ConjugateHyperbolas",
        "Flat": "Undefined",
    }[shape]
