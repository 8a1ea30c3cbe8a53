"""Surface kernel: forms, Christoffel symbols, curvatures, residual
verifiers, areas and classification."""

import collections
import math
import random
import zlib

import pytest

from diffgeo import catalog, cli, expr, ode, surfaces
from diffgeo import jets as J
from diffgeo.errors import SingularSurfacePoint, ZeroVector
from diffgeo.quadrature import QuadSpec
from diffgeo.surfaces import (_N_POINTS, ParametricSurface, _SurfacePoint,
                              angle_between,
                              codazzi_compatibility_residuals, curvatures,
                              dupin_classification, form_identity_residual,
                              forms, gauss_weingarten_residuals,
                              metric_and_gamma, riemann_R1212,
                              sin_angle_between, surface_area, surface_frame,
                              total_curvature)
from diffgeo.surfacecurves import (SurfaceCurve, _geodesic_rhs,
                                   _transport_rhs, jet_kernel,
                                   bonnet_torsion_check,
                                   curvature_split, liouville_check,
                                   principal_direction_field)
from diffgeo.vectors import Vec3, _spread

import reference
from conftest import count_evals, surface_samples

PLANE = catalog.make("plane")
POLAR = catalog.make("plane-polar")
SPHERE = catalog.make("sphere")
SPHERE2 = catalog.make("sphere", R=2.0)
TORUS = catalog.make("torus")
CATENOID = catalog.make("catenoid")
CYLINDER = catalog.make("cylinder", rho=2.0)
MONGE_SADDLE = catalog.make("monge", f="u^2 - v^2")
SURFACE_NAMES = [n for n in catalog.names()
                 if catalog.entry(n).kind == "surface"]
# a callable written over jets, not a definition
BOWL = ParametricSurface(
    lambda u, v: Vec3(u * J.cos(v), u * J.sin(v), 0.5 * u * u + J.exp(u)),
    (0.5, 2.0, -3.0, 3.0))


def _plain(x):
    """Results as nested tuples of floats, so that == compares values."""
    if isinstance(x, Vec3):
        return tuple(x)
    if hasattr(x, "_fields"):
        return tuple(_plain(getattr(x, f)) for f in x._fields)
    if isinstance(x, (tuple, list)):
        return tuple(_plain(e) for e in x)
    return x


def _outcome(fn, *args):
    try:
        return _plain(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


class TestFrame:
    def test_plane(self):
        fr = surface_frame(PLANE, 0.3, -0.7)
        assert (fr.n - Vec3(0, 0, 1)).norm() <= 1e-15
        assert abs(fr.sqrt_a - 1.0) <= 1e-15

    def test_cone_apex_singular(self):
        cone = catalog.make("cone")
        with pytest.raises(SingularSurfacePoint):
            surface_frame(cone, 0.0, 1.0)

    @pytest.mark.parametrize("kernel", ["generated", "jet2"])
    def test_wide_plane_regular(self, kernel):
        # the floor is relative to E + G, not to the probe grid's extent
        wide = catalog.build(expr.load_definition(
            "surface wide\nparam u in [-1e7, 1e7]\nparam v in [-1e7, 1e7]\n"
            "x = u\ny = v\nz = 0\n"))
        if kernel == "jet2":
            wide = reference.jet_fed(wide)
        assert metric_and_gamma(wide, 0.3, 0.2).a == 1.0
        assert curvatures(wide, 0.3, 0.2).K == 0.0
        assert total_curvature(wide, (0.0, 1.0, 0.0, 1.0)) == 0.0

    @pytest.mark.parametrize("name, point", [
        ("cone", (0.0, 1.0)), ("sphere", (0.3, math.pi / 2)),
        ("sphere", (0.3, -math.pi / 2))], ids=["cone-apex", "north", "south"])
    def test_chart_singularities_on_every_path(self, name, point):
        shape = catalog.make(name)
        for fn in (metric_and_gamma, surface_frame):
            for s in (shape, ParametricSurface(shape.evaluator, shape.domain),
                      reference.jet_fed(shape)):
                with pytest.raises(SingularSurfacePoint):
                    fn(s, *point)

    def test_scale_ignores_translation(self):
        lifted = catalog.make("monge", f="u^2 - v^2 + 1e6")
        assert lifted.scale == pytest.approx(MONGE_SADDLE.scale, rel=1e-9)
        far = catalog.make("monge", f="1e200")
        assert far.scale == catalog.make("monge", f="0").scale
        surface_frame(far, 0.3, 0.2)    # regular, as the plane z = 0 is

    @pytest.mark.parametrize("name", SURFACE_NAMES + ["callable"])
    def test_scale_equals_jet2_probe(self, name):
        # the probes read the kernel's r, which is the Jet2 value slot
        shape = BOWL if name == "callable" else catalog.make(name)
        u0, u1, v0, v1 = shape.domain
        probes = []
        for i in range(4):
            for j in range(4):
                try:
                    probes.append(reference.jet2_triples(
                        shape, u0 + (u1 - u0) * (i + 0.5) / 4,
                        v0 + (v1 - v0) * (j + 0.5) / 4)[0])
                except Exception:
                    continue
        assert shape.scale == _spread(probes)

    @pytest.mark.parametrize("fault", [ZeroDivisionError, ValueError,
                                       RuntimeError])
    def test_scale_leaves_out_bad_points_only(self, fault):
        # a probe raising as at a bad point is left out of the scale; any
        # other exception is a bug in the kernel, and propagates
        def kernel(u, v):
            if u < 0.7 and v < -2.0:    # the first probe only
                raise fault("probe (0, 0)")
            return BOWL.kernel(u, v)

        shape = ParametricSurface(BOWL.evaluator, BOWL.domain)
        shape.kernel = kernel
        if fault is RuntimeError:
            with pytest.raises(RuntimeError, match="probe"):
                shape.scale
            return
        u0, u1, v0, v1 = shape.domain
        probes = [BOWL.kernel(u0 + (u1 - u0) * (i + 0.5) / 4,
                              v0 + (v1 - v0) * (j + 0.5) / 4)[0]
                  for i in range(4) for j in range(4) if i or j]
        assert shape.scale == _spread(probes)

    @pytest.mark.parametrize("kernel", ["generated", "jet2"])
    def test_overflow_names_the_point(self, kernel):
        # regular at order 2; Jet2._compose's u ** 3 overflows on the
        # first partial 1e110 of the sine's argument
        steep = catalog.build(expr.load_definition(
            "surface steep\nparam u in [0, 1]\nparam v in [0, 1]\n"
            "x = u\ny = v\nz = 1e-100*sin(1e110*u)\n"))
        # the identity checks share one program over the order-3 kernel
        fns = [codazzi_compatibility_residuals, riemann_R1212,
               gauss_weingarten_residuals, form_identity_residual,
               lambda s, u, v: curvature_split(
                   SurfaceCurve.straight(s, (u, v), (1.0, 0.0)), 0.0)]
        if kernel == "jet2":    # one Jet2 evaluation computes order 3,
            steep = reference.jet_fed(steep)    # which the bundle once read
            fns.append(reference.SurfacePoint)
        # the point program reads the order-2 kernel alone
        assert math.isfinite(curvatures(steep, 0.3, 0.2).H)
        for fn in fns:
            with pytest.raises(OverflowError,
                               match=r"^surface jets overflow at "
                                     r"\(u, v\)=\(0\.3, 0\.2\)$"):
                fn(steep, 0.3, 0.2)

    def test_sphere_normal_radial_unit(self):
        fr = surface_frame(SPHERE2, 1.1, 0.0)
        p = SPHERE2.eval(1.1, 0.0)
        # outward normal: n parallel to the position vector
        assert (fr.n - p * (1.0 / p.norm())).norm() <= 1e-12
        assert abs(fr.n.norm() - 1.0) <= 1e-12
        assert abs(fr.n.dot(fr.E1)) <= 1e-10 * 4.0
        assert abs(fr.n.dot(fr.E2)) <= 1e-10 * 4.0
        assert abs(fr.sqrt_a - fr.E1.cross(fr.E2).norm()) <= 1e-12


class TestForms:
    def test_plane_trivial(self):
        fb = forms(PLANE, 0.2, 0.9)
        assert (fb.E, fb.F, fb.G) == (1.0, 0.0, 1.0)
        assert (fb.e, fb.f, fb.g) == (0.0, 0.0, 0.0)
        assert all(g == 0.0 for g in fb.gamma1)
        assert all(g == 0.0 for g in fb.gamma2)

    def test_monge_bowl_first_form(self):
        bowl = catalog.make("monge", f="u^2 + v^2")
        fb = forms(bowl, 1.0, 0.0)
        assert abs(fb.E - 5.0) <= 1e-14
        assert abs(fb.F) <= 1e-14
        assert abs(fb.G - 1.0) <= 1e-14

    def test_polar_plane_christoffels(self):
        fb = forms(POLAR, 2.0, 0.8)
        # order: (11-1, 11-2, 12-1, 12-2, 22-1, 22-2)
        assert abs(fb.gamma2[4] - (-2.0)) <= 1e-12   # (22-1) = -u
        assert abs(fb.gamma2[3] - 0.5) <= 1e-12      # (12-2) = 1/u

    def test_first_form_positive_definite(self):
        rng = random.Random(9)
        for u, v in surface_samples("torus", TORUS, rng, 25):
            fb = forms(TORUS, u, v)
            assert fb.E > 0 and fb.G > 0 and fb.a > 0

    def test_second_kind_christoffels_against_basis_route(self):
        # Gamma^c_ab = (dE_a/du^b) . E^c with E^c the reciprocal basis
        rng = random.Random(10)
        for name, shape in (("torus", TORUS), ("catenoid", CATENOID),
                            ("monge", MONGE_SADDLE)):
            for u, v in surface_samples(name, shape, rng, 8):
                sj = _SurfacePoint(shape, u, v)
                fb = forms(shape, u, v)
                a = fb.a
                Eup = (sj.E1 * (fb.G / a)) - (sj.E2 * (fb.F / a))
                Evp = (sj.E2 * (fb.E / a)) - (sj.E1 * (fb.F / a))
                r_uu, r_uv, r_vv = (Vec3(*r)
                                    for r in shape.kernel(u, v)[3:6])
                want = (r_uu.dot(Eup), r_uu.dot(Evp), r_uv.dot(Eup),
                        r_uv.dot(Evp), r_vv.dot(Eup), r_vv.dot(Evp))
                for have, ref in zip(fb.gamma2, want):
                    assert abs(have - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_metric_partials_match_first_kind_christoffels(self):
        # da_ab/du^c = [ac,b] + [bc,a]
        rng = random.Random(12)
        for u, v in surface_samples("torus", TORUS, rng, 10):
            sj = _SurfacePoint(TORUS, u, v)
            g1 = forms(TORUS, u, v).gamma1
            lut = {(1, 1, 1): g1[0], (1, 1, 2): g1[1], (1, 2, 1): g1[2],
                   (2, 1, 1): g1[2], (1, 2, 2): g1[3], (2, 1, 2): g1[3],
                   (2, 2, 1): g1[4], (2, 2, 2): g1[5]}
            Eu, Ev, Fu, Fv, Gu, Gv = sj.metric_partials
            partials = {(1, 1): (Eu, Ev), (1, 2): (Fu, Fv), (2, 2): (Gu, Gv)}
            for (al, be), pair in partials.items():
                for ga in (1, 2):
                    d_val = pair[ga - 1]
                    want = lut[(al, ga, be)] + lut[(be, ga, al)]
                    assert abs(d_val - want) <= 1e-9 * max(1.0, abs(want))

    def test_third_form_against_normal_derivatives(self):
        # c_ab also equals (dn/du^a) . (dn/du^b): an independent route
        rng = random.Random(13)
        for name, shape in (("torus", TORUS), ("catenoid", CATENOID)):
            for u, v in surface_samples(name, shape, rng, 8):
                sj = _SurfacePoint(shape, u, v)
                fb = forms(shape, u, v)
                dn_du, dn_dv = Vec3(*sj.dn[:3]), Vec3(*sj.dn[3:])
                for have, want in ((fb.c11, dn_du.dot(dn_du)),
                                   (fb.c12, dn_du.dot(dn_dv)),
                                   (fb.c22, dn_dv.dot(dn_dv))):
                    assert abs(have - want) <= 1e-9 * max(1.0, abs(want))

    def test_third_form_trace_identity(self):
        for u, v in ((1.0, 2.0), (4.0, 5.5)):
            fb = forms(CATENOID, u % math.pi, (v % 3.0) - 1.4)
            cd = curvatures(CATENOID, u % math.pi, (v % 3.0) - 1.4)
            a = fb.a
            # trace with the metric: a^{ab} c_ab
            tr = (fb.G * fb.c11 - 2 * fb.F * fb.c12 + fb.E * fb.c22) / a
            assert abs(tr - (4 * cd.H ** 2 - 2 * cd.K)) <= 1e-9


class TestIntrinsicCurvature:
    def test_plane_flat(self):
        assert abs(riemann_R1212(PLANE, 0.5, 0.5)) <= 1e-14
        assert abs(riemann_R1212(POLAR, 2.0, 1.0)) <= 1e-12

    def test_sphere_value(self):
        fb = forms(SPHERE2, 0.4, 0.3)
        want = 0.25 * fb.a  # K * a with K = 1/R^2
        assert abs(riemann_R1212(SPHERE2, 0.4, 0.3) - want) <= 1e-9

    def test_torus_grid_intrinsic_vs_extrinsic(self):
        worst = 0.0
        for i in range(8):
            for j in range(8):
                u = 0.2 + i * 0.7
                v = 0.15 + j * 0.75
                fb = forms(TORUS, u, v)
                k_ext = (fb.e * fb.g - fb.f ** 2) / fb.a
                k_int = riemann_R1212(TORUS, u, v) / fb.a
                worst = max(worst, abs(k_ext - k_int))
        assert worst <= 1e-7


class TestCurvatures:
    def test_sphere_reference(self):
        rng = random.Random(4)
        for u, v in surface_samples("sphere", SPHERE2, rng, 20):
            cd = curvatures(SPHERE2, u, v)
            assert abs(cd.K - 0.25) <= 1e-9
            assert abs(abs(cd.H) - 0.5) <= 1e-9
            assert cd.is_umbilic
            assert cd.shape == "Elliptic"
            assert cd.dir1 is None

    def test_torus_outer_equator(self):
        cd = curvatures(TORUS, 0.7, math.pi / 2)
        assert abs(cd.K - 0.25) <= 1e-9
        assert abs(cd.H - 0.625) <= 1e-9

    def test_torus_shape_regions(self):
        assert curvatures(TORUS, 1.0, math.pi / 2).shape == "Elliptic"
        assert curvatures(TORUS, 1.0, 3 * math.pi / 2).shape == "Hyperbolic"
        assert curvatures(TORUS, 1.0, 0.0).shape == "Parabolic"
        assert curvatures(TORUS, 1.0, math.pi).shape == "Parabolic"

    def test_cylinder(self):
        cd = curvatures(CYLINDER, 0.5, 1.0)
        assert abs(cd.K) <= 1e-12
        assert abs(cd.kappa1) <= 1e-10
        assert abs(cd.kappa2 + 0.5) <= 1e-10  # -1/rho, outward normal
        assert cd.shape == "Parabolic"

    def test_product_and_mean_consistency(self):
        rng = random.Random(6)
        for u, v in surface_samples("torus", TORUS, rng, 30):
            cd = curvatures(TORUS, u, v)
            assert abs(cd.kappa1 * cd.kappa2 - cd.K) \
                <= 1e-8 * max(1.0, abs(cd.K))
            assert abs(0.5 * (cd.kappa1 + cd.kappa2) - cd.H) \
                <= 1e-8 * max(1.0, abs(cd.H))
            assert cd.kappa1 >= cd.kappa2
            if not cd.is_umbilic:
                assert abs(cd.dir1.dot(cd.dir2)) <= 1e-8

    def test_reparameterization_invariance(self):
        # shear substitution u = p + 0.3 q, v = q (Jacobian 1)
        def sheared(p, q):
            return TORUS.evaluator(p + 0.3 * q, q)

        warped = ParametricSurface(sheared, TORUS.domain)
        rng = random.Random(7)
        for _ in range(10):
            p, q = rng.uniform(0.5, 5.5), rng.uniform(0.5, 5.5)
            a_orig = forms(TORUS, p + 0.3 * q, q)
            a_new = forms(warped, p, q)
            c_orig = curvatures(TORUS, p + 0.3 * q, q)
            c_new = curvatures(warped, p, q)
            assert abs(c_orig.K - c_new.K) <= 1e-8 * max(1, abs(c_orig.K))
            assert abs(c_orig.H ** 2 - c_new.H ** 2) <= 1e-8
            assert c_orig.shape == c_new.shape
            assert c_orig.is_umbilic == c_new.is_umbilic
            assert abs(a_new.a - a_orig.a) <= 1e-8 * a_orig.a  # J = 1

    def test_metric_determinant_jacobian_scaling(self):
        # u = 2p: J = det d(u,v)/d(p,q) = 2 so a_new = 4 a_orig
        def stretched(p, q):
            return TORUS.evaluator(2.0 * p, q)

        warped = ParametricSurface(stretched, (0, math.pi, 0, 2 * math.pi))
        fb_o = forms(TORUS, 1.6, 2.0)
        fb_n = forms(warped, 0.8, 2.0)
        assert abs(fb_n.a - 4.0 * fb_o.a) <= 1e-9 * fb_o.a

    def test_orientation_flip(self):
        def flipped(u, v):
            return TORUS.evaluator(v, u)

        swapped = ParametricSurface(flipped, (0, 2 * math.pi, 0, 2 * math.pi))
        for u, v in ((1.0, 2.0), (2.5, 4.0)):
            c1 = curvatures(TORUS, u, v)
            c2 = curvatures(swapped, v, u)
            assert abs(c1.K - c2.K) <= 1e-10 * max(1, abs(c1.K))
            assert abs(c1.H + c2.H) <= 1e-10 * max(1, abs(c1.H))
            assert c1.shape == c2.shape

    def test_scaling_law(self):
        def doubled(u, v):
            return TORUS.evaluator(u, v) * 2.0

        big = ParametricSurface(doubled, TORUS.domain)
        c1 = curvatures(TORUS, 1.2, 2.2)
        c2 = curvatures(big, 1.2, 2.2)
        assert abs(c2.K - c1.K / 4.0) <= 1e-10


class TestResidualVerifiers:
    def test_plane_exact(self):
        assert max(gauss_weingarten_residuals(PLANE, 0.1, 0.2)) == 0.0
        assert codazzi_compatibility_residuals(PLANE, 0.1, 0.2) == (0, 0, 0)
        assert form_identity_residual(PLANE, 0.1, 0.2) <= 1e-14

    def test_sphere_random_points(self):
        rng = random.Random(21)
        for u, v in surface_samples("sphere", SPHERE, rng, 15):
            assert max(gauss_weingarten_residuals(SPHERE, u, v)) <= 1e-9

    def test_normal_derivative_cross_identity(self):
        # dn/du x dn/dv = K (E1 x E2)
        rng = random.Random(22)
        for name, shape in (("sphere", SPHERE), ("torus", TORUS)):
            for u, v in surface_samples(name, shape, rng, 10):
                sj = _SurfacePoint(shape, u, v)
                dn_du, dn_dv = Vec3(*sj.dn[:3]), Vec3(*sj.dn[3:])
                K = curvatures(shape, u, v).K
                want = sj.E1.cross(sj.E2) * K
                assert (dn_du.cross(dn_dv) - want).norm() \
                    <= 1e-9 * max(1.0, want.norm())

    def test_codazzi_on_grids(self):
        for name, shape in (("torus", TORUS), ("catenoid", CATENOID),
                            ("monge", MONGE_SADDLE)):
            rect = catalog.entry(name).sample_domain or shape.domain
            worst = 0.0
            for i in range(6):
                for j in range(6):
                    u = rect[0] + (rect[1] - rect[0]) * (i + 0.5) / 6
                    v = rect[2] + (rect[3] - rect[2]) * (j + 0.5) / 6
                    worst = max(worst,
                                max(codazzi_compatibility_residuals(shape, u, v)))
            assert worst <= 1e-8, name

    def test_form_identity_catenoid(self):
        assert form_identity_residual(CATENOID, 1.0, 0.7) <= 1e-9
        assert form_identity_residual(SPHERE, 0.5, 0.2) <= 1e-10


class TestAreasAndTotals:
    def test_unit_sphere_area(self):
        assert abs(surface_area(SPHERE) - 4 * math.pi) <= 1e-6

    def test_sphere_total_curvature(self):
        assert abs(total_curvature(SPHERE) - 4 * math.pi) <= 1e-6

    def test_torus_total_curvature_zero(self):
        assert abs(total_curvature(TORUS)) <= 1e-6

    def test_subrectangle(self):
        val = surface_area(PLANE, (0, 2, 0, 3))
        assert abs(val - 6.0) <= 1e-12

    def test_singular_point_inside_aborts_with_location(self):
        cone = catalog.make("cone")
        with pytest.raises(SingularSurfacePoint) as exc:
            surface_area(cone, (-1.0, 1.0, -1.0, 1.0), QuadSpec(tol=1e-8))
        assert exc.value.u is not None


class TestAnglesAndClasses:
    def test_sphere_coordinate_curves_orthogonal(self):
        assert abs(angle_between(SPHERE, 0.3, 0.4, (1, 0), (0, 1))
                   - math.pi / 2) <= 1e-12

    def test_same_vector_zero_angle(self):
        assert angle_between(TORUS, 1.0, 2.0, (0.3, 0.7), (0.3, 0.7)) <= 1e-7

    def test_polar_plane_metric_diag(self):
        th = angle_between(POLAR, 2.0, 1.0, (1, 0), (0, 1))
        assert abs(math.cos(th)) <= 1e-12

    def test_sin_cross_check(self):
        rng = random.Random(31)
        for u, v in surface_samples("torus", TORUS, rng, 10):
            A = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            B = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*A) < 0.1 or math.hypot(*B) < 0.1:
                continue
            th = angle_between(TORUS, u, v, A, B)
            s = sin_angle_between(TORUS, u, v, A, B)
            assert abs(math.sin(th) - abs(s)) <= 1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            angle_between(TORUS, 1.0, 2.0, (0.0, 0.0), (1.0, 0.0))

    def test_dupin_classes(self):
        assert dupin_classification(SPHERE, 0.3, 0.2) == "Ellipse"
        assert dupin_classification(CYLINDER, 0.3, 0.2) == "TwoParallelLines"
        assert dupin_classification(PLANE, 0.3, 0.2) == "Undefined"
        assert dupin_classification(TORUS, 1.0, 3 * math.pi / 2) \
            == "ConjugateHyperbolas"


class TestEgregium:
    @pytest.mark.parametrize("name,overrides", [
        ("sphere", {}), ("torus", {}), ("catenoid", {}),
        ("monge", {"f": "u^2 - v^2"}),
    ])
    def test_intrinsic_equals_extrinsic(self, name, overrides):
        shape = catalog.make(name, **overrides)
        rng = random.Random(zlib.crc32(name.encode()))
        for u, v in surface_samples(name, shape, rng, 50):
            fb = forms(shape, u, v)
            k_ext = (fb.e * fb.g - fb.f ** 2) / fb.a
            k_int = riemann_R1212(shape, u, v) / fb.a
            assert abs(k_int - k_ext) <= 1e-7 * max(1.0, abs(k_ext))


class TestMetricFastPath:
    def test_kernel_evaluates_no_jets(self, monkeypatch):
        assert TORUS.kernel is not None    # generated before counting
        counts = count_evals(monkeypatch)
        metric_and_gamma(TORUS, 0.7, 1.1)
        total_curvature(TORUS, (0.5, 0.6, 1.0, 1.1), QuadSpec(tol=1e-6))
        surface_area(TORUS, (0.5, 0.6, 1.0, 1.1), QuadSpec(tol=1e-6))
        assert not counts

    def test_one_generation_per_template(self, monkeypatch):
        expr._GENERATED.clear()
        made = []

        class Counted(expr._Recorder):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(expr, "_Recorder", Counted)
        small, large = catalog.make("torus", R=2.0), catalog.make("torus", R=5.0)
        jet2 = reference.jet2_triples
        assert small.kernel(0.7, 1.1) == jet2(small, 0.7, 1.1)[:6]
        assert large.kernel(0.7, 1.1) == jet2(large, 0.7, 1.1)[:6]
        assert small.kernel(0.7, 1.1) != large.kernel(0.7, 1.1)
        assert small.eval(0.7, 1.1) != large.eval(0.7, 1.1)
        # templates only: eval_literal folds the numbers with _Recorder(0)
        orders = [args[0] for args in made if args[1:]]
        assert sorted(orders) == [0, 2]
        assert reference.kernel3(small)(0.7, 1.1) == jet2(small, 0.7, 1.1)
        assert reference.kernel3(large)(0.7, 1.1) == jet2(large, 0.7, 1.1)
        assert sorted(args[0] for args in made if args[1:]) == [0, 2, 3]

    def test_jet2_fallback_equals_kernel(self):
        # the metric over one Jet2 evaluation per point, and the program
        # recorded from the torus' evaluator, equal the definition's
        recorded = ParametricSurface(TORUS.evaluator, TORUS.domain)
        jet2 = reference.jet_fed(TORUS).kernel
        rng = random.Random(zlib.crc32(b"fallback"))
        for u, v in surface_samples("torus", TORUS, rng, 50):
            want = metric_and_gamma(TORUS, u, v)
            assert metric_and_gamma(recorded, u, v) == want
            assert reference.metric_gamma(jet2, u, v) == tuple(want)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_gamma_field_equals_metric_and_gamma(self, name):
        # the fields' tangent projection and metric_and_gamma's Christoffel
        # formula are two roundings of -Gamma(X, Y): they agree to 1e-14
        # relative to max(1, |value|) (the worst seen is about 1e-15)
        shape = catalog.make(name)
        geodesic = _geodesic_rhs(shape)
        rng = random.Random(zlib.crc32(b"gamma field " + name.encode()))
        for u, v in surface_samples(name, shape, rng, 40):
            du, dv, A1, A2 = (rng.uniform(-1.0, 1.0) for _ in range(4))
            transport = _transport_rhs(SurfaceCurve(
                shape, lambda t: ((u, v), (du, dv)), (0.0, 1.0)))
            g = metric_and_gamma(shape, u, v).gamma2
            for got, (X, Y) in (
                    (geodesic(0.0, (u, v, du, dv))[2:], ((du, dv), (du, dv))),
                    (transport(0.0, (A1, A2)), ((du, dv), (A1, A2)))):
                c11, c22 = X[0] * Y[0], X[1] * Y[1]
                c12 = X[0] * Y[1] + X[1] * Y[0]
                want = (-(g[0] * c11 + g[2] * c12 + g[4] * c22),
                        -(g[1] * c11 + g[3] * c12 + g[5] * c22))
                for x, ref in zip(got, want):
                    assert abs(x - ref) <= 1e-14 * max(1.0, abs(ref)), \
                        (u, v, X, Y)

    @pytest.mark.parametrize("shape, point, error", [
        (catalog.make("cone"), (0.0, 1.0), SingularSurfacePoint),
        (catalog.make("sphere"), (0.3, math.pi / 2), SingularSurfacePoint),
        (catalog.make("monge", f="exp(1000*u)"), (0.8, 0.2), OverflowError),
        (catalog.make("monge", f="1e200*u"), (0.3, 0.2), OverflowError),
    ], ids=["cone-apex", "pole", "jets-overflow", "metric-overflow"])
    def test_gamma_field_errors(self, shape, point, error):
        field = _geodesic_rhs(shape)
        got = _outcome(lambda u, v: field(0.0, (u, v, 1.0, 0.5)), *point)
        assert got == _outcome(metric_and_gamma, shape, *point)
        assert got[0] is error and f"(u, v)=({point[0]!r}, {point[1]!r})" \
            in got[1]

    def test_matches_forms(self):
        rng = random.Random(40)
        for u, v in surface_samples("torus", TORUS, rng, 10):
            md = metric_and_gamma(TORUS, u, v)
            fb = forms(TORUS, u, v)
            assert abs(md.E - fb.E) <= 1e-14 * max(1, fb.E)
            assert abs(md.G - fb.G) <= 1e-14 * max(1, fb.G)
            for a, b in zip(md.gamma2, fb.gamma2):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestPointBundle:
    """The point bundle, one run of the point program, equals (==) the
    reference bundle fed by one Jet2 evaluation per point, as do the
    curvatures and forms over each; the checks that read a composite
    kernel equal those over one Jet1 evaluation."""

    @staticmethod
    def _fields(p):
        return (p.E1, p.E2, p.EFG, p.a, p.sqrt_a, p.n, p.efg,
                p.metric_partials, p.gamma2, p.dn)

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_kernel_fed_equals_jet2_fed(self, name):
        shape = catalog.make(name)
        ref = reference.jet_fed(shape)
        rng = random.Random(zlib.crc32(b"bundle " + name.encode()))
        compared = 0
        for u, v in surface_samples(name, shape, rng, 12):
            d = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))

            def results(s, point, identities):
                straight = SurfaceCurve.straight(s, (u, v), d, (-0.05, 0.05))
                bent = SurfaceCurve(
                    s, jet_kernel(lambda t: (u + d[0] * t + 0.08 * t * t,
                                             v + d[1] * t - 0.06 * t * t)),
                    (-0.05, 0.05))
                return ([_outcome(lambda: fn(point(s, u, v))) for fn in (
                            self._fields, surfaces._curvatures,
                            surfaces._forms_of)]
                        + [_outcome(fn, s, u, v) for fn in (
                            *identities, principal_direction_field)]
                        + [_outcome(liouville_check, straight, 0.0),
                           _outcome(bonnet_torsion_check, bent, 0.01)])

            # the point and identity programs against the Python they
            # replace, over one Jet2 evaluation per point
            want = results(ref, reference.SurfacePoint, (
                reference.riemann_R1212, reference.gauss_weingarten_residuals,
                reference.codazzi_compatibility_residuals,
                reference.form_identity_residual))
            assert results(shape, surfaces._point, (
                riemann_R1212, gauss_weingarten_residuals,
                codazzi_compatibility_residuals,
                form_identity_residual)) == want
            compared += sum(not (isinstance(w, tuple) and isinstance(
                w[0], type)) for w in want)
        assert compared >= 48


class TestPointReuse:
    """A surface keeps its last _N_POINTS point bundles, keyed by the exact
    (u, v), the oldest evicted first: one run of the point program serves
    every check at one point while it is stored, and one run of the
    identity program every identity check."""

    @staticmethod
    def _counted(shape):
        """Log each call of the point program and of the identity
        program."""
        calls = []
        for name, formulas, order in (
                ("point", surfaces._point_terms, 2),
                ("identities", surfaces._identity_terms, 3)):
            fn = shape.program(formulas, (1, 1), order=order)
            shape._programs[formulas] = lambda u, v, fn=fn, name=name: (
                calls.append((name, repr(u), repr(v))) or fn(u, v))
        return calls

    def test_kernel_calls(self):
        shape = catalog.make("torus")
        assert shape.scale > 0.0    # the cached scale probe is not counted
        calls = self._counted(shape)
        curvatures(shape, 0.3, 0.4)
        forms(shape, 0.3, 0.4)
        surface_frame(shape, 0.3, 0.4)
        assert calls == [("point", "0.3", "0.4")]
        gauss_weingarten_residuals(shape, 0.3, 0.4)
        riemann_R1212(shape, 0.3, 0.4)
        codazzi_compatibility_residuals(shape, 0.3, 0.4)
        form_identity_residual(shape, 0.3, 0.4)
        forms(shape, 0.3, 0.4)      # the bundle is still stored
        forms(shape, 0.3, 0.5)
        curvatures(shape, 0.0, 0.5)
        curvatures(shape, -0.0, 0.5)   # a signed zero is another point
        assert calls[1:] == [("identities", "0.3", "0.4"),
                             ("point", "0.3", "0.5"),
                             ("point", "0.0", "0.5"),
                             ("point", "-0.0", "0.5")]
        # 76 more points fill the store; the next evicts the oldest only
        for i in range(76):
            forms(shape, 1.0, 0.01 * i)
        del calls[:]
        forms(shape, 1.0, 0.0)
        riemann_R1212(shape, 0.3, 0.4)
        assert calls == []
        forms(shape, 2.0, 0.0)      # evicts (0.3, 0.4) and its identities
        riemann_R1212(shape, 0.3, 0.4)
        gauss_weingarten_residuals(shape, 0.3, 0.4)
        assert calls == [("point", "2.0", "0.0"), ("point", "0.3", "0.4"),
                         ("identities", "0.3", "0.4")]
        assert len(shape._points) == _N_POINTS

    def test_curvatures_are_shared_and_frozen(self):
        shape = catalog.make("torus")
        cd = curvatures(shape, 0.3, 0.4)
        assert curvatures(shape, 0.3, 0.4) is cd
        with pytest.raises(AttributeError):
            cd.K = 0.0

    @pytest.mark.parametrize("name", ["torus", "pseudosphere", "enneper"])
    def test_verify_builds_each_bundle_once(self, monkeypatch, name):
        # the default table's 40 points: one bundle, one run of the point
        # program and one of the identity program each, and a second run
        # compiles no code
        built = collections.Counter()
        ran = {formulas: collections.Counter() for formulas in (
            surfaces._point_terms, surfaces._identity_terms)}
        real, program = (surfaces._SurfacePoint.__init__,
                         surfaces.ParametricSurface.program)

        def counted(self, surface, u, v):
            built[repr(u), repr(v)] += 1
            real(self, surface, u, v)

        def counted_program(self, formulas, *args, **kwargs):
            fn = program(self, formulas, *args, **kwargs)
            if formulas not in ran:
                return fn
            return lambda u, v: (ran[formulas].update([(repr(u), repr(v))])
                                 or fn(u, v))

        monkeypatch.setattr(surfaces._SurfacePoint, "__init__", counted)
        monkeypatch.setattr(surfaces.ParametricSurface, "program",
                            counted_program)
        argv = ["verify", "--shape", name, "--seed", "5"]
        assert cli.main(argv) == 0
        assert max(built.values()) == 1
        assert len(built) == 40
        assert sum(ran[surfaces._point_terms].values()) == 40
        assert ran[surfaces._point_terms] == built
        assert ran[surfaces._identity_terms] == built

        compiled = []
        compile_ = ode._compile
        monkeypatch.setattr(ode, "_compile", lambda lines, *args: (
            compiled.append(lines) or compile_(lines, *args)))
        assert cli.main(argv) == 0
        assert compiled == []

    @pytest.mark.parametrize("name", SURFACE_NAMES)
    def test_reused_values_equal_fresh_bundles(self, name):
        checks = (curvatures, forms, surface_frame, gauss_weingarten_residuals,
                  form_identity_residual, riemann_R1212,
                  codazzi_compatibility_residuals)
        shared = catalog.make(name)
        rng = random.Random(zlib.crc32(name.encode()))
        for u, v in surface_samples(name, shared, rng, 3):
            for check in checks + checks:
                try:
                    want = repr(check(catalog.make(name), u, v))
                except SingularSurfacePoint as exc:
                    want = repr(exc)
                try:
                    got = repr(check(shared, u, v))
                except SingularSurfacePoint as exc:
                    got = repr(exc)
                assert got == want, (check.__name__, u, v)
