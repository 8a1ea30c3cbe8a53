"""Catalog entries: reference agreement, sign patterns, validity checks,
and the tractrix pedigree of the pseudosphere."""

import math
import random
import zlib

import pytest

from diffgeo import catalog, expr
from diffgeo.curves import frenet
from diffgeo.errors import (InvalidParameter, NoReference,
                            SingularSurfacePoint, UnknownShape)
from diffgeo.ode import ode_solve
from diffgeo.surfaces import curvatures, surface_frame
from diffgeo.vectors import _spread

from conftest import surface_samples


class TestRegistry:
    def test_expected_entries_present(self):
        expected = {
            "line", "circle", "ellipse", "helix", "spherical-spiral",
            "plane", "plane-polar", "sphere", "cylinder", "cone",
            "ellipsoid", "hyperboloid-one-sheet", "hyperboloid-two-sheets",
            "elliptic-paraboloid", "hyperbolic-paraboloid", "quadric-cone",
            "torus", "catenoid", "helicoid", "enneper", "monge",
            "pseudosphere",
        }
        assert expected <= set(catalog.names())

    def test_unknown_shape(self):
        with pytest.raises(UnknownShape):
            catalog.make("klein-bottle")

    def test_unknown_parameter(self):
        with pytest.raises(InvalidParameter):
            catalog.make("sphere", radius=2.0)

    def test_torus_validity(self):
        with pytest.raises(InvalidParameter):
            catalog.make("torus", r=3.0, R=1.0)
        with pytest.raises(InvalidParameter):
            catalog.make("torus", r=-1.0)

    def test_no_reference(self):
        with pytest.raises(NoReference):
            catalog.reference("enneper", quantity="tau", point=(0, 0))


class TestSharedDefinitions:
    """Jobs share one parsed definition per text; each builds its own
    surface, whose point bundles and programs no other job reads."""

    def test_surfaces_stay_per_job(self):
        first, second = catalog.make("torus"), catalog.make("torus")
        assert first.definition is second.definition
        assert first is not second
        assert first._points is not second._points
        assert first._programs is not second._programs
        curvatures(first, 0.3, 0.4)
        assert first._points and not second._points
        u0, u1, v0, v1 = second.domain
        probes = [second.kernel(u0 + (u1 - u0) * (i + 0.5) / 4.0,
                                v0 + (v1 - v0) * (j + 0.5) / 4.0)[0]
                  for i in range(4) for j in range(4)]
        assert repr(first.scale) == repr(second.scale) == repr(
            _spread(probes))

    def test_parse_cache_is_bounded(self):
        for k in range(300):
            catalog.make("torus", R=2.0 + k / 64.0)
        info = expr.load_definition.cache_info()
        assert 0 < info.currsize == info.maxsize


class TestReferenceAgreement:
    @pytest.mark.parametrize("name", sorted(catalog.names()))
    def test_kernel_matches_closed_forms(self, name):
        ent = catalog.entry(name)
        if not ent.references:
            pytest.skip("no closed-form references")
        shape = catalog.make(name)
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(100):
            if ent.kind == "curve":
                t0, t1 = shape.domain
                t = rng.uniform(t0 + 0.02 * (t1 - t0), t1 - 0.02 * (t1 - t0))
                fd = frenet(shape, t, partial=True)
                if "kappa" in ent.references:
                    want = catalog.reference(name, point=t, quantity="kappa")
                    assert abs(fd.kappa - want) <= 1e-8 * max(1.0, abs(want))
                if "tau" in ent.references and fd.tau is not None:
                    want = catalog.reference(name, point=t, quantity="tau")
                    assert abs(fd.tau - want) <= 1e-8 * max(1.0, abs(want))
            else:
                rect = ent.sample_domain or shape.domain
                pt = (rng.uniform(rect[0], rect[1]),
                      rng.uniform(rect[2], rect[3]))
                cd = curvatures(shape, *pt)
                have = {"K": cd.K, "H": cd.H, "kappa1": cd.kappa1,
                        "kappa2": cd.kappa2}
                for q in ent.references:
                    want = catalog.reference(name, point=pt, quantity=q)
                    assert abs(have[q] - want) <= 1e-8 * max(1.0, abs(want)), \
                        (name, q, pt)

    def test_sphere_override(self):
        shape = catalog.make("sphere", R=2.0)
        cd = curvatures(shape, 0.3, 0.4)
        assert abs(cd.K - 0.25) <= 1e-12

    def test_helicoid_minimal_at_random_points(self):
        shape = catalog.make("helicoid")
        rng = random.Random(5)
        for u, v in surface_samples("helicoid", shape, rng, 50):
            assert abs(curvatures(shape, u, v).H) <= 1e-10


class TestSignPatterns:
    def test_constant_sign_table(self):
        # K sign is orientation-free; H sign is documented per entry
        cases = {
            "plane": (0, 0), "cylinder": (0, -1), "sphere": (1, -1),
            "ellipsoid": (1, -1), "hyperboloid-one-sheet": (-1, None),
        }
        rng = random.Random(6)
        for name, (k_sign, h_sign) in cases.items():
            shape = catalog.make(name)
            for u, v in surface_samples(name, shape, rng, 12):
                cd = curvatures(shape, u, v)
                if k_sign == 0:
                    assert abs(cd.K) <= 1e-9
                else:
                    assert cd.K * k_sign > 0.0, (name, u, v)
                if h_sign is not None and h_sign != 0:
                    assert cd.H * h_sign > 0.0, (name, u, v)
                elif h_sign == 0:
                    assert abs(cd.H) <= 1e-9

    def test_torus_shapes_by_tube_angle(self):
        shape = catalog.make("torus")
        assert curvatures(shape, 2.0, math.pi / 2).shape == "Elliptic"
        assert curvatures(shape, 2.0, -math.pi / 2).shape == "Hyperbolic"
        for v in (0.0, math.pi):
            assert curvatures(shape, 2.0, v).shape == "Parabolic"


class TestSpecialGeometry:
    def test_cone_apex_is_singular(self):
        cone = catalog.make("cone")
        with pytest.raises(SingularSurfacePoint):
            surface_frame(cone, 0.0, 0.3)

    def test_pseudosphere_constant_negative_curvature(self):
        for rho in (1.0, 1.7):
            shape = catalog.make("pseudosphere", rho=rho)
            rng = random.Random(8)
            for u, v in surface_samples("pseudosphere", shape, rng, 25):
                assert abs(curvatures(shape, u, v).K + 1.0 / rho ** 2) \
                    <= 1e-6

    def test_pseudosphere_profile_solves_tractrix_equation(self):
        # integrate dy/dx = -sqrt(rho^2 - x^2)/x from (rho, 0) and compare
        # with the catalog profile x = rho/cosh(v), y = rho (v - tanh v)
        rho = 1.0
        shape = catalog.make("pseudosphere", rho=rho)

        def field(x, y):
            return (-math.sqrt(max(rho * rho - x * x, 0.0)) / x,)

        worst = 0.0
        for v in (0.5, 1.0, 2.0, 3.0):
            x_target = rho / math.cosh(v)
            sol = ode_solve(field, (0.0,), (rho - 1e-12, x_target))
            y_ode = sol.y_end[0]
            p = shape.eval(0.0, v)
            assert abs(math.hypot(p.x, p.y) - x_target) <= 1e-12
            worst = max(worst, abs(p.z - y_ode))
        assert worst <= 1e-6

    def test_spherical_spiral_on_unit_sphere(self):
        c = catalog.make("spherical-spiral")
        for t in (0.3, 2.0, 5.0):
            assert abs(c.eval(t).norm() - 1.0) <= 1e-12

    def test_enneper_matches_curvature_formula(self):
        shape = catalog.make("enneper")
        rng = random.Random(9)
        for u, v in surface_samples("enneper", shape, rng, 20):
            cd = curvatures(shape, u, v)
            want = -4.0 / (1.0 + u * u + v * v) ** 4
            assert abs(cd.K - want) <= 1e-10
            assert abs(cd.H) <= 1e-10
