"""Curves on surfaces: curvature split, geodesic torsion, geodesic
IVP/BVP, parallel transport, direction fields, Gauss-Bonnet and the
Liouville/Bonnet checks."""

import gc
import math
import random
import weakref
import zlib

import pytest

from diffgeo import catalog, curves, surfacecurves
from diffgeo.curves import ParametricCurve, frenet
from diffgeo.errors import (AsymptoticPoint, DegenerateMultiplicity,
                            NoConvergence, NonOrthogonalPatch,
                            NoUniqueConjugate, SingularSurfacePoint,
                            UmbilicPoint, ZeroVector)
from diffgeo.ode import linspace
from diffgeo.quadrature import QuadSpec, quad2d
from diffgeo.surfaces import angle_between, curvatures, forms
from diffgeo.surfacecurves import (BoundaryLoop, SurfaceCurve,
                                   asymptotic_directions,
                                   asymptotic_line_trace,
                                   bonnet_torsion_check, conjugate_direction,
                                   curvature_split, gauss_bonnet_global,
                                   gauss_bonnet_local, geodesic_bvp,
                                   geodesic_ivp, geodesic_torsion,
                                   geodesic_torsion_principal, jet_kernel,
                                   kappa_g_extrinsic, kappa_g_intrinsic,
                                   kappa_n_quotient, liouville_check,
                                   parallel_transport,
                                   principal_direction_field)
from diffgeo.surfacecurves import _metric_dot
from diffgeo.surfaces import metric_and_gamma
from diffgeo.vectors import Vec3

from conftest import count_evals

SPHERE = catalog.make("sphere")
TORUS = catalog.make("torus")
PLANE = catalog.make("plane")
POLAR = catalog.make("plane-polar")
CYLINDER = catalog.make("cylinder", rho=2.0)
HELICOID = catalog.make("helicoid")
HYPAR = catalog.make("hyperbolic-paraboloid")


def count_solves(monkeypatch):
    """Patch surfacecurves.ode_solve to record each solve's largest field
    time; returns the list of records."""
    real = surfacecurves.ode_solve
    solves = []

    def ode_solve(field_fn, *args, **kwargs):
        t_max = [-math.inf]
        solves.append(t_max)

        def field(t, y):
            t_max[0] = max(t_max[0], t)
            return field_fn(t, y)

        return real(field, *args, **kwargs)

    monkeypatch.setattr(surfacecurves, "ode_solve", ode_solve)
    return solves


def reversed_curve(sc):
    """``sc`` run backwards: its rows at t0 + t1 - t, odd ones negated."""
    t0, t1 = sc.domain

    def kernel(t):
        return tuple(tuple(-c if k % 2 else c for c in row)
                     for k, row in enumerate(sc.kernel(t0 + t1 - t)))

    return SurfaceCurve(sc.surface, kernel, (t0, t1))


def sphere_angle(p0, p1):
    def to_xyz(p):
        return Vec3(math.cos(p[0]) * math.cos(p[1]),
                    math.sin(p[0]) * math.cos(p[1]), math.sin(p[1]))

    return math.acos(max(-1.0, min(1.0, to_xyz(p0).dot(to_xyz(p1)))))


class TestCurvatureSplit:
    def test_great_circle(self):
        eq = SurfaceCurve.const_v(SPHERE, 0.0)
        cs = curvature_split(eq, 1.0)
        assert abs(cs.kappa_g) <= 1e-10
        assert abs(abs(cs.kappa_n) - 1.0) <= 1e-10

    def test_latitude_circle_split(self):
        colat = math.pi / 3
        lat = SurfaceCurve.const_v(SPHERE, math.pi / 2 - colat)
        cs = curvature_split(lat, 0.7)
        assert abs(cs.kappa - 1.0 / math.sin(colat)) <= 1e-10
        assert abs(abs(cs.kappa_n) - 1.0) <= 1e-10
        assert abs(abs(cs.kappa_g) - 1.0 / math.tan(colat)) <= 1e-10

    def test_unit_speed_curve_on_a_large_sphere(self):
        # a composite curve is regular wherever its surface is, however
        # slowly its parameter moves: here |dr/dt| = 1 on a sphere of 1e13
        big = catalog.make("sphere", R=1e13)
        eq = SurfaceCurve.straight(big, (0.0, 0.0), (1e-13, 0.0), (0, 1))
        cs = curvature_split(eq, 0.5)
        assert abs(cs.kappa_n * 1e13 + 1.0) <= 1e-10
        assert abs(cs.kappa_g) * 1e13 <= 1e-10

    def test_straight_line_in_plane(self):
        line = SurfaceCurve.straight(PLANE, (0.0, 0.0), (1.0, 2.0), (0, 1))
        cs = curvature_split(line, 0.3)
        assert cs.K_vec.norm() <= 1e-12
        assert abs(cs.kappa_n) <= 1e-12 and abs(cs.kappa_g) <= 1e-12

    def test_split_cross_checks(self):
        rng = random.Random(8)
        for _ in range(12):
            u, v = rng.uniform(0.5, 5.5), rng.uniform(0.5, 5.5)
            d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*d) < 0.2:
                d = (1.0, 0.3)
            q1, q2 = rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
            sc = SurfaceCurve(
                TORUS,
                jet_kernel(lambda t, d=d, q1=q1, q2=q2:
                           (u + d[0] * t + q1 * t * t,
                            v + d[1] * t + q2 * t * t)),
                (-0.3, 0.3))
            cs = curvature_split(sc, 0.0)
            assert abs(cs.kappa_n - kappa_n_quotient(sc, 0.0)) <= 1e-9
            assert abs(cs.kappa_g - kappa_g_extrinsic(sc, 0.0)) <= 1e-9
            assert abs(cs.kappa_g - kappa_g_intrinsic(sc, 0.0)) <= 1e-8
            assert abs(cs.kappa ** 2 - (cs.kappa_n ** 2 + cs.kappa_g ** 2)) \
                <= 1e-9 * max(1.0, cs.kappa ** 2)

    def test_coordinate_normal_curvatures(self):
        rng = random.Random(9)
        for _ in range(8):
            u, v = rng.uniform(0.5, 5.5), rng.uniform(0.5, 5.5)
            fb = forms(TORUS, u, v)
            cu = SurfaceCurve.straight(TORUS, (u, v), (1.0, 0.0), (-0.1, 0.1))
            cv = SurfaceCurve.straight(TORUS, (u, v), (0.0, 1.0), (-0.1, 0.1))
            assert abs(curvature_split(cu, 0.0).kappa_n - fb.e / fb.E) <= 1e-9
            assert abs(curvature_split(cv, 0.0).kappa_n - fb.g / fb.G) <= 1e-9

    def test_orthogonal_normal_curvatures_sum_to_2h(self):
        rng = random.Random(10)
        for _ in range(8):
            u, v = rng.uniform(0.5, 5.5), rng.uniform(0.5, 5.5)
            cd = curvatures(TORUS, u, v)
            th = rng.uniform(0, math.pi)
            d1 = (math.cos(th) * cd.dir1_uv[0] + math.sin(th) * cd.dir2_uv[0],
                  math.cos(th) * cd.dir1_uv[1] + math.sin(th) * cd.dir2_uv[1])
            d2 = (-math.sin(th) * cd.dir1_uv[0] + math.cos(th) * cd.dir2_uv[0],
                  -math.sin(th) * cd.dir1_uv[1] + math.cos(th) * cd.dir2_uv[1])
            k1 = kappa_n_quotient(
                SurfaceCurve.straight(TORUS, (u, v), d1, (-0.1, 0.1)), 0.0)
            k2 = kappa_n_quotient(
                SurfaceCurve.straight(TORUS, (u, v), d2, (-0.1, 0.1)), 0.0)
            assert abs(k1 + k2 - 2.0 * cd.H) <= 1e-8

    def test_euler_relation(self):
        rng = random.Random(11)
        for name, shape in (("torus", TORUS),
                            ("hyperbolic-paraboloid", HYPAR)):
            rect = catalog.entry(name).sample_domain or shape.domain
            for _ in range(6):
                u = rng.uniform(rect[0] + 0.1, rect[1] - 0.1)
                v = rng.uniform(rect[2] + 0.1, rect[3] - 0.1)
                cd = curvatures(shape, u, v)
                if cd.is_umbilic:
                    continue
                for k in range(16):
                    th = 2 * math.pi * k / 16.0
                    d = (math.cos(th) * cd.dir1_uv[0]
                         + math.sin(th) * cd.dir2_uv[0],
                         math.cos(th) * cd.dir1_uv[1]
                         + math.sin(th) * cd.dir2_uv[1])
                    sc = SurfaceCurve.straight(shape, (u, v), d, (-0.1, 0.1))
                    kn = kappa_n_quotient(sc, 0.0)
                    want = (cd.kappa1 * math.cos(th) ** 2
                            + cd.kappa2 * math.sin(th) ** 2)
                    assert abs(kn - want) <= 1e-8

    def test_meusnier(self):
        rng = random.Random(12)
        for _ in range(10):
            u, v = rng.uniform(0.5, 5.5), rng.uniform(0.5, 5.5)
            d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*d) < 0.2:
                d = (0.8, 0.4)
            c1 = SurfaceCurve.straight(TORUS, (u, v), d, (-0.1, 0.1))
            c2 = SurfaceCurve(
                TORUS, jet_kernel(lambda t, d=d: (u + d[0] * t + 0.3 * t * t,
                                                  v + d[1] * t - 0.2 * t * t)),
                (-0.1, 0.1))
            assert abs(curvature_split(c1, 0.0).kappa_n
                       - curvature_split(c2, 0.0).kappa_n) <= 1e-8


class TestGeodesicTorsion:
    def test_sphere_umbilic_everywhere(self):
        lat = SurfaceCurve.const_v(SPHERE, 0.4)
        assert abs(geodesic_torsion(lat, 1.0)) <= 1e-10
        diag = SurfaceCurve.straight(SPHERE, (0.5, 0.2), (1.0, 0.7),
                                     (-0.3, 0.3))
        assert abs(geodesic_torsion(diag, 0.0)) <= 1e-10

    def test_torus_lines_of_curvature(self):
        mer = SurfaceCurve.const_u(TORUS, 1.0)
        par = SurfaceCurve.const_v(TORUS, 1.0)
        assert abs(geodesic_torsion(mer, 0.5)) <= 1e-9
        assert abs(geodesic_torsion(par, 0.5)) <= 1e-9

    def test_cylinder_diagonal(self):
        cd = curvatures(CYLINDER, 0.3, 0.0)
        # metric-unit 45-degree direction: E = rho^2 = 4, G = 1
        d = (1.0 / (2.0 * math.sqrt(2.0)), 1.0 / math.sqrt(2.0))
        sc = SurfaceCurve.straight(CYLINDER, (0.3, 0.0), d, (-1, 1))
        tg = geodesic_torsion(sc, 0.0)
        assert abs(tg - (cd.kappa1 - cd.kappa2) / 2.0) <= 1e-10

    def test_principal_route_cross_check(self):
        rng = random.Random(14)
        for _ in range(10):
            u, v = rng.uniform(0.5, 5.5), rng.uniform(0.5, 5.5)
            d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*d) < 0.2:
                d = (0.5, 0.9)
            sc = SurfaceCurve.straight(TORUS, (u, v), d, (-0.1, 0.1))
            assert abs(geodesic_torsion(sc, 0.0)
                       - geodesic_torsion_principal(sc, 0.0)) <= 1e-8

    def test_orthogonal_directions_opposite(self):
        rng = random.Random(15)
        for _ in range(8):
            u, v = rng.uniform(0.5, 5.5), rng.uniform(0.5, 5.5)
            md = metric_and_gamma(TORUS, u, v)
            d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*d) < 0.2:
                d = (0.5, 0.9)
            # metric-orthogonal complement of d
            perp = (-(md.F * d[0] + md.G * d[1]), md.E * d[0] + md.F * d[1])
            t1 = geodesic_torsion(
                SurfaceCurve.straight(TORUS, (u, v), d, (-0.1, 0.1)), 0.0)
            t2 = geodesic_torsion(
                SurfaceCurve.straight(TORUS, (u, v), perp, (-0.1, 0.1)), 0.0)
            assert abs(t1 + t2) <= 1e-8

    def test_umbilic_rejected_for_principal_route(self):
        sc = SurfaceCurve.straight(SPHERE, (0.5, 0.2), (1.0, 0.0),
                                   (-0.3, 0.3))
        with pytest.raises(UmbilicPoint):
            geodesic_torsion_principal(sc, 0.0)


class TestGeodesicIVP:
    def test_plane_straight(self):
        path = geodesic_ivp(PLANE, 0.0, 0.0, (1.0, 0.0), 5.0)
        assert abs(path.end_uv[0] - 5.0) <= 1e-9
        assert abs(path.end_uv[1]) <= 1e-12
        assert not path.left_domain

    def test_sphere_meridian_reaches_pole(self):
        L = (math.pi / 2) * (1.0 - 2e-7)
        path = geodesic_ivp(SPHERE, 0.0, 0.0, (0.0, 1.0), L)
        assert abs(path.end_uv[1] - math.pi / 2) <= 1e-6

    def test_cylinder_helix(self):
        path = geodesic_ivp(CYLINDER, 0.0, 0.0, (1.0, 1.0), 10.0)
        # unit-speed 45-degree launch on rho=2: du/ds and dv/ds constant
        sc = path.as_curve()
        for s in (0.5, 3.0, 7.0, 9.5):
            assert abs(curvature_split(sc, s).kappa_g) <= 1e-7
        # pitch/radius of the traced helix matches the launch angle
        st = path.states[-1]
        assert abs(st[2] - path.states[0][2]) <= 1e-8
        assert abs(st[3] - path.states[0][3]) <= 1e-8

    def test_unit_speed_invariant(self):
        path = geodesic_ivp(TORUS, 1.0, 2.0, (0.7, -0.4), 6.0)
        for st in path.states[:: len(path.states) // 8]:
            md = metric_and_gamma(TORUS, st[0], st[1])
            speed = _metric_dot(md.E, md.F, md.G, (st[2], st[3]),
                                (st[2], st[3]))
            assert abs(speed - 1.0) <= 1e-7

    def test_geodesic_curvature_small_along_path(self):
        path = geodesic_ivp(TORUS, 1.0, 2.0, (0.7, -0.4), 6.0)
        sc = path.as_curve()
        for k in range(12):
            s = path.length * (k + 0.5) / 12.0
            assert abs(curvature_split(sc, s).kappa_g) <= 1e-7

    def test_domain_exit_flagged(self):
        path = geodesic_ivp(PLANE, 0.0, 0.0, (1.0, 0.0), 50.0)
        assert path.left_domain
        assert path.length == path.s[-1] < 50.0

    def test_one_solve_ends_at_first_sample_outside(self, monkeypatch):
        solves = count_solves(monkeypatch)
        path = geodesic_ivp(PLANE, 0.0, 0.0, (1.0, 0.0), 50.0)
        ((t_max,),) = solves
        k = len(path.s)
        assert path.s == linspace(0.0, 50.0, 513)[:k]
        assert path.left_domain and path.s[-1] == path.length
        assert not PLANE.contains(*path.end_uv)
        assert all(PLANE.contains(st[0], st[1]) for st in path.states[:-1])
        assert t_max <= path.length

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroVector):
            geodesic_ivp(PLANE, 0.0, 0.0, (0.0, 0.0), 1.0)


class TestGeodesicBVP:
    def test_plane_pythagoras(self):
        path = geodesic_bvp(PLANE, (0.0, 0.0), (3.0, 4.0),
                            endpoint_tol=1e-8)
        assert abs(path.length - 5.0) <= 1e-8

    def test_sphere_matches_central_angle(self):
        rng = random.Random(77)
        done = 0
        while done < 3:
            p0 = (rng.uniform(-2.5, 2.5), rng.uniform(-0.9, 0.9))
            p1 = (rng.uniform(-2.5, 2.5), rng.uniform(-0.9, 0.9))
            alpha = sphere_angle(p0, p1)
            if not 0.1 < alpha < 2.8:
                continue
            path = geodesic_bvp(SPHERE, p0, p1)
            assert abs(path.length - alpha) <= 1e-6
            done += 1

    def test_antipodal_degeneracy(self):
        with pytest.raises(DegenerateMultiplicity) as exc:
            geodesic_bvp(SPHERE, (0.0, 0.0), (math.pi, 0.0))
        paths = exc.value.paths
        assert len(paths) >= 2
        for p in paths:
            assert abs(p.length - math.pi) <= 1e-6

    def test_launch_direction_matches_great_circle_azimuth(self):
        # the shooting root must reproduce the analytic initial bearing
        p0, p1 = (0.3, 0.2), (1.1, 0.7)
        path = geodesic_bvp(SPHERE, p0, p1)
        st = path.states[0]

        def xyz(p):
            return Vec3(math.cos(p[0]) * math.cos(p[1]),
                        math.sin(p[0]) * math.cos(p[1]), math.sin(p[1]))

        A, B = xyz(p0), xyz(p1)
        tangent = (B - A * A.dot(B)).normalized()
        east = Vec3(-math.sin(p0[0]), math.cos(p0[0]), 0.0)
        north = Vec3(-math.cos(p0[0]) * math.sin(p0[1]),
                     -math.sin(p0[0]) * math.sin(p0[1]), math.cos(p0[1]))
        azimuth = math.atan2(tangent.dot(north), tangent.dot(east))
        # launch direction in the same orthonormal frame: on the sphere
        # chart e1 = east/cos(v), e2 = north
        launched = math.atan2(st[3], st[2] * math.cos(p0[1]))
        assert abs(launched - azimuth) <= 1e-6

    def test_coincident_points_rejected(self):
        with pytest.raises(ZeroVector):
            geodesic_bvp(PLANE, (1.0, 1.0), (1.0, 1.0))

    def test_truncated_scan_still_ranks_seed(self, monkeypatch):
        # every trial geodesic hits a chart singularity past s = 1: the
        # scans keep the samples they read before it, the seed aimed at the
        # target ranks first from them, and its iteration leaves the chart
        real_rhs = surfacecurves._geodesic_rhs

        def rhs_singular_past_1(surface):
            rhs = real_rhs(surface)

            def field(s, y):
                if s > 1.0:
                    raise SingularSurfacePoint(y[0], y[1])
                return rhs(s, y)

            return field

        real_solve = surfacecurves.ode_solve
        solves = []     # (start, sample times, dense, result or partial)

        def ode_solve(field_fn, y0, ts, *args, dense=False, **kwargs):
            try:
                res = real_solve(field_fn, y0, ts, *args, dense=dense,
                                 **kwargs)
            except SingularSurfacePoint as exc:
                res = exc.partial
                raise
            finally:
                solves.append((y0, list(ts), dense, res))
            return res

        monkeypatch.setattr(surfacecurves, "_geodesic_rhs",
                            rhs_singular_past_1)
        monkeypatch.setattr(surfacecurves, "ode_solve", ode_solve)
        with pytest.raises(NoConvergence) as exc:
            geodesic_bvp(PLANE, (0.0, 0.0), (3.0, 0.0))
        grid = linspace(0.0, 1.6 * 3.0 + 0.04, 48)
        scans = [rec for rec in solves if rec[2]]
        assert len(scans) == 8 and solves[:8] == scans
        for _, ts, _, part in scans:
            k = len(part.ts)
            assert ts == grid and part.ts == grid[:k]
            assert 1 < k < len(grid) and part.ts[-1] <= 1.0
        # seed 0 is launched along the chord; its reads are exact on the
        # plane, and the first iterate after the scans starts from its last
        y0, _, _, aimed = scans[0]
        assert y0 == (0.0, 0.0, 1.0, 0.0)
        assert all(abs(u - s) <= 1e-15 and v == 0.0
                   for s, (u, v, _, _) in zip(aimed.ts, aimed.ys))
        y0, ts, _, _ = solves[8]
        assert y0 == (0.0, 0.0, 1.0, 0.0) and ts[0] == 0.0
        assert abs(ts[-1] - 3.0) <= 1e-12
        theta, miss = exc.value.best
        assert theta == 0.0
        assert miss <= 3.0 - aimed.ts[-1]

    def test_built_path_checked_against_target(self, monkeypatch):
        # the returned path is integrated again; its own end must hit p1
        real_ivp = surfacecurves.geodesic_ivp

        def ivp_ending_off(*args):
            path = real_ivp(*args)
            u, v, du, dv = path.states[-1]
            path.states[-1] = (u + 1e-3, v, du, dv)
            return path

        monkeypatch.setattr(surfacecurves, "geodesic_ivp", ivp_ending_off)
        with pytest.raises(NoConvergence) as exc:
            geodesic_bvp(PLANE, (0.0, 0.0), (3.0, 4.0))
        theta, miss = exc.value.best
        assert abs(theta - math.atan2(4.0, 3.0)) <= 1e-6
        assert abs(miss - 1e-3) <= 1e-9

    def test_overshooting_step_is_halved(self):
        # from every seed the flat Jacobi field underestimates how fast
        # geodesics spread on the catenoid, and the first full step
        # overshoots; halving it back reaches the root that a search on the
        # angle by closest approach also finds (length 3.5451862843)
        path = geodesic_bvp(catalog.make("catenoid"), (0.0, 0.0), (3.0, 1.0))
        assert abs(path.length - 3.5451862843) <= 1e-6

    @pytest.mark.parametrize("surface, p0, p1", [
        (SPHERE, (0.2, 0.1), (1.4, 0.5)), (TORUS, (0.0, 0.0), (2.0, 1.0))],
        ids=["sphere", "torus"])
    def test_solve_count_bounded(self, monkeypatch, surface, p0, p1):
        # eight scans, one solve per further iterate from at most three
        # seeds, one more where a seed's iteration tightens, and the final
        # build
        solves = count_solves(monkeypatch)
        geodesic_bvp(surface, p0, p1)
        assert len(solves) <= 40

    @pytest.mark.parametrize("surface", [SPHERE, CYLINDER],
                             ids=["sphere", "cylinder"])
    def test_wide_separation_closed_form(self, surface):
        # endpoints far apart in the chart, where a seed's scan reads few
        # of its samples from each step: great-circle arcs on the unit
        # sphere, helices on the cylinder of radius 2
        rng = random.Random(zlib.crc32(b"wide bvp"))
        done = 0
        while done < 3:
            p0 = (rng.uniform(-math.pi, math.pi), rng.uniform(-0.8, 0.8))
            du = rng.choice((-1.0, 1.0)) * rng.uniform(1.2, 2.4)
            p1 = (math.remainder(p0[0] + du, 2.0 * math.pi),
                  rng.uniform(-0.8, 0.8))
            if surface is SPHERE:
                length = sphere_angle(p0, p1)
                if not 1.5 < length < 2.4:
                    continue
            else:
                p1 = (p1[0], p0[1] + rng.uniform(-2.5, 2.5))
                length = math.hypot(2.0 * du, p1[1] - p0[1])
            path = geodesic_bvp(surface, p0, p1)
            assert abs(path.length - length) <= 1e-7 * length
            done += 1

    def test_unreachable_tolerance_reports_no_convergence(self):
        from diffgeo.errors import NoConvergence
        with pytest.raises(NoConvergence) as exc:
            geodesic_bvp(SPHERE, (0.2, 0.1), (1.4, 0.5),
                         endpoint_tol=1e-30)
        assert exc.value.best is not None


class TestParallelTransport:
    def test_plane_components_constant(self):
        line = SurfaceCurve.straight(PLANE, (0.0, 0.0), (1.0, 0.5), (0, 4))
        st = parallel_transport(line, (0.7, -0.3))
        for a1, a2 in st.components:
            assert abs(a1 - 0.7) <= 1e-12
            assert abs(a2 + 0.3) <= 1e-12
        assert abs(st.holonomy) <= 1e-12

    @pytest.mark.parametrize("colatitude", [math.pi / 6, math.pi / 3,
                                            math.pi / 2])
    def test_latitude_holonomy_equals_cap_curvature(self, colatitude):
        v0 = math.pi / 2 - colatitude
        loop = SurfaceCurve.const_v(SPHERE, v0)
        st = parallel_transport(loop, (1.0, 0.0))
        cap = quad2d(lambda u, v: math.cos(v),
                     (SPHERE.domain[0], SPHERE.domain[1], v0, math.pi / 2),
                     QuadSpec(tol=1e-9))
        two_pi = 2.0 * math.pi
        mismatch = (st.holonomy - cap + math.pi) % two_pi - math.pi
        assert abs(mismatch) <= 1e-6
        assert max(st.norms) - min(st.norms) <= 1e-8

    def test_norm_constant_along_any_path(self):
        sc = SurfaceCurve(TORUS, jet_kernel(lambda t: (
            1.0 + 0.8 * t, 2.0 + 0.5 * t + 0.3 * t * t)), (0.0, 3.0))
        st = parallel_transport(sc, (0.4, 0.9))
        rel = (max(st.norms) - min(st.norms)) / st.norms[0]
        assert rel <= 1e-8

    def test_angle_between_two_transported_vectors_constant(self):
        loop = SurfaceCurve.const_v(SPHERE, 0.4)
        s1 = parallel_transport(loop, (1.0, 0.0))
        s2 = parallel_transport(loop, (0.3, 0.9))
        angles = []
        for t, a, b in zip(s1.ts, s1.components, s2.components):
            u, v = loop.point(t)
            angles.append(angle_between(SPHERE, u, v, a, b))
        assert max(angles) - min(angles) <= 1e-8

    def test_zero_vector_has_no_holonomy(self):
        loop = SurfaceCurve.const_v(SPHERE, 0.3)
        for zero in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):
            with pytest.raises(ZeroVector, match="zero metric norm"):
                parallel_transport(loop, zero)
        tiny = parallel_transport(loop, (1e-300, 0.0))
        assert abs(tiny.holonomy + 2.0 * math.pi * math.sin(0.3)) <= 1e-6

    def test_tiny_and_huge_vectors_keep_their_norms(self):
        loop = SurfaceCurve.const_v(SPHERE, 0.3)
        unit = parallel_transport(loop, (1.0, 0.0))
        for scale in (1e-300, 1e300):
            st = parallel_transport(loop, (scale, 0.0))
            assert abs(st.holonomy - unit.holonomy) <= 1e-9
            for norm, want in zip(st.norms, unit.norms):
                assert abs(norm / (want * scale) - 1.0) <= 1e-9
        # a power of two only moves the exponent: the same norms, scaled
        st = parallel_transport(loop, (2.0 ** -1000, 0.0))
        assert st.norms == [math.ldexp(n, -1000) for n in unit.norms]

    def test_samples_end_at_the_curve_end(self):
        # t0 + (t1 - t0) * 256 / 256 rounds above t1 here
        sc = SurfaceCurve(TORUS, jet_kernel(lambda t: (0.5 + t,
                                                       1.0 + 0.5 * t)),
                          (7 * 0.1, 1.8))
        st = parallel_transport(sc, (1.0, 0.0))
        assert st.ts == linspace(7 * 0.1, 1.8, 257)
        assert st.ts[-1] == 1.8

    def test_transported_tangent_stays_tangent_along_geodesic(self):
        path = geodesic_ivp(SPHERE, 0.2, 0.1, (1.0, 0.6), 2.5)
        sc = path.as_curve()
        d0 = (path.states[0][2], path.states[0][3])
        st = parallel_transport(sc, d0)
        for t, (a1, a2) in zip(st.ts[1::16], st.components[1::16]):
            (u, v), velocity = sc.kernel(t)[:2]
            ang = angle_between(sc.surface, u, v, (a1, a2), velocity)
            assert ang <= 1e-6


class TestDirectionFields:
    def test_sphere_no_asymptotic(self):
        assert asymptotic_directions(SPHERE, 0.3, 0.2) == []

    def test_plane_all_asymptotic(self):
        assert asymptotic_directions(PLANE, 0.3, 0.2) == "all"

    def test_cylinder_single_asymptotic(self):
        dirs = asymptotic_directions(CYLINDER, 0.3, 0.2)
        assert len(dirs) == 1
        # the ruling direction (axis)
        assert abs(dirs[0][0]) <= 1e-10
        assert abs(abs(dirs[0][1]) - 1.0) <= 1e-10

    def test_hyperbolic_point_two_with_zero_normal_curvature(self):
        for shape, pt in ((HELICOID, (1.3, 0.4)),
                          (TORUS, (1.0, 3.6))):
            dirs = asymptotic_directions(shape, *pt)
            assert len(dirs) == 2
            for d in dirs:
                sc = SurfaceCurve.straight(shape, pt, d, (-0.1, 0.1))
                assert abs(kappa_n_quotient(sc, 0.0)) <= 1e-9

    def test_torus_principal_directions_coordinate(self):
        (d1, d2), res = principal_direction_field(TORUS, 1.0, 2.0)
        dirs = sorted([d1, d2], key=lambda d: abs(d[0]))
        assert abs(dirs[0][0]) <= 1e-9   # tube circle direction (0, *)
        assert abs(dirs[1][1]) <= 1e-9   # axial direction (*, 0)
        assert max(res) <= 1e-8 * TORUS.scale

    def test_cylinder_principal_pairing(self):
        (d1, d2), res = principal_direction_field(CYLINDER, 0.3, 0.2)
        cd = curvatures(CYLINDER, 0.3, 0.2)
        # kappa1 = 0 pairs with the axial direction
        assert abs(cd.kappa1) <= 1e-10
        assert abs(d1[0]) <= 1e-9 and abs(d1[1]) > 0.9
        assert max(res) <= 1e-8 * CYLINDER.scale

    def test_sphere_umbilic(self):
        with pytest.raises(UmbilicPoint):
            principal_direction_field(SPHERE, 0.3, 0.2)

    def test_rodrigues_residuals_small(self):
        rng = random.Random(19)
        for _ in range(10):
            u, v = rng.uniform(0.5, 5.5), rng.uniform(0.5, 5.5)
            _, res = principal_direction_field(TORUS, u, v)
            assert max(res) <= 1e-8 * TORUS.scale

    def test_asymptotic_self_conjugate(self):
        pt = (1.0, 3.6)
        d = asymptotic_directions(TORUS, *pt)[0]
        cj = conjugate_direction(TORUS, *pt, d)
        assert abs(cj[0] * d[1] - cj[1] * d[0]) <= 1e-9

    def test_conjugate_involution(self):
        d = (0.3, 0.9)
        cj = conjugate_direction(TORUS, 1.0, 2.2, d)
        back = conjugate_direction(TORUS, 1.0, 2.2, cj)
        assert abs(back[0] * d[1] - back[1] * d[0]) <= 1e-9

    def test_sphere_conjugate_is_perpendicular(self):
        cj = conjugate_direction(SPHERE, 0.3, 0.2, (1.0, 0.0))
        assert abs(angle_between(SPHERE, 0.3, 0.2, (1.0, 0.0), cj)
                   - math.pi / 2) <= 1e-9

    def test_coordinate_conjugacy_iff_f_zero(self):
        # F = f = 0 on the torus: coordinate directions are conjugate
        cj = conjugate_direction(TORUS, 1.0, 2.2, (1.0, 0.0))
        assert abs(cj[0]) <= 1e-12

    def test_degenerate_conjugate(self):
        # cylinder: asymptotic (axis) direction annihilates the form
        with pytest.raises(NoUniqueConjugate):
            conjugate_direction(CYLINDER, 0.3, 0.2, (0.0, 1.0))


class TestBeltramiEnneper:
    def test_traced_asymptotic_line_torsion(self):
        tr = asymptotic_line_trace(HELICOID, (1.3, 0.4), 2.0, branch=1)
        pc = ParametricCurve(lambda t: HELICOID.composite(tr.kernel(t)),
                             tr.domain)
        for k in range(1, 30):
            s = 2.0 * k / 30.0
            fd = frenet(pc, s)
            K = curvatures(HELICOID, *tr.point(s)).K
            assert abs(fd.tau ** 2 + K) <= 1e-6

    def test_pointwise_geodesic_torsion_route(self):
        rng = random.Random(23)
        for _ in range(10):
            u = rng.uniform(0.5, 4.0)
            v = rng.uniform(-1.5, 1.5)
            K = curvatures(HELICOID, u, v).K
            for d in asymptotic_directions(HELICOID, u, v):
                sc = SurfaceCurve.straight(HELICOID, (u, v), d, (-0.1, 0.1))
                tg = geodesic_torsion(sc, 0.0)
                assert abs(tg * tg + K) <= 1e-8


class TestGaussBonnet:
    def test_hemisphere(self):
        eq = SurfaceCurve.const_v(SPHERE, 0.0)
        loop = BoundaryLoop(
            arcs=[eq], corner_angles=[0.0],
            region_rects=[(-math.pi, math.pi, 0.0, math.pi / 2)])
        gb = gauss_bonnet_local(SPHERE, loop)
        assert abs(gb.sum_kg) <= 1e-9
        assert abs(gb.sum_angles) <= 1e-12
        assert abs(gb.total_K - 2 * math.pi) <= 1e-6
        assert abs(gb.defect) <= 1e-5

    def test_spherical_octant_triangle(self):
        quarter = (0.0, math.pi / 2)
        eq = SurfaceCurve.straight(SPHERE, (0.0, 0.0), (1.0, 0.0), quarter)
        mer_up = SurfaceCurve.straight(SPHERE, (math.pi / 2, 0.0), (0.0, 1.0),
                                       quarter)
        mer_down = reversed_curve(
            SurfaceCurve.straight(SPHERE, (0.0, 0.0), (0.0, 1.0), quarter))
        loop = BoundaryLoop(
            arcs=[eq, mer_up, mer_down],
            corner_angles=[math.pi / 2] * 3,
            region_rects=[(0.0, math.pi / 2, 0.0, math.pi / 2)])
        gb = gauss_bonnet_local(SPHERE, loop)
        assert abs(gb.sum_angles - 3 * math.pi / 2) <= 1e-12
        assert abs(gb.total_K - math.pi / 2) <= 1e-6
        assert abs(gb.defect) <= 1e-5

    def test_planar_semicircular_disc(self):
        R = 2.0
        ray_out = SurfaceCurve(POLAR, jet_kernel(lambda t: (t, t * 0.0)),
                               (1e-9, R))
        arc = SurfaceCurve(POLAR, jet_kernel(lambda t: (t * 0.0 + R, t)),
                           (0.0, math.pi))
        ray_in = SurfaceCurve(POLAR, jet_kernel(
            lambda t: (R + 1e-9 - t, t * 0.0 + math.pi)), (1e-9, R))
        loop = BoundaryLoop(
            arcs=[ray_out, arc, ray_in],
            corner_angles=[math.pi / 2, math.pi / 2, 0.0],
            region_rects=[(1e-9, R, 0.0, math.pi)])
        gb = gauss_bonnet_local(POLAR, loop)
        assert abs(gb.sum_kg - math.pi) <= 1e-8
        assert abs(gb.sum_angles - math.pi) <= 1e-12
        assert abs(gb.total_K) <= 1e-10
        assert abs(gb.defect) <= 1e-5

    def test_computed_corner_angles(self):
        # right-angle corner in the plane, computed from one-sided tangents
        a1 = SurfaceCurve.straight(PLANE, (0.0, 0.0), (1.0, 0.0), (0, 1))
        a2 = SurfaceCurve.straight(PLANE, (1.0, 0.0), (0.0, 1.0), (0, 1))
        a3 = SurfaceCurve(PLANE, jet_kernel(lambda t: (1.0 - t, 1.0 - t)),
                          (0.0, 1.0))
        loop = BoundaryLoop(arcs=[a1, a2, a3], corner_angles=None,
                            region_rects=[])
        from diffgeo.surfacecurves import _exterior_angle
        assert abs(_exterior_angle(a1, a2) - math.pi / 2) <= 1e-12
        # the diagonal's exterior angles: 3 pi/4 at each end
        assert abs(_exterior_angle(a2, a3) - 3 * math.pi / 4) <= 1e-12
        assert abs(_exterior_angle(a3, a1) - 3 * math.pi / 4) <= 1e-12

    def test_open_loop_rejected(self):
        from diffgeo.errors import OpenLoop
        a1 = SurfaceCurve.straight(PLANE, (0.0, 0.0), (1.0, 0.0), (0, 1))
        a2 = SurfaceCurve.straight(PLANE, (2.0, 0.0), (0.0, 1.0), (0, 1))
        loop = BoundaryLoop(arcs=[a1, a2], corner_angles=[0.0, 0.0],
                            region_rects=[(0, 1, 0, 1)])
        with pytest.raises(OpenLoop):
            gauss_bonnet_local(PLANE, loop)

    def test_global_sphere(self):
        total, defect = gauss_bonnet_global(SPHERE, SPHERE.domain, 2)
        assert abs(total - 4 * math.pi) <= 1e-5
        assert abs(defect) <= 1e-5

    def test_global_torus(self):
        total, defect = gauss_bonnet_global(TORUS, TORUS.domain, 0)
        assert abs(total) <= 1e-5
        assert abs(defect) <= 1e-5

    def test_global_ellipsoid(self):
        ell = catalog.make("ellipsoid")
        total, defect = gauss_bonnet_global(ell, ell.domain, 2)
        assert abs(total - 4 * math.pi) <= 1e-5
        assert abs(defect) <= 1e-5


class TestLiouvilleAndBonnet:
    def test_meridians_are_geodesics(self):
        mer = SurfaceCurve.straight(SPHERE, (0.7, 0.0), (0.0, 1.0), (-1.2, 1.2))
        assert abs(curvature_split(mer, 0.3).kappa_g) <= 1e-10
        assert abs(liouville_check(mer, 0.3)) <= 1e-8

    def test_latitude_circle(self):
        lat = SurfaceCurve.const_v(SPHERE, math.pi / 6)
        assert abs(liouville_check(lat, 1.0)) <= 1e-8
        # and the direct value matches the closed form tan(v)
        assert abs(abs(curvature_split(lat, 1.0).kappa_g)
                   - math.tan(math.pi / 6)) <= 1e-10

    def test_polar_ray(self):
        ray = SurfaceCurve(POLAR, jet_kernel(lambda t: (t, t * 0.0 + 0.8)),
                           (0.5, 4.0))
        assert abs(liouville_check(ray, 1.0)) <= 1e-12

    def test_general_curve_on_torus(self):
        sc = SurfaceCurve(TORUS, jet_kernel(lambda t: (
            1.0 + t, 2.0 + 0.7 * t + 0.2 * t * t)), (0.0, 1.5))
        assert abs(liouville_check(sc, 0.4)) <= 1e-7

    def test_nonorthogonal_patch_rejected(self):
        sheared = catalog.make("monge", f="u*v + u^2")
        sc = SurfaceCurve.straight(sheared, (0.5, 0.3), (1.0, 0.2),
                                   (-0.2, 0.2))
        with pytest.raises(NonOrthogonalPatch):
            liouville_check(sc, 0.0)

    def test_bonnet_geodesic_tau_equals_tau_g(self):
        hx = SurfaceCurve.straight(CYLINDER, (0.0, 0.0), (1.0, 1.0), (0, 5))
        assert abs(bonnet_torsion_check(hx, 1.0)) <= 1e-8

    def test_bonnet_latitude(self):
        lat = SurfaceCurve.const_v(SPHERE, math.pi / 6)
        assert abs(bonnet_torsion_check(lat, 1.0)) <= 1e-8

    def test_bonnet_general_curves(self):
        rng = random.Random(25)
        for _ in range(8):
            u, v = rng.uniform(0.5, 5.5), rng.uniform(0.5, 5.5)
            d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*d) < 0.2:
                d = (0.7, -0.6)
            sc = SurfaceCurve(
                TORUS, jet_kernel(lambda t, d=d: (u + d[0] * t + 0.15 * t * t,
                                                  v + d[1] * t - 0.1 * t * t)),
                (-0.2, 0.2))
            try:
                assert abs(bonnet_torsion_check(sc, 0.0)) <= 1e-7
            except AsymptoticPoint:
                continue

    def test_bonnet_asymptotic_rejected(self):
        pt = (1.0, 3.6)
        d = asymptotic_directions(TORUS, *pt)[0]
        sc = SurfaceCurve.straight(TORUS, pt, d, (-0.2, 0.2))
        with pytest.raises(AsymptoticPoint):
            bonnet_torsion_check(sc, 0.0)


class TestFreedByReferenceCounting:
    """Curves and surfaces hold no reference cycle through their kernels'
    jet fallbacks, so they are freed when dropped, with the cycle
    collector off."""

    @staticmethod
    def freed(make):
        enabled = gc.isenabled()
        gc.disable()
        try:
            ref = weakref.ref(make())
            return ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_catalog_curve(self):
        def make():
            curve = catalog.make("helix")
            curve.kernel(0.3)
            curve.composite(((0.3,), (1.0,), (0.0,), (0.0,), (0.0,)))
            frenet(curve, 0.3)
            return curve

        assert self.freed(make)

    def test_callable_curve(self):
        def make():
            curve = ParametricCurve(curves.jet_kernel(
                lambda t: Vec3(t, t * t, t * 0.0 + 1.0)), (0.0, 1.0))
            curve.kernel(0.3)
            curve.composite(((0.3,), (1.0,), (0.0,), (0.0,), (0.0,)))
            return curve

        assert self.freed(make)

    def test_callable_surface_curve(self):
        def make():
            sc = SurfaceCurve(TORUS, jet_kernel(
                lambda t: (1.0 + t, 2.0 + 0.7 * t)), (0.0, 1.0))
            sc.point(0.4)
            kappa_n_quotient(sc, 0.4)
            return sc

        assert self.freed(make)

    def test_catalog_surface(self):
        def make():
            surface = catalog.make("torus")
            curvatures(surface, 0.7, 1.1)
            return surface

        assert self.freed(make)


class TestPinnedWork:
    """Steps and field calls of three fixed solves, as the step control
    makes them; a change to it shows here, not only in a benchmark."""

    @staticmethod
    def count_work(monkeypatch):
        real = surfacecurves.ode_solve
        work = {"solves": 0, "steps": 0, "calls": 0}

        def ode_solve(field_fn, *args, **kwargs):
            def field(t, y):
                work["calls"] += 1
                return field_fn(t, y)

            work["solves"] += 1
            res = real(field, *args, **kwargs)
            work["steps"] += res.n_steps
            return res

        monkeypatch.setattr(surfacecurves, "ode_solve", ode_solve)
        return work

    def test_geodesic_ivp(self, monkeypatch):
        work = self.count_work(monkeypatch)
        geodesic_ivp(TORUS, 0, 0, (1, 0.7), 6)
        assert work == {"solves": 1, "steps": 192, "calls": 1153}

    def test_geodesic_bvp(self, monkeypatch):
        work = self.count_work(monkeypatch)
        path = geodesic_bvp(TORUS, (0, 0), (2, 1))
        assert work == {"solves": 36, "steps": 1616, "calls": 10302}
        assert path.length == 6.033013228632915

    def test_parallel_transport(self, monkeypatch):
        work = self.count_work(monkeypatch)
        parallel_transport(SurfaceCurve.const_v(SPHERE, 0.5), (1.0, 0.0))
        assert work == {"solves": 1, "steps": 256, "calls": 1537}


class TestEvaluationsPerPoint:
    """No check evaluates the shape's definition: the surface point reads
    the generated kernel, and the composite space curve the generated
    composite kernel (order-4 code with jet inputs)."""

    CURVE = SurfaceCurve(TORUS, jet_kernel(lambda t: (
        1.0 + t, 2.0 + 0.7 * t + 0.2 * t * t)), (0.0, 1.5))

    @pytest.mark.parametrize("check, expected", [
        (bonnet_torsion_check, {}),
        (liouville_check, {}),
        (curvature_split, {}),
        (geodesic_torsion, {}),
        (kappa_n_quotient, {}),
        (geodesic_torsion_principal, {}),
    ], ids=["bonnet", "liouville", "split", "tau_g", "kappa_n_quotient",
            "tau_g_principal"])
    def test_pointwise_checks(self, monkeypatch, check, expected):
        assert TORUS.scale > 0.0    # the cached scale probe is not counted
        counts = count_evals(monkeypatch)
        check(self.CURVE, 0.4)
        assert counts == expected

    def test_gauss_bonnet_integrand(self, monkeypatch):
        assert SPHERE.scale > 0.0
        counts = count_evals(monkeypatch)
        per_call = []

        def quad_adaptive(integrand, domain, spec):
            counts.clear()
            integrand(0.5 * (domain[0] + domain[1]))
            per_call.append(dict(counts))
            return 0.0

        monkeypatch.setattr(surfacecurves, "quad_adaptive", quad_adaptive)
        loop = BoundaryLoop(arcs=[SurfaceCurve.const_v(SPHERE, 0.3)],
                            corner_angles=[0.0], region_rects=[])
        gauss_bonnet_local(SPHERE, loop)
        assert per_call == [{}]
