"""Curve kernel: Frenet apparatus, osculating elements, arc length,
classification, involutes, indicatrices and intrinsic reconstruction."""

import math
import random
import zlib

import numpy as np
import pytest

from diffgeo import catalog
from diffgeo import jets as J
from diffgeo.curves import (ParametricCurve, arc_length, classify_curve,
                            frenet, frenet_lines_and_planes, frenet_residuals,
                            indicatrix_kappa_tau, involute, jet_kernel,
                            osculating_circle,
                            osculating_sphere, reconstruct_from_kappa_tau,
                            reparam_to_arclength, spherical_indicatrix,
                            sphericity_residual)
from diffgeo.curves import _coefficients, _CurveJets
from diffgeo.errors import (DomainError, InflectionPoint, NonOrthonormalSeed,
                            SingularPoint, ZeroTorsion)
from diffgeo.jets import Jet1
from diffgeo.vectors import Vec3

HELIX = catalog.make("helix")           # a=1, b=0.5: kappa=0.8, tau=0.4
CIRCLE3 = catalog.make("circle", R=3.0)
LINE = catalog.make("line")             # (t, 2t, 3t)
ELLIPSE = catalog.make("ellipse")       # (2cos, sin, 0)
SPIRAL = catalog.make("spherical-spiral")


def cubic_curve(seed):
    rng = random.Random(seed)
    c = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(3)]

    def ev(t):
        def poly(row):
            return ((row[3] * t + row[2]) * t + row[1]) * t + row[0]

        return Vec3(poly(c[0]), poly(c[1]), poly(c[2]))

    return ParametricCurve(jet_kernel(ev), (-1.0, 1.0))


def test_a_curve_needs_a_kernel_or_a_definition():
    with pytest.raises(TypeError, match="kernel or a definition"):
        ParametricCurve(None, (0.0, 1.0))


class TestFrenet:
    def test_circle_curvature_and_torsion(self):
        fd = frenet(CIRCLE3, 0.7)
        assert abs(fd.kappa - 1.0 / 3.0) <= 1e-12
        assert abs(fd.tau) <= 1e-12

    def test_helix_reference_values(self):
        for t in (-2.0, 0.0, 1.3, 5.0):
            fd = frenet(HELIX, t)
            assert abs(fd.kappa - 0.8) <= 1e-12
            assert abs(fd.tau - 0.4) <= 1e-12

    def test_line_is_inflection_everywhere(self):
        fd = frenet(LINE, 0.5, partial=True)
        assert fd.kappa <= 1e-12
        assert fd.N is None and fd.tau is None
        with pytest.raises(InflectionPoint):
            frenet(LINE, 0.5)

    def test_singular_point(self):
        # r = (t^2, t^3, 0) has r'(0) = 0
        c = ParametricCurve(
            jet_kernel(lambda t: Vec3(t * t, t * t * t, t * 0.0)), (-1, 1))
        with pytest.raises(SingularPoint):
            frenet(c, 0.0)

    def test_frame_orthonormal_right_handed(self):
        rng = random.Random(3)
        for _ in range(20):
            t = rng.uniform(-3, 3)
            fd = frenet(HELIX, t)
            for vec in (fd.T, fd.N, fd.B):
                assert abs(vec.norm() - 1.0) <= 1e-12
            assert abs(fd.T.dot(fd.N)) <= 1e-12
            assert abs(fd.T.dot(fd.B)) <= 1e-12
            assert abs(fd.N.dot(fd.B)) <= 1e-12
            assert abs(fd.T.cross(fd.N).dot(fd.B) - 1.0) <= 1e-10

    def test_darboux_combination(self):
        fd = frenet(HELIX, 0.9)
        want = fd.T * fd.tau + fd.B * fd.kappa
        assert (fd.darboux - want).norm() == 0.0

    def test_residuals_helix_circle_cubic(self):
        assert max(frenet_residuals(HELIX, 1.0)) <= 1e-10
        res = frenet_residuals(CIRCLE3, 2.0)
        assert res[2] <= 1e-12  # B constant for a plane curve
        cub = cubic_curve(17)
        assert max(frenet_residuals(cub, 0.3)) <= 1e-9

    def test_torsion_curvature_product_identity(self):
        cj = _CurveJets.at(HELIX, 1.1)
        dT, _, dB = cj.frame_ds()
        lhs = abs(cj.kappa_value * cj.tau)
        rhs = abs(dT.dot(dB))
        assert abs(lhs - rhs) <= 1e-10

    def test_lancret_identity(self):
        for t in (0.4, 1.7):
            cj = _CurveJets.at(ELLIPSE, t)
            _, dN, _ = cj.frame_ds()
            kap, tau = cj.kappa_value, cj.tau
            assert abs(dN.norm() ** 2 - (kap ** 2 + tau ** 2)) <= 1e-9

    def test_reparameterization_invariance(self):
        # t = w + 0.3 sin w is smooth and monotone
        base = catalog.make("helix")

        def sub(w):
            return base.definition.eval(w + 0.3 * J.sin(w),
                                        check_domain=False)

        warped = ParametricCurve(jet_kernel(sub), (-4, 4))
        for w in (-1.2, 0.5, 2.0):
            fd = frenet(warped, w)
            assert abs(fd.kappa - 0.8) <= 1e-9
            assert abs(fd.tau - 0.4) <= 1e-9

    def test_rigid_motion_invariance_and_reflection(self):
        th = 0.83
        R = [[math.cos(th), -math.sin(th), 0.0],
             [math.sin(th), math.cos(th), 0.0],
             [0.0, 0.0, 1.0]]
        shift = Vec3(0.5, -2.0, 1.25)

        def moved(t):
            p = SPIRAL.definition.eval(t, check_domain=False)
            return Vec3(
                R[0][0] * p.x + R[0][1] * p.y + R[0][2] * p.z + shift.x,
                R[1][0] * p.x + R[1][1] * p.y + R[1][2] * p.z + shift.y,
                R[2][0] * p.x + R[2][1] * p.y + R[2][2] * p.z + shift.z)

        def mirrored(t):
            p = SPIRAL.definition.eval(t, check_domain=False)
            return Vec3(-p.x, p.y, p.z)

        c_m = ParametricCurve(jet_kernel(moved), SPIRAL.domain)
        c_r = ParametricCurve(jet_kernel(mirrored), SPIRAL.domain)
        for t in (0.8, 2.5, 4.4):
            a = frenet(SPIRAL, t)
            b = frenet(c_m, t)
            r = frenet(c_r, t)
            assert abs(a.kappa - b.kappa) <= 1e-10
            assert abs(a.tau - b.tau) <= 1e-10
            assert abs(a.kappa - r.kappa) <= 1e-10
            assert abs(a.tau + r.tau) <= 1e-10


class TestArcLength:
    def test_circle_circumference(self):
        c = catalog.make("circle", R=2.0)
        assert abs(arc_length(c, 0.0, 2 * math.pi) - 4 * math.pi) <= 1e-10

    def test_unit_speed_line(self):
        c = ParametricCurve(jet_kernel(lambda t: Vec3(t, t * 0.0, t * 0.0)),
                            (0, 10))
        assert abs(arc_length(c, 0.0, 5.0) - 5.0) <= 1e-12

    def test_helix_closed_form(self):
        L = arc_length(HELIX, 0.0, 2 * math.pi)
        assert abs(L - 2 * math.pi * math.sqrt(1.25)) <= 1e-10

    def test_reparam_unit_speed(self):
        cs = reparam_to_arclength(
            ParametricCurve(HELIX.kernel, (0.0, 4 * math.pi)))
        total = cs.domain[1]
        assert abs(total - 4 * math.pi * math.sqrt(1.25)) <= 1e-8
        for s in (0.2 * total, 0.5 * total, 0.9 * total):
            speed = Vec3(*cs.kernel(s)[1]).norm()
            assert abs(speed - 1.0) <= 1e-8

    @pytest.mark.parametrize("k", [7, 128, 254])
    def test_frenet_next_to_a_knot(self, k):
        # the arc-length curve caches t(s) at total * k / 255 and integrates
        # from the nearest knot; an ulp away that gap is far below min_step
        cs = reparam_to_arclength(HELIX)
        knot = cs.domain[1] * k / 255
        for s in (math.nextafter(knot, -math.inf),
                  math.nextafter(knot, math.inf), knot + 3e-14):
            fd = frenet(cs, s)
            assert abs(fd.kappa - 0.8) <= 1e-9 and abs(fd.tau - 0.4) <= 1e-9


class TestOsculating:
    def test_circle_is_its_own_osculating_circle(self):
        oc = osculating_circle(CIRCLE3, 1.1)
        assert oc.center.norm() <= 1e-12
        assert abs(oc.radius - 3.0) <= 1e-12
        assert abs(oc.radius * frenet(CIRCLE3, 1.1).kappa - 1.0) <= 1e-12

    def test_helix_circle_radius(self):
        assert abs(osculating_circle(HELIX, 0.4).radius - 1.25) <= 1e-12

    def test_helix_sphere_degenerates_to_circle_radius(self):
        # constant curvature: dR_k/ds = 0 kills the binormal offset
        os_ = osculating_sphere(HELIX, 0.7)
        assert abs(os_.radius - 1.25) <= 1e-10

    def test_spherical_curve_has_its_sphere(self):
        # the spiral lies on the unit sphere, so its osculating sphere is
        # the unit sphere itself
        os_ = osculating_sphere(SPIRAL, 1.3)
        assert os_.center.norm() <= 1e-8
        assert abs(os_.radius - 1.0) <= 1e-8

    def test_zero_torsion_rejected(self):
        with pytest.raises(ZeroTorsion):
            osculating_sphere(CIRCLE3, 0.5)

    def test_lines_and_planes(self):
        lines, planes = frenet_lines_and_planes(CIRCLE3, 0.8)
        point, normal = planes["osculating"]
        assert abs(abs(normal.z) - 1.0) <= 1e-12  # the xy-plane
        n1 = planes["osculating"][1]
        n2 = planes["rectifying"][1]
        n3 = planes["normal"][1]
        assert abs(n1.dot(n2)) <= 1e-12
        assert abs(n1.dot(n3)) <= 1e-12
        assert abs(n2.dot(n3)) <= 1e-12
        fd = frenet(HELIX, 0.0)
        assert (lines := frenet_lines_and_planes(HELIX, 0.0)[0]) is not None
        d = lines["tangent"][1]
        assert abs(d.x) <= 1e-12  # direction (0, a, b) normalized
        assert abs(d.y * 0.5 - d.z * 1.0) <= 1e-12


class TestClassification:
    def test_line(self):
        assert classify_curve(LINE).kind == "StraightLine"

    def test_translated_line(self):
        far = catalog.make("line", px=1e13)
        assert far.scale == pytest.approx(LINE.scale, rel=1e-3)
        assert classify_curve(far).kind == "StraightLine"

    def test_ellipse_planar(self):
        assert classify_curve(ELLIPSE).kind == "Planar"

    def test_helix(self):
        assert classify_curve(HELIX).kind == "Helix"

    def test_general(self):
        assert classify_curve(SPIRAL).kind == "General"

    def test_singular_sample_reported(self):
        c = ParametricCurve(
            jet_kernel(lambda t: Vec3(t * t, t * t * t, t * 0.0)), (-1, 1))
        # an odd sample count puts a Chebyshev node on the cusp at t=0
        with pytest.raises(SingularPoint) as exc:
            classify_curve(c, n_samples=65)
        assert abs(exc.value.t) < 1e-9


class TestSphericalCurves:
    def test_spiral_on_unit_sphere(self):
        for t in (0.5, 1.1, 2.2, 4.0):
            assert abs(SPIRAL.eval(t).norm() - 1.0) <= 1e-12
            assert abs(sphericity_residual(SPIRAL, t)) <= 1e-6

    def test_helix_not_spherical(self):
        assert abs(sphericity_residual(HELIX, 1.0)) > 0.1

    def test_plane_circle_rejected(self):
        with pytest.raises(ZeroTorsion):
            sphericity_residual(CIRCLE3, 1.0)


@pytest.fixture(scope="module")
def helix_s():
    return reparam_to_arclength(
        ParametricCurve(HELIX.kernel, (0.0, 4 * math.pi)))


class TestInvolutes:

    def test_requires_natural_parameterization(self):
        with pytest.raises(ValueError):
            involute(HELIX, 1.0)

    def test_tangent_orthogonality(self, helix_s):
        inv = involute(helix_s, 2.0)
        L = helix_s.domain[1]
        for k in range(20):
            s = L * (k + 0.5) / 20.0
            base_T = Vec3(*helix_s.kernel(s)[1])
            inv_T = Vec3(*inv.kernel(s)[1])
            assert abs(base_T.dot(inv_T)) <= 1e-8

    def test_involute_spacing_constant(self, helix_s):
        inv_a = involute(helix_s, 2.0)
        inv_b = involute(helix_s, 3.0)
        L = helix_s.domain[1]
        for s in (0.2 * L, 0.5 * L, 0.8 * L):
            gap = (inv_b.eval(s) - inv_a.eval(s)).norm()
            assert abs(gap - 1.0) <= 1e-10

    def test_circle_involutes_congruent(self):
        circle_s = reparam_to_arclength(
            ParametricCurve(CIRCLE3.kernel, (0.0, 2 * math.pi)))
        inv_a = involute(circle_s, 1.0)
        inv_b = involute(circle_s, 2.0)
        # same trace shifted by arc length: points of inv_b at s match
        # points of inv_a at s-1 rotated by the roll angle 1/R
        th = 1.0 / 3.0
        rot = lambda p: Vec3(math.cos(th) * p.x - math.sin(th) * p.y,
                             math.sin(th) * p.x + math.cos(th) * p.y, p.z)
        for s in (2.0, 4.0, 6.0):
            a = inv_a.eval(s - 1.0)
            b = inv_b.eval(s)
            assert (rot(a) - b).norm() <= 1e-8


class TestIndicatrices:
    def test_helix_tangent_indicatrix_closed_forms(self):
        k_ind, t_ind = indicatrix_kappa_tau(HELIX, 1.0, "T")
        w = math.sqrt(0.8 ** 2 + 0.4 ** 2)
        assert abs(k_ind - w / 0.8) <= 1e-10
        assert abs(t_ind) <= 1e-10  # constant kappa, tau

    def test_helix_binormal_indicatrix(self):
        k_ind, t_ind = indicatrix_kappa_tau(HELIX, 1.0, "B")
        w = math.sqrt(0.8 ** 2 + 0.4 ** 2)
        assert abs(k_ind - w / 0.4) <= 1e-10
        assert abs(t_ind) <= 1e-10

    def test_helix_indicatrix_is_a_circle(self):
        ind = spherical_indicatrix(HELIX, "T")
        cls = classify_curve(
            ParametricCurve(ind.kernel, (0.0, 2 * math.pi)))
        assert cls.kind == "Planar"
        # constant curvature too: a circle
        ks = [frenet(ind, t).kappa for t in (0.3, 1.0, 2.0)]
        assert max(ks) - min(ks) <= 1e-9

    def test_tangent_and_binormal_indicatrix_tangents_parallel(self):
        ind_t = spherical_indicatrix(SPIRAL, "T")
        ind_b = spherical_indicatrix(SPIRAL, "B")
        for t in (0.5, 1.5, 3.0):
            a = Vec3(*ind_t.kernel(t)[1])
            b = Vec3(*ind_b.kernel(t)[1])
            assert a.cross(b).norm() / (a.norm() * b.norm()) <= 1e-8

    def test_line_has_no_binormal_indicatrix(self):
        for which in ("N", "B"):
            with pytest.raises(InflectionPoint):
                spherical_indicatrix(LINE, which).eval(0.3)

    def test_nonzero_torsion_required_for_binormal(self):
        with pytest.raises(ZeroTorsion):
            indicatrix_kappa_tau(ELLIPSE, 0.5, "B")

    def test_closed_forms_against_measured_indicatrix_curves(self):
        # independent route: run the indicatrix curve itself through the
        # Frenet pipeline (kappa exact for T and B; tau exact for T)
        for t in (0.8, 1.6, 3.1):
            k_t, tau_t = indicatrix_kappa_tau(SPIRAL, t, "T")
            ind_t = spherical_indicatrix(SPIRAL, "T")
            fd = frenet(ind_t, t)
            assert abs(fd.kappa - k_t) <= 1e-10 * max(1.0, k_t)
            assert abs(fd.tau - tau_t) <= 1e-9 * max(1.0, abs(tau_t))
            k_b, _ = indicatrix_kappa_tau(SPIRAL, t, "B")
            ind_b = spherical_indicatrix(SPIRAL, "B")
            assert abs(frenet(ind_b, t).kappa - k_b) <= 1e-10 * max(1.0, k_b)


class TestKernelsAgainstJet1Forms:
    """The involute, indicatrix and arc-length kernels against the Jet1
    arithmetic they replace, at seeded points: every coefficient within
    REL of the largest (they agree exactly at every point sampled here)."""

    REL = 1e-15

    @staticmethod
    def _rows_jet(rows):
        return Vec3(*(Jet1(*c) for c in zip(*rows)))

    def _agree(self, got, want):
        size = max(abs(x) for row in want for x in row)
        assert max(abs(a - b) for ga, wa in zip(got, want)
                   for a, b in zip(ga, wa)) <= self.REL * size

    @pytest.mark.parametrize("name", ["helix", "spherical-spiral"])
    def test_involute(self, name):
        base = reparam_to_arclength(catalog.make(name))
        rng = random.Random(zlib.crc32(b"involute " + name.encode()))
        for _ in range(50):
            s, c = rng.uniform(*base.domain), rng.uniform(-3.0, 3.0)
            pos = self._rows_jet(base.kernel(s))
            want = pos + pos.derivative() * (-Jet1.variable(s) + c)
            self._agree(involute(base, c).kernel(s), _coefficients(want))

    @pytest.mark.parametrize("which", "TNB")
    def test_indicatrix(self, which):
        ind = spherical_indicatrix(SPIRAL, which)
        rng = random.Random(zlib.crc32(b"indicatrix " + which.encode()))
        for _ in range(50):
            t = rng.uniform(*SPIRAL.domain)
            pos = SPIRAL.definition.eval(Jet1.variable(t), check_domain=False)
            rd = pos.derivative()
            T = rd / J.sqrt(rd.norm_sq())
            C = rd.cross(rd.derivative())
            B = C / J.sqrt(C.norm_sq())
            want = {"T": T, "N": B.cross(T), "B": B}[which]
            self._agree(ind.kernel(t), _coefficients(want))

    def test_reparam(self):
        # z = t / 2 on the helix gives t(s) exactly; its s-derivatives
        # follow from the speed by the inverse-function rule
        helix_s = reparam_to_arclength(HELIX)
        rng = random.Random(zlib.crc32(b"reparam"))
        for _ in range(50):
            s = rng.uniform(*helix_s.domain)
            t = helix_s.kernel(s)[0][2] / 0.5
            f1, f2, f3, f4 = _CurveJets.at(HELIX, t).sigma
            g1 = 1.0 / f1
            g2 = -f2 * g1 ** 3
            g3 = (3.0 * f2 * f2 - f1 * f3) * g1 ** 5
            g4 = (-15.0 * f2 ** 3 + 10.0 * f1 * f2 * f3
                  - f1 * f1 * f4) * g1 ** 7
            t_jet = Jet1.variable(s)._compose((t, g1, g2, g3, g4))
            want = HELIX.definition.eval(t_jet, check_domain=False)
            self._agree(helix_s.kernel(s), _coefficients(want))


def _procrustes_rms(points_a, points_b):
    A = np.array([[p.x, p.y, p.z] for p in points_a])
    B = np.array([[p.x, p.y, p.z] for p in points_b])
    A0 = A - A.mean(axis=0)
    B0 = B - B.mean(axis=0)
    U, _, Vt = np.linalg.svd(A0.T @ B0)
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    R = U @ D @ Vt
    diff = A0 - B0 @ R.T
    return math.sqrt((diff ** 2).sum() / len(A))


class TestReconstruction:
    def test_circle_closure(self):
        rec = reconstruct_from_kappa_tau(
            lambda s: 0.5, lambda s: 0.0, Vec3(0, 0, 0),
            (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)), 4 * math.pi)
        assert (rec.r[-1] - rec.r[0]).norm() <= 1e-6

    def test_helix_congruence(self):
        L = 4 * math.pi
        rec = reconstruct_from_kappa_tau(
            lambda s: 0.8, lambda s: 0.4, Vec3(0, 0, 0),
            (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)), L)
        helix_s = reparam_to_arclength(
            ParametricCurve(HELIX.kernel, (0.0, L / math.sqrt(1.25))))
        ref = [helix_s.eval(min(s, helix_s.domain[1])) for s in rec.s]
        assert _procrustes_rms(rec.r, ref) <= 1e-5

    def test_rotated_seed_same_trace(self):
        rec1 = reconstruct_from_kappa_tau(
            lambda s: 0.7, lambda s: 0.0, Vec3(0, 0, 0),
            (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)), 5.0)
        c, s_ = math.cos(0.6), math.sin(0.6)
        rec2 = reconstruct_from_kappa_tau(
            lambda s: 0.7, lambda s: 0.0, Vec3(1, 2, 3),
            (Vec3(c, s_, 0), Vec3(-s_, c, 0), Vec3(0, 0, 1)), 5.0)
        assert _procrustes_rms(rec1.r, rec2.r) <= 1e-7

    def test_roundtrip_kappa_tau(self):
        rec = reconstruct_from_kappa_tau(
            lambda s: 0.8, lambda s: 0.4, Vec3(0, 0, 0),
            (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)), 4 * math.pi)
        curve = rec.as_curve()
        for s in (1.0, 4.0, 9.0):
            fd = frenet(curve, s)
            assert abs(fd.kappa - 0.8) <= 1e-6
            assert abs(fd.tau - 0.4) <= 1e-6

    def test_bad_seed_rejected(self):
        with pytest.raises(NonOrthonormalSeed):
            reconstruct_from_kappa_tau(
                lambda s: 1.0, lambda s: 0.0, Vec3(0, 0, 0),
                (Vec3(1, 0, 0), Vec3(0.5, 1, 0), Vec3(0, 0, 1)), 1.0)

    def test_zero_kappa_rejected(self):
        with pytest.raises(DomainError):
            reconstruct_from_kappa_tau(
                lambda s: 0.0, lambda s: 0.0, Vec3(0, 0, 0),
                (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)), 1.0)
