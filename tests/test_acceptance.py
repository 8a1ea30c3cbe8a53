"""Acceptance gate: thirteen end-to-end criteria, one test per criterion,
each asserted at its stated tolerance.  Run with ``pytest -v`` to get one
pass/fail line per criterion; each test also prints its own verdict line.
"""

import json
import math
import random

import numpy as np
import pytest

from diffgeo import catalog
from diffgeo.cli import main as cli_main
from diffgeo.curves import (ParametricCurve, frenet, frenet_residuals,
                            reconstruct_from_kappa_tau, reparam_to_arclength)
from diffgeo.errors import DomainError
from diffgeo.expr import eval_scalar, parse_text, to_text
from diffgeo.jets import Jet1
from diffgeo.quadrature import QuadSpec, quad2d
from diffgeo.surfaces import (curvatures, codazzi_compatibility_residuals,
                              forms, gauss_weingarten_residuals,
                              riemann_R1212)
from diffgeo.surfacecurves import (BoundaryLoop, SurfaceCurve,
                                   asymptotic_line_trace, curvature_split,
                                   gauss_bonnet_global, gauss_bonnet_local,
                                   geodesic_bvp, geodesic_ivp,
                                   kappa_n_quotient, parallel_transport)
from diffgeo.surfaces import angle_between
from diffgeo.vectors import Vec3

from conftest import EVAL_SAFE, fd_derivative, random_tree, surface_samples

HELIX = catalog.make("helix")            # a=1, b=0.5
SPHERE = catalog.make("sphere")
SPHERE2 = catalog.make("sphere", R=2.0)
TORUS = catalog.make("torus", r=1.0, R=3.0)
PLANE = catalog.make("plane")


def verdict(n, label, ok):
    print(f"criterion {n:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({label})"


def test_criterion_01_helix_curvature_torsion():
    ok = True
    for k in range(20):
        t = -3.0 + 6.0 * k / 19.0
        fd = frenet(HELIX, t)
        ok &= abs(fd.kappa - 0.8) <= 1e-10
        ok &= abs(fd.tau - 0.4) <= 1e-10
    verdict(1, "helix kappa=0.8 tau=0.4", ok)


def test_criterion_02_frenet_serret_residuals():
    rng = random.Random(202)
    ellipse = catalog.make("ellipse")
    coeffs = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(3)]

    def cubic_ev(t):
        def poly(row):
            return ((row[3] * t + row[2]) * t + row[1]) * t + row[0]

        return Vec3(poly(coeffs[0]), poly(coeffs[1]), poly(coeffs[2]))

    cubic = ParametricCurve(cubic_ev, (-1.0, 1.0))
    ok = True
    for curve, (t0, t1) in ((HELIX, (-3, 3)), (ellipse, (0.1, 6.1)),
                            (cubic, (-0.9, 0.9))):
        for _ in range(50):
            t = rng.uniform(t0, t1)
            fd = frenet(curve, t, partial=True)
            if fd.N is None:
                continue
            ok &= max(frenet_residuals(curve, t)) <= 1e-9
            ok &= abs(fd.T.norm() - 1.0) <= 1e-10
            ok &= abs(fd.N.norm() - 1.0) <= 1e-10
            ok &= abs(fd.B.norm() - 1.0) <= 1e-10
            ok &= abs(fd.T.dot(fd.N)) <= 1e-10
            ok &= abs(fd.T.dot(fd.B)) <= 1e-10
            ok &= abs(fd.N.dot(fd.B)) <= 1e-10
            ok &= abs(fd.T.cross(fd.N).dot(fd.B) - 1.0) <= 1e-10
    verdict(2, "Frenet-Serret residuals <= 1e-9", ok)


def test_criterion_03_theorema_egregium():
    shapes = [("sphere", SPHERE), ("torus", TORUS),
              ("catenoid", catalog.make("catenoid")),
              ("monge", catalog.make("monge", f="u^2 - v^2"))]
    rng = random.Random(303)
    ok = True
    for name, shape in shapes:
        for u, v in surface_samples(name, shape, rng, 200):
            fb = forms(shape, u, v)
            k_ext = (fb.e * fb.g - fb.f ** 2) / fb.a
            k_int = riemann_R1212(shape, u, v) / fb.a
            ok &= abs(k_int - k_ext) <= 1e-7 * max(1.0, abs(k_ext))
    verdict(3, "Theorema Egregium |K_int - K_ext| <= 1e-7", ok)


def test_criterion_04_gauss_weingarten_codazzi_grids():
    ok = True
    for name in ("torus", "catenoid"):
        shape = catalog.make(name)
        rect = catalog.entry(name).sample_domain or shape.domain
        for i in range(10):
            for j in range(10):
                u = rect[0] + (rect[1] - rect[0]) * (i + 0.5) / 10.0
                v = rect[2] + (rect[3] - rect[2]) * (j + 0.5) / 10.0
                ok &= max(gauss_weingarten_residuals(shape, u, v)) <= 1e-7
                ok &= max(codazzi_compatibility_residuals(shape, u, v)) \
                    <= 1e-7
    verdict(4, "Gauss/Weingarten/Codazzi/compatibility <= 1e-7", ok)


def test_criterion_05_sphere_torus_reference_curvatures():
    rng = random.Random(505)
    ok = True
    for u, v in surface_samples("sphere", SPHERE2, rng, 25):
        cd = curvatures(SPHERE2, u, v)
        ok &= abs(cd.K - 0.25) <= 1e-9
        ok &= abs(abs(cd.H) - 0.5) <= 1e-9
        ok &= cd.is_umbilic
        ok &= cd.shape == "Elliptic"
    for u in (0.0, 1.0, 2.5, 4.0):
        cd = curvatures(TORUS, u, math.pi / 2)
        ok &= abs(cd.K - 0.25) <= 1e-9
        ok &= abs(cd.H - 0.625) <= 1e-9
    verdict(5, "sphere R=2 and torus outer-equator curvatures", ok)


def test_criterion_06_gauss_bonnet():
    ok = True
    # hemisphere
    eq = SurfaceCurve.const_v(SPHERE, 0.0)
    gb = gauss_bonnet_local(SPHERE, BoundaryLoop(
        arcs=[eq], corner_angles=[0.0],
        region_rects=[(-math.pi, math.pi, 0.0, math.pi / 2)]))
    ok &= abs(gb.defect) <= 1e-5
    # octant triangle with three right angles
    quarter = (0.0, math.pi / 2)
    eqq = SurfaceCurve.straight(SPHERE, (0.0, 0.0), (1.0, 0.0), quarter)
    m_up = SurfaceCurve.straight(SPHERE, (math.pi / 2, 0.0), (0.0, 1.0),
                                 quarter)
    m0 = SurfaceCurve.straight(SPHERE, (0.0, 0.0), (0.0, 1.0), quarter)
    m_down = SurfaceCurve(SPHERE, lambda t: m0.uv(math.pi / 2 - t),
                          (0.0, math.pi / 2))
    gb = gauss_bonnet_local(SPHERE, BoundaryLoop(
        arcs=[eqq, m_up, m_down], corner_angles=[math.pi / 2] * 3,
        region_rects=[(0.0, math.pi / 2, 0.0, math.pi / 2)]))
    ok &= abs(gb.defect) <= 1e-5
    # planar semicircular disc
    polar = catalog.make("plane-polar")
    R = 2.0
    ray_out = SurfaceCurve(polar, lambda t: (t, t * 0.0), (1e-9, R))
    arc = SurfaceCurve(polar, lambda t: (t * 0.0 + R, t), (0.0, math.pi))
    ray_in = SurfaceCurve(polar, lambda t: (R + 1e-9 - t, t * 0.0 + math.pi),
                          (1e-9, R))
    gb = gauss_bonnet_local(polar, BoundaryLoop(
        arcs=[ray_out, arc, ray_in],
        corner_angles=[math.pi / 2, math.pi / 2, 0.0],
        region_rects=[(1e-9, R, 0.0, math.pi)]))
    ok &= abs(gb.defect) <= 1e-5
    # global variants
    total, defect = gauss_bonnet_global(SPHERE, SPHERE.domain, 2)
    ok &= abs(total - 4 * math.pi) <= 1e-5 and abs(defect) <= 1e-5
    total, defect = gauss_bonnet_global(TORUS, TORUS.domain, 0)
    ok &= abs(total) <= 1e-5 and abs(defect) <= 1e-5
    ell = catalog.make("ellipsoid")
    total, defect = gauss_bonnet_global(ell, ell.domain, 2)
    ok &= abs(total - 4 * math.pi) <= 1e-5 and abs(defect) <= 1e-5
    verdict(6, "Gauss-Bonnet local and global budgets", ok)


def _sphere_angle(p0, p1):
    def xyz(p):
        return Vec3(math.cos(p[0]) * math.cos(p[1]),
                    math.sin(p[0]) * math.cos(p[1]), math.sin(p[1]))

    return math.acos(max(-1.0, min(1.0, xyz(p0).dot(xyz(p1)))))


def test_criterion_07_geodesics():
    ok = True
    path = geodesic_bvp(PLANE, (0.0, 0.0), (3.0, 4.0), endpoint_tol=1e-8)
    ok &= abs(path.length - 5.0) <= 1e-8

    rng = random.Random(707)
    done = 0
    while done < 10:
        p0 = (rng.uniform(-2.8, 2.8), rng.uniform(-1.0, 1.0))
        p1 = (rng.uniform(-2.8, 2.8), rng.uniform(-1.0, 1.0))
        alpha = _sphere_angle(p0, p1)
        if not 0.1 < alpha < 2.8:
            continue
        path = geodesic_bvp(SPHERE, p0, p1)
        ok &= abs(path.length - alpha) <= 1e-6
        done += 1

    cyl = catalog.make("cylinder")
    path = geodesic_ivp(cyl, 0.0, 0.0, (1.0, 1.0), 10.0)
    sc = path.as_curve()
    for k in range(24):
        s = path.length * (k + 0.5) / 24.0
        ok &= abs(curvature_split(sc, s).kappa_g) <= 1e-7
    verdict(7, "geodesic BVP/IVP lengths and kappa_g", ok)


def test_criterion_08_parallel_transport_holonomy():
    ok = True
    two_pi = 2.0 * math.pi
    for colat in (math.pi / 6, math.pi / 3, math.pi / 2):
        v0 = math.pi / 2 - colat
        loop = SurfaceCurve.const_v(SPHERE, v0)
        st = parallel_transport(loop, (1.0, 0.0))
        cap = quad2d(lambda u, v: math.cos(v),
                     (-math.pi, math.pi, v0, math.pi / 2), QuadSpec(tol=1e-9))
        mism = (st.holonomy - cap + math.pi) % two_pi - math.pi
        ok &= abs(mism) <= 1e-6
        ok &= (max(st.norms) - min(st.norms)) <= 1e-8
    # a non-loop path on the torus: norm drift and pairwise angle
    sc = SurfaceCurve(TORUS, lambda t: (1.0 + 0.8 * t,
                                        2.0 + 0.5 * t + 0.3 * t * t),
                      (0.0, 3.0))
    s1 = parallel_transport(sc, (1.0, 0.0))
    s2 = parallel_transport(sc, (0.2, 0.8))
    ok &= (max(s1.norms) - min(s1.norms)) / s1.norms[0] <= 1e-8
    angles = []
    for t, a, b in zip(s1.ts, s1.components, s2.components):
        u, v = sc.point(t)
        angles.append(angle_between(TORUS, u, v, a, b))
    ok &= max(angles) - min(angles) <= 1e-8
    verdict(8, "parallel transport norms, holonomy, angles", ok)


def test_criterion_09_euler_and_meusnier():
    rng = random.Random(909)
    ok = True
    for name in ("torus", "hyperbolic-paraboloid"):
        shape = catalog.make(name)
        rect = catalog.entry(name).sample_domain or shape.domain
        found = 0
        while found < 20:
            u = rng.uniform(rect[0] + 0.05, rect[1] - 0.05)
            v = rng.uniform(rect[2] + 0.05, rect[3] - 0.05)
            cd = curvatures(shape, u, v)
            if cd.is_umbilic:
                continue
            found += 1
            for k in range(16):
                th = two_pi_frac = 2.0 * math.pi * k / 16.0
                d = (math.cos(th) * cd.dir1_uv[0]
                     + math.sin(th) * cd.dir2_uv[0],
                     math.cos(th) * cd.dir1_uv[1]
                     + math.sin(th) * cd.dir2_uv[1])
                sc = SurfaceCurve.straight(shape, (u, v), d, (-0.05, 0.05))
                kn = kappa_n_quotient(sc, 0.0)
                want = (cd.kappa1 * math.cos(th) ** 2
                        + cd.kappa2 * math.sin(th) ** 2)
                ok &= abs(kn - want) <= 1e-8
    # Meusnier: tangent-sharing pairs
    for _ in range(10):
        u, v = rng.uniform(0.5, 5.5), rng.uniform(0.5, 5.5)
        d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        if math.hypot(*d) < 0.2:
            d = (0.9, 0.1)
        c1 = SurfaceCurve.straight(TORUS, (u, v), d, (-0.05, 0.05))
        c2 = SurfaceCurve(TORUS,
                          lambda t, d=d: (u + d[0] * t + 0.25 * t * t,
                                          v + d[1] * t - 0.15 * t * t),
                          (-0.05, 0.05))
        ok &= abs(curvature_split(c1, 0.0).kappa_n
                  - curvature_split(c2, 0.0).kappa_n) <= 1e-8
    verdict(9, "Euler theorem and Meusnier property", ok)


def test_criterion_10_beltrami_enneper():
    helicoid = catalog.make("helicoid")
    tr = asymptotic_line_trace(helicoid, (1.3, 0.4), 2.0, branch=1)
    pc = ParametricCurve(lambda tj: helicoid.evaluator(*tr.uv(tj)),
                         tr.domain)
    ok = True
    for k in range(1, 31):
        s = 2.0 * k / 31.0
        fd = frenet(pc, s)
        K = curvatures(helicoid, *tr.point(s)).K
        ok &= abs(fd.tau ** 2 + K) <= 1e-6
    verdict(10, "Beltrami-Enneper along traced asymptotic line", ok)


def test_criterion_11_curve_reconstruction_roundtrip():
    length = 4.0 * math.pi
    # intrinsic data measured off the helix itself
    helix_s = reparam_to_arclength(
        ParametricCurve(HELIX.evaluator, (0.0, 1.05 * length)))
    kappas = [frenet(helix_s, s).kappa for s in (0.5, 3.0, 7.0)]
    taus = [frenet(helix_s, s).tau for s in (0.5, 3.0, 7.0)]
    assert max(kappas) - min(kappas) <= 1e-9
    kap0, tau0 = kappas[0], taus[0]

    rec = reconstruct_from_kappa_tau(
        lambda s: kap0, lambda s: tau0, Vec3(0, 0, 0),
        (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)), length)
    ref = [helix_s.eval(s).value() for s in rec.s]
    A = np.array([[p.x, p.y, p.z] for p in rec.r])
    B = np.array([[p.x, p.y, p.z] for p in ref])
    A0, B0 = A - A.mean(axis=0), B - B.mean(axis=0)
    U, _, Vt = np.linalg.svd(A0.T @ B0)
    D = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(U @ Vt)))])
    rms = math.sqrt((((A0 - B0 @ (U @ D @ Vt).T)) ** 2).sum() / len(A))
    ok = rms <= 1e-5

    curve = rec.as_curve()
    for s in (1.0, 5.0, 11.0):
        fd = frenet(curve, s)
        ok &= abs(fd.kappa - kap0) <= 1e-6
        ok &= abs(fd.tau - tau0) <= 1e-6
    verdict(11, "reconstruction round trip (RMS, kappa/tau)", ok)


def test_criterion_12_jets_and_parser():
    rng = random.Random(1212)
    ok = True
    checked = 0
    while checked < 500:
        tree = random_tree(rng, rng.randint(1, 6), functions=EVAL_SAFE)
        t0 = rng.uniform(-1.0, 1.0)

        def plain(x):
            return eval_scalar(tree, {"t": x})

        try:
            jet = eval_scalar(tree, {"t": Jet1.variable(t0)})
            probe = [plain(t0 + q) for q in (-0.2, -0.1, 0.0, 0.1, 0.2)]
        except DomainError:
            continue
        if isinstance(jet, float):
            continue
        scale = max(1.0, max(abs(c) for c in jet.c))
        if scale > 1e4 or any(abs(p) > 1e4 for p in probe):
            continue
        usable = True
        for order in range(1, 5):
            fd = fd_derivative(plain, t0, order)
            fd_alt = fd_derivative(plain, t0, order,
                                   h=(6e-3 if order <= 2 else 0.05))
            if abs(fd - fd_alt) > 2e-7 * scale:
                usable = False
                break
            ok &= abs(jet.c[order] - fd) <= 1e-6 * scale
        if usable:
            checked += 1

    rng2 = random.Random(4242)
    for _ in range(1000):
        tree = random_tree(rng2, rng2.randint(1, 6))
        ok &= parse_text(to_text(tree)) == tree
    verdict(12, "jet-vs-FD on 500 trees; parser round-trip on 1000", ok)


def test_criterion_13_cli_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli_main(["verify", "--shape", "torus", "--seed", "7", "--samples",
              "12", "--json", str(a)])
    cli_main(["verify", "--shape", "torus", "--seed", "7", "--samples",
              "12", "--json", str(b)])
    capsys.readouterr()
    same = a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    verdict(13, "byte-identical verify reports", same
            and data["schema"] == "diffgeo-report/1")
