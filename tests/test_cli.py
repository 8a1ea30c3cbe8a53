"""Command-line interface: subcommands, file formats, exit codes and
deterministic artifacts."""

import json
import math
import os
import random
import re
import sys
import zlib

import pytest

from diffgeo import cli
from diffgeo.cli import build_parser, main
from diffgeo.curves import classify_curve
from diffgeo.errors import DomainError
from diffgeo.ode import OdeSpec
from diffgeo.expr import MAX_DEPTH
from diffgeo.report import dump_json, format_float

from conftest import count_evals

HELIX_PC = """
curve helix
param t in [0, 6.283185307179586]
const a = 1
const b = 0.5
x = a*cos(t)
y = a*sin(t)
z = b*t
"""

DIAGONAL_SC = """
surfacecurve diag
param t in [0, 1]
u = 0.5 + t
v = 1.0 + 0.5*t
"""

WIDE_PLANE = """
surface wide
param u in [-1e7, 1e7]
param v in [-1e7, 1e7]
x = u
y = v
z = 0
"""

# E1 and E2 nearly parallel: a = EG - F^2 cancels to zero, |E1 x E2| not
SKEWED = """
surface skew
param u in [-1, 1]
param v in [-1, 1]
const d = 1e-08
x = u + v
y = u + (1+d)*v
z = (u+v)^2 + (u+(1+d)*v)^2
"""

HEMISPHERE_LOOP = """
loop hemisphere
region -pi pi 0 pi/2
arc t in [-pi, pi]
u = t
v = 0
corner 0
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


class TestEval:
    def test_sphere_gaussian_curvature(self, capsys, tmp_path):
        out_json = tmp_path / "r.json"
        code, out = run(capsys, "eval", "--shape", "sphere", "--param",
                        "R=2", "--at", "u=0.3,v=0.4", "--quantity", "K",
                        "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["schema"] == "diffgeo-report/1"
        (rec,) = data["records"]
        assert abs(rec["value"] - 0.25) <= 1e-9

    @pytest.mark.parametrize("argv, want", [
        (["--shape", "monge", "--param", "f=1e6", "--at", "0.3,0.2",
          "--quantity", "K"], "K = 0.0"),
        (["--shape", "monge", "--param", "f=1e200", "--at", "0.3,0.2",
          "--quantity", "K"], "K = 0.0"),
        (["--shape", "line", "--param", "px=1e13", "--at", "t=0.5",
          "--quantity", "class"], "class = StraightLine"),
    ], ids=["monge-1e6", "monge-1e200", "line-1e13"])
    def test_translated_shape_stays_regular(self, capsys, argv, want):
        # the regularity floors follow the shape's extent, not its offset
        code, out = run(capsys, "eval", *argv)
        assert code == 0
        assert want in out

    @pytest.mark.parametrize("argv, want", [
        (["eval", "--at", "0.3,0.2", "--quantity", "K"], "K = 0.0"),
        (["geodesic", "--from", "0.3,0.2", "--to", "1,1"], "length 1.0630"),
    ], ids=["eval", "geodesic"])
    def test_wide_plane_stays_regular(self, capsys, tmp_path, argv, want):
        # the regularity floor follows the metric, not the domain's extent
        ps = tmp_path / "wide.ps"
        ps.write_text(WIDE_PLANE)
        code, out = run(capsys, argv[0], "--file", str(ps), *argv[1:])
        assert code == 0
        assert want in out

    def test_definition_file_frenet(self, capsys, tmp_path):
        pc = tmp_path / "helix.pc"
        pc.write_text(HELIX_PC)
        code, out = run(capsys, "eval", "--file", str(pc), "--at", "t=0",
                        "--quantity", "frenet")
        assert code == 0
        assert "0.8" in out and "0.4" in out

    def test_grid_all_zero_on_plane(self, capsys, tmp_path):
        out_json = tmp_path / "grid.json"
        code, _ = run(capsys, "eval", "--shape", "plane", "--grid", "3x3",
                      "--quantity", "curvatures", "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert len(data["records"]) == 9
        assert all(r["value"]["K"] == 0.0 for r in data["records"])

    def test_large_sphere_needs_no_third_partials(self, capsys):
        # curvature reads order 2 of the position: K = 1/R^2 even where
        # third partials of the jets would overflow
        code, out = run(capsys, "eval", "--shape", "sphere", "--param",
                        "R=1e30", "--at", "0.3,0.2", "--quantity", "K")
        assert code == 0 and "K = 1e-60" in out

    def test_evaluation_error_exit_code(self, capsys):
        code, _ = run(capsys, "eval", "--shape", "helix", "--at", "t=0",
                      "--quantity", "nonsense")
        assert code == 3

    def test_out_of_domain_rejected_then_clamped(self, capsys):
        code, _ = run(capsys, "eval", "--shape", "helix", "--at", "t=100",
                      "--quantity", "kappa")
        assert code == 3
        code, _ = run(capsys, "eval", "--shape", "helix", "--at", "t=100",
                      "--quantity", "kappa", "--clamp")
        assert code == 0

    def test_argument_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--shape"])
        assert exc.value.code == 2

    def test_singular_point_recorded_with_location(self, capsys, tmp_path):
        out_json = tmp_path / "r.json"
        code, _ = run(capsys, "eval", "--shape", "cone", "--at", "u=0,v=1",
                      "--quantity", "K", "--json", str(out_json))
        assert code == 3
        data = json.loads(out_json.read_text())
        (rec,) = data["records"]
        assert rec["value"] is None
        assert "SingularSurfacePoint" in rec["status"]

    def test_curve_grid(self, capsys, tmp_path):
        out_json = tmp_path / "r.json"
        code, _ = run(capsys, "eval", "--shape", "helix", "--grid", "5",
                      "--quantity", "kappa", "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert len(data["records"]) == 5
        assert all(abs(r["value"] - 0.8) < 1e-10 for r in data["records"])

    def test_curve_class_once_per_run(self, capsys, monkeypatch):
        calls = []

        def counted(shape):
            calls.append(shape)
            return classify_curve(shape)

        monkeypatch.setattr(cli, "classify_curve", counted)
        code, out = run(capsys, "eval", "--shape", "helix", "--grid", "16",
                        "--quantity", "class", "--quantity", "kappa")
        assert code == 0 and len(calls) == 1
        assert out.count(" class = Helix") == 16

    def test_curve_class_error_at_every_point(self, capsys, monkeypatch,
                                              tmp_path):
        def failing(shape):
            raise DomainError("no class")

        monkeypatch.setattr(cli, "classify_curve", failing)
        out_json = tmp_path / "r.json"
        assert main(["eval", "--shape", "helix", "--grid", "3", "--quantity",
                     "class", "--json", str(out_json)]) == 3
        err = capsys.readouterr().err
        records = json.loads(out_json.read_text())["records"]
        assert [r["status"] for r in records] == ["DomainError: no class"] * 3
        first = records[0]["point"][0]
        assert err.splitlines()[0] == (f"error at point ({first!r},) (class): "
                                       "DomainError: no class")


class TestTinySurfaces:
    """At a scale of 1e-30 the derivative tables' higher entries divide by
    numbers that underflow to 0: each command names the point and exits 3
    (geodesic 5), with no traceback."""

    @pytest.mark.parametrize("argv, want", [
        (["eval", "--shape", "sphere", "--param", "R=1e-30", "--at",
          "0.3,0.2", "--quantity", "K"], 3),
        (["eval", "--shape", "sphere", "--param", "R=1e-30", "--grid", "2",
          "--quantity", "principal"], 3),
        (["verify", "--shape", "sphere", "--param", "R=1e-30", "--seed", "1",
          "--samples", "3"], 3),
        (["gauss-bonnet", "--shape", "sphere", "--param", "R=1e-30",
          "--global"], 3),
        (["transport", "--shape", "sphere", "--param", "R=1e-30", "--loop",
          "const-v:0.3", "--vector", "1,0"], 3),
        (["geodesic", "--shape", "sphere", "--param", "R=1e-30", "--from",
          "0,0", "--dir", "1,0", "--length", "1e-30"], 5),
        (["eval", "--shape", "torus", "--param", "R=3e-30", "--param",
          "r=1e-30", "--at", "0.3,0.4", "--quantity", "K"], 3),
    ], ids=["eval-at", "eval-grid", "verify", "gauss-bonnet", "transport",
            "geodesic", "eval-torus"])
    def test_named_overflow(self, argv, want, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == want
        assert "Traceback" not in err
        assert re.search(r"OverflowError: surface jets overflow at "
                         r"\(u, v\)=\(\S+, \S+\)$", err.splitlines()[0])

    def test_forms_at_small_scale(self, capsys):
        # Gamma is computed over floats: no derivative table of 1/(2a)
        code, _ = run(capsys, "eval", "--shape", "sphere", "--param",
                      "R=1e-20", "--at", "0.3,0.2", "--quantity", "forms")
        assert code == 0


class TestHugeCurves:
    """A curve whose |r'|^2 or |r' x r''|^2 overflows is neither singular
    nor straight: each command names t and exits 3, with no traceback."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--shape", "helix", "--param", "a=1e100", "--param",
         "b=5e99", "--at", "1.0", "--quantity", "frenet"],
        ["eval", "--shape", "helix", "--param", "a=1e100", "--param",
         "b=5e99", "--grid", "4", "--quantity", "class"],
        ["verify", "--shape", "helix", "--param", "a=2e154", "--seed", "1",
         "--samples", "3"],
        ["eval", "--shape", "helix", "--param", "a=2e154", "--at", "1.0",
         "--quantity", "frenet"],
        ["eval", "--shape", "helix", "--param", "a=1e200", "--param",
         "b=1e200", "--at", "1.0", "--quantity", "kappa"],
    ], ids=["frenet", "class", "verify", "speed-frenet", "speed-kappa"])
    def test_named_overflow(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert re.search(r"OverflowError: curve jets overflow at t=\S+$",
                         err.splitlines()[0])



class TestParser:
    def test_built_once_reading_the_tolerance_each_run(self, capsys,
                                                         monkeypatch):
        built, tols = [], []
        monkeypatch.setattr(cli, "_PARSER", [])
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build_parser())
        monkeypatch.setattr(cli, "OdeSpec",
                            lambda tol: tols.append(tol) or OdeSpec(tol=tol))
        monkeypatch.delenv("DIFFGEO_TOL", raising=False)
        argv = ["reconstruct", "--kappa", "1", "--tau", "0", "--length", "1",
                "--samples", "2"]
        assert main(argv) == 0
        monkeypatch.setenv("DIFFGEO_TOL", "1e-7")
        assert main(argv) == 0
        monkeypatch.setenv("DIFFGEO_TOL", "abc")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "'abc'" in capsys.readouterr().err.strip().splitlines()[-1]
        monkeypatch.delenv("DIFFGEO_TOL")
        assert main(argv + ["--tol", "1e-9"]) == 0
        assert main(argv) == 0
        assert tols == [1e-10, 1e-7, 1e-9, 1e-10]
        assert built == [1]


class TestVerify:
    def test_torus_passes(self, capsys, tmp_path):
        out_json = tmp_path / "v.json"
        code, out = run(capsys, "verify", "--shape", "torus",
                        "--samples", "12", "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["passed"] is True
        assert data["max_residual"] <= 1e-7

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "--shape", "torus", "--seed", "7",
            "--samples", "10", "--json", str(a))
        run(capsys, "verify", "--shape", "torus", "--seed", "7",
            "--samples", "10", "--json", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_points(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "--shape", "torus", "--seed", "1",
            "--samples", "10", "--json", str(a))
        run(capsys, "verify", "--shape", "torus", "--seed", "2",
            "--samples", "10", "--json", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_suite_filter(self, capsys, tmp_path):
        out_json = tmp_path / "v.json"
        code, _ = run(capsys, "verify", "--shape", "sphere", "--suite",
                      "egregium", "--samples", "15", "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert [s["suite"] for s in data["suites"]] == ["egregium"]
        assert data["suites"][0]["max_residual"] <= 1e-9

    def test_curve_suites(self, capsys):
        code, out = run(capsys, "verify", "--shape", "helix",
                        "--samples", "15")
        assert code == 0
        assert "frenet-serret" in out

    def test_not_applicable_suite_prints_skip(self, capsys, tmp_path):
        out_json = tmp_path / "v.json"
        code, out = run(capsys, "verify", "--shape", "sphere", "--suite",
                        "euler", "--suite", "egregium", "--samples", "6",
                        "--json", str(out_json))
        assert code == 0
        assert "  PASS egregium" in out and "  SKIP euler" in out
        assert json.loads(out_json.read_text())["suites"][1] == {
            "suite": "euler", "max_residual": 0.0, "tol": 1e-8,
            "passed": True, "detail": "skipped (not applicable)"}

    @pytest.mark.parametrize("name, suite", [
        ("riemann_R1212", "egregium"),
        ("form_identity_residual", "form-identity")])
    def test_non_finite_residual_fails(self, name, suite, capsys, tmp_path,
                                       monkeypatch):
        monkeypatch.setattr(f"diffgeo.verify.{name}",
                            lambda *args: math.nan)
        out_json = tmp_path / "v.json"
        code, out = run(capsys, "verify", "--shape", "torus", "--samples",
                        "6", "--json", str(out_json))
        assert code == 4
        assert f"  FAIL {suite} " in out
        data = json.loads(out_json.read_text())
        assert data["passed"] is False
        for s in data["suites"]:
            assert s["passed"] is (s["suite"] != suite)
            if s["suite"] == suite:
                assert s["max_residual"] == 0.0
                assert s["detail"].startswith(
                    "non-finite residual at (u, v)=(")

    def test_unknown_suite_rejected(self, capsys):
        code = main(["verify", "--shape", "sphere", "--suite", "egregiumm"])
        err = capsys.readouterr().err
        assert code == 2
        assert "egregiumm" in err and "egregium," in err

    def test_tol_is_not_a_verify_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--shape", "torus", "--tol", "-1"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestGeodesic:
    def test_plane_bvp(self, capsys, tmp_path):
        csv = tmp_path / "g.csv"
        code, out = run(capsys, "geodesic", "--shape", "plane", "--from",
                        "0,0", "--to", "3,4", "--csv", str(csv))
        assert code == 0
        header, *rows = csv.read_text().strip().splitlines()
        assert header == "s,u,v,x,y,z"
        last = rows[-1].split(",")
        assert abs(float(last[0]) - 5.0) <= 1e-6

    def test_sphere_bvp_length(self, capsys, tmp_path):
        out_json = tmp_path / "g.json"
        code, _ = run(capsys, "geodesic", "--shape", "sphere", "--param",
                      "R=1", "--from", "u=0,v=0", "--to", "u=1.2,v=0",
                      "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert abs(data["summary"]["length"] - 1.2) <= 1e-6
        assert data["summary"]["endpoint_error"] <= 1e-6

    def test_cylinder_ivp_helix(self, capsys, tmp_path):
        out_json = tmp_path / "g.json"
        code, _ = run(capsys, "geodesic", "--shape", "cylinder", "--from",
                      "0,0", "--dir", "1,1", "--length", "10",
                      "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["summary"]["max_kappa_g"] <= 1e-7

    def test_path_rows_evaluate_no_jet2(self, capsys, tmp_path,
                                        monkeypatch):
        # x, y, z of each path sample come from the float kernel
        counts = count_evals(monkeypatch)
        code, _ = run(capsys, "geodesic", "--shape", "torus", "--from",
                      "0,0", "--to", "2,1", "--csv", str(tmp_path / "g.csv"))
        assert code == 0
        assert counts["Jet2"] == 0

    def test_solver_failure_exit_code(self, capsys):
        # antipodal points: degenerate multiplicity propagates as exit 5
        code, _ = run(capsys, "geodesic", "--shape", "sphere", "--from",
                      "0,0", "--to", "pi,0")
        assert code == 5


class TestTransport:
    def test_latitude_loop_summary(self, capsys, tmp_path):
        csv = tmp_path / "t.csv"
        out_json = tmp_path / "t.json"
        code, _ = run(capsys, "transport", "--shape", "sphere", "--loop",
                      "const-v:pi/6", "--vector", "1,0",
                      "--csv", str(csv), "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        colat = math.pi / 2 - math.pi / 6
        cap = 2 * math.pi * (1 - math.cos(colat))
        two_pi = 2 * math.pi
        mism = (data["summary"]["holonomy"] - cap + math.pi) % two_pi - math.pi
        assert abs(mism) <= 1e-6
        assert abs(data["summary"]["enclosed_total_curvature"] - cap) <= 1e-6
        assert data["summary"]["norm_drift"] <= 1e-8
        header, *rows = csv.read_text().strip().splitlines()
        assert header == "t,A1,A2,norm,angle"
        norms = [float(r.split(",")[3]) for r in rows]
        assert max(norms) - min(norms) <= 1e-8

    def test_zero_vector_is_an_error(self, capsys):
        code = main(["transport", "--shape", "sphere", "--loop",
                     "const-v:0.3", "--vector", "0,0"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == ("error: ZeroVector: --vector '0,0': the transported "
                       "vector has zero metric norm\n")

    def test_tiny_vector_has_the_holonomy(self, capsys):
        # its metric norm squared underflows, its frame components do not
        code, out = run(capsys, "transport", "--shape", "sphere", "--loop",
                        "const-v:0.3", "--vector", "1e-300,0")
        assert code == 0
        holonomy = float(out.split("holonomy:")[1].split()[0])
        assert abs(holonomy + 2 * math.pi * math.sin(0.3)) <= 1e-6

    def test_tiny_vector_keeps_its_norm(self, capsys, tmp_path):
        # I(A, A) is about 1e-600, below the smallest float: the norms are
        # taken of A scaled by a power of two
        csv = tmp_path / "t.csv"
        code, out = run(capsys, "transport", "--shape", "sphere", "--loop",
                        "const-v:0.3", "--vector", "1e-300,0", "--csv",
                        str(csv))
        assert code == 0
        rows = csv.read_text().splitlines()[1:]
        norms = [float(row.split(",")[3]) for row in rows]
        assert len(norms) == 257
        for norm in norms:      # |A| = cos(0.3) |A1| on the unit sphere
            assert abs(norm / (math.cos(0.3) * 1e-300) - 1.0) <= 1e-9
        drift = float(out.split("norm_drift:")[1].split()[0])
        assert 0.0 <= drift <= 1e-9 * 1e-300
        holonomy = float(out.split("holonomy:")[1].split()[0])
        assert abs(holonomy + 2 * math.pi * math.sin(0.3)) <= 1e-6

    def test_surfacecurve_file(self, capsys, tmp_path):
        sc = tmp_path / "diag.sc"
        sc.write_text(DIAGONAL_SC)
        code, _ = run(capsys, "transport", "--shape", "torus", "--curve",
                      str(sc), "--vector", "0.5,0.5")
        assert code == 0

    def test_grid_end_rounding(self, capsys, tmp_path):
        # 0.2 + (0.9 - 0.2) * 256 / 256 rounds below 0.9: the last sample
        # used to need a step under min_step (StepUnderflow, exit 3)
        sc = tmp_path / "diag.sc"
        sc.write_text(DIAGONAL_SC.replace("[0, 1]", "[0.2, 0.9]"))
        csv = tmp_path / "t.csv"
        code, _ = run(capsys, "transport", "--shape", "torus", "--curve",
                      str(sc), "--vector", "1,0", "--csv", str(csv))
        assert code == 0
        rows = csv.read_text().strip().splitlines()[1:]
        assert len(rows) == 257
        assert float(rows[-1].split(",")[0]) == 0.9

    def test_const_u_loop(self, capsys, tmp_path):
        # a tube circle on the torus: closed loop, small holonomy exists
        out_json = tmp_path / "t.json"
        code, _ = run(capsys, "transport", "--shape", "torus", "--loop",
                      "const-u:1.0", "--vector", "1,0",
                      "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["summary"]["norm_drift"] <= 1e-8


class TestGaussBonnet:
    def test_global_sphere(self, capsys, tmp_path):
        out_json = tmp_path / "gb.json"
        code, _ = run(capsys, "gauss-bonnet", "--shape", "sphere",
                      "--global", "--chi", "2", "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert abs(data["summary"]["defect"]) <= 1e-5
        assert abs(data["summary"]["total_curvature"] - 4 * math.pi) <= 1e-5

    def test_global_torus_chi_from_catalog(self, capsys, tmp_path):
        out_json = tmp_path / "gb.json"
        code, _ = run(capsys, "gauss-bonnet", "--shape", "torus", "--global",
                      "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["summary"]["chi"] == 0
        assert abs(data["summary"]["defect"]) <= 1e-5

    def test_loop_file_auto_corners_triangle(self, capsys, tmp_path):
        # planar triangle with straight sides: kappa_g = 0, K = 0, so the
        # computed exterior angles must sum to 2 pi on their own
        loop = tmp_path / "tri.loop"
        loop.write_text("""
loop triangle
region 0 0 0 0
arc t in [0, 1]
u = t
v = 0
corner auto
arc t in [0, 1]
u = 1 - t
v = t
corner auto
arc t in [0, 1]
u = 0
v = 1 - t
corner auto
""")
        out_json = tmp_path / "gb.json"
        code, _ = run(capsys, "gauss-bonnet", "--shape", "plane",
                      "--loop-file", str(loop), "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert abs(data["summary"]["sum_corner_angles"] - 2 * math.pi) <= 1e-9
        assert abs(data["summary"]["defect"]) <= 1e-8

    def test_loop_file_hemisphere(self, capsys, tmp_path):
        loop = tmp_path / "hemi.loop"
        loop.write_text(HEMISPHERE_LOOP)
        out_json = tmp_path / "gb.json"
        code, _ = run(capsys, "gauss-bonnet", "--shape", "sphere",
                      "--loop-file", str(loop), "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert abs(data["summary"]["sum_kappa_g"]) <= 1e-6
        assert abs(data["summary"]["total_curvature"] - 2 * math.pi) <= 1e-5
        assert abs(data["summary"]["defect"]) <= 1e-5


class TestReconstruct:
    def test_circle_closure(self, capsys, tmp_path):
        csv = tmp_path / "r.csv"
        code, _ = run(capsys, "reconstruct", "--kappa", "0.5", "--tau", "0",
                      "--length", "12.566370614359172", "--csv", str(csv))
        assert code == 0
        header, *rows = csv.read_text().strip().splitlines()
        assert header == "s,x,y,z"
        first = [float(x) for x in rows[0].split(",")[1:]]
        last = [float(x) for x in rows[-1].split(",")[1:]]
        gap = math.sqrt(sum((a - b) ** 2 for a, b in zip(first, last)))
        assert gap <= 1e-6

    def test_roundtrip_deviation_reported(self, capsys, tmp_path):
        out_json = tmp_path / "r.json"
        code, _ = run(capsys, "reconstruct", "--kappa", "0.8", "--tau",
                      "0.4", "--length", "12.566370614359172",
                      "--json", str(out_json))
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["summary"]["roundtrip_kappa_tau_dev"] <= 1e-6

    def test_grid_end_rounding(self, capsys, tmp_path):
        # length * 48 / 48 rounds below the length: the last sample used to
        # need a step under min_step (StepUnderflow, exit 3)
        length = 1.511641467708969
        csv = tmp_path / "r.csv"
        code, _ = run(capsys, "reconstruct", "--kappa", "0.8", "--tau", "0.4",
                      "--length", repr(length), "--samples", "49",
                      "--csv", str(csv))
        assert code == 0
        rows = csv.read_text().strip().splitlines()[1:]
        assert len(rows) == 49
        assert float(rows[-1].split(",")[0]) == length

    def test_zero_kappa_rejected(self, capsys):
        code, _ = run(capsys, "reconstruct", "--kappa", "0", "--tau", "0",
                      "--length", "1.0")
        assert code == 3

    @pytest.mark.parametrize("flag, text, named", [
        ("--kappa", "0.8+", "expected an expression at byte offset 4"),
        ("--kappa", "q", "an expression in s may not reference 'q'"),
        ("--tau", "sin(", "expected an expression at byte offset 4"),
        ("--tau", "s*t", "an expression in s may not reference 't'"),
    ], ids=["kappa-syntax", "kappa-name", "tau-syntax", "tau-name"])
    def test_malformed_expression_exit_2(self, flag, text, named, capsys):
        exprs = {"--kappa": "0.8", "--tau": "0.4", flag: text}
        code = main(["reconstruct", "--kappa", exprs["--kappa"], "--tau",
                     exprs["--tau"], "--length", "1"])
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert line.startswith(f"error: {flag} {text!r}: ") and named in line

    def test_run_time_error_exit_3(self, capsys):
        # s = 0.5 is the middle of the 257 samples
        code = main(["reconstruct", "--kappa", "1/(s-0.5)", "--tau", "0",
                     "--length", "1"])
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert line == "error: DomainError: division by zero"


BAD_FILES = {
    "bad.ps": "surface s\nparam u in [0, 1]\nparam v in 0, 1]\nx = u\n"
              "y = v\nz = 0\n",
    "bad.loop": "loop l\nregion 0 1 0 1\narc t in [0, 1]\nu = t\nv = 0\n"
                "w = 3\n",
    "wobble.ps": "surface s\nparam u in [0, 1]\nparam v in [0, 1]\nx = u\n"
                 "y = v\nz = wobble(u)\n",
    "const.ps": "surface s\nparam u in [0, 1]\nparam v in [0, 1]\n"
                "const a = 2\nx = u\ny = v\nz = a(u)\n",
}


class TestMalformedInput:
    @pytest.mark.parametrize("argv, env_tol, named", [
        (["eval", "--shape", "sphere", "--at", "u=0.3", "--quantity", "K"],
         None, "--at 'u=0.3' has 1 coordinate(s), expected 2"),
        (["eval", "--shape", "sphere", "--grid", "0x3", "--quantity", "K"],
         None, "'0x3'"),
        (["eval", "--shape", "sphere", "--param", "R=nan", "--at", "0.1,0.2",
          "--quantity", "K"], None, "--param R 'nan'"),
        (["geodesic", "--shape", "plane", "--from", "0,0", "--to", "1,1"],
         "abc", "'abc'"),
        (["geodesic", "--shape", "plane", "--from", "0,0", "--to", "1,1",
          "--tol", "-1"], None, "'-1'"),
        (["transport", "--shape", "sphere", "--loop", "const-v:0.5",
          "--vector", "1,0", "--tol", "-1"], None, "'-1'"),
        (["eval", "--file", "bad.ps", "--at", "0.1,0.2", "--quantity", "K"],
         None, "bad.ps: line 3: domain must be '[a, b]'"),
        (["gauss-bonnet", "--shape", "plane", "--loop-file", "bad.loop"],
         None, "bad.loop: line 6: unexpected component 'w'"),
        (["eval", "--file", "wobble.ps", "--at", "0.1,0.2", "--quantity",
          "K"], None, "wobble.ps: line 6: unknown function 'wobble'"),
        (["eval", "--file", "const.ps", "--at", "0.1,0.2", "--quantity",
          "K"], None, "const.ps: line 7: 'a' is not a function"),
        (["reconstruct", "--kappa", "wobble(s)", "--tau", "0", "--length",
          "1"], None, "--kappa 'wobble(s)': unknown function 'wobble'"),
        (["eval", "--shape", "monge", "--param", "f=wobble(u)", "--at",
          "0.1,0.2", "--quantity", "K"], None,
         "--param f 'wobble(u)': unknown function 'wobble'"),
        (["eval", "--shape", "monge", "--param", "f=u(v)", "--at",
          "0.1,0.2", "--quantity", "K"], None,
         "--param f 'u(v)': 'u' is not a function"),
        (["eval", "--shape", "monge", "--param", "f=q + u", "--at",
          "0.1,0.2", "--quantity", "K"], None,
         "--param f 'q + u': an expression in u, v may not reference 'q'"),
    ], ids=["at-arity", "grid-zero", "param-nan", "env-tol", "geodesic-tol",
            "transport-tol", "file-line", "loop-line", "file-call",
            "file-call-const", "kappa-call", "param-text-call",
            "param-text-param-call", "param-text-name"])
    def test_exit_2_naming_the_input(self, argv, env_tol, named, capsys,
                                     monkeypatch, tmp_path):
        for name, text in BAD_FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        if env_tol is not None:
            monkeypatch.setenv("DIFFGEO_TOL", env_tol)
        try:
            code = main(argv)
        except SystemExit as exc:   # rejected by the argument parser
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert named in err.strip().splitlines()[-1]


    @pytest.mark.parametrize("argv, named", [
        (["geodesic", "--shape", "sphere", "--from", "0,0", "--dir", "1,0",
          "--length", "1e400"], "--length '1e400' is not finite"),
        (["geodesic", "--shape", "sphere", "--from", "0,0", "--dir", "1,0",
          "--length", "0"], "--length '0' must be nonzero"),
        (["geodesic", "--shape", "sphere", "--from", "0,0", "--dir", "1,0",
          "--length", "1001"], "at most 1000"),
        (["reconstruct", "--kappa", "0.8", "--tau", "0.4", "--length",
          "1e400"], "--length '1e400' is not finite"),
        (["reconstruct", "--kappa", "0.8", "--tau", "0.4", "--length",
          "-1"], "--length '-1' must be positive"),
        (["reconstruct", "--kappa", "0.8", "--tau", "0.4", "--length", "1",
          "--samples", "1"], "--samples '1' must be an integer from 2"),
        (["reconstruct", "--kappa", "0.8", "--tau", "0.4", "--length", "1",
          "--samples", "0"], "--samples '0' must be an integer from 2"),
        (["reconstruct", "--kappa", "0.8", "--tau", "0.4", "--length", "1",
          "--samples", "10001"], "to 10000"),
        (["verify", "--shape", "sphere", "--samples", "0"],
         "--samples '0' must be an integer from 1"),
        (["verify", "--shape", "sphere", "--samples", "1001"], "to 1000"),
        (["eval", "--shape", "torus", "--grid", "3000x3000", "--quantity",
          "K"], "--grid asks for 9000000 points; at most 10000"),
        (["eval", "--shape", "torus", "--grid", "101", "--quantity", "K"],
         "--grid asks for 10201 points; at most 10000"),
        (["eval", "--shape", "helix", "--grid", "10001", "--quantity",
          "kappa"], "--grid asks for 10001 points; at most 10000"),
    ], ids=["geodesic-length-inf", "geodesic-length-0", "geodesic-length-cap",
            "reconstruct-length-inf", "reconstruct-length-negative",
            "reconstruct-samples-1", "reconstruct-samples-0",
            "reconstruct-samples-cap", "verify-samples-0",
            "verify-samples-cap", "eval-grid-cap", "eval-grid-square-cap",
            "eval-curve-grid-cap"])
    def test_numeric_bounds_exit_2(self, argv, named, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:   # rejected by the argument parser
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert named in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("argv, named", [
        (["eval", "--shape", "sphere", "--quantity", "K"],
         "give --at or --grid"),
        (["eval", "--shape", "sphere", "--at", "0.1,0.2", "--quantity", "K",
          "--param", "X=1"], "sphere has no parameter(s) ['X']"),
        (["eval", "--shape", "nosuch", "--at", "0.1,0.2", "--quantity", "K"],
         "unknown shape 'nosuch'"),
        (["geodesic", "--shape", "sphere", "--from", "0,0"],
         "give --to, or --dir plus --length"),
        (["geodesic", "--shape", "helix", "--from", "0,0", "--to", "1,1"],
         "geodesic needs a surface shape"),
        (["transport", "--shape", "sphere", "--vector", "1,0"],
         "give --curve file or --loop"),
        (["transport", "--shape", "sphere", "--loop", "const-w:1",
          "--vector", "1,0"], "--loop expects const-v:<value> or const-u"),
        (["transport", "--shape", "sphere", "--loop", "const-v:2",
          "--vector", "1,0"],
         "--loop 'const-v:2': v outside [-1.5707963267948966, "),
        (["transport", "--shape", "plane", "--loop", "const-u:-6",
          "--vector", "1,0"], "--loop 'const-u:-6': u outside [-5.0, 5.0]"),
        (["transport", "--shape", "sphere", "--loop", "const-u:1",
          "--vector", "1,0"],
         "--loop 'const-u:1': the v sweep does not close"),
        (["gauss-bonnet", "--shape", "sphere"],
         "give --global or --loop-file"),
    ], ids=["eval-no-points", "eval-bad-param", "unknown-shape",
            "geodesic-no-target", "geodesic-curve", "transport-no-curve",
            "transport-loop-kind", "transport-loop-outside-v",
            "transport-loop-outside-u", "transport-loop-open",
            "gauss-bonnet-no-region"])
    def test_usage_errors_exit_2(self, argv, named, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        (line,) = err.strip().splitlines()
        assert line.startswith("error: ") and named in line

    @pytest.mark.parametrize("argv, named", [
        (["eval", "--file", "deep.ps", "--at", "0.1,0.2", "--quantity", "K"],
         "deep.ps: line 6: expected an expression at most"),
        (["eval", "--shape", "sphere", "--at", "DEEP,0.2", "--quantity",
          "K"], "--at 'sin(sin("),
        (["eval", "--shape", "sphere", "--param", "R=DEEP", "--at", "0.1,0.2",
          "--quantity", "K"], "--param R 'sin(sin("),
        (["eval", "--shape", "monge", "--param", "f=DEEP", "--at", "0.1,0.2",
          "--quantity", "K"], "--param f 'sin(sin("),
        (["reconstruct", "--kappa", "DEEP", "--tau", "0", "--length", "1"],
         "--kappa 'sin(sin("),
    ], ids=["file", "at", "param", "param-text", "kappa"])
    def test_over_deep_expression_exit_2(self, argv, named, capsys,
                                         monkeypatch, tmp_path):
        deep = "sin(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH
        (tmp_path / "deep.ps").write_text(
            "surface s\nparam u in [0, 1]\nparam v in [0, 1]\nx = u\n"
            f"y = v\nz = u*{deep}\n")
        monkeypatch.chdir(tmp_path)
        code = main([a.replace("DEEP", deep) for a in argv])
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert line.startswith("error: ") and named in line
        assert f"at most {MAX_DEPTH} levels deep" in line

    @pytest.mark.parametrize("argv, code", [
        (["eval", "--shape", "monge", "--param", "f=exp(1000*u)", "--at",
          "0.8,0.2", "--quantity", "K"], 3),
        (["eval", "--shape", "sphere", "--param", "R=1e100", "--at",
          "0.3,0.2", "--quantity", "K"], 3),
        (["eval", "--shape", "sphere", "--param", "R=1e308", "--at",
          "0.3,0.2", "--quantity", "K"], 3),
        (["geodesic", "--shape", "sphere", "--param", "R=1e300", "--from",
          "0.3,0.2", "--to", "0.8,0.6"], 5),
    ], ids=["eval-jets", "eval-metric", "eval-metric-max", "geodesic"])
    def test_overflow_named(self, argv, code, capsys):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "OverflowError" in err.strip().splitlines()[0]

    @pytest.mark.parametrize("z, argv, named", [
        # |r_u| near 1e110 against |r_v| = 1: singular by the relative floor
        ("sin(1e110*u)", ["eval", "--at", "0.3,0.2", "--quantity",
                          "curvatures"],
         "SingularSurfacePoint: surface is singular at (u, v)=(0.3, 0.2)"),
        ("exp(1000*u)", ["eval", "--at", "0.8,0.2", "--quantity",
                         "curvatures"],
         "OverflowError: surface jets overflow at (u, v)=(0.8, 0.2)"),
        # regular, but Codazzi's third partials cube a first partial of
        # 1e110
        ("1e-100*sin(1e110*u)", ["verify", "--seed", "1", "--samples", "4"],
         "error: OverflowError: surface jets overflow at (u, v)="
         "(0.14898967434790517, 0.8335363874597433)"),
        # a curve: sigma's jet cubes a derivative of |r'|^2 near 1e264
        ("curve: exp(t)^(t*300)", ["eval", "--at", "0.99", "--quantity",
                                   "kappa"],
         "OverflowError: curve jets overflow at t=0.99"),
    ], ids=["eval-singular", "eval-overflow", "verify-third-order",
            "eval-curve"])
    def test_overflow_names_the_point(self, z, argv, named, capsys,
                                      tmp_path):
        path = tmp_path / "steep.ps"
        if z.startswith("curve: "):
            path.write_text("curve big\nparam t in [0, 1]\nx = t\n"
                            f"y = t^2\nz = {z[7:]}\n")
        else:
            path.write_text("surface steep\nparam u in [0, 1]\n"
                            f"param v in [0, 1]\nx = u\ny = v\nz = {z}\n")
        assert main([argv[0], "--file", str(path), *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err.strip().splitlines()[0]

    @pytest.mark.parametrize("argv, code, point", [
        (["eval", "--at", "0.3,0.2", "--quantity", "K"], 3, "(0.3, 0.2)"),
        (["eval", "--at", "0.3,0.2", "--quantity", "forms"], 3, "(0.3, 0.2)"),
        (["verify", "--seed", "1"], 3,
         "(-0.7020206513041896, 0.6670727749194867)"),
        (["geodesic", "--from", "0.3,0.2", "--dir", "1,0", "--length", "0.1"],
         5, "(0.3, 0.2)"),
    ], ids=["eval-K", "eval-forms", "verify", "geodesic"])
    def test_cancelling_metric_is_singular(self, argv, code, point, capsys,
                                           tmp_path):
        path = tmp_path / "skew.ps"
        path.write_text(SKEWED)
        assert main([argv[0], "--file", str(path), *argv[1:]]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (f"SingularSurfacePoint: surface is singular at (u, v)={point}"
                in err.strip().splitlines()[0])

    @pytest.mark.parametrize("argv", [
        ["eval", "--shape", "sphere", "--at", "0.1,0.2", "--quantity", "K",
         "--seed", "1"],
        ["eval", "--shape", "sphere", "--at", "0.1,0.2", "--quantity", "K",
         "--tol", "1e-6"],
        ["eval", "--shape", "sphere", "--at", "0.1,0.2", "--quantity", "K",
         "--csv", "x.csv"],
        ["verify", "--shape", "sphere", "--csv", "x.csv"],
        ["gauss-bonnet", "--shape", "sphere", "--global", "--csv", "x.csv"],
        ["gauss-bonnet", "--shape", "sphere", "--global", "--seed", "1"],
        ["geodesic", "--shape", "plane", "--from", "0,0", "--to", "1,1",
         "--seed", "1"],
        ["transport", "--shape", "sphere", "--loop", "const-v:0.5",
         "--vector", "1,0", "--seed", "1"],
        ["reconstruct", "--kappa", "1", "--tau", "0", "--length", "1",
         "--seed", "1"],
    ], ids=["eval-seed", "eval-tol", "eval-csv", "verify-csv",
            "gauss-bonnet-csv", "gauss-bonnet-seed", "geodesic-seed",
            "transport-seed", "reconstruct-seed"])
    def test_unread_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _format_float_reference(x):
    """The float rule as first written, kept to pin format_float's bytes."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == int(x) and abs(x) < 1e16:
        return repr(x)  # keeps the trailing .0
    return format(x, ".17g")


class TestReportFormat:
    def test_float_formatting(self):
        assert format_float(0.25) == "0.25"
        assert format_float(1.0) == "1.0"
        assert format_float(math.pi) == "3.1415926535897931"
        assert "e" in format_float(1.5e-20)
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_float_formatting_matches_reference(self):
        rng = random.Random(zlib.crc32(b"format_float"))
        values = []
        for _ in range(20000):
            exponent = rng.randint(-324, 308)
            mantissa = rng.uniform(1.0, 1.79 if exponent == 308 else 10.0)
            values.append(float(f"{rng.choice('+-')}{mantissa!r}e{exponent}"))
        values += [0.0, -0.0, 5e-324, sys.float_info.max, sys.float_info.min,
                   2.0 ** 53, 1e16 - 2, 1e16, -1e16, 1e17]
        values += [float(k) for k in range(-1000, 1001)]
        for x in values:
            assert format_float(x) == _format_float_reference(x), repr(x)
        for x in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError) as want:
                _format_float_reference(x)
            with pytest.raises(ValueError,
                               match=f"^{re.escape(str(want.value))}$"):
                format_float(x)

    def test_json_escaping_and_order(self):
        s = dump_json({"b": 1, "a": [True, None, "x\"y"]})
        assert s == '{"b":1,"a":[true,null,"x\\"y"]}'

    def test_no_partial_file_on_serialization_failure(self, tmp_path):
        from diffgeo.report import write_json
        target = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_json(str(target), {"bad": object()})
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no stray temp files either

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
    def test_report_mode_follows_umask(self, capsys, tmp_path, umask):
        target = tmp_path / "x.json"
        old = os.umask(umask)
        try:
            code, _ = run(capsys, "eval", "--shape", "torus", "--at",
                          "0.3,0.4", "--quantity", "K", "--json",
                          str(target))
        finally:
            os.umask(old)
        assert code == 0
        assert os.stat(target).st_mode & 0o777 == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        from diffgeo import report

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(report.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            report.write_csv(str(tmp_path / "x.csv"), ["t"], [[1.0]])
        assert list(tmp_path.glob(".diffgeo-*.tmp")) == []
        assert list(tmp_path.iterdir()) == []

    def test_taken_temp_name_is_skipped(self, tmp_path, monkeypatch):
        from diffgeo import report
        monkeypatch.setattr(report, "_SERIAL", iter(range(2)))
        taken = tmp_path / f".diffgeo-{os.getpid()}-0.tmp"
        taken.write_text("another writer's")
        report.write_json(str(tmp_path / "x.json"), {"a": 1})
        assert (tmp_path / "x.json").read_text() == '{"a":1}\n'
        assert taken.read_text() == "another writer's"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name,
                                                              "x.json"]

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DIFFGEO_TOL", "1e-8")
        code, _ = run(capsys, "geodesic", "--shape", "plane", "--from",
                      "0,0", "--to", "1,1")
        assert code == 0
