"""Golden corpus: fixed CLI invocations whose ``--json`` reports must stay
byte-identical.  The reports are deterministic, so any difference is a
change of behaviour.

A change that moves results on purpose regenerates the corpus once with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import collections
import os
import sys

import pytest

from diffgeo import jets
from diffgeo.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")

# name -> (exit code, argv); '@name' is a file in golden/inputs
CASES = {
    "eval-sphere-KH": (0, [
        "eval", "--shape", "sphere", "--param", "R=2", "--at", "u=pi/5,v=0.4",
        "--quantity", "K", "--quantity", "H"]),
    "eval-torus-grid": (0, [
        "eval", "--shape", "torus", "--grid", "4x3", "--quantity", "curvatures",
        "--quantity", "forms"]),
    "eval-monge-directions": (0, [
        "eval", "--shape", "monge", "--param", "f=u^2-v^2+u*v^3",
        "--at", "0.2,-0.3", "--quantity", "principal", "--quantity",
        "asymptotic", "--quantity", "shape-class"]),
    "eval-cone-singular": (3, [
        "eval", "--shape", "cone", "--at", "u=0,v=1", "--quantity", "K"]),
    "eval-helix-grid": (0, [
        "eval", "--shape", "helix", "--grid", "5", "--quantity", "frenet",
        "--quantity", "class"]),
    "eval-file-curve": (0, [
        "eval", "--file", "@helix.pc", "--at", "t=0.7", "--quantity", "frenet"]),
    "eval-file-surface": (0, [
        "eval", "--file", "@saddle.ps", "--grid", "3x2", "--quantity",
        "curvatures", "--quantity", "forms"]),
    "verify-torus": (0, [
        "verify", "--shape", "torus", "--seed", "7", "--samples", "12"]),
    "verify-hyperbolic-paraboloid": (0, [
        "verify", "--shape", "hyperbolic-paraboloid", "--seed", "2",
        "--samples", "8"]),
    "verify-helix": (0, [
        "verify", "--shape", "helix", "--seed", "3", "--samples", "10"]),
    "geodesic-sphere-bvp": (0, [
        "geodesic", "--shape", "sphere", "--param", "R=1", "--from", "u=0,v=0",
        "--to", "u=1.2,v=0.4"]),
    "geodesic-saddle-bvp": (0, [
        "geodesic", "--file", "@saddle.ps", "--from=-0.5,-0.4",
        "--to=0.6,0.5"]),
    "geodesic-saddle-ivp": (0, [
        "geodesic", "--file", "@saddle.ps", "--from=-0.5,-0.4",
        "--dir=1,0.6", "--length", "1.2"]),
    "geodesic-cylinder-ivp": (0, [
        "geodesic", "--shape", "cylinder", "--from", "0,0", "--dir", "1,1",
        "--length", "10"]),
    "transport-sphere-const-v": (0, [
        "transport", "--shape", "sphere", "--loop", "const-v:pi/6",
        "--vector", "1,0"]),
    "transport-torus-const-u": (0, [
        "transport", "--shape", "torus", "--loop", "const-u:1.0",
        "--vector", "1,0"]),
    "transport-torus-curve": (0, [
        "transport", "--shape", "torus", "--curve", "@diag.sc",
        "--vector", "0.5,0.5"]),
    "gauss-bonnet-sphere-global": (0, [
        "gauss-bonnet", "--shape", "sphere", "--global", "--chi", "2"]),
    "gauss-bonnet-hemisphere-loop": (0, [
        "gauss-bonnet", "--shape", "sphere", "--loop-file", "@hemisphere.loop"]),
    "gauss-bonnet-triangle-loop": (0, [
        "gauss-bonnet", "--shape", "plane", "--loop-file", "@triangle.loop"]),
    "gauss-bonnet-saddle-rect": (0, [
        "gauss-bonnet", "--file", "@saddle.ps", "--loop-file",
        "@saddle-rect.loop"]),
    "reconstruct-helix": (0, [
        "reconstruct", "--kappa", "0.8", "--tau", "0.4",
        "--length", "12.566370614359172"]),
    "reconstruct-varying": (0, [
        "reconstruct", "--kappa", "1+0.5*sin(s)", "--tau", "0.3*cos(s)",
        "--length", "6", "--samples", "65"]),
}


def run_case(name, out_path, *extra):
    """Run one case writing its report to ``out_path``, with the options
    ``extra`` added; returns the exit code."""
    _, argv = CASES[name]
    argv = [os.path.join(INPUTS, a[1:]) if a.startswith("@") else a
            for a in argv]
    return main(argv + ["--json", out_path, *extra])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_case(name, str(out)) == CASES[name][0]
    capsys.readouterr()
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_jobs_share_no_state(tmp_path, capsys):
    # jobs in one interpreter share parsed definitions: each case, run
    # after every other case in one order and then in the other, writes
    # its golden JSON both times and the same CSV (which has no golden)
    names = sorted(CASES)
    csvs = {}
    for order in (names, names[::-1]):
        for name in order:
            out, csv = tmp_path / (name + ".json"), tmp_path / (name + ".csv")
            extra = (("--csv", str(csv)) if CASES[name][1][0] in (
                "geodesic", "transport", "reconstruct") else ())
            assert run_case(name, str(out), *extra) == CASES[name][0], name
            capsys.readouterr()
            with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
                assert out.read_bytes() == fh.read(), name
            if extra:
                csvs.setdefault(name, []).append(csv.read_bytes())
    assert len(csvs) == 9
    for name, (forward, backward) in csvs.items():
        assert forward == backward, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_jet_arithmetic(name, tmp_path, capsys, monkeypatch):
    # Jet1 and Jet2 are made by their constructors or by _raw1/_raw2; no
    # CLI command makes either
    made = collections.Counter()
    for owner, attr in ((jets, "_raw1"), (jets, "_raw2"),
                        (jets.Jet1, "__init__"), (jets.Jet2, "__init__")):
        real = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *a, real=real, **k: (
            made.update(["jets"]), real(*a, **k))[1])
    assert run_case(name, str(tmp_path / "report.json")) == CASES[name][0]
    capsys.readouterr()
    assert made["jets"] == 0


if __name__ == "__main__":
    for name in sorted(CASES):
        code = run_case(name, os.path.join(GOLDEN, name + ".json"))
        if code != CASES[name][0]:
            sys.exit(f"{name}: exit code {code}, expected {CASES[name][0]}")
