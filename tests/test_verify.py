"""Verification suites as a library: the catalog-wide verdicts, where each
identity does not apply, and the driver's skip, abandon and non-finite
rules."""

import math
import random

import pytest

from diffgeo import catalog, verify
from diffgeo.verify import _Abandon, _Skip

SKIPPED = "skipped (not applicable)"

# suites that use no sample point at seed 0 with 6 samples; every other
# suite applies and passes.  The line has no curvature; plane, plane-polar
# and sphere are umbilic everywhere (no principal directions, and a plane
# has only asymptotic directions); liouville needs F = 0; beltrami-enneper
# needs a hyperbolic point.
NOT_APPLICABLE = {
    "line": {"frenet-serret", "lancret", "reparam-invariance"},
    "plane": {"euler", "bonnet", "geodesic-torsion", "beltrami-enneper"},
    "plane-polar": {"euler", "bonnet", "geodesic-torsion",
                    "beltrami-enneper"},
    "sphere": {"euler", "geodesic-torsion", "beltrami-enneper"},
    "ellipsoid": {"liouville", "beltrami-enneper"},
    "elliptic-paraboloid": {"liouville", "beltrami-enneper"},
    "hyperbolic-paraboloid": {"liouville"},
    "monge": {"liouville"},
    "cone": {"beltrami-enneper"},
    "quadric-cone": {"beltrami-enneper"},
    "cylinder": {"beltrami-enneper"},
    "hyperboloid-two-sheets": {"beltrami-enneper"},
}


def suites(name, n=6, seed=0):
    ent, shape = catalog.entry(name), catalog.make(name)
    rng = random.Random(seed)
    d = shape.domain
    if ent.kind == "curve":
        pad = 0.02 * (d[1] - d[0])
        return verify.curve_suites(shape, rng, n, (d[0] + pad, d[1] - pad))
    su, sv = 0.02 * (d[1] - d[0]), 0.02 * (d[3] - d[2])
    rect = ent.sample_domain or (d[0] + su, d[1] - su, d[2] + sv, d[3] - sv)
    return verify.surface_suites(shape, rng, n, rect)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_verdicts(name):
    marks = {row[0]: verify.run(*row[1:]) for row in suites(name)}
    skipped = {s for s, (mark, _, _) in marks.items() if mark == "SKIP"}
    assert skipped == NOT_APPLICABLE.get(name, set())
    for suite, (mark, worst, detail) in marks.items():
        if mark == "SKIP":
            assert (worst, detail) == (0.0, SKIPPED)
        else:
            assert mark == "PASS", (suite, worst, detail)
            assert detail == ""


def test_directions_are_drawn_as_the_suite_runs():
    rng = random.Random(3)
    rows = {row[0]: row for row in verify.surface_suites(
        catalog.make("torus"), rng, 8, (0.1, 6.0, 0.1, 6.0))}
    built = rng.getstate()
    for name in ("gauss-weingarten", "euler", "beltrami-enneper"):
        verify.run(*rows[name][1:])
    assert rng.getstate() == built
    verify.run(*rows["liouville"][1:])
    twin = random.Random()
    twin.setstate(built)
    for _ in range(4 * 2):          # a direction at each of 4 points
        twin.uniform(-1, 1)
    assert rng.getstate() == twin.getstate()


class TestDriver:
    def test_skipped_points_are_left_out(self):
        def residual(x):
            if x < 0:
                raise _Skip
            yield x
            yield -2 * x

        assert verify.run(residual, [(1.0,), (-9.0,), (0.5,)], 2.0) == \
            ("PASS", 2.0, "")
        assert verify.run(residual, [(3.0,)], 2.0) == ("FAIL", 6.0, "")
        assert verify.run(residual, [(-1.0,), (-2.0,)], 2.0) == \
            ("SKIP", 0.0, SKIPPED)

    def test_no_points_is_not_applicable(self):
        assert verify.run(lambda x: (x,), [], 1.0) == \
            ("SKIP", 0.0, SKIPPED)

    def test_abandon_drops_the_suite_and_stops_drawing(self):
        seen = []

        def points():
            for x in (1.0, 2.0, 3.0):
                seen.append(x)
                yield (x,)

        def residual(x):
            if x == 2.0:
                raise _Abandon
            return (x,)

        assert verify.run(residual, points(), 1e-9) == \
            ("SKIP", 0.0, SKIPPED)
        assert seen == [1.0, 2.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_fails_at_once(self, bad):
        calls = []

        def residual(u, v):
            calls.append((u, v))
            return (u, bad if v == 2.0 else 0.0)

        mark, worst, detail = verify.run(
            residual, [(0.25, 1.0), (0.5, 2.0), (9.0, 3.0)], 1.0)
        assert (mark, worst) == ("FAIL", 0.5)
        assert detail == "non-finite residual at (u, v)=(0.5, 2.0)"
        assert calls == [(0.25, 1.0), (0.5, 2.0)]

    def test_non_finite_detail_names_the_point(self):
        def residual(*point):
            yield math.nan

        assert verify.run(residual, [(0.5,)], 1.0)[2] == \
            "non-finite residual at t=0.5"
        assert verify.run(residual, [(0.5, 1.5, (0.6, 0.8))], 1.0)[2] == \
            "non-finite residual at (u, v)=(0.5, 1.5) along (0.6, 0.8)"
