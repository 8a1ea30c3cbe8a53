"""The identity program (``surfaces._identity_terms``, one generated
program per surface template over the order-3 kernel) against the Python
over the point bundle that it replaces, kept in ``reference``: the four
identity checks and verify's egregium row equal it by ``repr`` on every
catalog surface, and raise what it raises, with the same message.  The
euler row reads II/I at the bundle, which equals ``kappa_n_quotient``
along the straight line through the point in each of its directions."""

import random
import zlib

import pytest

import reference
from diffgeo import catalog, expr, surfaces, verify
from diffgeo.surfacecurves import SurfaceCurve, kappa_n_quotient

from conftest import surface_samples
from test_program_parity import BOWL, SKEWED

SURFACE_NAMES = [n for n in catalog.names()
                 if catalog.entry(n).kind == "surface"]
CHECKS = ("riemann_R1212", "gauss_weingarten_residuals",
          "codazzi_compatibility_residuals", "form_identity_residual")


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _rows(name, shape, n=40):
    """verify's surface rows for ``shape``, at ``n`` points drawn from the
    name's seed, by row name."""
    rect = catalog.entry(name).sample_domain or shape.domain
    rng = random.Random(zlib.crc32(b"rows " + name.encode()))
    rows = verify.surface_suites(shape, rng, n, rect)
    return {row[0]: row for row in rows}


def _compare(shape, fresh, points):
    """Each check on ``shape`` against the reference on ``fresh`` (a
    surface of the same shape with its own point store)."""
    for u, v in points:
        for check in CHECKS:
            got = _outcome(getattr(surfaces, check), shape, u, v)
            want = _outcome(getattr(reference, check), fresh, u, v)
            assert got == want, (check, u, v)


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_identities_equal_reference(name):
    shape = catalog.make(name)
    rng = random.Random(zlib.crc32(name.encode()))
    points = surface_samples(name, shape, rng, 40)
    _compare(shape, catalog.make(name), points)
    # the program's order-3 kernel begins with the bundle's order-2 rows
    kernel3 = reference.kernel3(shape)
    for u, v in points:
        assert repr(kernel3(u, v)[:6]) == repr(shape.kernel(u, v))


def test_recorded_and_singular_surfaces():
    # a surface recorded from a Python function, and a chart whose
    # regularity checks fail at (0.1, 0.5)
    rng = random.Random(zlib.crc32(b"recorded"))
    points = [(rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0))
              for _ in range(20)]
    recorded = BOWL.evaluator
    _compare(BOWL, type(BOWL)(recorded, BOWL.domain), points)
    skewed = expr.load_definition(SKEWED)
    shape = catalog.build(skewed)
    _compare(shape, catalog.build(skewed), [(0.1, 0.5), (0.3, -0.2)])
    assert _outcome(surfaces.riemann_R1212, shape, 0.1, 0.5)[0] is \
        surfaces.SingularSurfacePoint


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_egregium_row_equals_reference(name):
    shape, fresh = catalog.make(name), catalog.make(name)
    _, egregium, points, _ = _rows(name, shape)["egregium"]
    for u, v in points:
        assert (_outcome(egregium, u, v)
                == _outcome(reference.egregium, fresh, u, v)), (u, v)


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_euler_row_reads_the_quotient_at_the_point(name):
    shape = catalog.make(name)
    _, euler, points, _ = _rows(name, shape)["euler"]
    compared = 0
    for u, v in points:
        try:
            got = [repr(r) for r in euler(u, v)]
        except verify._Skip:
            assert surfaces.curvatures(shape, u, v).is_umbilic
            continue
        cd = surfaces.curvatures(shape, u, v)
        p = surfaces._point(shape, u, v)
        want = []
        for d, kappa_cos_sin in reference.euler_directions(cd):
            kappa_n = surfaces._normal_curvature(*p.EFG, *p.efg, d)
            straight = SurfaceCurve.straight(shape, (u, v), d, (-0.1, 0.1))
            assert repr(kappa_n) == repr(kappa_n_quotient(straight, 0.0))
            want.append(repr(kappa_n - kappa_cos_sin))
        assert got == want, (u, v)
        compared += 1
    assert compared or name in ("plane", "plane-polar", "sphere")
