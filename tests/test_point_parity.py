"""The point bundle (``surfaces._SurfacePoint``, one call of one surface
program per template, ``_point_terms``) against the bundle it replaces,
kept in ``reference.SurfacePoint``: the kernel called once, a tape per
group of fields run on first read and the regularity checks in Python.
Every field is equal by ``repr`` on every catalog surface and on charts
that are singular, overflow or are steep, and an error is the same
error with the same message.  The Christoffel symbols are computed over
the bundle's floats, so where the tape of 1/(2a) overflows they are still
a value: that of the reference's metric, partials and a."""

import math
import random
import zlib

import pytest

import reference
from diffgeo import catalog, expr, surfaces
from diffgeo.errors import SingularSurfacePoint
from diffgeo.surfaces import _christoffel2, _point, forms

from conftest import surface_samples
from test_program_parity import BOWL, SKEWED

SURFACE_NAMES = [n for n in catalog.names()
                 if catalog.entry(n).kind == "surface"]
FIELDS = ("u", "v", "scale", "E1", "E2", "EFG", "a", "sqrt_a", "n", "efg",
          "metric_partials", "gamma2", "dn")
STEEP = """
surface steep
param u in [0, 1]
param v in [0, 1]
x = u
y = v
z = 1e-100*sin(1e110*u)
"""


def _fields(build, surface, u, v):
    """Each field of the bundle that ``build`` makes at (u, v) by ``repr``,
    read in FIELDS order, or the type and message of the first error."""
    try:
        p = build(surface, u, v)
        return [repr(getattr(p, name)) for name in FIELDS]
    except Exception as exc:
        return type(exc), str(exc)


def _compare(shape, fresh, points):
    """The bundles of ``shape`` against the reference's on ``fresh`` (a
    surface of the same shape with its own point store); the number of
    points that gave values."""
    values = 0
    for u, v in points:
        got = _fields(_point, shape, u, v)
        assert got == _fields(reference.SurfacePoint, fresh, u, v), (u, v)
        values += isinstance(got, list)
    return values


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_fields_equal_reference(name):
    shape = catalog.make(name)
    rng = random.Random(zlib.crc32(name.encode()))
    points = surface_samples(name, shape, rng, 40)
    assert _compare(shape, catalog.make(name), points) == 40


@pytest.mark.parametrize("make, points, error", [
    (lambda: catalog.make("cone"), [(0.0, 1.0)], SingularSurfacePoint),
    (lambda: catalog.make("sphere"), [(0.3, math.pi / 2)],
     SingularSurfacePoint),
    (lambda: catalog.build(expr.load_definition(SKEWED)), [(0.1, 0.5)],
     SingularSurfacePoint),
    (lambda: catalog.make("monge", f="exp(1000*u)"), [(0.8, 0.2)],
     OverflowError),
    (lambda: catalog.make("monge", f="1e200*u"), [(0.3, 0.2)],
     OverflowError),
    (lambda: catalog.build(expr.load_definition(STEEP)),
     [(0.3, 0.2), (0.7, 0.9)], None),
    (lambda: BOWL, [(0.5, -3.0), (1.2, 0.4), (2.0, 3.0)], None),
], ids=["cone-apex", "pole", "skewed", "jets-overflow", "metric-overflow",
        "steep", "recorded"])
def test_charts(make, points, error):
    shape = make()
    fresh = (type(shape)(shape.evaluator, shape.domain) if shape is BOWL
             else make())
    values = _compare(shape, fresh, points)
    if error is None:
        assert values == len(points)
    else:
        assert values == 0
        u, v = points[0]
        with pytest.raises(error, match=fr"\(u, v\)=\({u!r}, {v!r}\)"):
            _point(shape, u, v)


def test_gamma_over_floats_at_small_scale():
    # the tape of Gamma composes the table of 1/(2a), whose entry
    # 24 i^5 overflows at R = 1e-20; the bundle's Gamma over floats does
    # not, and Gamma does not change with scale
    R, u, v = 1e-20, 0.3, 0.2
    shape = catalog.make("sphere", R=R)
    ref = reference.SurfacePoint(shape, u, v)
    with pytest.raises(OverflowError, match=r"\(u, v\)=\(0\.3, 0\.2\)"):
        ref.gamma2
    p = _point(shape, u, v)
    for name in FIELDS:
        if name != "gamma2":
            assert repr(getattr(p, name)) == repr(getattr(ref, name)), name
    assert repr(p.gamma2) == repr(_christoffel2(
        *ref.EFG, *ref.metric_partials, ref.a))

    K = surfaces.curvatures(shape, u, v).K
    assert abs(K - 1.0 / R ** 2) <= 1e-12 / R ** 2
    fb = forms(shape, u, v)
    unit = forms(catalog.make("sphere"), u, v)
    for got, want in zip(fb.gamma2, unit.gamma2):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
