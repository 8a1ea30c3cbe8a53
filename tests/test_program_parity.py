"""The generated surface programs (the geodesic and transport fields, the
metric and Christoffel values, the area and total-curvature integrands)
equal the plain Python chain they replace, kept in ``reference``, by
``repr``, and raise what it raises, with the same message."""

import math
import os
import random
import subprocess
import sys
import zlib

import pytest

import reference
from diffgeo import catalog, expr, jets
from diffgeo.surfacecurves import _geodesic, _transport
from diffgeo.surfaces import (ParametricSurface, _area_element,
                              _curvature_element, metric_and_gamma)
from diffgeo.vectors import Vec3

from conftest import surface_samples

SURFACE_NAMES = [n for n in catalog.names()
                 if catalog.entry(n).kind == "surface"]
INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "inputs")
# the kernel of this template defers to its Jet2 fallback: at v = 0 every
# partial of the exponent v*v*v vanishes, which order 2 cannot decide
DEFERRING = """
surface deferring
param u in [-1, 1]
param v in [-1, 1]
x = u
y = v
z = (2+u)^(v*v*v)
"""
# E1 and E2 parallel to 1e-12: at (0.1, 0.5) |E1 x E2|^2 is below the
# regularity floor, and a = EG - F^2 cancels to rounding noise above it
SKEWED = """
surface skew
param u in [-1, 1]
param v in [-1, 1]
const d = 1e-12
x = u + v
y = u + (1+d)*v
z = (u+v)^2 + (u+(1+d)*v)^2
"""
BOWL = ParametricSurface(
    lambda u, v: Vec3(u * jets.cos(v), u * jets.sin(v),
                      0.5 * u * u + jets.exp(u)),
    (0.5, 2.0, -3.0, 3.0))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _pairs(shape):
    """(generated, reference) pairs of functions of (u, v, w), w four
    floats: a velocity, or a velocity and a vector."""
    geodesic = shape.program(_geodesic, (1, 4))
    transport = shape.program(_transport, (1,) * 6)
    area = shape.program(_area_element, (1, 1))
    curvature = shape.program(_curvature_element, (1, 1))
    ref_geodesic = reference.geodesic_field(shape)
    ref_transport = reference.transport_field(shape)
    ref_area = reference.area_integrand(shape)
    ref_curvature = reference.curvature_integrand(shape)
    return (
        (lambda u, v, w: metric_and_gamma(shape, u, v),
         lambda u, v, w: reference.metric_and_gamma(shape, u, v)),
        (lambda u, v, w: geodesic(0.5, (u, v, w[0], w[1])),
         lambda u, v, w: ref_geodesic(0.5, (u, v, w[0], w[1]))),
        (lambda u, v, w: transport(u, v, *w),
         lambda u, v, w: ref_transport(u, v, *w)),
        (lambda u, v, w: area(u, v), lambda u, v, w: ref_area(u, v)),
        (lambda u, v, w: curvature(u, v),
         lambda u, v, w: ref_curvature(u, v)),
    )


def _compare(shape, points, seed):
    """The outcomes of every pair at ``points``; returns how many were
    values, not errors."""
    rng = random.Random(zlib.crc32(seed.encode()))
    values = 0
    for u, v in points:
        w = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        for generated, ref in _pairs(shape):
            want = _outcome(ref, u, v, w)
            assert _outcome(generated, u, v, w) == want, (u, v)
            values += isinstance(want, str)
    return values


def _inlined(fn):
    """Whether a program inlines its kernel (the first prologue) rather
    than calling it (the second)."""
    return "_kernel" not in fn.__code__.co_varnames


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_catalog_surfaces(name):
    shape = catalog.make(name)
    rng = random.Random(zlib.crc32(b"programs " + name.encode()))
    points = surface_samples(name, shape, rng, 30)
    assert _compare(shape, points, name) >= 100
    assert _inlined(shape.program(_geodesic, (1, 4)))


def test_file_surface_with_a_non_orthogonal_chart():
    with open(os.path.join(INPUTS, "saddle.ps")) as fh:
        shape = catalog.build(expr.load_definition(fh.read()))
    rng = random.Random(7)
    points = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
    assert _compare(shape, points, "saddle") == 200
    assert metric_and_gamma(shape, 0.3, 0.2).F != 0.0
    assert _inlined(shape.program(_curvature_element, (1, 1)))


def test_callable_surface_calls_its_kernel():
    rng = random.Random(11)
    points = [(rng.uniform(0.5, 2.0), rng.uniform(-3, 3)) for _ in range(30)]
    assert _compare(BOWL, points, "bowl") == 150
    assert not _inlined(BOWL.program(_geodesic, (1, 4)))


def test_deferring_template_calls_its_kernel():
    shape = catalog.build(expr.load_definition(DEFERRING))
    rng = random.Random(13)
    points = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)]
    points += [(0.3, 0.0), (-0.7, 0.0), (0.3, -0.0)]
    assert _compare(shape, points, "deferring") == 115
    assert not _inlined(shape.program(_geodesic, (1, 4)))


@pytest.mark.parametrize("shape, point, error", [
    (catalog.make("sphere"), (0.3, math.pi / 2), "SingularSurfacePoint"),
    (catalog.make("sphere"), (0.3, -math.pi / 2), "SingularSurfacePoint"),
    (catalog.make("cone"), (0.0, 1.0), "SingularSurfacePoint"),
    (catalog.make("sphere", R=1e200), (0.3, 0.2), "OverflowError"),
    (catalog.make("monge", f="exp(1000*u)"), (0.8, 0.2), "OverflowError"),
], ids=["north-pole", "south-pole", "cone-apex", "R=1e200", "jets-overflow"])
def test_errors(shape, point, error):
    w = (0.4, -0.3, 1.0, 0.5)
    for generated, ref in _pairs(shape):
        got = _outcome(generated, *point, w)
        assert got == _outcome(ref, *point, w)
        assert got[0].__name__ == error
        assert f"(u, v)=({point[0]!r}, {point[1]!r})" in got[1]


def test_singular_normal_regular_metric():
    # the fields check a, the integrands |E1 x E2|^2 first
    shape = catalog.build(expr.load_definition(SKEWED))
    w = (0.4, -0.3, 1.0, 0.5)
    got = [_outcome(generated, 0.1, 0.5, w) for generated, _ in _pairs(shape)]
    assert got == [_outcome(ref, 0.1, 0.5, w) for _, ref in _pairs(shape)]
    assert [isinstance(g, str) for g in got] == [True, True, True, False,
                                                 False]


def test_nothing_generated_at_import_make_or_eval():
    # a fresh interpreter: this one has generated code for other tests
    probe = (
        "from diffgeo import catalog, cli, expr\n"
        "from diffgeo.surfaces import ParametricSurface\n"
        "shapes = [catalog.make(n) for n in catalog.names()]\n"
        "made = [expr._kernel_binder.cache_info().currsize]\n"
        "assert cli.main(['eval', '--shape', 'torus', '--at', '0.3,0.4',\n"
        "                 '--quantity', 'curvatures']) == 0\n"
        "made.append(expr._program_binder.cache_info().currsize)\n"
        "made += [len(s._programs) for s in shapes\n"
        "         if isinstance(s, ParametricSurface)]\n"
        "assert made == [0] * len(made), made\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
