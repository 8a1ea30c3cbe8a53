"""The generated surface programs (the geodesic and transport fields, the
metric and Christoffel values, the area and total-curvature integrands)
equal the plain Python formulas kept in ``reference`` by ``repr``, and
raise what they raise, with the same message: the fields' tangent
projection, the metric and Christoffel values as the point bundle's tapes
give them, and the point bundle's area element and K sqrt(a).  Each field's fused Dormand-Prince
attempt equals the generic attempt over the same program by ``repr``,
errors included, so that a solve gives the same bits whether the field's
lines are written into the attempt or called at each stage."""

import ast
import collections
import math
import os
import random
import subprocess
import sys
import zlib

import pytest

import generated_code
import reference
from diffgeo import catalog, expr, jets, ode
from diffgeo.surfacecurves import (SurfaceCurve, _geodesic, _geodesic_rhs,
                                   _transport, _transport_rhs)
from diffgeo.surfaces import (ParametricSurface, _area_element,
                              _curvature_element, metric_and_gamma)
from diffgeo.vectors import Vec3

from conftest import surface_samples

SURFACE_NAMES = [n for n in catalog.names()
                 if catalog.entry(n).kind == "surface"]
INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "inputs")
# a jet exponent whose partials through order 2 vanish at v = 0, which
# order 2 cannot tell from a constant one: jets.power branches there, and
# the kernels, which once deferred to a Jet2 fallback, take exp(p log b)
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
        (lambda u, v, w: _transport_at(shape, u, v, w[:2])(0.5, w[2:]),
         lambda u, v, w: ref_transport(u, v, *w)),
        (lambda u, v, w: area(u, v), lambda u, v, w: ref_area(u, v)),
        (lambda u, v, w: curvature(u, v),
         lambda u, v, w: ref_curvature(u, v)),
    )


def _transport_at(shape, u, v, velocity):
    """The transport field along a curve whose kernel gives (u, v) and
    ``velocity`` at every t."""
    return shape.program(_transport, (1, 2),
                         lambda t: ((u, v), tuple(velocity)))


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
    """Whether a program writes its kernel's lines in, with no call of a
    kernel or of a fallback."""
    names = fn.__code__.co_varnames + fn.__code__.co_names
    return not {"_kernel", "_fallback"} & set(names)


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


def test_callable_surface_inlines_its_kernel():
    rng = random.Random(11)
    points = [(rng.uniform(0.5, 2.0), rng.uniform(-3, 3)) for _ in range(30)]
    assert _compare(BOWL, points, "bowl") == 150
    assert _inlined(BOWL.program(_geodesic, (1, 4)))


def test_deferring_template_inlines_its_kernel():
    shape = catalog.build(expr.load_definition(DEFERRING))
    rng = random.Random(13)
    points = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)]
    points += [(0.3, 0.0), (-0.7, 0.0), (0.3, -0.0)]
    assert _compare(shape, points, "deferring") == 115
    assert _inlined(shape.program(_geodesic, (1, 4)))


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


_ARITHMETIC = (ast.BinOp, ast.UnaryOp, ast.Name, ast.Constant, ast.Load,
               ast.Add, ast.Sub, ast.Mult, ast.USub)


@pytest.fixture(scope="module")
def programs():
    """Every program that generated_code.py prints, made once."""
    return generated_code.collect()


def test_no_program_assigns_an_unread_arithmetic_line(programs):
    # float + - * and negation raise nothing, so such a line that nothing
    # reads is dead; the printed source is read back with ast
    assert len(programs) > 80
    for filename, source in programs:
        for fn in ast.parse(source).body:
            reads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load)}
            dead = [ast.unparse(line) for line in ast.walk(fn)
                    if isinstance(line, ast.Assign)
                    and len(line.targets) == 1
                    and isinstance(line.targets[0], ast.Name)
                    and line.targets[0].id not in reads
                    and all(isinstance(n, _ARITHMETIC)
                            for n in ast.walk(line.value))]
            assert not dead, (filename, dead)


def test_no_program_multiplies_by_one(programs):
    # a Dormand-Prince stage whose c is 1.0 is taken at t + hs
    assert not [line for _, source in programs
                for line in source.splitlines() if "1.0 * hs" in line]


def test_programs_outlive_one_off_expressions(monkeypatch):
    # each kind of generated code keeps its own entries: the order-0
    # kernels of 300 distinct expressions evict no program
    monkeypatch.setattr(expr, "_GENERATED", expr._Cache())
    compiled, compile_ = collections.Counter(), ode._compile

    def counted(lines, filename, namespace):
        compiled[filename] += 1
        return compile_(lines, filename, namespace)

    monkeypatch.setattr(ode, "_compile", counted)
    y = (0.3, 0.4, 1.0, 0.5)
    before = catalog.make("torus").program(_geodesic, (1, 4))(0.0, y)
    for i in range(300):
        assert expr.scalar_function(f"x + {i}", "x")(0.5) == 0.5 + i
    after = catalog.make("torus").program(_geodesic, (1, 4))(0.0, y)
    assert before == after
    assert compiled["<surface program _geodesic>"] == 1
    assert compiled["<dopri5 _geodesic, 4 components>"] == 1
    assert compiled["<position kernel>"] == 300


def test_nothing_generated_at_import_make_or_eval():
    # a fresh interpreter: this one has generated code for other tests
    probe = (
        "from diffgeo import catalog, cli, expr, surfaces\n"
        "from diffgeo.surfaces import ParametricSurface\n"
        "shapes = [catalog.make(n) for n in catalog.names()]\n"
        "made = [len(expr._GENERATED)]\n"
        "assert cli.main(['eval', '--shape', 'torus', '--at', '0.3,0.4',\n"
        "                 '--quantity', 'curvatures']) == 0\n"
        "made += [len(s._programs) for s in shapes\n"
        "         if isinstance(s, ParametricSurface)]\n"
        "assert made == [0] * len(made), made\n"
        "# the point bundle is the one program that the eval makes\n"
        "programs = [f[1] for _, f, _ in expr._GENERATED\n"
        "            if f[0] is expr._program_code]\n"
        "assert programs == [surfaces._point_terms], programs\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


# --------------------------------------------------------------------------
# the fused Dormand-Prince attempts
# --------------------------------------------------------------------------

def _attempts_agree(field, t, y, k1, hs):
    """The field's fused attempt, given no field to call, and the generic
    one over the same program give the same outcome; returns it."""
    got = _outcome(field.attempt, None, t, y, k1, hs, 1e-10)
    assert got == _outcome(ode._attempt(len(y)), field, t, y, k1, hs,
                           1e-10), (t, y, k1, hs)
    return got


FUSED = [(name, lambda name=name: catalog.make(name), None)
         for name in SURFACE_NAMES] + [
    ("bowl", lambda: BOWL, (0.5, 2.0, -3.0, 3.0)),
    ("deferring", lambda: catalog.build(expr.load_definition(DEFERRING)),
     (-1.0, 1.0, -1.0, 1.0))]


@pytest.mark.parametrize("name, make, rect", FUSED, ids=[f[0] for f in FUSED])
def test_fused_attempts_equal_the_generic_attempt(name, make, rect):
    shape = make()
    rng = random.Random(zlib.crc32(b"fused " + name.encode()))
    if rect is None:
        points = surface_samples(name, shape, rng, 25)
    else:
        points = [(rng.uniform(*rect[:2]), rng.uniform(*rect[2:]))
                  for _ in range(25)]
    geodesic = _geodesic_rhs(shape)
    values = 0
    for u, v in points:
        d = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        bend = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        transport = _transport_rhs(SurfaceCurve.quadratic(shape, (u, v), d,
                                                          bend, (-1.0, 1.0)))
        for field, y in ((geodesic, (u, v) + d),
                         (transport, (rng.uniform(-2.0, 2.0),
                                      rng.uniform(-2.0, 2.0)))):
            k1 = tuple(rng.uniform(-1.0, 1.0) for _ in y)
            hs = rng.choice((1e-3, 0.05, 0.3, 1.0)) * rng.choice((1.0, -1.0))
            values += isinstance(_attempts_agree(field, 0.0, y, k1, hs), str)
    assert values >= 40


@pytest.mark.parametrize("shape, point, error", [
    (catalog.make("cone"), (0.0, 1.0), "SingularSurfacePoint"),
    (catalog.make("sphere"), (0.3, math.pi / 2), "SingularSurfacePoint"),
    (catalog.make("monge", f="exp(1000*u)"), (0.8, 0.2), "OverflowError"),
], ids=["cone-apex", "pole", "jets-overflow"])
def test_fused_attempt_errors(shape, point, error):
    # from 0.2 short of ``point`` in u and v, moving at (1, 1): with hs = 1
    # the second stage, at t + hs/5, lands on it to the last bit or so
    start = (point[0] - 0.2, point[1] - 0.2)
    stage = tuple(x + 0.2 * 1.0 * 1.0 for x in start)   # y + (hs/5) * k1
    transport = _transport_rhs(SurfaceCurve(
        shape, lambda t: ((start[0] + t, start[1] + t), (1.0, 1.0)),
        (0.0, 1.0)))
    for field, y, k1 in (
            (_geodesic_rhs(shape), start + (1.0, 1.0), (1.0, 1.0, 0.0, 0.0)),
            (transport, (0.4, -0.3), (0.0, 0.0))):
        got = _attempts_agree(field, 0.0, y, k1, 1.0)
        assert got[0].__name__ == error
        assert f"(u, v)=({stage[0]!r}, {stage[1]!r})" in got[1]


def test_fused_attempt_errors_at_later_stages():
    # steps of growing size from a regular point of exp(1000*u) raise at
    # later stages: singular points (E + G outgrows a), then overflows of
    # the metric (the fast path's branch) and of the kernel (the guard)
    field = _geodesic_rhs(catalog.make("monge", f="exp(1000*u)"))
    y = (0.0, 0.0, 1.0, 0.5)
    raised = {}
    for hs in (1e-3 * 1.3 ** k for k in range(30)):
        got = _attempts_agree(field, 0.0, y, field(0.0, y), hs)
        if isinstance(got, tuple):
            raised.setdefault(got[1].split(" at ")[0], set()).add(got[1])
    assert sorted(raised) == ["surface is singular",
                              "surface jets overflow",
                              "surface metric overflows"]
    assert len(set().union(*raised.values())) >= 10
