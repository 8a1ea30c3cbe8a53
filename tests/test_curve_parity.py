"""Surface curves over floats against the Jet1 chains they replace, kept in
``reference``: a curve's rows (generated per built-in kind, definition
and loop arc, and over Hermite quintics) against its Jet1 form, the
surfaces' composite kernels (order-4 code with jet inputs) and every
check along a curve, equal by ``repr``, errors matched by type and
message."""

import math
import os
import random
import zlib
from functools import partial

import pytest

import reference
from diffgeo import catalog, expr, ode
from diffgeo.interpolate import HermiteChannel, taylor_kernel
from diffgeo.jets import Jet1
from diffgeo.surfacecurves import (SurfaceCurve, _exterior_angle, _kappa_g_dt,
                                   jet_kernel,
                                   _transport_rhs, bonnet_torsion_check,
                                   curvature_split, geodesic_ivp,
                                   geodesic_torsion, geodesic_torsion_principal,
                                   kappa_g_extrinsic, kappa_g_intrinsic,
                                   kappa_n_quotient, liouville_check)

from conftest import rule_evaluator, surface_samples
from test_program_parity import BOWL, DEFERRING, INPUTS

SURFACE_NAMES = [n for n in catalog.names()
                 if catalog.entry(n).kind == "surface"]
SC = """
surfacecurve wiggle
param t in [-0.2, 0.2]
const a = {u!r}
const b = {v!r}
u = a + 0.3*t + 0.2*sin(3*t)
v = b - 0.4*t + t^2 - 0.5*t^3
"""
LOOP = """
loop box
region {u0!r} {u1!r} {v0!r} {v1!r}
arc t in [0, 1]
u = {u0!r} + ({u1!r} - {u0!r})*t
v = {v0!r}
corner auto
arc t in [0, 1]
u = {u1!r}
v = {v0!r} + ({v1!r} - {v0!r})*t^2
"""
CHECKS = (curvature_split, kappa_n_quotient, kappa_g_extrinsic,
          kappa_g_intrinsic, geodesic_torsion, geodesic_torsion_principal,
          liouville_check, bonnet_torsion_check)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _jet_rows(uv, t):
    """The rows of the Jet1 pair ``uv(t)``, t a Jet1 variable."""
    uj, vj = uv(Jet1.variable(t))
    return tuple(zip(uj.c, vj.c))


def _curves(shape, u, v, rng):
    """(curve, parameter values, the Jet1 form of its uv) for every kind of
    curve through (u, v)."""
    d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    q = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    ts = [0.0, -0.0, rng.uniform(-0.05, 0.05)]
    definition = expr.load_definition(SC.format(u=u, v=v))
    sc = SurfaceCurve.of_definition(shape, definition)
    loop = expr.load_definition(LOOP.format(u0=u, u1=u + 0.1, v0=v,
                                            v1=v + 0.08))
    arcs = [SurfaceCurve.of_definition(shape, arc) for arc in loop.arcs]
    knots = [0.0, 0.03, 0.07, 0.1]
    cu = HermiteChannel(knots, [u + 0.5 * s for s in knots],
                        [0.5 - s for s in knots], [-1.0] * 4)
    cv = HermiteChannel(knots, [v - 0.2 * s * s for s in knots],
                        [-0.4 * s for s in knots], [-0.4] * 4)
    return [
        (SurfaceCurve.straight(shape, (u, v), d, (-0.05, 0.05)), ts,
         lambda t: (u + t * d[0], v + t * d[1])),
        (SurfaceCurve.const_v(shape, v), [u, -u], lambda t: (t, t * 0.0 + v)),
        (SurfaceCurve.const_u(shape, u), [v, -v], lambda t: (t * 0.0 + u, t)),
        (SurfaceCurve.quadratic(shape, (u, v), d, q, (-0.1, 0.1)), ts,
         lambda t: (u + d[0] * t + q[0] * t * t, v + d[1] * t + q[1] * t * t)),
        # verify's bonnet curve, which subtracts its second term
        (SurfaceCurve.quadratic(shape, (u, v), d, (0.08, -0.06),
                                (-0.05, 0.05)), ts,
         lambda t: (u + d[0] * t + 0.08 * t * t, v + d[1] * t - 0.06 * t * t)),
        (sc, [0.0, -0.2, 0.2, rng.uniform(-0.2, 0.2)], definition.eval),
        (arcs[0], [0.0, 1.0, 0.5], loop.arcs[0].eval),
        (arcs[1], [0.0, 1.0, 0.5], loop.arcs[1].eval),
        (SurfaceCurve(shape, taylor_kernel((cu, cv)), (0.0, 0.1)),
         [0.0, 0.03, 0.05, 0.1, 0.2], lambda t: (cu(t), cv(t))),
    ]


def _shapes():
    with open(os.path.join(INPUTS, "saddle.ps")) as fh:
        saddle = catalog.build(expr.load_definition(fh.read()))
    rng = random.Random(3)
    shapes = [(name, catalog.make(name), None) for name in SURFACE_NAMES]
    return shapes + [
        ("saddle.ps", saddle,
         [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]),
        ("bowl", BOWL,
         [(rng.uniform(0.6, 1.8), rng.uniform(-2, 2)) for _ in range(4)]),
        ("deferring", _by_the_rule(expr.load_definition(DEFERRING)),
         [(0.3, 0.0), (-0.4, 0.5), (0.3, -0.0), (0.2, 0.1)])]


def _by_the_rule(definition):
    """The surface of ``definition``, its jet reference the evaluator that
    takes '^' by the rule of generated code: along a curve of constant v,
    (2+u)^(v*v*v) is a jet exponent whose partials vanish."""
    surface = catalog.build(definition)
    surface.evaluator = rule_evaluator(definition)
    return surface


SHAPES = _shapes()


def _points(name, shape, points):
    rng = random.Random(zlib.crc32(b"curves " + name.encode()))
    return rng, points or surface_samples(name, shape, rng, 4)


def test_rows_equal_jet1_signed_zeros_included():
    rng = random.Random(17)
    values = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 1e-300, 1e300]
    shape = catalog.make("plane")
    checked = 0
    for _ in range(40):
        u, v = rng.choice(values), rng.choice(values)
        curves = _curves(shape, u, v, rng)
        for sc, ts, uv in curves:
            # a definition's eval checks its domain on the values, and a
            # Hermite channel finds its segment by them, which a recorded
            # function cannot read
            free = (partial(uv, check_domain=False) if isinstance(
                getattr(uv, "__self__", None), expr.ShapeDefinition) else uv)
            recorded = jet_kernel(free)
            for t in ts + [rng.choice(values)]:
                want = _outcome(_jet_rows, uv, t)
                assert _outcome(sc.kernel, t) == want, (u, v, t)
                got = _outcome(recorded, t)
                if sc is curves[-1][0]:
                    assert got[0] == "UnrecordableFunction"
                else:
                    assert got == _outcome(_jet_rows, free, t)
                checked += isinstance(want, str)
    assert checked >= 1400


def test_built_in_curves_share_one_generated_kernel_per_kind(monkeypatch):
    # each kind's order-4 code is generated once; curves of other
    # constants bind it again and compile nothing
    compiled, compile_ = [], ode._compile
    monkeypatch.setattr(ode, "_compile", lambda lines, name, *args: (
        compiled.append(name) or compile_(lines, name, *args)))
    expr._GENERATED.clear()
    shape = catalog.make("plane")
    for make in (lambda k: SurfaceCurve.const_v(shape, 0.1 * k),
                 lambda k: SurfaceCurve.const_u(shape, -0.2 * k),
                 lambda k: SurfaceCurve.straight(shape, (k, 0.5),
                                                 (1.0, -k)),
                 lambda k: SurfaceCurve.quadratic(shape, (0.5, k), (k, 2.0),
                                                  (0.3 * k, -1.0),
                                                  (-1.0, 1.0))):
        first, second = make(1.0), make(3.0)
        assert first.kernel.__code__ is second.kernel.__code__
        assert first.kernel(0.25) != second.kernel(0.25)
    assert compiled == ["<position kernel>"] * 4


@pytest.mark.parametrize("name, shape, points", SHAPES,
                         ids=[s[0] for s in SHAPES])
def test_composite_kernel_equals_the_evaluator(name, shape, points):
    rng, points = _points(name, shape, points)
    values = 0
    for u, v in points:
        for sc, ts, _ in _curves(shape, u, v, rng):
            for t in ts:
                rows = sc.kernel(t)
                uc, vc = zip(*rows)
                want = _outcome(lambda: reference.coefficients(
                    shape.evaluator(Jet1(*uc), Jet1(*vc))))
                assert _outcome(shape.composite, rows) == want, (u, v, t)
                values += isinstance(want, str)
    assert values >= len(points) * 20


@pytest.mark.parametrize("name, shape, points", SHAPES,
                         ids=[s[0] for s in SHAPES])
def test_checks_along_curves_equal_the_jet1_chains(name, shape, points):
    rng, points = _points(name, shape, points)
    values = 0
    for u, v in points:
        curves = _curves(shape, u, v, rng)
        for sc, ts, uv in curves:
            jc = reference.JetCurve(sc, uv)
            rhs, ref_rhs = _transport_rhs(sc), reference.transport_rhs(jc)
            for t in ts:
                for check in CHECKS:
                    want = _outcome(getattr(reference, check.__name__), jc, t)
                    assert _outcome(check, sc, t) == want, (check, u, v, t)
                    values += isinstance(want, str)
                y = (rng.uniform(-1, 1), rng.uniform(-1, 1))
                assert _outcome(rhs, t, y) == _outcome(ref_rhs, t, y)
                assert (_outcome(_kappa_g_dt, sc, t) ==
                        _outcome(reference.gauss_bonnet_integrand(jc), t))
        for (a, _, uv_a), (b, _, uv_b) in zip(curves, curves[1:]):
            assert (_outcome(_exterior_angle, a, b)
                    == _outcome(reference.exterior_angle,
                                reference.JetCurve(a, uv_a),
                                reference.JetCurve(b, uv_b)))
    assert values >= len(points) * 100


@pytest.mark.parametrize("name", ["sphere", "torus", "catenoid"])
def test_geodesic_paths(name):
    # the Hermite path of GeodesicPath.as_curve, through the geodesic field
    shape = catalog.make(name)
    rng = random.Random(zlib.crc32(b"paths " + name.encode()))
    for u, v in surface_samples(name, shape, rng, 3):
        path = geodesic_ivp(shape, u, v, (rng.uniform(-1, 1), 1.0), 0.7)
        sc = path.as_curve()
        uv = reference.geodesic_path_uv(path)
        jc = reference.JetCurve(sc, uv)
        for s in [0.0, path.length] + [rng.uniform(0, 0.7) for _ in range(4)]:
            assert repr(sc.kernel(s)) == repr(_jet_rows(uv, s))
            for check in CHECKS:
                assert (_outcome(check, sc, s) ==
                        _outcome(getattr(reference, check.__name__), jc, s))


def test_errors_name_the_point():
    sphere = catalog.make("sphere")
    pole = SurfaceCurve.straight(sphere, (0.3, math.pi / 2), (1.0, 0.0))
    huge = SurfaceCurve.straight(catalog.make("sphere", R=1e200), (0.3, 0.2),
                                 (1.0, 0.5))
    for sc, uv, error in (
            (pole, lambda t: (0.3 + t * 1.0, math.pi / 2 + t * 0.0),
             "SingularSurfacePoint"),
            (huge, lambda t: (0.3 + t * 1.0, 0.2 + t * 0.5),
             "OverflowError")):
        jc = reference.JetCurve(sc, uv)
        for check in CHECKS:
            got = _outcome(check, sc, 0.0)
            assert got == _outcome(getattr(reference, check.__name__), jc, 0.0)
            assert got[0] == error
