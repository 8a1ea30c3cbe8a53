"""The float Frenet bundle (curves._CurveJets, generated code over five
coefficient triples) against a Jet1 reference copy of the same formulas:
every quantity equal bit for bit (signed zeros included), every error
matched by type and message."""

import math
import random
import re
import zlib
from functools import cached_property

import pytest

from diffgeo import catalog, jets
from diffgeo.curves import (EPS_INFLECT, EPS_REG, _JETS, _RATES, _SPHERE,
                            _SPHERICITY, ParametricCurve,
                            _CurveJets, jet_kernel, reconstruct_from_kappa_tau,
                            reparam_to_arclength, spherical_indicatrix)
from diffgeo.errors import (DiffGeoError, InflectionPoint, SingularPoint)
from diffgeo.expr import ShapeDefinition, load_definition
from diffgeo.interpolate import HermiteChannel
from diffgeo.jets import Jet1
from diffgeo.vectors import Vec3

from conftest import EVAL_SAFE, random_program, surface_samples
from reference import coefficients
from test_expr import EVERYTHING

CURVES = ("line", "circle", "ellipse", "helix", "spherical-spiral")
SURFACES = [n for n in catalog.names() if catalog.entry(n).kind == "surface"]


class _JetCurveJets:
    """The Frenet apparatus as Jet1 arithmetic on the position jet ``pos``:
    the reference the generated code must reproduce.  A non-finite |r'|^2
    or |r' x r''|^2 is an overflow, named at t."""

    def __init__(self, pos, scale, t, min_speed=0.0):
        self.t = float(t)
        self.scale = scale
        self.pos = pos
        self.rd = pos.derivative()
        self.rdd = self.rd.derivative()
        sig_sq = self.rd.norm_sq()
        if not sig_sq.value < math.inf:
            raise OverflowError(f"curve jets overflow at t={self.t!r}")
        if sig_sq.value <= min_speed * min_speed:
            raise SingularPoint(t)
        self.sigma = jets.sqrt(sig_sq)
        if not self.C.norm_sq().value < math.inf:
            raise OverflowError(f"curve jets overflow at t={self.t!r}")

    @cached_property
    def T(self):
        return self.rd / self.sigma

    @cached_property
    def C(self):
        return self.rd.cross(self.rdd)

    @cached_property
    def Cn(self):
        cn_sq = self.C.norm_sq()
        return jets.sqrt(cn_sq) if cn_sq.value > 0.0 else cn_sq

    @cached_property
    def kappa(self):
        cn = self.Cn
        return (cn / (self.sigma * self.sigma * self.sigma) if cn.value > 0.0
                else None)

    @property
    def kappa_value(self):
        return 0.0 if self.kappa is None else self.kappa.value

    @property
    def bent(self):
        return self.kappa_value > EPS_INFLECT / self.scale

    def frame_jets(self):
        if not self.bent:
            raise InflectionPoint(self.t)
        B = self.C / self.Cn
        return self.T, B.cross(self.T), B

    def tau_jet(self):
        if not self.bent:
            raise InflectionPoint(self.t)
        rddd = self.rdd.derivative()
        return self.rd.dot(self.rdd.cross(rddd)) / (self.Cn * self.Cn)

    def ds_vec(self, vec):
        s = 1.0 / self.sigma.value
        return Vec3(vec.x.c[1] * s, vec.y.c[1] * s, vec.z.c[1] * s)


def _bent_only(bundle, fn):
    """``fn``, run past the inflection floor only."""
    def run():
        if not bundle.bent:
            raise InflectionPoint(bundle.t)
        return fn()
    return run


def _reference_queries(r):
    """(name, thunk) pairs over the reference bundle ``r``."""
    def values(v):
        return Vec3(*(c.value for c in v))

    def frame():
        return tuple(map(values, r.frame_jets()))

    def rk():
        return 1.0 / r.kappa

    def sphericity():
        inner = (1.0 / r.tau_jet()) * (rk().derivative() / r.sigma)
        return rk().value, (1.0 / r.tau_jet()).value, inner.c[1]

    def jet(which, n):
        vec = r.T if which == "T" else r.frame_jets()["TNB".index(which)]
        return tuple(j.c[:n] for j in vec)

    return [
        ("sigma", lambda: r.sigma.c[:4]),
        ("kappa", lambda: r.kappa_value),
        ("bent", lambda: r.bent),
        ("T", lambda: values(r.T)),
        ("dT_ds", lambda: r.ds_vec(r.T)),
        ("frame", frame),
        ("tau", lambda: r.tau_jet().value),
        ("frame_ds", lambda: tuple(map(r.ds_vec, r.frame_jets()))),
        ("rates", _bent_only(r, lambda: (r.kappa.c[1], r.tau_jet().c[1]))),
        ("sphere", _bent_only(r, lambda: (rk().value, rk().c[1]))),
        ("sphericity", _bent_only(r, sphericity)),
        *((f"jet {w} {n}", lambda w=w, n=n: jet(w, n))
          for w in "TNB" for n in (2, 5)),
    ]


def _float_queries(cj):
    """The same pairs over the float bundle ``cj``: its fields, and the
    programs that no CLI path runs."""
    def jet(which, n):
        if which != "T":
            cj.bend()   # InflectionPoint below the floor
        if n == 5:
            x = cj.run(_JETS[which])
            return tuple(x[i:i + 5] for i in (0, 5, 10))
        vec, dvec = {"T": (cj.T, cj.dT), "N": (cj.N, cj.dN),
                     "B": (cj.B, cj.dB)}[which]
        return tuple(zip(vec, dvec))

    return [
        ("sigma", lambda: cj.sigma),
        ("kappa", lambda: cj.kappa_value),
        ("bent", lambda: cj.bent),
        ("T", lambda: cj.T),
        ("dT_ds", lambda: cj.dT_ds),
        ("frame", cj.frame),
        ("tau", lambda: cj.bend().tau),
        ("frame_ds", cj.frame_ds),
        ("rates", _bent_only(cj, lambda: cj.run(_RATES))),
        ("sphere", _bent_only(cj, lambda: cj.run(_SPHERE))),
        ("sphericity", _bent_only(cj, lambda: cj.run(_SPHERICITY))),
        *((f"jet {w} {n}", lambda w=w, n=n: jet(w, n))
          for w in "TNB" for n in (2, 5)),
    ]


def _canon(value):
    """Floats by repr (signed zeros and NaN told apart), jets and vectors
    coefficient by coefficient."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Jet1):
        return tuple(map(repr, value.c))
    return tuple(map(_canon, value))


def _outcome(fn):
    try:
        return _canon(fn())
    except (DiffGeoError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _outcomes(build, queries):
    try:
        bundle = build()
    except (DiffGeoError, ArithmeticError, ValueError) as exc:
        return [("build", type(exc).__name__, str(exc))]
    return [(name, _outcome(fn)) for name, fn in queries(bundle)]


def _kernel_jet(curve, t):
    """The position jet of ``curve`` at t: the definition's Jet1
    evaluation, else the kernel's coefficients as Jet1."""
    if curve.definition is not None:
        return curve.definition.eval(Jet1.variable(t), check_domain=False)
    return Vec3(*(Jet1(*c) for c in zip(*curve.kernel(t))))


def _check_curve(curve, ts, position=_kernel_jet):
    """Both bundles of ``curve`` at each t, the reference's from the Jet1
    ``position(curve, t)``: returns how many points had a bent (full)
    apparatus."""
    bent = 0
    for t in ts:
        got = _outcomes(lambda: _CurveJets.at(curve, t), _float_queries)
        want = _outcomes(lambda: _JetCurveJets(
            position(curve, t), curve.scale, t,
            EPS_REG * curve.scale), _reference_queries)
        assert got == want, t
        bent += ("bent", True) in got
    return bent


def _points(label, domain, n):
    rng = random.Random(zlib.crc32(label.encode()))
    return [rng.uniform(*domain) for _ in range(n)]


@pytest.mark.parametrize("name", CURVES)
def test_catalog_curves(name):
    curve = catalog.make(name)
    bent = _check_curve(curve, _points(name, curve.domain, 24))
    assert bent == (0 if name == "line" else 24)


def test_everything_as_a_curve():
    # every construct of the language, with q a function of the parameter
    _, body = EVERYTHING.split("const c", 1)
    text = ("curve everything\nparam p in [0.1, 0.9]\nconst c"
            + re.sub(r"\bq\b", "(p*p/2 + 0.3)", body))
    curve = catalog.build(load_definition(text))
    assert _check_curve(curve, _points("everything", curve.domain, 24)) == 24


def test_random_curves():
    rng = random.Random(zlib.crc32(b"random frenet"))
    bent = 0
    for _ in range(40):
        comps = tuple(random_program(rng, rng.randint(1, 4), ("t",),
                                     functions=EVAL_SAFE) for _ in range(3))
        curve = catalog.build(ShapeDefinition(
            kind="curve", name="random", constants={},
            params={"t": (-1.0, 1.0)}, components=comps,
            component_names=("x", "y", "z")))
        bent += _check_curve(curve, [rng.uniform(-1.0, 1.0)
                                     for _ in range(3)])
    assert bent >= 40


def test_hermite_reparametrized_and_indicatrices():
    rec = reconstruct_from_kappa_tau(
        lambda s: 0.8 + 0.1 * s, lambda s: 0.4, Vec3(0.0, 0.0, 0.0),
        (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0)), 3.0)
    # the interpolant's Jet1 form: its channels evaluated on jets
    chans = [HermiteChannel(rec.s, [getattr(p, c) for p in rec.r],
                            [getattr(v, c) for v in rec.T],
                            [getattr(v, c) for v in rec._rdd]) for c in "xyz"]

    def hermite(curve, t):
        s = Jet1.variable(t)
        return Vec3(*(ch(s) for ch in chans))

    spiral = catalog.make("spherical-spiral")
    curves = {"hermite": (rec.as_curve(), hermite),
              "reparam": (reparam_to_arclength(catalog.make("helix")),
                          _kernel_jet),
              **{f"indicatrix {w}": (spherical_indicatrix(spiral, w),
                                     _kernel_jet) for w in "TNB"}}
    for label, (curve, position) in curves.items():
        lo, hi = curve.domain
        ts = _points(label, (lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo)), 8)
        assert _check_curve(curve, ts, position) == 8, label


def test_callable_curve_singular_point():
    curve = ParametricCurve(
        jet_kernel(lambda t: Vec3(t * t, t * t * t, t * 0.0)), (-1.0, 1.0))
    assert _check_curve(curve, [0.0, 0.5]) == 1


@pytest.mark.parametrize("name", SURFACES)
def test_surface_curve_composites(name):
    surface = catalog.make(name)
    rng = random.Random(zlib.crc32(name.encode()))
    for u0, v0 in surface_samples(name, surface, rng, 6):
        du, dv = rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
        t = rng.uniform(0.0, 0.2)

        def position(u0=u0, v0=v0, du=du, dv=dv, t=t):
            t = Jet1.variable(t)
            return surface.evaluator(u0 + du * t + 0.05 * t * t, v0 + dv * t)

        got = _outcomes(lambda: _CurveJets(coefficients(position()),
                                           surface.scale, t), _float_queries)
        want = _outcomes(lambda: _JetCurveJets(position(), surface.scale, t),
                         _reference_queries)
        assert got == want, (u0, v0, t)
