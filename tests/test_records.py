"""The result and spec types are plain classes (diffgeo.records): frozen
types refuse assignment, specs compare and hash by value, and every type
prints, compares, pickles and copies by its fields."""

import copy
import pickle

import pytest

from diffgeo import catalog, curvatures, forms, frenet
from diffgeo.curves import CurveClass, OsculatingCircle, OsculatingSphere
from diffgeo.expr import Token, load_definition
from diffgeo.ode import OdeResult, OdeSpec
from diffgeo.quadrature import QuadSpec
from diffgeo.surfacecurves import GaussBonnetBudget, GeodesicPath
from diffgeo.surfaces import MetricData
from diffgeo.vectors import Vec3

SHAPE_TEXT = """
surface bowl
param u in [0, 1]
param v in [0, 1]
const a = 2
x = u
y = v
z = a*u*v
"""


def _frozen():
    """One object of each frozen type, and a field it has."""
    return [
        (load_definition(SHAPE_TEXT), "kind"),
        (OdeSpec(), "tol"),
        (QuadSpec(), "max_depth"),
        (catalog.entry("torus"), "params"),
        (Token("number", "1.5", 0), "lexeme"),
        (CurveClass("Helix", 0.8, 0.4, 0.0), "kind"),
        (OsculatingCircle(Vec3(0.0, 0.0, 0.0), 1.0), "radius"),
    ]


@pytest.mark.parametrize("obj, field", _frozen(),
                         ids=lambda x: type(x).__name__
                         if not isinstance(x, str) else x)
def test_frozen_types_refuse_assignment(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unknown_field = 1
    assert getattr(obj, field) is before


def test_definition_keeps_its_cached_properties():
    definition = load_definition(SHAPE_TEXT)
    assert definition._kernel is definition._kernel
    assert tuple(definition.eval(0.5, 0.25)) == (0.5, 0.25, 0.25)


@pytest.mark.parametrize("cls, kwargs, other", [
    (OdeSpec, {"tol": 1e-8, "min_step": 1e-12, "max_steps": 50},
     {"max_steps": 51}),
    (QuadSpec, {"tol": 1e-8, "max_depth": 12}, {"max_depth": 13}),
])
def test_specs_compare_and_hash_by_value(cls, kwargs, other):
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != cls(**{**kwargs, **other})
    assert OdeSpec() != QuadSpec() and OdeSpec() == OdeSpec()
    assert repr(a) == (cls.__name__ + "("
                       + ", ".join(f"{k}={v!r}" for k, v in kwargs.items())
                       + ")")


def test_spec_defaults_and_checks():
    assert (OdeSpec().tol, OdeSpec().min_step, OdeSpec().max_steps) == (
        1e-10, 1e-14, 100_000)
    assert (QuadSpec().tol, QuadSpec().max_depth) == (1e-10, 30)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        OdeSpec(tol=0.0)


def test_a_new_spec_replaces_one_field():
    spec = OdeSpec(tol=1e-6, min_step=1e-9, max_steps=10)
    tighter = OdeSpec(tol=1e-8, min_step=spec.min_step,
                      max_steps=spec.max_steps)
    assert (tighter.tol, tighter.min_step, tighter.max_steps) == (
        1e-8, 1e-9, 10)


def _results():
    torus = catalog.make("torus")
    return [
        OdeSpec(tol=1e-7), QuadSpec(max_depth=4), Token("paren", "(", 3),
        OdeResult(ts=[0.0, 1.0], ys=[(1.0,), (2.0,)], n_steps=3),
        frenet(catalog.make("helix"), 1.0),
        forms(torus, 0.3, 0.4), curvatures(torus, 0.3, 0.4),
        GaussBonnetBudget(1.0, 2.0, 3.0),
        GeodesicPath(None, [0.0], [(0.0, 0.0, 1.0, 0.0)], 0.0),
        CurveClass("Planar", 1.0, 0.0, 0.0),
        OsculatingSphere(Vec3(1.0, 2.0, 3.0), 4.0),
    ]


@pytest.mark.parametrize("obj", _results(), ids=lambda x: type(x).__name__)
def test_results_pickle_copy_and_print_by_fields(obj):
    copies = (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj),
              copy.copy(obj))
    for again in copies:
        assert type(again) is type(obj) and again == obj
    assert repr(obj) == (type(obj).__name__ + "(" + ", ".join(
        f"{k}={getattr(obj, k)!r}" for k in obj._fields) + ")")


def test_mutable_results_compare_by_value_and_do_not_hash():
    a = OdeResult(ts=[0.0], ys=[(1.0,)])
    b = OdeResult([0.0], [(1.0,)])
    assert a == b and a is not b
    b.n_steps += 1
    assert a != b
    with pytest.raises(TypeError):
        hash(a)
    assert OdeResult().ts == [] and OdeResult().ts is not OdeResult().ts


def test_vectors_compare_and_hash_by_value():
    a, b = Vec3(1.0, 2.0, 3.0), Vec3(1.0, 2.0, 3.0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Vec3(1.0, 2.0, -3.0) and a != (1.0, 2.0, 3.0)
    helix = catalog.make("helix")
    assert frenet(helix, 1.0) == frenet(helix, 1.0)


def test_types_of_equal_fields_differ():
    centre = Vec3(0.0, 0.0, 0.0)
    assert OsculatingCircle(centre, 1.0) != OsculatingSphere(centre, 1.0)
    assert not isinstance(OsculatingSphere(centre, 1.0), OsculatingCircle)


def test_rows_are_named_tuples():
    md = MetricData(1.0, 0.0, 2.0, 2.0, (0.0,) * 6)
    assert md == (1.0, 0.0, 2.0, 2.0, (0.0,) * 6)
    assert (md.E, md.F, md.G, md.a) == (1.0, 0.0, 2.0, 2.0)
    assert repr(md) == ("MetricData(E=1.0, F=0.0, G=2.0, a=2.0, "
                        "gamma2=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))")
    cd = curvatures(catalog.make("sphere"), 0.3, 0.4)
    K, H, *_ = cd
    assert (K, H) == (cd.K, cd.H)
    with pytest.raises(AttributeError):
        md.E = 0.0
