"""Built-in parameterized shapes with documented domains and orientations,
plus closed-form reference values for cross-checking the kernels.

Every builder goes through the same definition-text pipeline as user files,
so the catalog doubles as a regression suite for the expression front-end.

Normal orientation is fixed by parameter order (n = E1 x E2 normalized);
each entry documents which geometric side that is.  Notable choices:

* sphere / ellipsoid / cylinder: outward.  With outward normals the mean
  curvature of a sphere is -1/R.
* torus (u = axial angle theta, v = tube angle phi): the normal points
  into the tube, which makes K = sin v / (r (R + r sin v)) and
  H = (R + 2 r sin v) / (2 r (R + r sin v)) hold with positive sign at the
  outer equator (v = pi/2).
"""

import math

from .curves import ParametricCurve
from .errors import DiffGeoError, InvalidParameter, NoReference, UnknownShape
from .expr import load_definition
from .records import Frozen, _set
from .surfaces import ParametricSurface

__all__ = ["CatalogEntry", "make", "build", "reference", "entry", "names"]

_TWO_PI = 2.0 * math.pi


class CatalogEntry(Frozen):
    """``kind`` is curve or surface; ``params`` maps each parameter name to
    its default value; ``template`` is the definition text with {param}
    slots; ``sample_domain`` is a shrunk domain for random and grid
    sampling; ``validate`` is a callable(params) raising InvalidParameter."""

    __slots__ = _fields = ("name", "kind", "params", "template",
                           "orientation", "periodic", "is_closed", "chi",
                           "sample_domain", "references", "validate")

    def __init__(self, name, kind, params, template, orientation="",
                 periodic=(None, None), is_closed=False, chi=None,
                 sample_domain=None, references=None, validate=None):
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "params", params)
        _set(self, "template", template)
        _set(self, "orientation", orientation)
        _set(self, "periodic", periodic)
        _set(self, "is_closed", is_closed)
        _set(self, "chi", chi)
        _set(self, "sample_domain", sample_domain)
        _set(self, "references", {} if references is None else references)
        _set(self, "validate", validate)

    def definition(self, overrides=None):
        params = dict(self.params)
        if overrides:
            unknown = set(overrides) - set(params)
            if unknown:
                raise InvalidParameter(
                    f"{self.name} has no parameter(s) {sorted(unknown)}")
            params.update(overrides)
        if self.validate is not None:
            self.validate(params)
        fmt = {k: (v if isinstance(v, str) else repr(float(v)))
               for k, v in params.items()}
        return load_definition(self.template.format(**fmt)), params


_REGISTRY = {}


def _register(entry_obj):
    _REGISTRY[entry_obj.name] = entry_obj


def names():
    return sorted(_REGISTRY)


def entry(name):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownShape(name, known=_REGISTRY) from None


def make(name, **overrides):
    """Build the named shape as a ParametricCurve or ParametricSurface."""
    ent = entry(name)
    definition, _ = ent.definition(overrides)
    return build(definition, periodic=ent.periodic)


def build(definition, periodic=(None, None)):
    """A 'curve' or 'surface' ShapeDefinition as a ParametricCurve or
    ParametricSurface.  The declared domain is sampling metadata, so
    evaluation does not check it (shooting solvers probe beyond it)."""
    if definition.kind == "curve":
        (pname,) = definition.params
        return ParametricCurve(None, definition.params[pname],
                               definition=definition)
    if definition.kind == "surface":
        pnames = list(definition.params)
        dom = definition.params[pnames[0]] + definition.params[pnames[1]]
        return ParametricSurface(
            lambda u, v: definition.eval(u, v, check_domain=False), dom,
            periodic=periodic, definition=definition)
    raise DiffGeoError(f"a shape must be a 'curve' or 'surface' definition, "
                       f"got a {definition.kind!r}")


def reference(name, overrides=None, point=None, quantity=None):
    """Closed-form reference values: a map quantity -> value at ``point``.

    With ``quantity`` given, returns that single value; raises NoReference
    when the entry has no closed form for it."""
    ent = entry(name)
    params = dict(ent.params)
    if overrides:
        params.update(overrides)
    if ent.validate is not None:
        ent.validate(params)
    if quantity is not None:
        fn = ent.references.get(quantity)
        if fn is None:
            raise NoReference(f"{name} has no reference for {quantity!r}")
        return fn(params, point)
    return {q: fn(params, point) for q, fn in sorted(ent.references.items())}


# --------------------------------------------------------------------------
# curves
# --------------------------------------------------------------------------

_register(CatalogEntry(
    name="line", kind="curve",
    params={"px": 0.0, "py": 0.0, "pz": 0.0, "dx": 1.0, "dy": 2.0, "dz": 3.0},
    template="""
curve line
param t in [-5, 5]
const px = {px}
const py = {py}
const pz = {pz}
const dx = {dx}
const dy = {dy}
const dz = {dz}
x = px + dx*t
y = py + dy*t
z = pz + dz*t
""",
    references={"kappa": lambda p, pt: 0.0, "tau": lambda p, pt: 0.0},
))

_register(CatalogEntry(
    name="circle", kind="curve",
    params={"R": 1.0},
    template="""
curve circle
param t in [0, 2*pi]
const R = {R}
x = R*cos(t)
y = R*sin(t)
z = 0
""",
    validate=lambda p: _positive(p, "R"),
    references={"kappa": lambda p, pt: 1.0 / p["R"], "tau": lambda p, pt: 0.0},
))

_register(CatalogEntry(
    name="ellipse", kind="curve",
    params={"a": 2.0, "b": 1.0},
    template="""
curve ellipse
param t in [0, 2*pi]
const a = {a}
const b = {b}
x = a*cos(t)
y = b*sin(t)
z = 0
""",
    validate=lambda p: (_positive(p, "a"), _positive(p, "b")),
    references={
        "kappa": lambda p, t: (p["a"] * p["b"]
                               / (p["a"] ** 2 * math.sin(t) ** 2
                                  + p["b"] ** 2 * math.cos(t) ** 2) ** 1.5),
        "tau": lambda p, t: 0.0,
    },
))

_register(CatalogEntry(
    name="helix", kind="curve",
    params={"a": 1.0, "b": 0.5},
    template="""
curve helix
param t in [-4*pi, 4*pi]
const a = {a}
const b = {b}
x = a*cos(t)
y = a*sin(t)
z = b*t
""",
    validate=lambda p: _positive(p, "a"),
    references={
        "kappa": lambda p, t: p["a"] / (p["a"] ** 2 + p["b"] ** 2),
        "tau": lambda p, t: p["b"] / (p["a"] ** 2 + p["b"] ** 2),
    },
))

_register(CatalogEntry(
    name="spherical-spiral", kind="curve",
    params={"c": 0.2},
    template="""
curve spherical-spiral
param t in [0, 2*pi]
const c = {c}
x = cos(t)*cos(c*t)
y = sin(t)*cos(c*t)
z = sin(c*t)
""",
))


# --------------------------------------------------------------------------
# surfaces
# --------------------------------------------------------------------------

def _positive(p, *keys):
    for k in keys:
        if p[k] <= 0.0:
            raise InvalidParameter(f"parameter {k} must be positive, got {p[k]!r}")


def _torus_valid(p):
    _positive(p, "r", "R")
    if p["r"] >= p["R"]:
        raise InvalidParameter(
            f"torus needs r < R, got r={p['r']!r}, R={p['R']!r}")


_register(CatalogEntry(
    name="plane", kind="surface",
    params={},
    template="""
surface plane
param u in [-5, 5]
param v in [-5, 5]
x = u
y = v
z = 0
""",
    orientation="normal +z",
    references={"K": lambda p, pt: 0.0, "H": lambda p, pt: 0.0,
                "kappa1": lambda p, pt: 0.0, "kappa2": lambda p, pt: 0.0},
))

_register(CatalogEntry(
    name="plane-polar", kind="surface",
    params={},
    template="""
surface plane-polar
param u in [1e-9, 10]
param v in [0, 2*pi]
x = u*cos(v)
y = u*sin(v)
z = 0
""",
    orientation="normal +z; chart singular as u -> 0",
    periodic=(None, _TWO_PI),
    sample_domain=(0.2, 9.0, 0.0, _TWO_PI),
    references={"K": lambda p, pt: 0.0, "H": lambda p, pt: 0.0},
))

_register(CatalogEntry(
    name="sphere", kind="surface",
    params={"R": 1.0},
    template="""
surface sphere
param u in [-pi, pi]
param v in [-pi/2, pi/2]
const R = {R}
x = R*cos(u)*cos(v)
y = R*sin(u)*cos(v)
z = R*sin(v)
""",
    orientation="normal outward (H = -1/R); chart singular at the poles",
    periodic=(_TWO_PI, None),
    is_closed=True, chi=2,
    sample_domain=(-math.pi, math.pi, -1.35, 1.35),
    validate=lambda p: _positive(p, "R"),
    references={
        "K": lambda p, pt: 1.0 / p["R"] ** 2,
        "H": lambda p, pt: -1.0 / p["R"],
        "kappa1": lambda p, pt: -1.0 / p["R"],
        "kappa2": lambda p, pt: -1.0 / p["R"],
    },
))

_register(CatalogEntry(
    name="cylinder", kind="surface",
    params={"rho": 1.0},
    template="""
surface cylinder
param u in [-pi, pi]
param v in [-8, 8]
const rho = {rho}
x = rho*cos(u)
y = rho*sin(u)
z = v
""",
    orientation="normal outward (circular kappa = -1/rho)",
    periodic=(_TWO_PI, None),
    validate=lambda p: _positive(p, "rho"),
    references={
        "K": lambda p, pt: 0.0,
        "H": lambda p, pt: -0.5 / p["rho"],
        "kappa1": lambda p, pt: 0.0,
        "kappa2": lambda p, pt: -1.0 / p["rho"],
    },
))

_register(CatalogEntry(
    name="cone", kind="surface",
    params={"c": 1.0},
    template="""
surface cone
param u in [0, 5]
param v in [-pi, pi]
const c = {c}
x = u*cos(v)
y = u*sin(v)
z = c*u
""",
    orientation="normal tilts toward +z; inherent singularity at the apex u=0",
    periodic=(None, _TWO_PI),
    sample_domain=(0.05, 4.5, -math.pi, math.pi),
    validate=lambda p: _positive(p, "c"),
    references={
        "K": lambda p, pt: 0.0,
        "H": lambda p, pt: p["c"] / (2.0 * pt[0]
                                     * math.sqrt(1.0 + p["c"] ** 2)),
    },
))

_register(CatalogEntry(
    name="ellipsoid", kind="surface",
    params={"a": 1.5, "b": 1.0, "c": 0.75},
    template="""
surface ellipsoid
param u in [-pi, pi]
param v in [-pi/2, pi/2]
const a = {a}
const b = {b}
const c = {c}
x = a*cos(u)*cos(v)
y = b*sin(u)*cos(v)
z = c*sin(v)
""",
    orientation="normal outward; chart singular at the poles",
    periodic=(_TWO_PI, None),
    is_closed=True, chi=2,
    sample_domain=(-math.pi, math.pi, -1.35, 1.35),
    validate=lambda p: (_positive(p, "a", "b", "c")),
))

_register(CatalogEntry(
    name="hyperboloid-one-sheet", kind="surface",
    params={"a": 1.0, "b": 1.0, "c": 1.0},
    template="""
surface hyperboloid-one-sheet
param u in [-pi, pi]
param v in [-1.5, 1.5]
const a = {a}
const b = {b}
const c = {c}
x = a*cosh(v)*cos(u)
y = b*cosh(v)*sin(u)
z = c*sinh(v)
""",
    orientation="normal inward for a=b (toward the axis); K < 0 everywhere",
    periodic=(_TWO_PI, None),
    validate=lambda p: (_positive(p, "a", "b", "c")),
))

_register(CatalogEntry(
    name="hyperboloid-two-sheets", kind="surface",
    params={"a": 1.0, "b": 1.0, "c": 1.0},
    template="""
surface hyperboloid-two-sheets
param u in [-pi, pi]
param v in [0, 1.5]
const a = {a}
const b = {b}
const c = {c}
x = a*cosh(v)
y = b*sinh(v)*cos(u)
z = c*sinh(v)*sin(u)
""",
    orientation="upper sheet (x >= a); chart singular at the vertex v=0",
    periodic=(_TWO_PI, None),
    sample_domain=(-math.pi, math.pi, 0.1, 1.4),
    validate=lambda p: (_positive(p, "a", "b", "c")),
))

_register(CatalogEntry(
    name="elliptic-paraboloid", kind="surface",
    params={"a": 1.0, "b": 1.0},
    template="""
surface elliptic-paraboloid
param u in [-2, 2]
param v in [-2, 2]
const a = {a}
const b = {b}
x = u
y = v
z = u^2/a^2 + v^2/b^2
""",
    orientation="Monge patch, normal tilts toward +z",
    validate=lambda p: (_positive(p, "a", "b")),
))

_register(CatalogEntry(
    name="hyperbolic-paraboloid", kind="surface",
    params={"a": 1.0, "b": 1.0},
    template="""
surface hyperbolic-paraboloid
param u in [-2, 2]
param v in [-2, 2]
const a = {a}
const b = {b}
x = u
y = v
z = u^2/a^2 - v^2/b^2
""",
    orientation="Monge patch, normal tilts toward +z; K < 0 everywhere",
    validate=lambda p: (_positive(p, "a", "b")),
))

_register(CatalogEntry(
    name="quadric-cone", kind="surface",
    params={"a": 1.0, "b": 1.0, "c": 1.0},
    template="""
surface quadric-cone
param u in [0, 5]
param v in [-pi, pi]
const a = {a}
const b = {b}
const c = {c}
x = a*u*cos(v)
y = b*u*sin(v)
z = c*u
""",
    orientation="normal tilts toward +z; inherent singularity at the apex u=0",
    periodic=(None, _TWO_PI),
    sample_domain=(0.05, 4.5, -math.pi, math.pi),
    validate=lambda p: (_positive(p, "a", "b", "c")),
    references={"K": lambda p, pt: 0.0},
))

_register(CatalogEntry(
    name="torus", kind="surface",
    params={"r": 1.0, "R": 3.0},
    template="""
surface torus
param u in [0, 2*pi]
param v in [0, 2*pi]
const r = {r}
const R = {R}
x = (R + r*sin(v))*cos(u)
y = (R + r*sin(v))*sin(u)
z = r*cos(v)
""",
    orientation=("u = axial angle, v = tube angle; normal points into the "
                 "tube, so H > 0 on the outer half"),
    periodic=(_TWO_PI, _TWO_PI),
    is_closed=True, chi=0,
    validate=_torus_valid,
    references={
        "K": lambda p, pt: (math.sin(pt[1])
                            / (p["r"] * (p["R"] + p["r"] * math.sin(pt[1])))),
        "H": lambda p, pt: ((p["R"] + 2.0 * p["r"] * math.sin(pt[1]))
                            / (2.0 * p["r"]
                               * (p["R"] + p["r"] * math.sin(pt[1])))),
    },
))

_register(CatalogEntry(
    name="catenoid", kind="surface",
    params={"c": 1.0},
    template="""
surface catenoid
param u in [-pi, pi]
param v in [-2, 2]
const c = {c}
x = c*cosh(v/c)*cos(u)
y = c*cosh(v/c)*sin(u)
z = v
""",
    orientation="minimal surface (H = 0); normal points toward the axis",
    periodic=(_TWO_PI, None),
    validate=lambda p: _positive(p, "c"),
    references={
        "K": lambda p, pt: -1.0 / (p["c"] ** 2
                                   * math.cosh(pt[1] / p["c"]) ** 4),
        "H": lambda p, pt: 0.0,
    },
))

_register(CatalogEntry(
    name="helicoid", kind="surface",
    params={"c": 1.0},
    template="""
surface helicoid
param u in [-5, 5]
param v in [-6.283185307179586, 6.283185307179586]
const c = {c}
x = u*cos(v)
y = u*sin(v)
z = c*v
""",
    orientation="ruled minimal surface (H = 0)",
    validate=lambda p: _positive(p, "c"),
    references={
        "K": lambda p, pt: -p["c"] ** 2 / (pt[0] ** 2 + p["c"] ** 2) ** 2,
        "H": lambda p, pt: 0.0,
    },
))

_register(CatalogEntry(
    name="enneper", kind="surface",
    params={},
    template="""
surface enneper
param u in [-2, 2]
param v in [-2, 2]
x = -u^3/3 + u + u*v^2
y = -u^2*v - v + v^3/3
z = u^2 - v^2
""",
    orientation="self-intersecting minimal surface (H = 0)",
    references={
        "K": lambda p, pt: -4.0 / (1.0 + pt[0] ** 2 + pt[1] ** 2) ** 4,
        "H": lambda p, pt: 0.0,
    },
))

_register(CatalogEntry(
    name="monge", kind="surface",
    params={"f": "u^2 - v^2"},
    template="""
surface monge
param u in [-2, 2]
param v in [-2, 2]
x = u
y = v
z = {f}
""",
))

_register(CatalogEntry(
    name="pseudosphere", kind="surface",
    params={"rho": 1.0},
    template="""
surface pseudosphere
param u in [-pi, pi]
param v in [0.01, 4]
const rho = {rho}
x = rho*cos(u)/cosh(v)
y = rho*sin(u)/cosh(v)
z = rho*(v - tanh(v))
""",
    orientation="tractrix of revolution; constant K = -1/rho^2; cusp rim at v=0",
    periodic=(_TWO_PI, None),
    sample_domain=(-math.pi, math.pi, 0.15, 3.5),
    validate=lambda p: _positive(p, "rho"),
    references={"K": lambda p, pt: -1.0 / p["rho"] ** 2},
))
