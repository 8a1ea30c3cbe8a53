"""Shared helpers: finite-difference oracles, random expression trees,
and frequently used shapes."""

import collections
import math
import random

import pytest

from diffgeo import catalog, expr, jets
from diffgeo.errors import ArityError, UnknownIdentifier
from diffgeo.expr import BinOp, Call, Const, Neg, Num, ShapeDefinition, Var


# --------------------------------------------------------------------------
# finite-difference oracles (independent of the jet implementation)
# --------------------------------------------------------------------------

def _stencil(f, x, h, order):
    fm2, fm1, f0, fp1, fp2 = (f(x - 2 * h), f(x - h), f(x), f(x + h),
                              f(x + 2 * h))
    if order == 1:
        return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
    if order == 2:
        return (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
    if order == 3:
        return (-fm2 + 2 * fm1 - 2 * fp1 + fp2) / (2 * h ** 3)
    return (fm2 - 4 * fm1 + 6 * f0 - 4 * fp1 + fp2) / h ** 4


def fd_derivative(f, x, order, h=None):
    """5-point central stencils, Richardson-extrapolated for orders 3-4."""
    if order <= 2:
        h = h or 1e-2
        d_h = _stencil(f, x, h, order)
        d_h2 = _stencil(f, x, 0.5 * h, order)
        return (16.0 * d_h2 - d_h) / 15.0
    h = h or 0.08
    vals = [_stencil(f, x, h / 2 ** k, order) for k in range(3)]
    r1 = [(4 * vals[i + 1] - vals[i]) / 3 for i in range(2)]
    return (16.0 * r1[1] - r1[0]) / 15.0


def fd_partial(f, u, v, iu, iv, h=5e-3):
    """Mixed partial by nested central differences (orders <= 3 total)."""
    if iu > 0:
        return (fd_partial(lambda uu, vv: f(uu + h, vv), u, v, iu - 1, iv, h)
                - fd_partial(lambda uu, vv: f(uu - h, vv), u, v, iu - 1, iv, h)
                ) / (2 * h)
    if iv > 0:
        return (fd_partial(lambda uu, vv: f(uu, vv + h), u, v, iu, iv - 1, h)
                - fd_partial(lambda uu, vv: f(uu, vv - h), u, v, iu, iv - 1, h)
                ) / (2 * h)
    return f(u, v)


# --------------------------------------------------------------------------
# random expression trees
# --------------------------------------------------------------------------

_SAFE_FUNCTIONS = ("sin", "cos", "exp", "sinh", "cosh", "tanh", "atan")
_ALL_FUNCTIONS = _SAFE_FUNCTIONS + ("tan", "log", "sqrt", "asin", "acos")


def random_tree(rng, depth, var_names=("t",), functions=_ALL_FUNCTIONS):
    """Random Expr tree of depth <= ``depth`` over the given variables."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(round(rng.uniform(0.1, 3.0), 3))
        return Var(rng.choice(var_names))
    pick = rng.random()
    if pick < 0.15:
        return Neg(random_tree(rng, depth - 1, var_names, functions))
    if pick < 0.40:
        return Call(rng.choice(functions),
                    random_tree(rng, depth - 1, var_names, functions))
    if pick < 0.52:
        return BinOp("^", random_tree(rng, depth - 1, var_names, functions),
                     Num(float(rng.randint(2, 3))))
    op = rng.choice("+-*/")
    return BinOp(op, random_tree(rng, depth - 1, var_names, functions),
                 random_tree(rng, depth - 1, var_names, functions))


EVAL_SAFE = _SAFE_FUNCTIONS


# --------------------------------------------------------------------------
# reference evaluator (independent of the generated code)
# --------------------------------------------------------------------------

def reference_eval(node, env):
    """The documented semantics of an Expr tree as a plain recursive walk:
    ``env`` maps identifiers to floats or jets, a divisor is evaluated
    before its dividend and divided by ``expr._div``, '^' is
    ``jets.power``, a call goes to ``jets.FUNCTIONS``, and an identifier
    fails in one of three ways."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return {"pi": math.pi}[node.name]
    if isinstance(node, Var):
        if node.name not in env:
            raise UnknownIdentifier(f"undeclared identifier {node.name!r}")
        return env[node.name]
    if isinstance(node, Neg):
        return -reference_eval(node.arg, env)
    if isinstance(node, Call):
        if node.fn in jets.FUNCTIONS:
            return jets.FUNCTIONS[node.fn](reference_eval(node.arg, env))
        if node.fn in env or node.fn == "pi":
            raise ArityError(f"{node.fn!r} is not a function")
        raise UnknownIdentifier(f"unknown function {node.fn!r}")
    if node.op == "/":
        divisor = reference_eval(node.right, env)
        return expr._div(reference_eval(node.left, env), divisor)
    left = reference_eval(node.left, env)
    right = reference_eval(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return jets.power(left, right)


# --------------------------------------------------------------------------
# shapes
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def sphere():
    return catalog.make("sphere")


@pytest.fixture(scope="session")
def sphere2():
    return catalog.make("sphere", R=2.0)


@pytest.fixture(scope="session")
def torus13():
    return catalog.make("torus", r=1.0, R=3.0)


@pytest.fixture(scope="session")
def plane():
    return catalog.make("plane")


@pytest.fixture(scope="session")
def catenoid():
    return catalog.make("catenoid")


@pytest.fixture(scope="session")
def helix_curve():
    return catalog.make("helix")


def surface_samples(name, shape, rng, n):
    ent = catalog.entry(name)
    rect = ent.sample_domain or shape.domain
    return [(rng.uniform(rect[0], rect[1]), rng.uniform(rect[2], rect[3]))
            for _ in range(n)]


def count_evals(monkeypatch):
    """Patch ShapeDefinition.eval to count shape evaluations by the kind
    of their first argument ('Jet2' or 'Jet1'); returns the Counter."""
    real = ShapeDefinition.eval
    counts = collections.Counter()

    def counted(self, *args, **kwargs):
        counts[type(args[0]).__name__] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ShapeDefinition, "eval", counted)
    return counts
