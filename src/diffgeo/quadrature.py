"""Adaptive Gauss quadrature in one and two dimensions.

Each panel is handled by a fixed 15-point Gauss-Legendre rule (225-point
tensor rule in 2D); a panel is accepted when splitting it changes the value
by less than its share of the tolerance, with the budget divided equally
between children.  Smooth integrands (the only kind in scope: arc lengths,
areas, curvature integrals) converge in a handful of panels.

``tol`` is absolute.  While a panel is summed, its rounding floor
``50 * eps * sum(|w_i * f(x_i)|) * |panel measure|`` is summed with it;
below that floor the difference between coarse and refined sums is rounding
noise, not an error estimate.  So when a panel's share of the tolerance is
below the floor of its children, the tolerance cannot be certified and
``MaxDepthExceeded`` is raised at once, whatever the difference came out as
(QUADPACK's roundoff detection, ``ier=2``).  It is also raised when the
subdivision reaches ``max_depth``.  Either way it stops at the first failing
panel, and its ``best`` is an estimate of the whole integral: the accepted
panels, the failing panel's refined value and the coarse values of the
panels not yet visited.
"""

import sys
from functools import partial, reduce
from operator import add

from .errors import MaxDepthExceeded
from .records import Frozen, _set

__all__ = ["QuadSpec", "quad_adaptive", "quad2d"]

# 15-point Gauss-Legendre rule on [-1, 1]: the centre and the positive half
# (the rule is symmetric), as the doubles that round-trip through repr
_HALF_NODES = (0.0, 0.20119409399743451, 0.3941513470775634,
               0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
               0.9372733924007058, 0.9879925180204854)
_HALF_WEIGHTS = (0.2025782419255613, 0.1984314853271116, 0.1861610000155622,
                 0.16626920581699398, 0.13957067792615444,
                 0.10715922046717141, 0.0703660474881084,
                 0.030753241996117203)
_NODES = tuple(-x for x in reversed(_HALF_NODES[1:])) + _HALF_NODES
_WEIGHTS = tuple(reversed(_HALF_WEIGHTS[1:])) + _HALF_WEIGHTS

# rounding floor per unit of sum(|w * f|) times the panel measure
_ROUNDOFF = 50.0 * sys.float_info.epsilon

_BELOW_ROUNDING = "quadrature tolerance below rounding"
_AT_MAX_DEPTH = "quadrature subdivision limit reached"


class QuadSpec(Frozen):
    __slots__ = _fields = ("tol", "max_depth")

    def __init__(self, tol=1e-10, max_depth=30):
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        _set(self, "tol", tol)
        _set(self, "max_depth", max_depth)


class _Halt(Exception):
    """Unwinds the recursion; ``best`` gathers the whole-integral estimate."""

    def __init__(self, best, message):
        super().__init__(message)
        self.best = best
        self.message = message


def _panel1d(f, a, b):
    """Gauss sum over [a, b] and its rounding floor."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0.0
    mag = 0.0
    for x, w in zip(_NODES, _WEIGHTS):
        term = w * f(mid + half * x)
        acc += term
        mag += abs(term)
    return acc * half, _ROUNDOFF * mag * abs(half)


def _adaptive(rule, split, whole, spec):
    """The subdivision both rules share: ``rule(*panel)`` gives a panel's
    Gauss sum and rounding floor, ``split(panel)`` its children, which
    share the parent's tolerance equally."""

    def recurse(panel, coarse, tol, depth):
        parts = split(panel)
        vals, floors = zip(*(rule(*p) for p in parts))
        refined = _sum(vals)
        if tol < _sum(floors):
            raise _Halt(refined, _BELOW_ROUNDING)
        if abs(refined - coarse) <= tol:
            return refined
        if depth >= spec.max_depth:
            raise _Halt(refined, _AT_MAX_DEPTH)
        done = []
        for k, (p, v) in enumerate(zip(parts, vals)):
            try:
                done.append(recurse(p, v, tol / len(parts), depth + 1))
            except _Halt as halt:
                halt.best += _sum(done) + _sum(vals[k + 1:])
                raise
        return _sum(done)

    try:
        return recurse(whole, rule(*whole)[0], spec.tol, 1)
    except _Halt as halt:
        raise MaxDepthExceeded(halt.best, halt.message) from None
    finally:
        del recurse     # it refers to itself: free it, and the integrand



def quad_adaptive(f, interval, spec=QuadSpec()):
    """Integral of ``f`` over ``interval=(a, b)`` within ``spec.tol``."""
    a, b = float(interval[0]), float(interval[1])
    if a == b:
        return 0.0

    def halves(panel):
        lo, hi = panel
        mid = 0.5 * (lo + hi)
        return (lo, mid), (mid, hi)

    return _adaptive(partial(_panel1d, f), halves, (a, b), spec)


def _panel2d(f, u0, u1, v0, v1):
    """Tensor Gauss sum over the rectangle and its rounding floor."""
    um, uh = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
    vm, vh = 0.5 * (v0 + v1), 0.5 * (v1 - v0)
    vs = [vm + vh * xv for xv in _NODES]
    acc = 0.0
    mag = 0.0
    for xu, wu in zip(_NODES, _WEIGHTS):
        u = um + uh * xu
        row = 0.0
        row_mag = 0.0
        for v, wv in zip(vs, _WEIGHTS):
            term = wv * f(u, v)
            row += term
            row_mag += abs(term)
        acc += wu * row
        mag += wu * row_mag
    return acc * uh * vh, _ROUNDOFF * mag * abs(uh * vh)


def quad2d(f, rect, spec=QuadSpec()):
    """Integral of ``f(u, v)`` over ``rect=(u0, u1, v0, v1)``."""
    u0, u1, v0, v1 = (float(x) for x in rect)
    if u0 == u1 or v0 == v1:
        return 0.0

    def quarters(panel):
        a0, a1, b0, b1 = panel
        am, bm = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
        return ((a0, am, b0, bm), (am, a1, b0, bm),
                (a0, am, bm, b1), (am, a1, bm, b1))

    return _adaptive(partial(_panel2d, f), quarters, (u0, u1, v0, v1), spec)


def _sum(values):
    """``values`` added left to right from 0.0: builtin ``sum`` compensates
    since Python 3.12, which would change reports."""
    return reduce(add, values, 0.0)
