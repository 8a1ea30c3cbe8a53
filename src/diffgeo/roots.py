"""Scalar root finding on a sign-changing bracket.

Secant steps between the bracket ends; a bisection step replaces any secant
step that leaves the bracket, and the sign change is kept inside it, so
convergence is guaranteed for continuous functions.  The ``reparam``
verification suite uses it to find the parameter of a reparameterized
curve.
"""

from .errors import NoConvergence

__all__ = ["root_find"]

_MAX_ITER = 100


def root_find(f, bracket, tol=1e-12, max_iter=_MAX_ITER):
    """Return x in ``bracket = (a, b)`` with ``|f(x)| <= tol``; f(a) and
    f(b) must differ in sign."""
    a, b = float(bracket[0]), float(bracket[1])
    fa, fb = f(a), f(b)
    if abs(fa) <= tol:
        return a
    if abs(fb) <= tol:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("root_find needs a bracket whose ends differ in sign")
    best_x, best_f = (a, fa) if abs(fa) < abs(fb) else (b, fb)

    for _ in range(max_iter):
        x = b - fb * (b - a) / (fb - fa)
        lo, hi = (a, b) if a < b else (b, a)
        if not (lo < x < hi):
            x = 0.5 * (a + b)
        fx = f(x)
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if abs(fx) <= tol:
            return x
        if (fa < 0.0) != (fx < 0.0):
            b, fb = x, fx
        else:
            a, fa = x, fx
        if abs(b - a) <= 4e-16 * max(1.0, abs(a), abs(b)):
            # bracket exhausted at float resolution; |f| cannot improve
            raise NoConvergence(
                f"bracket collapsed with |f|={abs(best_f):.3e} > tol",
                best=(best_x, best_f))

    raise NoConvergence(
        f"no root within {max_iter} iterations (best |f|={abs(best_f):.3e})",
        best=(best_x, best_f))
