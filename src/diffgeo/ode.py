"""Adaptive embedded Runge-Kutta integration.

A single explicit Dormand-Prince 5(4) pair drives every trajectory in the
library (Frenet reconstruction, geodesics, parallel transport).  The Butcher
table is written out as exact rationals so results are reproducible across
platforms.  One call integrates a whole trajectory through a list of sample
times: steps are clamped to land on each sample exactly, never interpolated
onto it, so samples carry full integration accuracy, and the result holds
the state at each sample and nothing else.  :func:`linspace` builds evenly
spaced samples that end exactly at the last time.

Step control has three settings, ``OdeSpec(tol, min_step, max_steps)``.  One
tolerance is both the absolute and the relative part of the local error
bound ``tol * (1 + |y|)``, and the step size has no cap.  A step shortened
to land on a sample does not shrink the next one, which starts from the
larger of the size proposed before the shortening and the new proposal.
"""

from dataclasses import dataclass, field

from .errors import MaxStepsExceeded, StepUnderflow

__all__ = ["OdeSpec", "OdeResult", "ode_solve", "linspace"]

# Dormand-Prince 5(4), FSAL.  c_i, a_ij, 5th-order b, embedded 4th-order b.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))


@dataclass(frozen=True)
class OdeSpec:
    """Step control for :func:`ode_solve`: error tolerance, smallest step,
    most accepted steps."""

    tol: float = 1e-10
    min_step: float = 1e-14
    max_steps: int = 100_000

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass
class OdeResult:
    """Sampled trajectory: state ``ys[i]`` (a tuple) at each sample time
    ``ts[i]`` reached; ``n_steps`` counts the accepted steps."""

    ts: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    n_steps: int = 0

    @property
    def y_end(self):
        return self.ys[-1]


def linspace(t0, t1, n):
    """``n >= 2`` evenly spaced times from ``t0`` to exactly ``t1``."""
    t0, t1 = float(t0), float(t1)
    return [t0 + (t1 - t0) * k / (n - 1) for k in range(n - 1)] + [t1]


def _weighted_sum(y, ks, h, coeffs):
    n = len(y)
    out = list(y)
    for c, k in zip(coeffs, ks):
        if c == 0.0:
            continue
        ch = c * h
        for i in range(n):
            out[i] += ch * k[i]
    return out


def _error_norm(y, y_new, ks, hs, spec):
    """RMS of the embedded error estimate, scaled by the mixed tolerance."""
    tol = spec.tol
    err = 0.0
    for i in range(len(y)):
        e = 0.0
        for c, k in zip(_ERR, ks):
            if c != 0.0:
                e += c * k[i]
        e *= hs
        sc = tol + tol * max(abs(y[i]), abs(y_new[i]))
        q = e / sc
        err += q * q
    return (err / len(y)) ** 0.5


def ode_solve(field_fn, y0, ts, spec=OdeSpec(), *, post_step=None, stop=None):
    """Integrate ``y' = field_fn(t, y)`` from ``y0`` at ``ts[0]`` through the
    strictly monotone sample times ``ts``; a span is ``(t0, t1)``.

    ``post_step`` may replace the state after each accepted step (used to
    re-orthonormalize frames); it receives ``(t, y)`` and returns the
    adjusted state.  ``stop(t, y)`` is asked at each sample after the
    first; when it returns true the solve ends with that sample.  An
    exception raised during the solve, by step control or by the field,
    carries the samples reached so far as ``partial`` (an OdeResult).
    """
    ts = [float(t) for t in ts]
    if len(ts) < 2 or ts[-1] == ts[0]:
        raise ValueError("degenerate integration span")
    direction = 1.0 if ts[-1] > ts[0] else -1.0
    if any((b - a) * direction <= 0.0 for a, b in zip(ts, ts[1:])):
        raise ValueError("sample times must be strictly monotone")

    y = [float(v) for v in y0]
    t = ts[0]
    res = OdeResult(ts=[t], ys=[tuple(y)])
    # a first step below min_step only where the whole span is shorter
    span = abs(ts[-1] - t)
    h = max(span / 16.0, min(span, spec.min_step))
    try:
        f_now = field_fn(t, tuple(y))
        for target in ts[1:]:
            while (target - t) * direction > 0.0:
                if res.n_steps >= spec.max_steps:
                    raise MaxStepsExceeded(
                        f"ODE integration exceeded {spec.max_steps} steps "
                        f"at t={t!r}")
                remaining = abs(target - t)
                clamped = h >= remaining
                h_step = remaining if clamped else h
                hs = h_step * direction

                ks = [f_now]
                for i in range(1, 7):
                    yi = _weighted_sum(y, ks, hs, _A[i])
                    ks.append(field_fn(t + _C[i] * hs, tuple(yi)))

                y_new = _weighted_sum(y, ks, hs, _B5)
                # FSAL: ks[6] is the derivative at (t + h, y_new)
                err = _error_norm(y, y_new, ks, hs, spec)

                if err <= 1.0:
                    t = target if clamped else t + hs
                    y = y_new
                    if post_step is not None:
                        y = list(post_step(t, tuple(y)))
                        f_now = field_fn(t, tuple(y))
                    else:
                        f_now = ks[6]
                    res.n_steps += 1

                factor = (5.0 if err == 0.0
                          else min(5.0, max(0.2, 0.9 * err ** -0.2)))
                # a step shortened onto a sample does not shrink the next
                h = (max(h, h_step * factor) if clamped and err <= 1.0
                     else h_step * factor)
                if h < spec.min_step < abs(ts[-1] - t):
                    raise StepUnderflow(
                        f"ODE step fell below min_step={spec.min_step!r} "
                        f"at t={t!r}")
            res.ts.append(t)
            res.ys.append(tuple(y))
            if stop is not None and stop(t, res.ys[-1]):
                break
    except Exception as exc:
        exc.partial = res
        raise
    return res
