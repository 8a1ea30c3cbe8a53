"""Adaptive embedded Runge-Kutta integration.

A single explicit Dormand-Prince 5(4) pair drives every trajectory in the
library (Frenet reconstruction, geodesics, parallel transport).  The Butcher
table is written out as exact rationals so results are reproducible across
platforms.  Each attempted step runs one generated attempt: the stage loop
as straight-line code, made on first use and cached, that adds in the
loop's order, so it gives the loop's bits.  The generic attempt, one per
state size, calls the field at each stage.  A generated surface field
(``expr.surface_program``) carries a fused attempt from the same
generator, with the field's own lines written into each stage in place of
the call; it gives the generic attempt's bits over that field and raises
what it raises, with no call per stage.  One call
integrates a whole trajectory through a list of sample times and returns
the state at each sample and nothing else.  By default steps are clamped
to land on each sample exactly, never interpolated onto it, so samples
carry full integration accuracy.  With ``dense`` the steps follow error
control alone and land only on the last time; the samples inside a step
are read from the pair's order-4 continuous extension (Hairer, Norsett &
Wanner, *Solving ODEs I*, 2nd ed., II.6), which costs no further field
call.  :func:`linspace` builds evenly spaced samples that end exactly at
the last time.

Step control has three settings, ``OdeSpec(tol, min_step, max_steps)``.  One
tolerance is both the absolute and the relative part of the local error
bound: each component's error estimate is divided by
``tol + tol * max(|y|, |y_new|)``, the larger of its values at the two
ends of the step, and a step passes when the RMS of those ratios is at
most 1.  The step size has no cap.  A step shortened
to land on a sample does not shrink the next one, which starts from the
larger of the size proposed before the shortening and the new proposal.
"""

from functools import lru_cache

from .errors import MaxStepsExceeded, StepUnderflow
from .records import Frozen, Record, _set

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
# the continuous extension's order-4 term (Shampine, Math. Comp. 46, 1986)
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)


class OdeSpec(Frozen):
    """Step control for :func:`ode_solve`: error tolerance, smallest step,
    most accepted steps."""

    __slots__ = _fields = ("tol", "min_step", "max_steps")

    def __init__(self, tol=1e-10, min_step=1e-14, max_steps=100_000):
        if tol <= 0.0:
            raise ValueError("tolerance must be positive")
        _set(self, "tol", tol)
        _set(self, "min_step", min_step)
        _set(self, "max_steps", max_steps)


class OdeResult(Record):
    """Sampled trajectory: state ``ys[i]`` (a tuple) at each sample time
    ``ts[i]`` reached; ``n_steps`` counts the accepted steps."""

    __slots__ = _fields = ("ts", "ys", "n_steps")

    def __init__(self, ts=None, ys=None, n_steps=0):
        self.ts = [] if ts is None else ts
        self.ys = [] if ys is None else ys
        self.n_steps = n_steps

    @property
    def y_end(self):
        return self.ys[-1]


def linspace(t0, t1, n):
    """``n >= 2`` evenly spaced times from ``t0`` to exactly ``t1``."""
    t0, t1 = float(t0), float(t1)
    return [t0 + (t1 - t0) * k / (n - 1) for k in range(n - 1)] + [t1]


def _tup(items):
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _compile(lines, filename, namespace):
    """Run generated ``lines`` in ``namespace``: the one place they compile."""
    exec(compile("\n".join(lines), filename, "exec"), namespace)
    return namespace


@lru_cache(maxsize=32)     # callers use a few state sizes
def _attempt(n):
    """The generic attempt for states of ``n`` components (see
    :func:`attempt_source`), generated on first use."""
    return _compile(attempt_source(n), f"<dopri5 attempt, {n} components>",
                    {})["attempt"]


def attempt_source(n, fused=None):
    """The lines of a Dormand-Prince attempt for states of ``n`` components:
    ``attempt(f, t, y, k1, hs, tol)`` evaluates the six further stages, and
    returns the 5th-order state, its derivative (FSAL), the RMS of the
    embedded error estimate scaled by the mixed tolerance and the stage
    derivatives (k3, k4, k5, k6) that the continuous extension reads
    besides k1 and k7.  The code is the stage loop written out with literal
    coefficients and zero terms left out, adding in the loop's order: a
    stage state is ``y + c1*hs*k1 + c2*hs*k2 + ...`` with each ``c*hs``
    rounded once, and an error component is ``(0.0 + e1*k1 + ...) * hs``.
    The 5th-order weights are the last stage's, so its state is the result.

    A stage calls ``f(t + c*hs, state)``, unless ``fused`` writes a
    generated field into the attempt: ``(time, names, body, value,
    defaults)``, the names that the field's code reads for t (or None)
    and for each component of y, its lines, the source of each component
    of its value, and its parameters with defaults, which the attempt
    takes after its own.  A stage then sets those names to its time (if
    the code reads it) and state and runs the lines, the same float
    operations as the call: the attempt equals the generic one over that
    field, bit for bit, and raises what it raises."""
    assert _B5 == _A[6] + (0.0,)
    idx = range(n)
    if fused:
        t_name, names, body, value, defaults = fused
    extra = "".join(f", {d}" for d in defaults) if fused else ""
    lines = [f"def attempt(f, t, y, k1, hs, tol{extra}):",
             f"    {_tup([f'y{i}' for i in idx])} = y",
             f"    {_tup([f'k1_{i}' for i in idx])} = k1"]

    def stage(s, state):
        """The lines that set k<s>_<i>, and the tuple k<s> from k3 on, to
        the field at stage ``s``'s time and ``state``."""
        time = "t + hs" if _C[s - 1] == 1.0 else f"t + {_C[s - 1]!r} * hs"
        parts = _tup([f"k{s}_{i}" for i in idx])
        if fused is None:
            call = f"f({time}, {'y_new' if s == 7 else _tup(state)})"
            if s == 2:
                return [f"    {parts} = {call}"]
            return [f"    k{s} = {call}", f"    {parts} = k{s}"]
        out = [f"    {name} = {x}" for name, x in zip(names, state)]
        if t_name:
            out.append(f"    {t_name} = {time}")
        out += [*body, *(f"    k{s}_{i} = {x}" for i, x in enumerate(value))]
        return out if s == 2 else out + [f"    k{s} = {parts}"]

    for s in range(1, 7):
        terms = [(j + 1, c) for j, c in enumerate(_A[s]) if c != 0.0]
        lines += [f"    h{j} = {c!r} * hs" for j, c in terms]
        state = [f"y{i}" + "".join(f" + h{j} * k{j}_{i}" for j, _ in terms)
                 for i in idx]
        if s < 6:
            lines += stage(s + 1, state)
    lines += [f"    n{i} = {x}" for i, x in enumerate(state)]
    lines.append(f"    y_new = {_tup([f'n{i}' for i in idx])}")
    lines += stage(7, [f"n{i}" for i in idx])
    for i in idx:
        err = "".join(f" + {c!r} * k{j + 1}_{i}"
                      for j, c in enumerate(_ERR) if c != 0.0)
        lines += [f"    e = (0.0{err}) * hs",
                  f"    a = abs(y{i})",
                  f"    b = abs(n{i})",
                  f"    q{i} = e / (tol + tol * (b if b > a else a))"]  # max(a, b)
    squares = " + ".join(f"q{i} * q{i}" for i in idx)
    lines.append(f"    return y_new, k7, (({squares}) / {n}) ** 0.5, "
                 "(k3, k4, k5, k6)")
    return lines


@lru_cache(maxsize=32)
def _dense(n):
    """The continuous extension for states of ``n`` components, generated
    on first use: ``dense(y, yn, k1, k3, k4, k5, k6, k7, hs, thetas)``
    gives the states at ``t + theta * hs`` for each theta of the step
    from (t, y) to yn.  Per component, with d = yn - y, b = hs*k1 - d,
    c = d - hs*k7 - b and e = (0.0 + d1*k1 + d3*k3 + ...) * hs (the
    ``_D`` weights), a state is
    ``y + th * (d + (1 - th) * (b + th * (c + (1 - th) * e)))``: of order
    4, matching y and yn with their derivatives k1 and k7 at the ends."""
    idx = range(n)
    lines = ["def dense(y, yn, k1, k3, k4, k5, k6, k7, hs, thetas):"]
    for name in ("y", "yn", "k1", "k3", "k4", "k5", "k6", "k7"):
        lines.append(f"    {_tup([f'{name}_{i}' for i in idx])} = {name}")
    for i in idx:
        e = "".join(f" + {c!r} * k{j + 1}_{i}"
                    for j, c in enumerate(_D) if c != 0.0)
        lines += [f"    d{i} = yn_{i} - y_{i}",
                  f"    b{i} = hs * k1_{i} - d{i}",
                  f"    c{i} = d{i} - hs * k7_{i} - b{i}",
                  f"    e{i} = (0.0{e}) * hs"]
    reads = [f"y_{i} + th * (d{i} + th1 * (b{i} + th * (c{i} + th1 * e{i})))"
             for i in idx]
    lines += ["    out = []",
              "    for th in thetas:",
              "        th1 = 1.0 - th",
              f"        out.append({_tup(reads)})",
              "    return out"]
    return _compile(lines, f"<dopri5 dense, {n} components>", {})["dense"]


def ode_solve(field_fn, y0, ts, spec=OdeSpec(), *, post_step=None, stop=None,
              dense=False):
    """Integrate ``y' = field_fn(t, y)`` from ``y0`` at ``ts[0]`` through the
    strictly monotone sample times ``ts``; a span is ``(t0, t1)``.

    ``post_step`` may replace the state after each accepted step (used to
    re-orthonormalize frames); it receives ``(t, y)`` and returns the
    adjusted state.  ``stop(t, y)`` is asked at each sample after the
    first; when it returns true the solve ends with that sample.  An
    exception raised during the solve, by step control or by the field,
    carries the samples reached so far as ``partial`` (an OdeResult).

    With ``dense`` the steps land only on ``ts[-1]``, and each sample
    before it is read from the continuous extension of the step that
    passes it (order 4, less accurate than a landed sample).

    A field that carries its own attempt in ``field_fn.attempt`` (a
    generated surface field does) is stepped by it; any other callable by
    the generic attempt, which calls it at each stage.
    """
    ts = [float(t) for t in ts]
    if len(ts) < 2 or ts[-1] == ts[0]:
        raise ValueError("degenerate integration span")
    direction = 1.0 if ts[-1] > ts[0] else -1.0
    if any((b - a) * direction <= 0.0 for a, b in zip(ts, ts[1:])):
        raise ValueError("sample times must be strictly monotone")

    y = tuple(float(v) for v in y0)
    attempt = getattr(field_fn, "attempt", None) or _attempt(len(y))
    t = ts[0]
    res = OdeResult(ts=[t], ys=[y])
    # a first step below min_step only where the whole span is shorter
    span = abs(ts[-1] - t)
    h = max(span / 16.0, min(span, spec.min_step))
    read = _reader(ts, res, direction, _dense(len(y)), stop) if dense else None
    try:
        f_now = field_fn(t, y)
        for target in (ts[-1:] if dense else ts[1:]):
            while (target - t) * direction > 0.0:
                if res.n_steps >= spec.max_steps:
                    raise MaxStepsExceeded(
                        f"ODE integration exceeded {spec.max_steps} steps "
                        f"at t={t!r}")
                remaining = abs(target - t)
                clamped = h >= remaining
                h_step = remaining if clamped else h
                hs = h_step * direction

                # FSAL: k7 is the derivative at (t + h, y_new)
                y_new, k7, err, ks = attempt(field_fn, t, y, f_now, hs,
                                             spec.tol)

                if err <= 1.0:
                    t_new = target if clamped else t + hs
                    if read is not None and read(t, y, y_new, f_now, ks, k7,
                                                 hs, t_new):
                        return res      # stop fired on a read sample
                    t = t_new
                    y = y_new
                    if post_step is not None:
                        y = tuple(post_step(t, y))
                        f_now = field_fn(t, y)
                    else:
                        f_now = k7
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
            res.ys.append(y)
            if stop is not None and stop(t, res.ys[-1]):
                break
    except Exception as exc:
        exc.partial = res
        raise
    return res


def _reader(ts, res, direction, dense, stop):
    """For a dense solve: ``read(t, y, y_new, k1, ks, k7, hs, t_new)``
    appends to ``res`` the samples of ``ts`` before ``ts[-1]`` that the
    accepted step (t, y) -> (t_new, y_new) passes (a sample at t_new is
    left to the next step, which reads it at theta 0), asking ``stop`` at
    each; it returns true when ``stop`` did."""
    nxt = 1

    def read(t, y, y_new, k1, ks, k7, hs, t_new):
        nonlocal nxt
        k = j = nxt
        while (ts[j] - t_new) * direction < 0.0:    # ts[-1] ends the scan
            j += 1
        if j == k:
            return False
        nxt = j
        for s, y_s in zip(ts[k:j], dense(y, y_new, k1, *ks, k7, hs,
                                         [(s - t) / hs for s in ts[k:j]])):
            res.ts.append(s)
            res.ys.append(y_s)
            if stop is not None and stop(s, y_s):
                return True
        return False

    return read
