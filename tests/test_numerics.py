"""ODE integrator, adaptive quadrature and root finding."""

import json
import math
import os
import random
import subprocess
import sys
import zlib

import numpy as np
import pytest

import diffgeo
from diffgeo import ode, quadrature
from diffgeo.errors import (MaxDepthExceeded, MaxStepsExceeded, NoConvergence,
                            StepUnderflow)
from diffgeo.ode import OdeSpec, linspace, ode_solve
from diffgeo.quadrature import QuadSpec, _sum, quad2d, quad_adaptive
from diffgeo.roots import root_find


class TestOde:
    def test_exponential(self):
        res = ode_solve(lambda t, y: (y[0],), (1.0,), (0.0, 1.0))
        assert abs(res.y_end[0] - math.e) <= 1e-9

    def test_constant_field(self):
        res = ode_solve(lambda t, y: (0.0, 0.0), (2.0, -3.0), (0.0, 5.0))
        assert res.y_end == (2.0, -3.0)

    def test_harmonic_oscillator_full_period(self):
        res = ode_solve(lambda t, y: (y[1], -y[0]), (1.0, 0.0),
                        (0.0, 2.0 * math.pi))
        assert abs(res.y_end[0] - 1.0) <= 1e-8
        assert abs(res.y_end[1]) <= 1e-8

    def test_linear_system_matches_matrix_exponential(self):
        def expm(M):
            # Taylor series; fine for the small norms used here
            out = np.eye(M.shape[0])
            term = np.eye(M.shape[0])
            for k in range(1, 40):
                term = term @ M / k
                out = out + term
            return out

        rng = random.Random(42)
        spec = OdeSpec(tol=1e-10)
        for _ in range(5):
            A = np.array([[rng.uniform(-1, 1) for _ in range(3)]
                          for _ in range(3)])
            y0 = np.array([rng.uniform(-1, 1) for _ in range(3)])

            def field(t, y, A=A):
                return tuple(A @ np.asarray(y))

            res = ode_solve(field, tuple(y0), (0.0, 1.5), spec)
            want = expm(1.5 * A) @ y0
            err = max(abs(a - b) for a, b in zip(res.y_end, want))
            bound = 10.0 * (spec.tol + spec.tol * float(np.linalg.norm(want)))
            assert err <= bound

    def test_eval_points_hit_exactly(self):
        grid = [0.0, 0.1, 0.25, 0.777, 1.0]
        res = ode_solve(lambda t, y: (y[0],), (1.0,), grid)
        assert res.ts == grid
        for g, y in zip(res.ts, res.ys):
            assert abs(y[0] - math.exp(g)) <= 1e-9

    def test_samples_must_be_monotone(self):
        for ts in ([0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.3, 1.0], [1.0, 1.0],
                   [0.0]):
            with pytest.raises(ValueError):
                ode_solve(lambda t, y: (y[0],), (1.0,), ts)

    def test_linspace_ends_exactly(self):
        # the hand-written grid t0 + (t1 - t0) * k / (n - 1) ends above or
        # below t1 for these
        for t0, t1, n in ((0.2, 0.9, 257), (7 * 0.1, 1.8, 257),
                          (0.0, 1.511641467708969, 49)):
            grid = linspace(t0, t1, n)
            assert len(grid) == n and grid[0] == t0 and grid[-1] == t1
            assert t0 + (t1 - t0) * (n - 1) / (n - 1) != t1
            assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_backward_integration(self):
        res = ode_solve(lambda t, y: (y[0],), (math.e,), (1.0, 0.0))
        assert abs(res.y_end[0] - 1.0) <= 1e-9

    def test_max_steps_exceeded(self):
        spec = OdeSpec(max_steps=5)
        with pytest.raises(MaxStepsExceeded):
            ode_solve(lambda t, y: (math.cos(40 * t) * 40,), (0.0,),
                      (0.0, 10.0), spec)

    def test_step_underflow(self):
        spec = OdeSpec(min_step=1e-3)
        with pytest.raises(StepUnderflow):
            # steep transition needs steps below the floor
            ode_solve(lambda t, y: (1.0 / (1e-8 + abs(t - 0.5)),), (0.0,),
                      (0.0, 1.0), spec)

    @pytest.mark.parametrize("span", [3e-17, 1e-16, 5e-15, 3e-14])
    def test_span_near_min_step(self, span):
        # shorter than min_step (1e-14) is one step; a few min_steps take
        # a few steps, none of them below min_step
        res = ode_solve(lambda t, y: (math.cos(t),), (math.sin(0.2),),
                        (0.2, 0.2 + span))
        assert res.ts == [0.2, 0.2 + span]
        assert res.n_steps == 1 if span < 1e-14 else 1 <= res.n_steps <= 3
        assert abs(res.y_end[0] - math.sin(0.2 + span)) <= 1e-16

    def test_close_samples_keep_the_step_size(self):
        # a step shortened onto a sample 1e-15 past the last one must not
        # set the size of the next step (it used to fall below min_step)
        ts = [0.0, 0.5, 0.5 + 1e-15, 1.0]
        res = ode_solve(lambda t, y: (1.0,), (0.0,), ts)
        assert res.ts == ts and res.n_steps == 5
        assert all(abs(y[0] - t) <= 1e-15 for t, y in zip(ts, res.ys))

    def test_spec_validation(self):
        for tol in (0.0, -1e-10):
            with pytest.raises(ValueError):
                OdeSpec(tol=tol)

    def test_post_step_hook_applied(self):
        def renorm(t, y):
            n = math.hypot(y[0], y[1])
            return (y[0] / n, y[1] / n)

        res = ode_solve(lambda t, y: (-y[1], y[0]), (1.0, 0.0),
                        (0.0, 50.0), post_step=renorm)
        assert abs(math.hypot(*res.y_end) - 1.0) <= 1e-15


class TestOdeFieldCalls:
    """One solve calls the field 1 + 6 * attempts times, plus once per
    accepted step when ``post_step`` replaces the state (FSAL); the
    benchmark's tracer derives its step counts from this identity."""

    @staticmethod
    def counted(fn):
        calls = [0]

        def field(t, y):
            calls[0] += 1
            return fn(t, y)

        return field, calls

    @staticmethod
    def attempts(calls, accepted=0):
        done, rest = divmod(calls - 1 - accepted, 6)
        assert rest == 0
        return done

    def test_rejected_steps(self):
        field, calls = self.counted(lambda t, y: (y[1], -y[0]))
        res = ode_solve(field, (1.0, 0.0), (0.0, 10.0))
        assert self.attempts(calls[0]) > res.n_steps > 0
        assert res.ts == [0.0, 10.0]

    def test_post_step(self):
        field, calls = self.counted(lambda t, y: (-y[1], y[0]))
        hooks = [0]

        def renorm(t, y):
            hooks[0] += 1
            n = math.hypot(y[0], y[1])
            return (y[0] / n, y[1] / n)

        res = ode_solve(field, (1.0, 0.0), linspace(0.0, 5.0, 9),
                        post_step=renorm)
        assert hooks[0] == res.n_steps
        assert self.attempts(calls[0], res.n_steps) >= res.n_steps > 8

    def test_stop_ends_at_the_sample(self):
        grid = linspace(0.0, 2.0, 21)
        full = ode_solve(lambda t, y: (y[1], -y[0]), (1.0, 0.0), grid)
        field, calls = self.counted(lambda t, y: (y[1], -y[0]))
        seen = []

        def stop(t, y):
            seen.append(t)
            return y[0] < 0.5

        res = ode_solve(field, (1.0, 0.0), grid, stop=stop)
        k = len(res.ts)
        assert seen == grid[1:k]
        assert 2 < k < len(grid)
        assert res.ts == grid[:k] and res.ys == full.ys[:k]
        assert res.ys[-1][0] < 0.5 <= res.ys[-2][0]
        assert self.attempts(calls[0]) >= res.n_steps

    def test_field_error_carries_partial_samples(self):
        grid = linspace(0.0, 2.0, 21)
        full = ode_solve(lambda t, y: (y[1], -y[0]), (1.0, 0.0), grid)

        def fn(t, y):
            if t > 1.3:
                raise OverflowError("field blew up")
            return (y[1], -y[0])

        field, calls = self.counted(fn)
        with pytest.raises(OverflowError) as exc:
            ode_solve(field, (1.0, 0.0), grid)
        part = exc.value.partial
        k = len(part.ts)
        assert 1 < k < len(grid)
        assert part.ts == grid[:k] and part.ys == full.ys[:k]
        assert part.ts[-1] <= 1.3
        # the raising call is the one cut short in the last attempt
        done, cut = divmod(calls[0] - 1, 6)
        assert done >= part.n_steps and 0 < cut < 6

    def test_step_control_error_carries_partial_samples(self):
        grid = linspace(0.0, 1.0, 11)
        with pytest.raises(StepUnderflow) as exc:
            ode_solve(lambda t, y: (1.0 / (1e-8 + abs(t - 0.5)),), (0.0,),
                      grid, OdeSpec(min_step=1e-3))
        part = exc.value.partial
        assert part.ts == grid[:len(part.ts)]
        assert 0.0 < part.ts[-1] < 0.5


class TestDenseOutput:
    """With ``dense``, steps follow error control alone and land only on
    the last time; the samples before it are read from the continuous
    extension."""

    @staticmethod
    def rotation(t, y):
        return (-y[1], y[0])

    def test_reads_match_closed_form(self):
        grid = linspace(0.0, 6.0, 97)
        res = ode_solve(self.rotation, (1.0, 0.0), grid, OdeSpec(tol=1e-8),
                        dense=True)
        assert res.ts == grid
        # fewer steps than samples, and reads within a few tolerances
        assert res.n_steps < 60
        for t, (c, s) in zip(res.ts, res.ys):
            assert abs(c - math.cos(t)) <= 1e-7
            assert abs(s - math.sin(t)) <= 1e-7

    def test_steps_follow_error_control_alone(self):
        # the steps are the ones of a solve over the whole span, so the
        # landed end is the same bit for bit
        grid = linspace(0.0, 6.0, 49)
        res = ode_solve(self.rotation, (1.0, 0.0), grid, dense=True)
        span = ode_solve(self.rotation, (1.0, 0.0), (0.0, 6.0))
        assert res.n_steps == span.n_steps
        assert repr(res.ys[-1]) == repr(span.ys[-1])
        back = ode_solve(self.rotation, (1.0, 0.0), grid[::-1], dense=True)
        assert back.ts == grid[::-1]
        assert repr(back.ys[-1]) == repr(ode_solve(
            self.rotation, (1.0, 0.0), (6.0, 0.0)).ys[-1])

    def test_reads_match_landed_samples(self):
        grid = linspace(0.0, 3.0, 33)
        spec = OdeSpec(tol=1e-10)
        landed = ode_solve(self.rotation, (0.6, 0.8), grid, spec)
        read = ode_solve(self.rotation, (0.6, 0.8), grid, spec, dense=True)
        assert read.ts == landed.ts and read.n_steps < landed.n_steps
        assert max(abs(a - b) for ya, yb in zip(read.ys, landed.ys)
                   for a, b in zip(ya, yb)) <= 1e-9

    def test_order_four(self):
        # y = t^4 is a polynomial of the extension's order: the reads are
        # exact up to rounding, whatever the step
        grid = linspace(0.0, 2.0, 41)
        res = ode_solve(lambda t, y: (4.0 * t ** 3,), (0.0,), grid,
                        OdeSpec(tol=1e-3), dense=True)
        assert res.n_steps < 10
        for t, (y,) in zip(res.ts, res.ys):
            assert abs(y - t ** 4) <= 1e-14 * 16.0

    def test_field_calls(self):
        field, calls = TestOdeFieldCalls.counted(
            lambda t, y: (y[1], -y[0] * (1.0 + y[0] * y[0])))
        res = ode_solve(field, (1.0, 0.0), linspace(0.0, 8.0, 49),
                        OdeSpec(tol=1e-9), dense=True)
        assert TestOdeFieldCalls.attempts(calls[0]) > res.n_steps > 0

        field, calls = TestOdeFieldCalls.counted(self.rotation)

        def renorm(t, y):
            n = math.hypot(y[0], y[1])
            return (y[0] / n, y[1] / n)

        res = ode_solve(field, (1.0, 0.0), linspace(0.0, 5.0, 41),
                        post_step=renorm, dense=True)
        assert len(res.ts) == 41
        assert TestOdeFieldCalls.attempts(calls[0], res.n_steps) \
            >= res.n_steps > 0

    def test_stop_ends_at_the_read(self):
        grid = linspace(0.0, 2.0, 21)
        full = ode_solve(self.rotation, (1.0, 0.0), grid, dense=True)
        seen = []

        def stop(t, y):
            seen.append(t)
            return y[0] < 0.5

        res = ode_solve(self.rotation, (1.0, 0.0), grid, stop=stop,
                        dense=True)
        k = len(res.ts)
        assert seen == grid[1:k] and 2 < k < len(grid)
        assert res.ts == grid[:k] and res.ys == full.ys[:k]
        assert res.ys[-1][0] < 0.5 <= res.ys[-2][0]

    def test_field_error_carries_the_reads_reached(self):
        grid = linspace(0.0, 4.0, 41)
        full = ode_solve(self.rotation, (1.0, 0.0), grid, dense=True)

        def fn(t, y):
            if t > 2.3:
                raise OverflowError("field blew up")
            return self.rotation(t, y)

        field, calls = TestOdeFieldCalls.counted(fn)
        with pytest.raises(OverflowError) as exc:
            ode_solve(field, (1.0, 0.0), grid, dense=True)
        part = exc.value.partial
        k = len(part.ts)
        assert 1 < k < len(grid)
        assert part.ts == grid[:k] and part.ys == full.ys[:k]
        assert part.ts[-1] <= 2.3
        done, cut = divmod(calls[0] - 1, 6)
        assert done >= part.n_steps and 0 < cut < 6


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
    tol = spec.tol
    err = 0.0
    for i in range(len(y)):
        e = 0.0
        for c, k in zip(ode._ERR, ks):
            if c != 0.0:
                e += c * k[i]
        e *= hs
        sc = tol + tol * max(abs(y[i]), abs(y_new[i]))
        q = e / sc
        err += q * q
    return (err / len(y)) ** 0.5


def _reference_dense(y, y_new, ks, hs, theta):
    """The continuous extension at ``theta`` as a loop over the ``_D``
    weights."""
    out = []
    for i in range(len(y)):
        d = y_new[i] - y[i]
        b = hs * ks[0][i] - d
        c = d - hs * ks[6][i] - b
        e = 0.0
        for w, k in zip(ode._D, ks):
            if w != 0.0:
                e += w * k[i]
        e *= hs
        th1 = 1.0 - theta
        out.append(y[i] + theta * (d + th1 * (b + theta * (c + th1 * e))))
    return tuple(out)


def _reference_solve(field_fn, y0, ts, spec=OdeSpec(), *, post_step=None,
                     stop=None, dense=False):
    """ode_solve as a loop over the Butcher table, the form the generated
    attempt and continuous extension replace; step control is the same."""
    ts = [float(t) for t in ts]
    direction = 1.0 if ts[-1] > ts[0] else -1.0
    y = [float(v) for v in y0]
    t = ts[0]
    res = ode.OdeResult(ts=[t], ys=[tuple(y)])
    span = abs(ts[-1] - t)
    h = max(span / 16.0, min(span, spec.min_step))
    k_read = 1      # the next sample a dense solve reads
    try:
        f_now = field_fn(t, tuple(y))
        for target in (ts[-1:] if dense else ts[1:]):
            while (target - t) * direction > 0.0:
                if res.n_steps >= spec.max_steps:
                    raise MaxStepsExceeded("steps")
                remaining = abs(target - t)
                clamped = h >= remaining
                h_step = remaining if clamped else h
                hs = h_step * direction
                ks = [f_now]
                for i in range(1, 7):
                    yi = _weighted_sum(y, ks, hs, ode._A[i])
                    ks.append(field_fn(t + ode._C[i] * hs, tuple(yi)))
                y_new = _weighted_sum(y, ks, hs, ode._B5)
                err = _error_norm(y, y_new, ks, hs, spec)
                if err <= 1.0:
                    t_new = target if clamped else t + hs
                    while dense and (ts[k_read] - t_new) * direction < 0.0:
                        s = ts[k_read]
                        y_s = _reference_dense(y, y_new, ks, hs, (s - t) / hs)
                        res.ts.append(s)
                        res.ys.append(y_s)
                        k_read += 1
                        if stop is not None and stop(s, y_s):
                            return res
                    t = t_new
                    y = y_new
                    if post_step is not None:
                        y = list(post_step(t, tuple(y)))
                        f_now = field_fn(t, tuple(y))
                    else:
                        f_now = ks[6]
                    res.n_steps += 1
                factor = (5.0 if err == 0.0
                          else min(5.0, max(0.2, 0.9 * err ** -0.2)))
                h = (max(h, h_step * factor) if clamped and err <= 1.0
                     else h_step * factor)
                if h < spec.min_step < abs(ts[-1] - t):
                    raise StepUnderflow("underflow")
            res.ts.append(t)
            res.ys.append(tuple(y))
            if stop is not None and stop(t, res.ys[-1]):
                break
    except Exception as exc:
        exc.partial = res
        raise
    return res


class TestGeneratedAttempt:
    """The generated Dormand-Prince attempt gives the same bits, steps and
    field calls as the loop over the Butcher table, compared by ``repr``
    (so the signs of zeros too)."""

    DENSE = False

    @staticmethod
    def field(n, seed):
        """A nonlinear field on n components with seeded coefficients."""
        rng = random.Random(seed)
        w = [rng.uniform(-2.0, 2.0) for _ in range(2 * n)]
        calls = [0]

        def fn(t, y):
            calls[0] += 1
            return tuple(w[i] * math.sin(y[(i + 1) % n] + t)
                         - w[n + i] * y[i] * math.cos(y[i - 1])
                         for i in range(n))

        return fn, calls

    def both(self, n, seed, *args, raises=None, **kwargs):
        """(result or partial, field calls) of each solver, asserted equal
        by ``repr``."""
        out = []
        for solve in (ode_solve, _reference_solve):
            fn, calls = self.field(n, seed)
            wrapped = fn if raises is None else raises(fn)
            try:
                res = solve(wrapped, *args, dense=self.DENSE, **kwargs)
            except Exception as exc:
                res = (type(exc), exc.partial)
            out.append((res, calls[0]))
        assert repr(out[0]) == repr(out[1])
        return out

    @pytest.mark.parametrize("n", [1, 2, 4, 12])
    def test_sizes(self, n):
        y0 = tuple(0.1 * (i + 1) for i in range(n))
        _, (res, calls) = self.both(n, zlib.crc32(b"size %d" % n), y0,
                                    linspace(0.0, 4.0, 9), OdeSpec(tol=1e-9))
        assert TestOdeFieldCalls.attempts(calls) > res.n_steps > 8  # rejects
        assert len(res.ts) == 9

    @pytest.mark.parametrize("n", [2, 12])
    def test_post_step(self, n):
        def renorm(t, y):
            s = math.sqrt(sum(x * x for x in y))
            return tuple(x / s for x in y)

        y0 = tuple(1.0 / math.sqrt(n) for _ in range(n))
        _, (res, _) = self.both(n, zlib.crc32(b"post %d" % n), y0,
                                linspace(0.0, 3.0, 7), post_step=renorm)
        assert res.n_steps > 6 and len(res.ts) == 7

    def test_stop(self):
        def stop(t, y):
            return y[0] < -0.3

        _, (res, _) = self.both(4, zlib.crc32(b"stop"), (0.1, 0.2, 0.3, 0.4),
                                linspace(0.0, 2.0, 41), stop=stop)
        assert len(res.ts) < 41

    def test_field_raises_mid_solve(self):
        def raises(fn):
            def field(t, y):
                if t > 1.3:
                    raise OverflowError("field blew up")
                return fn(t, y)
            return field

        ((kind, partial), _), _ = self.both(
            4, zlib.crc32(b"raise"), (0.1, 0.2, 0.3, 0.4),
            linspace(0.0, 2.0, 21), raises=raises)
        assert kind is OverflowError and 1 < len(partial.ts) < 21

    def test_backward_and_underflow(self):
        self.both(2, zlib.crc32(b"back"), (1.0, -0.5), (2.0, 1.0, -1.5),
                  OdeSpec(tol=1e-12))
        ((kind, partial), _), _ = self.both(
            2, zlib.crc32(b"under"), (1.0, -0.5), (0.0, 5.0),
            OdeSpec(tol=1e-12, min_step=0.005))
        assert kind is StepUnderflow and partial.n_steps > 9


class TestGeneratedDenseOutput(TestGeneratedAttempt):
    """The same with ``dense``: the generated continuous extension gives
    the loop's reads."""

    DENSE = True


class TestHermiteInterpolation:
    def test_quintic_reproduced_exactly(self):
        from diffgeo.interpolate import HermiteChannel
        from diffgeo.jets import Jet1

        # p(x) = 1.2 x^5 - 0.7 x^4 + 0.4 x^3 - 2 x + 1 and its derivatives
        def p(x):
            return ((1.2 * x - 0.7) * x + 0.4) * x ** 3 - 2.0 * x + 1.0

        def d1(x):
            return 6.0 * x ** 4 - 2.8 * x ** 3 + 1.2 * x ** 2 - 2.0

        def d2(x):
            return 24.0 * x ** 3 - 8.4 * x ** 2 + 2.4 * x

        knots = [0.0, 0.7, 1.3, 2.0]
        chan = HermiteChannel(knots, [p(x) for x in knots],
                              [d1(x) for x in knots], [d2(x) for x in knots])
        for x in (0.11, 0.69, 0.95, 1.77):
            assert abs(chan(x) - p(x)) <= 1e-12
            jet = chan(Jet1.variable(x))
            assert abs(jet.c[1] - d1(x)) <= 1e-11
            assert abs(jet.c[2] - d2(x)) <= 1e-10


class TestQuadrature:
    def test_sine_hump(self):
        assert abs(quad_adaptive(math.sin, (0.0, math.pi)) - 2.0) <= 1e-10

    def test_unit_square(self):
        assert abs(quad2d(lambda u, v: 1.0, (0, 1, 0, 1)) - 1.0) <= 1e-13

    def test_sphere_area_element(self):
        val = quad2d(lambda u, v: 4.0 * math.cos(v),
                     (0.0, 2 * math.pi, -math.pi / 2, math.pi / 2))
        assert abs(val - 16.0 * math.pi) <= 1e-8

    def test_polynomial_exactness(self):
        # 15-point Gauss integrates degree <= 29 exactly per panel
        rng = random.Random(7)
        for _ in range(5):
            coeffs = [rng.uniform(-1, 1) for _ in range(12)]

            def poly(x):
                acc = 0.0
                for c in reversed(coeffs):
                    acc = acc * x + c
                return acc

            exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
            assert abs(quad_adaptive(poly, (0.0, 1.0)) - exact) <= 1e-13

    def test_oscillatory_needs_subdivision(self):
        val = quad_adaptive(lambda x: math.sin(40.0 * x) ** 2, (0.0, math.pi),
                            QuadSpec(tol=1e-12))
        assert abs(val - math.pi / 2) <= 1e-10

    def test_max_depth_carries_best_estimate(self):
        spec = QuadSpec(tol=1e-300, max_depth=3)
        with pytest.raises(MaxDepthExceeded) as exc:
            quad_adaptive(lambda x: math.exp(x) * math.sin(3 * x), (0.0, 2.0),
                          spec)
        assert exc.value.best is not None

    def test_tolerance_below_rounding_raises_on_exact_rule(self):
        # the 15-point rule is exact here, so coarse and refined sums agree
        # to the last bit; a tolerance of 1e-300 must still be refused
        spec = QuadSpec(tol=1e-300)
        for f, exact in ((lambda x: 1.0, 1.0), (lambda x: x ** 3, 0.25)):
            with pytest.raises(MaxDepthExceeded) as exc:
                quad_adaptive(f, (0.0, 1.0), spec)
            assert abs(exc.value.best - exact) <= 1e-15
        with pytest.raises(MaxDepthExceeded) as exc:
            quad2d(lambda u, v: 1.0, (0, 1, 0, 1), spec)
        assert abs(exc.value.best - 1.0) <= 1e-15

    def test_best_covers_whole_interval(self):
        # depth runs out in the panel at the sqrt singularity; the other
        # panels of [0, 1] are still part of the estimate
        for f in (math.sqrt, lambda x: math.sqrt(1.0 - x)):
            with pytest.raises(MaxDepthExceeded) as exc:
                quad_adaptive(f, (0.0, 1.0), QuadSpec(tol=1e-12, max_depth=5))
            assert abs(exc.value.best - 2.0 / 3.0) <= 1e-6

    def test_best_covers_whole_rectangle(self):
        with pytest.raises(MaxDepthExceeded) as exc:
            quad2d(lambda u, v: math.exp(u) * math.sin(3 * v), (0, 2, 0, 2),
                   QuadSpec(tol=1e-300))
        exact = (math.e ** 2 - 1) * (1 - math.cos(6)) / 3
        assert abs(exc.value.best - exact) <= 1e-12
        # depth runs out at the cusp in the corner (1, 0), which lies in
        # the second of the four sub-panels
        with pytest.raises(MaxDepthExceeded) as exc:
            quad2d(lambda u, v: math.hypot(1.0 - u, v), (0, 1, 0, 1),
                   QuadSpec(tol=1e-13, max_depth=2))
        exact = (math.sqrt(2) + math.asinh(1)) / 3
        assert abs(exc.value.best - exact) <= 1e-8

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadSpec(tol=-1.0)
        with pytest.raises(ValueError):
            QuadSpec(max_depth=0)

    def test_empty_intervals(self):
        assert quad_adaptive(math.sin, (1.0, 1.0)) == 0.0
        assert quad2d(lambda u, v: 1.0, (0, 0, 0, 1)) == 0.0

    def test_sums_add_left_to_right(self):
        # as builtin sum adds floats before Python 3.12, which compensates
        # (1.0 here), so reports are the same on every supported Python
        assert _sum([1e16, 1.0, -1e16]) == 0.0
        assert math.copysign(1.0, _sum([-0.0])) == 1.0


class TestNoRuntimeDependencies:
    def test_import_loads_no_numpy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(diffgeo.__file__)))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, diffgeo, diffgeo.cli; print('numpy' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_import_loads_no_heavy_module(self):
        """In a fresh ``python -S`` (no site imports), neither import adds a
        module that costs milliseconds, and ``import diffgeo`` compiles no
        generated source (as dataclasses and namedtuple would)."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(diffgeo.__file__)))
        probe = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "compiled = []\n"
            "sys.addaudithook(lambda event, args: event == 'compile'\n"
            "                 and compiled.append(str(args[1])))\n"
            "before = set(sys.modules)\n"
            "import diffgeo\n"
            "lib = set(sys.modules) - before\n"
            "strings = [f for f in compiled if not f.endswith('.py')]\n"
            "import diffgeo.cli\n"
            "print(json.dumps([sorted(lib), sorted(set(sys.modules) - before\n"
            "                                     - lib), strings]))\n")
        out = subprocess.run([sys.executable, "-S", "-c", probe, src],
                             capture_output=True, text=True, check=True)
        lib, cli, strings = json.loads(out.stdout)
        heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
                 "tempfile", "shutil"}
        assert "diffgeo.surfaces" in lib and "diffgeo.cli" in cli
        assert heavy.isdisjoint(lib), sorted(heavy & set(lib))
        assert heavy.isdisjoint(cli), sorted(heavy & set(cli))
        assert strings == []

    def test_gauss_rule_literals_equal_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert quadrature._NODES == tuple(float(x) for x in nodes)
        assert quadrature._WEIGHTS == tuple(float(w) for w in weights)


class TestRootFind:
    def test_sqrt_two(self):
        x = root_find(lambda x: x * x - 2.0, (1.0, 2.0), tol=1e-9)
        assert abs(x - math.sqrt(2.0)) <= 1e-9

    def test_identity_root(self):
        assert abs(root_find(lambda x: x, (-1.0, 1.0), tol=1e-14)) <= 1e-13

    def test_bisection_rescues_wild_secant(self):
        # secant steps overshoot on this one; the bracket must save it
        x = root_find(lambda x: math.tanh(50.0 * (x - 0.3)), (0.0, 1.0),
                      tol=1e-10)
        assert abs(x - 0.3) <= 1e-6

    def test_no_convergence(self):
        # no float x has |x^2 - 2| <= 1e-30: the bracket collapses first
        with pytest.raises(NoConvergence) as exc:
            root_find(lambda x: x * x - 2.0, (1.0, 2.0), tol=1e-30)
        x, fx = exc.value.best
        assert abs(x - math.sqrt(2.0)) <= 4e-16 and abs(fx) <= 1e-15

    def test_bracket_without_sign_change_rejected(self):
        with pytest.raises(ValueError):
            root_find(lambda x: 1.0 + x * x, (-1.0, 1.0))
