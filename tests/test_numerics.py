"""ODE integrator, adaptive quadrature and root finding."""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import diffgeo
from diffgeo import quadrature
from diffgeo.errors import (MaxDepthExceeded, MaxStepsExceeded, NoConvergence,
                            StepUnderflow)
from diffgeo.ode import OdeSpec, linspace, ode_solve
from diffgeo.quadrature import QuadSpec, quad2d, quad_adaptive
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


class TestNoRuntimeDependencies:
    def test_import_loads_no_numpy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(diffgeo.__file__)))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, diffgeo, diffgeo.cli; print('numpy' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True)
        assert out.stdout.strip() == "False"

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
