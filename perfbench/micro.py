"""Per-layer micro-benchmarks on fixed inputs.

Each reports the median per-call time, in microseconds, over batches timed
after a warm-up.  Inputs do not depend on the seed.  A micro-benchmark whose
entry point no longer exists is left out, and named on stderr.
"""

import statistics
import sys
import time

BATCH_S = 0.02     # target duration of one timed batch
REPEATS = 9        # timed batches per micro-benchmark
TORUS_POINT = (0.7, 1.1)
J2_A = (0.3, 1.1, -0.4, 0.25, 0.5, -0.2, 0.1, 0.05, -0.3, 0.2)
J2_B = (1.2, -0.3, 0.8, 0.1, -0.6, 0.4, -0.2, 0.3, 0.1, -0.05)


def _per_call_us(op):
    for _ in range(3):
        op()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            op()
        if time.perf_counter() - t0 >= BATCH_S or n >= 1 << 20:
            break
        n *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            op()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def jet2_mul():
    from diffgeo.jets import Jet2
    a, b = Jet2(J2_A), Jet2(J2_B)
    return _per_call_us(lambda: a * b)


def jet2_sin():
    from diffgeo import jets
    a = jets.Jet2(J2_A)
    return _per_call_us(lambda: jets.sin(a))


def jet1_mul():
    from diffgeo.jets import Jet1
    a, b = Jet1(*J2_A[:5]), Jet1(*J2_B[:5])
    return _per_call_us(lambda: a * b)


def _torus():
    from diffgeo import catalog
    return catalog.make("torus")


def expr_eval_jet2():
    from diffgeo.jets import Jet2
    torus = _torus()
    uj, vj = Jet2.variable_u(TORUS_POINT[0]), Jet2.variable_v(TORUS_POINT[1])
    return _per_call_us(lambda: torus.eval(uj, vj))


def metric_and_gamma():
    from diffgeo.surfaces import metric_and_gamma as fn
    torus = _torus()
    return _per_call_us(lambda: fn(torus, *TORUS_POINT))


def curvatures():
    from diffgeo.surfaces import curvatures as fn
    torus = _torus()
    return _per_call_us(lambda: fn(torus, *TORUS_POINT))


def gw_codazzi():
    from diffgeo.surfaces import (codazzi_compatibility_residuals,
                                  gauss_weingarten_residuals)
    torus = _torus()

    def op():
        gauss_weingarten_residuals(torus, *TORUS_POINT)
        codazzi_compatibility_residuals(torus, *TORUS_POINT)

    return _per_call_us(op)


def ode_step():
    """Solve time per attempted Dormand-Prince step, on a cheap linear field
    so that the integrator's own work is what is timed."""
    from diffgeo.ode import OdeSpec, ode_solve
    calls = [0]

    def field(t, y):
        calls[0] += 1
        return (y[2], y[3], -y[0], -4.0 * y[1])

    def solve():
        calls[0] = 0
        ode_solve(field, (1.0, 0.0, 0.0, 1.0), (0.0, 20.0), OdeSpec())

    per_solve = _per_call_us(solve)
    return per_solve / ((calls[0] - 1) // 6)


def gauss_panel2d():
    """Time per 15x15 Gauss panel, on a polynomial integrand the rule
    integrates exactly (one refinement: five panels)."""
    from diffgeo.quadrature import QuadSpec, quad2d
    calls = [0]

    def f(x, y):
        calls[0] += 1
        return 1.0 + x * y + x * x

    def integrate():
        calls[0] = 0
        quad2d(f, (0.0, 1.0, 0.0, 1.0), QuadSpec(tol=1e-9))

    return _per_call_us(integrate) / (calls[0] / 225)


BENCHES = (jet2_mul, jet2_sin, jet1_mul, expr_eval_jet2, metric_and_gamma,
           curvatures, gw_codazzi, ode_step, gauss_panel2d)


def run():
    out = {}
    for bench in BENCHES:
        name = f"micro.{bench.__name__}_us"
        try:
            out[name] = bench()
        except (AttributeError, ImportError, TypeError) as exc:
            print(f"{name} missing: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    return out
