"""diffgeo benchmark: one workload, one seed, one mode per run.

    python3 perfbench/run.py --workload {pointwise,solvers} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a diffgeo checkout: the program is imported from
./src, in this process, and driven through ``cli.main(argv)`` with the job
list that perfbench/workloads.py draws from the seed.  Every job's output
is checked (see workloads.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics:

* ``--trace 0`` runs the job list repeatedly for S seconds (at least once)
  and reports the end-to-end metrics listed in BENCHMARK.json;
* ``--trace 1`` runs a quarter of the list untraced, then the whole list
  once under the outside-in tracer (fixed work, so the counts repeat
  exactly), then the micro-benchmarks, and reports the per-layer metrics.
  The aggregated spans go to .bench_out/trace-<workload>-<seed>.json.

Both modes first time set-up in fresh interpreters.  Failing jobs are
listed on stderr with their cause.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import micro
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_PROCESSES = 15    # fresh interpreters timed, after one that warms bytecode
TAIL_BEYOND = 10        # job_ms_tail has this many jobs beyond it
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no program, or set-up failed)."""


# --------------------------------------------------------------------------
# jobs
# --------------------------------------------------------------------------

def execute(cli, job):
    """Run one CLI job in process; returns (seconds, failure cause or None)."""
    for path in (job.json, job.csv):
        if path and os.path.exists(path):
            os.unlink(path)
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(job.argv)
    except SystemExit as exc:       # argparse rejected the argv
        code = exc.code
    except Exception as exc:        # a traceback is a failed job, not a crash
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if code != 0:
        lines = sink.getvalue().strip().splitlines()
        return elapsed, f"exit {code}: {lines[-1] if lines else ''}"
    return elapsed, None


def check(job):
    try:
        return job.check(job)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def run_and_check(cli, job, failures):
    elapsed, cause = execute(cli, job)
    cause = cause or check(job)
    if cause:
        failures.append((job.name, cause))
    return elapsed


# --------------------------------------------------------------------------
# set-up in fresh interpreters
# --------------------------------------------------------------------------

def _import_split(stderr):
    """Cumulative import times (s) of numpy and of diffgeo without numpy,
    from ``-X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    if "diffgeo" not in cumulative:
        raise BenchError("-X importtime shows no diffgeo import")
    numpy_s = cumulative.get("numpy", 0.0)
    return numpy_s, cumulative["diffgeo"] - numpy_s


def measure_setup(names):
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # set-up is timed warm
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "-X", "importtime",
           os.path.join(HERE, "setup_probe.py"), SRC, *names]
    rows = []
    for k in range(SETUP_PROCESSES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=False)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:]
            raise BenchError(f"set-up probe exited {proc.returncode}: {tail}")
        if k == 0:
            continue                            # it wrote the bytecode
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if not rec["module"].startswith(SRC + os.sep):
            raise BenchError(f"set-up probe imported {rec['module']}")
        numpy_s, diffgeo_s = _import_split(proc.stderr)
        rows.append((rec["import_s"] + rec["build_s"], numpy_s, diffgeo_s,
                     rec["build_s"]))
    med = [statistics.median(col) for col in zip(*rows)]
    return {"setup_s": med[0], "setup.import_numpy_s": med[1],
            "setup.import_diffgeo_s": med[2], "setup.catalog_make_s": med[3]}


# --------------------------------------------------------------------------
# untraced run: end-to-end metrics
# --------------------------------------------------------------------------

def timed_run(cli, jobs, seconds, setup):
    samples = [[] for _ in jobs]
    failures = []
    start = time.perf_counter()
    i = done = 0
    while done < len(jobs) or time.perf_counter() - start < seconds:
        samples[i].append(run_and_check(cli, jobs[i], failures))
        done += 1
        i = (i + 1) % len(jobs)
    per_job = sorted(statistics.median(s) for s in samples)
    n = len(per_job)
    metrics = {
        "wall_s": sum(per_job),
        "job_ms_p50": statistics.median(per_job) * 1e3,
        "setup_s": setup["setup_s"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if n > TAIL_BEYOND:
        metrics["job_ms_tail"] = per_job[n - TAIL_BEYOND - 1] * 1e3
    note(f"{done} job runs in {time.perf_counter() - start:.1f} s: "
         f"{done / n:.2f} passes over {n} jobs; per-job medians give "
         f"job_ms_tail at p{100.0 * (n - TAIL_BEYOND) / n:.1f} "
         f"({TAIL_BEYOND} jobs beyond it)")
    return metrics, done, failures


# --------------------------------------------------------------------------
# traced run: per-layer metrics
# --------------------------------------------------------------------------

def traced_run(cli, jobs, setup, out_path):
    failures = []
    k = math.ceil(len(jobs) / 4)
    base = sum(run_and_check(cli, job, failures) for job in jobs[:k])
    tr = tracer.Tracer()
    tr.install()
    try:
        runs = [execute(cli, job) for job in jobs]
    finally:
        leftover = tr.restore()
    if leftover:
        raise BenchError(f"tracer left patched bindings: {leftover}")
    for job, (_, cause) in zip(jobs, runs):
        cause = cause or check(job)
        if cause:
            failures.append((job.name, cause))
    overhead = sum(elapsed for elapsed, _ in runs[:k]) / base
    metrics = dict(layer_metrics(tr))
    metrics.update((name, setup[name]) for name in
                   ("setup.import_numpy_s", "setup.import_diffgeo_s",
                    "setup.catalog_make_s"))
    metrics["trace.overhead_ratio"] = overhead
    metrics.update(micro.run())
    with open(out_path, "w") as fh:
        json.dump({"spans": tr.spans(), "counts": dict(tr.counts),
                   "broken_identities": sorted(tr.broken),
                   "missing_entry_points": tr.missing, "metrics": metrics},
                  fh, indent=1)
    note(f"traced {len(jobs)} jobs (overhead measured on the first {k}); "
         f"spans in {os.path.relpath(out_path, ROOT)}")
    return metrics, k + len(jobs), failures


def layer_metrics(tr):
    """Yield (name, value) per-layer metrics.  A metric whose counting
    identity failed, or whose entry point is gone, is not yielded."""
    c = tr.counts
    missing = set(tr.missing)

    def has(*entry_points):
        return not missing.intersection(entry_points)

    ode = "ode" not in tr.broken and has("ode.ode_solve")
    if has("expr.eval_scalar", "expr.ShapeDefinition.eval"):
        for kind in ("jet2", "jet1", "float"):
            yield f"expr.eval.calls.{kind}", c[f"expr.eval.calls.{kind}"]
        yield "expr.eval.self_s", tr.self_s(tracer.EXPR_EVAL)
    if has("surfaces.metric_and_gamma"):
        yield ("surfaces.metric_and_gamma.calls",
               tr.calls("surfaces.metric_and_gamma"))
        yield ("surfaces.metric_and_gamma.self_s",
               tr.self_s("surfaces.metric_and_gamma"))
    if has(*tracer.POINTWISE):
        yield "surfaces.pointwise.calls", tr.calls(*tracer.POINTWISE)
        yield "surfaces.pointwise.self_s", tr.self_s(*tracer.POINTWISE)
    if has("quadrature.quad2d", "quadrature.quad_adaptive"):
        yield "surfaces.integrand.self_s", tr.self_s(tracer.INTEGRAND)
    if has("curves.frenet"):
        yield "curves.frenet.calls", tr.calls("curves.frenet")
        yield "curves.frenet.self_s", tr.self_s("curves.frenet")
    if ode:
        attempts, accepted = c["ode.attempts"], c["ode.steps.accepted"]
        yield "ode.solves", c["ode.solves"]
        yield "ode.solves_raised", c["ode.solves_raised"]
        yield "ode.steps.accepted", accepted
        yield "ode.steps.rejected", attempts - accepted
        yield "ode.rhs_calls", c["ode.rhs_calls"]
        # 0 where the workload attempts no step
        yield "ode.accept_ratio", accepted / attempts if attempts else 0.0
        yield "ode.self_s", tr.self_s("ode.ode_solve")
        yield "surfacecurves.rhs.self_s", tr.self_s(tracer.RHS)
    yield "surfacecurves.self_s", tr.layer_self_s("surfacecurves")
    if has("surfacecurves.geodesic_bvp"):
        bvps = c["surfacecurves.geodesic_bvp.calls"]
        yield "surfacecurves.geodesic_bvp.calls", bvps
        if ode:
            # 0 where the workload solves no BVP
            yield ("surfacecurves.ode_solves_per_bvp",
                   c["ode.solves_in_bvp"] / bvps if bvps else 0.0)
    if has("roots.root_find"):
        yield "roots.calls", c["roots.calls"]
        if "roots" not in tr.broken:
            yield "roots.iterations", c["roots.iterations"]
        yield "roots.self_s", tr.self_s("roots.root_find")
    if has("quadrature.quad2d", "quadrature.quad_adaptive"):
        yield "quadrature.calls", c["quadrature.calls"]
        if "quadrature" not in tr.broken:
            yield "quadrature.panels", c["quadrature.panels"]
        yield "quadrature.integrand_calls", c["quadrature.integrand_calls"]
        yield "quadrature.self_s", tr.layer_self_s("quadrature")
    if has("catalog.make"):
        yield "catalog.self_s", tr.layer_self_s("catalog")
    yield "report.self_s", tr.layer_self_s("report")
    if has("cli.main"):
        yield "cli.self_s", tr.self_s("cli.main")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def note(msg):
    print(msg, file=sys.stderr, flush=True)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "diffgeo", "__init__.py")):
        raise BenchError(f"no diffgeo sources under {SRC}; run from the root "
                         f"of a diffgeo checkout")
    sys.path.insert(0, SRC)
    import diffgeo
    from diffgeo import catalog, cli
    if not diffgeo.__file__.startswith(SRC + os.sep):
        raise BenchError(f"imported {diffgeo.__file__}, not the checkout's")
    return catalog, cli


def result(spec_key, metrics, attempted, failures):
    with open(SPEC) as fh:
        wanted = json.load(fh)[spec_key]
    out = {}
    for m in wanted:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        else:
            note(f"metric {m['name']} missing: its entry point is gone or "
                 f"its counting identity failed")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": out}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in SINGLE_THREAD:
        os.environ[var] = "1"
    os.environ.pop("DIFFGEO_TOL", None)
    try:
        catalog, cli = import_program()
        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
        try:
            jobs = workloads.generate(args.workload, args.seed, workdir,
                                      catalog)
            setup = measure_setup(workloads.shapes_for(args.workload, catalog))
            if args.trace:
                out_path = os.path.join(
                    OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
                metrics, attempted, failures = traced_run(cli, jobs, setup,
                                                          out_path)
            else:
                metrics, attempted, failures = timed_run(cli, jobs,
                                                         args.seconds, setup)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        res = result("per_layer" if args.trace else "end_to_end", metrics,
                     attempted, failures)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        note(f"error: {exc}")
        return 2
    note(f"{args.workload} seed {args.seed}: fail_ratio "
         f"{len(failures)}/{attempted}")
    for name, cause in failures:
        note(f"  FAILED {name}: {cause}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
