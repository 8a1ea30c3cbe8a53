"""Self-check of the benchmark's tracing.

    python3 perfbench/selfcheck.py

Run from the root of a diffgeo checkout.  For each workload, at seed SEED,
it checks that

1. tracing changes nothing: a quarter of the job list, run untraced, then
   traced, then untraced again in one process, writes byte-identical
   reports each time, and after ``restore`` every binding the tracer
   touched holds its original again;
2. two traced runs (``run.py --trace 1`` in two fresh processes) report
   identical work counts, both the per-layer count metrics and the calls
   of every aggregated span.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run
import tracer
import workloads

SEED = 1


def reports(cli, jobs):
    out = []
    for job in jobs:
        run.execute(cli, job)
        with open(job.json, "rb") as fh:
            out.append(fh.read())
    return out


def check_restore(workload, seed, catalog, cli):
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT_DIR)
    try:
        jobs = workloads.generate(workload, seed, workdir, catalog)
        jobs = jobs[:math.ceil(len(jobs) / 4)]
        before = reports(cli, jobs)
        tr = tracer.Tracer()
        patched = tr.install()
        try:
            during = reports(cli, jobs)
        finally:
            leftover = tr.restore()
        after = reports(cli, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = []
    if not patched:
        problems.append("the tracer patched nothing")
    if leftover:
        problems.append(f"bindings not restored: {leftover}")
    if during != before:
        problems.append("traced reports differ from untraced ones")
    if after != before:
        problems.append("reports after tracing differ from before")
    return problems, patched


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise run.BenchError(f"traced run exited {proc.returncode}: "
                             f"{proc.stderr.strip().splitlines()[-1:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: v["value"] for k, v in res["metrics"].items()
              if v["unit"] == "count"}
    with open(os.path.join(run.OUT_DIR,
                           f"trace-{workload}-{seed}.json")) as fh:
        spans = {(s["span"], s["parent"]): s["calls"]
                 for s in json.load(fh)["spans"]}
    return counts, spans


def main():
    catalog, cli = run.import_program()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    ok = True
    for workload in workloads.WORKLOADS:
        problems, n = check_restore(workload, SEED, catalog, cli)
        first, second = (traced_counts(workload, SEED) for _ in range(2))
        if first != second:
            problems.append("two traced runs gave different work counts")
        for p in problems:
            print(f"FAIL {workload}: {p}")
        if not problems:
            print(f"ok   {workload}: {n} bindings patched and restored, "
                  f"reports unchanged; {len(first[0])} counts and "
                  f"{len(first[1])} span rows identical over two runs")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
