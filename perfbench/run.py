"""Benchmark of hawkesq: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {analytic,queue,fclt,all} --seed N \
        --seconds S --trace {0,1}

BENCHMARK.json gates ``analytic`` and ``queue``.  ``fclt`` (5000 short
cluster replications, thinning, the CSV writer) runs the same way but is not
gated: it is mostly interpreter-bound, and on a shared 2-core host its wall
time swung by 1.8x between runs minutes apart, beyond any usable bound.

Every workload pass runs in its own fresh process (``worker.py``), so peak
memory, CPU time and set-up time belong to that pass alone; they come from
``os.wait4``, the per-child form of ``getrusage(RUSAGE_CHILDREN)``.  A run
first starts ``SETUP_SAMPLES`` set-up-only processes, then repeats passes
with the same seed while another pass still fits in ``--seconds``, and
reports medians.  With ``--trace 1`` untraced and traced passes alternate;
the traced ones give the per-layer metrics, and the pair gives the tracing
overhead.

Each run prints every metric with its unit and sample count, appends a full
record (machine, sizes, samples, failures) to ``.perfbench/runs.jsonl`` at
the checkout root, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``compare.py`` compares
two such record files.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("analytic", "queue", "fclt")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0          # a run must end within 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def metric_units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def machine_record():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    from importlib.metadata import version
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": version("scipy"), "blas": blas,
            "threads_env": {v: os.environ.get(v) for v in THREAD_VARS}, "commit": commit}


class Pass:
    """Outcome of one worker process."""

    def __init__(self, result, usage, elapsed, error):
        self.result = result or {}
        self.elapsed = elapsed
        self.error = error
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0      # ru_maxrss is in KiB on Linux


def run_worker(workload, seed, trace, deadline, setup_only=False):
    out = WORK / "tmp" / f"{os.getpid()}-{time.monotonic_ns()}"
    out.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(out),
            "1" if trace else "0"] + (["--setup-only"] if setup_only else [])
    try:
        with open(out / "stderr.txt", "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
            killed = False
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > deadline and not killed:
                        proc.kill()
                        killed = True
                    time.sleep(0.01)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            elapsed = time.monotonic() - start
        error = None
        result = None
        if killed:
            error = "killed at the run's time limit"
        elif proc.returncode != 0:
            error = f"worker exit {proc.returncode}: " + \
                (out / "stderr.txt").read_text()[-2000:]
        else:
            result = json.loads((out / "result.json").read_text())
            if trace and not setup_only:
                traces = WORK / "traces"
                traces.mkdir(parents=True, exist_ok=True)
                shutil.move(out / "spans.jsonl", traces / f"{workload}-seed{seed}.jsonl")
        return Pass(result, usage, elapsed, error)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + seconds
    hard = start + RUN_LIMIT_S
    setups = [run_worker(workload, seed, False, hard, setup_only=True)
              for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    while True:
        plain.append(run_worker(workload, seed, False, hard))
        if trace:
            traced.append(run_worker(workload, seed, True, hard))
        cycle = statistics.median(p.elapsed for p in plain) + \
            (statistics.median(p.elapsed for p in traced) if trace else 0.0)
        if time.monotonic() + cycle > deadline or any(p.error for p in plain + traced):
            break

    passes = plain + traced
    failures = [p.error for p in setups + passes if p.error]
    for p in passes:
        failures.extend(p.result.get("failures", []))
    attempted = sum(1 for p in setups if p.error) + \
        sum(p.result.get("attempted", 1) for p in passes)
    failed = len(failures)
    ok = [p for p in plain if not p.error]
    samples = {
        "wall_s": [p.result["wall_s"] for p in ok],
        "cpu_s": [p.cpu_s for p in ok],
        "setup_s": [p.result["setup_s"] for p in setups + passes if not p.error],
        "peak_rss_mb": [p.peak_rss_mb for p in ok],
    }
    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        layers = [p.result["layers"] for p in traced if not p.error]
        for name in units:
            if name != "trace.overhead_frac":
                samples[name] = [lay.get(name, 0.0) for lay in layers]
        traced_wall = [p.result["wall_s"] for p in traced if not p.error]
        if traced_wall and samples["wall_s"]:
            samples["trace.overhead_frac"] = [
                statistics.median(traced_wall) / statistics.median(samples["wall_s"]) - 1.0]
    sizes = next((p.result.get("sizes") for p in reversed(passes) if not p.error), {})
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "attempted": attempted, "failed": failed, "failures": failures, "sizes": sizes,
            "units": units, "samples": samples,
            "metrics": {n: quartiles(v)[1] for n, v in samples.items() if n in units and v}}


def report(rec):
    w = rec["workload"]
    for name, unit in rec["units"].items():
        values = rec["samples"].get(name, [])
        if not values:
            print(f"{w:9s} {name:36s} {'n/a':>14s}")
            continue
        q1, med, q3 = quartiles(values)
        print(f"{w:9s} {name:36s} {med:14.6g} {unit:6s} n={len(values):<3d}"
              f" q1={q1:.6g} q3={q3:.6g}")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"{w:9s} {'fail_frac':36s} {frac:14.6g} {'1':6s} "
          f"({rec['failed']} of {rec['attempted']} operations)")
    print(f"{w:9s} {'sizes':36s} {json.dumps(rec['sizes'], sort_keys=True)}")
    for failure in rec["failures"]:
        print(f"{w:9s} FAILED {failure}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hawkesq" / "__init__.py").is_file():
        print(f"no hawkesq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    machine = machine_record()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        rec = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        rec["machine"] = machine
        report(rec)
        records.append(rec)
    with open(WORK / "runs.jsonl", "a") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")

    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        metrics.update({prefix + n: {"value": v, "unit": rec["units"][n]}
                        for n, v in rec["metrics"].items()})
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    complete = all(set(r["metrics"]) == set(r["units"]) for r in records)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
