"""Benchmark entry point.

    python3 bench/run.py --workload class_sweep --seed 1 --seconds 30 --trace 0

Runs passes of one workload, each in a fresh interpreter (worker.py), one
after another, until --seconds have passed and there are at least
MIN_PASSES passes, plus set-up-only interpreters until there are
MIN_SETUPS set-up samples.  Every pass runs the same job list.  With
--trace 0 it prints the end-to-end metrics, in machine-normalised
seconds: each time is scaled by REFERENCE_PROBE_S over a fixed probe's
time measured next to it, which takes out how fast the shared host ran
at that moment; the raw times are in the detail record.  With --trace 1
it runs one untraced and one traced pass and prints the per-layer
metrics.  The last stdout line is the result; the line before it is a
detail record (machine, load, sample counts, per-row times, trace
summary).  Exits 2 without a result when the checkout has no program to
measure.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
MIN_PASSES = 3
# what worker.probe takes, in seconds, on the host that reports
# normalised seconds equal to wall seconds
REFERENCE_PROBE_S = 1e-4
MIN_SETUPS = 5
DEADLINE_S = 170
WORKLOADS = ("paper_table", "class_sweep", "oracle_sweep", "cache_requery")


def machine():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def worker(workload, seed, deadline, trace=0, setup_only=False):
    """Run one fresh interpreter; returns (its JSON output, setup seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", WORK, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, out["ready"] - launched


def percentile(values, q):
    """The q-quantile, interpolated linearly between the two nearest
    ranks.  The sweeps' costs have gaps in the tail, and a nearest-rank
    p90 that sits at one jumps across the gap from run to run."""
    s = sorted(values)
    x = q * (len(s) - 1)
    i = min(int(x), len(s) - 2)
    return s[i] + (x - i) * (s[i + 1] - s[i])


def run(workload, seed, seconds, trace):
    runs, setups = [], []
    start = time.monotonic()
    deadline = start + DEADLINE_S

    def start_worker(**kw):
        out, setup = worker(workload, seed, deadline, **kw)
        runs.append(out)
        setups.append(setup)
        return out

    if trace:
        passes = [start_worker(trace=t) for t in (0, 1)]
    else:
        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            passes.append(start_worker())
        while len(setups) < MIN_SETUPS:
            start_worker(setup_only=True)
    attempted = failed = 0
    problems = []
    for out in runs:
        attempted += out["setup_pairs"]
        failed += len(out["setup_failures"])
        problems += out["setup_failures"]
    for p in passes:
        attempted += len(p["pairs"])
        for key, _, problem, _, _ in p["pairs"]:
            if problem:
                failed += 1
                problems.append(f"{key}: {problem}")
    detail = {"workload": workload, "seed": seed, "passes": len(passes),
              "pairs_per_pass": len(passes[0]["pairs"]),
              "setup_samples": len(setups), "problems": problems[:20]}
    if trace:
        untraced, traced = passes
        tr = traced["trace"]
        metrics = tr["metrics"]
        detail["trace"] = {
            "untraced_total_s": untraced["total_s"],
            "traced_total_s": traced["total_s"],
            "overhead_s": traced["total_s"] - untraced["total_s"],
            "root_spans_s": tr["root_s"],
            "root_coverage": tr["root_s"] / traced["total_s"],
            "counter_bookkeeping_s": tr["hook_s"],
            "layer_self_s": tr["layer_self_s"],
            "span_self_s": tr["span_self_s"],
            "span_calls": tr["span_calls"],
            "counters": tr["counters"],
            "spans": tr["spans"],
            "file": tr["file"],
        }
    else:
        # Each sample is normalised for the speed of the host at the time:
        # its wall time times REFERENCE_PROBE_S over the probe time
        # measured just before and just after it (see worker.probe).
        # A job's latency is the median of its samples over the passes.
        samples = [[t * REFERENCE_PROBE_S / ((before + after) / 2)
                    for _, t, _, before, after in p["pairs"]] for p in passes]
        jobs = [statistics.median(x) for x in zip(*samples)]
        setup_norm = [s * REFERENCE_PROBE_S / out["setup_probe"]
                      for s, out in zip(setups, runs)]
        metrics = {
            "setup_s": statistics.median(setup_norm),
            "total_s": sum(jobs),
            "pair_p50_s": percentile(jobs, 0.5),
            "pair_p90_s": percentile(jobs, 0.9),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        units = {"peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()}
        detail["pair_samples"] = len(jobs)
        detail["samples_beyond_p90"] = sum(t > metrics["pair_p90_s"]["value"] for t in jobs)
        detail["setup_s"] = setup_norm
        detail["raw_setup_s"] = setups
        detail["raw_pass_s"] = [p["total_s"] for p in passes]
        detail["pass_cpu_s"] = [p["cpu_s"] for p in passes]
        detail["probe_median_s"] = [statistics.median(r[3] for r in p["pairs"])
                                    for p in passes]
        if workload == "paper_table":
            rows = {}
            for p, pass_samples in zip(passes, samples):
                for (key, *_), t in zip(p["pairs"], pass_samples):
                    rows.setdefault(key, []).append(t)
            detail["row_s"] = {k: statistics.median(v) for k, v in rows.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, detail


def _terminate(signum, frame):
    # raising inside subprocess.run makes it kill and reap the worker
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in (os.path.join(ROOT, "src", "normone", "__init__.py"),
                 os.path.join(HERE, "reference.json")):
        if not os.path.isfile(need):
            print(f"error: {os.path.relpath(need, ROOT)} not found; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    os.makedirs(WORK, exist_ok=True)
    load_start = os.getloadavg()
    try:
        result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    finally:
        for name in os.listdir(WORK):
            if name.startswith("cache-"):
                shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    detail["machine"] = machine()
    detail["loadavg_start"] = load_start
    detail["loadavg_end"] = os.getloadavg()
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
