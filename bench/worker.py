"""One pass of one workload, in a fresh interpreter.

Run by run.py, never directly: it prints one JSON line on stdout with
the moment its pairs were ready (a CLOCK_MONOTONIC reading, shared by
all processes) and the mean probe time at its start and at that moment;
each pair's latency, check result and the probe times just before and
after it; and, in traced mode, the per-layer metrics.  With --setup-only
it stops once its pairs are ready.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

SWEEPS = ("class_sweep", "oracle_sweep")
RECORD_KEYS = {"group", "subgroup", "j_rank", "flasque_rank", "h1", "verdict",
               "ms", "version"}


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def _run_cli(cli, argv):
    """cli.main(argv) -> (exit code, stdout text); stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_Discard()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def _check_record(text, group, expected_h1):
    """None if the compute record is right, else what is wrong."""
    record = json.loads(text)
    if set(record) != RECORD_KEYS:
        return f"record keys {sorted(record)}"
    if record["group"] != group:
        return f"group {record['group']!r}"
    if record["h1"] != expected_h1:
        return f"h1 {record['h1']} != {expected_h1}"
    holds = "holds" if not expected_h1 else "undetermined"
    if record["verdict"] != {"hnp": holds, "wa": holds, "obstruction": expected_h1}:
        return f"verdict {record['verdict']} inconsistent with h1"
    return None


def _h1_strings(inv):
    if inv.free_rank:
        return [f"free rank {inv.free_rank}"]
    return [str(t) for t in inv.torsion]


_PROBE_ROWS = [[(7 * i + 13 * j) % 17 - 8 for j in range(8)] for i in range(8)]


def _probe_once():
    """A fixed piece of interpreter work like the program's own: integer
    row operations on small lists, indexed through a permutation."""
    perm = tuple((3 * i + 1) % 8 for i in range(8))
    for _ in range(4):
        rows = [list(r) for r in _PROBE_ROWS]
        for i in range(8):
            pivot = rows[i][i] or 1
            for r in rows[i + 1:]:
                f = r[i] // pivot
                for j in range(8):
                    r[j] = r[j] - f * rows[i][perm[j]]
    return rows


def probe():
    """Seconds the fixed probe takes now, the fastest of three runs.  The
    shared host runs everything up to twice as slow for seconds at a
    time; a job's wall time over the probe time next to it does not
    move with that, so the end-to-end metrics are normalised by it."""
    best = None
    for _ in range(3):
        t = time.perf_counter()
        _probe_once()
        d = time.perf_counter() - t
        best = d if best is None or d < best else best
    return best


class Pass:
    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.cache_dir = None
        self.setup_pairs = 0
        self.setup_failures = []

    def setup(self):
        """Imports and pair generation; for cache_requery, the cache fill;
        for all but paper_table, which is timed cold, a warm-up."""
        from normone import cli
        self.cli = cli
        if self.workload == "paper_table":
            self.jobs = [(name, argv, h1) for name, argv, h1 in workloads.PAPER_ROWS]
            return
        reference = workloads.load_reference()
        pool = workloads.pool_pairs()
        if set(pool) != set(reference):
            missing = sorted(set(reference) - set(pool))
            extra = sorted(set(pool) - set(reference))
            raise SystemExit(f"pool differs from reference.json: missing {missing}, "
                             f"extra {extra}")
        keys = workloads.draw(self.workload, self.seed, reference)
        expected = {k: reference[k]["h1"] for k in keys}
        if self.workload in SWEEPS:
            # every job, and the warm-up, on its own copies of the groups
            self.jobs = [(k, workloads.fresh_pair(*pool[k][1:]), expected[k])
                         for k in keys]
            first = self.jobs[0]
            self.warm_up((first[0], workloads.fresh_pair(*pool[first[0]][1:]),
                          first[2]))
            return
        self.cache_dir = os.path.join(self.work_dir, f"cache-{os.getpid()}")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        self.stored = {}
        self.entry_bytes = {}
        self.setup_pairs = len(keys)
        for k in keys:
            spec, _, H = pool[k]
            argv = ("compute", spec, "--subgroup", H.describe(), "--cache-dir",
                    self.cache_dir)
            before = set(os.listdir(self.cache_dir))
            rc, text = _run_cli(cli, argv)
            problem = (f"exit code {rc}" if rc != 0
                       else _check_record(text, spec, expected[k]))
            if problem:
                self.setup_failures.append(f"{k}: set-up write: {problem}")
            new = set(os.listdir(self.cache_dir)) - before
            self.entry_bytes[k] = sum(
                os.path.getsize(os.path.join(self.cache_dir, f)) for f in new)
            self.stored[k] = (argv, text)
        self.jobs = [(k, self.stored[k][0], self.stored[k][1])
                     for k in workloads.requery_order(keys, self.seed)]
        self.warm_up(self.jobs[0])

    def warm_up(self, job):
        """Run a copy of the first job once, untimed, so that one-time
        costs of the interpreter (lazy imports, first numpy calls) fall
        into set-up and not onto whichever pair a seed puts first."""
        self.forget()
        self.run_one(job, None)

    def forget(self):
        """Between jobs: collect the garbage of the one before, so that
        no job pays for another's; for a sweep, also empty the
        presentation cache, so that, with the job's own group copies, its
        time does not depend on the pairs run before it."""
        gc.collect()
        if self.workload in SWEEPS:
            workloads.forget_presentations()

    def run_one(self, job, rec):
        """Run one job (key, inputs, expected output); returns None if the
        output is right, else what is wrong."""
        key, inputs, expected = job
        if self.workload == "paper_table":
            rc, text = _run_cli(self.cli, ("compute",) + inputs)
            if rc != 0:
                return f"exit code {rc}"
            return _check_record(text, inputs[0], expected)
        if self.workload == "cache_requery":
            hits = rec.counts["cli.cache_hits"] if rec else 0
            rc, text = _run_cli(self.cli, inputs)
            if rec and rec.counts["cli.cache_hits"] > hits:
                rec.bump("cli.cache_entry_bytes", self.entry_bytes[key])
            if rc != 0:
                return f"exit code {rc}"
            if text != expected:
                return "cached record differs from the one written"
            return None
        G, H = inputs
        if self.workload == "class_sweep":
            from normone import resolutions
            got = _h1_strings(resolutions.norm_one_invariant(G, H))
        else:
            from normone import cohomology
            got = _h1_strings(cohomology.sha2_omega(G, H))
        return None if got == expected else f"h1 {got} != {expected}"

    def run(self, rec, limit):
        results = []
        cpu = 0.0
        self.forget()
        before = probe()
        for job in self.jobs[:limit]:
            if rec:
                rec.pair = job[0]
            c = time.process_time()
            s = time.perf_counter()
            try:
                problem = self.run_one(job, rec)
            except Exception as exc:  # a failing pair is counted, not fatal
                problem = f"{type(exc).__name__}: {exc}"
            t = time.perf_counter() - s
            cpu += time.process_time() - c
            # before the probe, so that collecting the job's garbage
            # never lands in it
            self.forget()
            after = probe()
            results.append([job[0], t, problem, before, after])
            before = after
        return results, sum(r[1] for r in results), cpu

    def close(self):
        if self.cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first N pairs (used by the tests)")
    args = ap.parse_args()
    warnings.simplefilter("ignore")
    start_probe = probe()
    p = Pass(args.workload, args.seed, args.work_dir)
    try:
        p.setup()
        # the benchmark's own long-lived data (pool, group copies) is
        # kept out of the collections that the jobs trigger
        gc.collect()
        gc.freeze()
        ready = time.monotonic()
        out = {"ready": ready, "setup_probe": (start_probe + probe()) / 2,
               "setup_pairs": p.setup_pairs,
               "setup_failures": p.setup_failures}
        if not args.setup_only:
            rec = None
            if args.trace:
                import tracing
                rec = tracing.Recorder()
                tracing.install(rec)
            results, total, cpu = p.run(rec, args.limit)
            out.update(pairs=results, total_s=total, cpu_s=cpu,
                       rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            if rec:
                path = os.path.join(args.work_dir,
                                    f"trace-{args.workload}-{args.seed}.jsonl")
                rec.write(path, {"workload": args.workload, "seed": args.seed,
                                 "span": ["name", "start", "end", "parent", "pair"]})
                out["trace"] = {
                    "metrics": rec.metrics(),
                    "counters": rec.counters(),
                    "root_s": rec.root_seconds(),
                    "hook_s": rec.hook_s,
                    "layer_self_s": rec.layer_self_seconds(),
                    "span_self_s": dict(sorted(rec.self_s.items())),
                    "span_calls": dict(sorted(rec.calls.items())),
                    "spans": len(rec.spans),
                    "file": os.path.relpath(path),
                }
    finally:
        p.close()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
