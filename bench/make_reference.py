"""Regenerate reference.json, the frozen expected h1 of every pool pair.

Each pair is computed by both independent routes, the flasque-resolution
pipeline behind `norm_one_invariant` and `sha2_omega` (dimension
shifting); a pair enters the table only when the two agree.  The sweeps
check against this table, never against the route they are timing.  The
table also keeps each route's cost in normalised seconds (see run.py),
the median of three runs in one warm process, each on fresh copies of
the groups with the presentation cache emptied, as the sweeps time a
pair; it only stratifies the seeded draws.

    python3 bench/make_reference.py
"""

import gc
import json
import os
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from normone import sha2_omega  # noqa: E402
from normone.resolutions import _pipeline  # noqa: E402

from run import REFERENCE_PROBE_S  # noqa: E402
from worker import probe  # noqa: E402
from workloads import forget_presentations, fresh_pair, pool_pairs  # noqa: E402

REPEATS = 3


def timed(route, G, H):
    """The route's result and its cost: the median of REPEATS
    normalised timings."""
    times = []
    for _ in range(REPEATS):
        G1, H1 = fresh_pair(G, H)
        forget_presentations()
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        result = route(G1, H1)
        t = time.perf_counter() - t0
        gc.collect()
        times.append(t * REFERENCE_PROBE_S * 2 / (before + probe()))
    return result, round(statistics.median(times), 4)


def main():
    rows = []
    disagree = []
    warnings.simplefilter("ignore")
    for key, (spec, G, H) in sorted(pool_pairs().items()):
        res, pipeline_s = timed(_pipeline, G, H)
        sha, oracle_s = timed(sha2_omega, G, H)
        if sha != res.invariants:
            disagree.append(key)
            print(f"DISAGREE {key}: {res.invariants} vs {sha}", file=sys.stderr)
            continue
        rows.append({
            "key": key,
            "group": spec,
            "subgroup": H.describe(),
            "index": G.order() // H.order(),
            "h1": [str(t) for t in res.invariants.torsion],
            "j_rank": res.j_rank,
            "middle_rank": res.middle_rank,
            "flasque_rank": res.flasque_rank,
            "pipeline_s": pipeline_s,
            "oracle_s": oracle_s,
        })
        print(f"{key} {H.describe()} h1={rows[-1]['h1']} F={res.flasque_rank} "
              f"{pipeline_s:.3f}s {oracle_s:.3f}s", file=sys.stderr, flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"pairs": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
