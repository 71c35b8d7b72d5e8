"""Workload inputs: the sweep pool, the seeded draws and the paper rows.

Everything here is a pure function of the seed and the frozen reference
table, so the same seed always gives the same pair list.  The program
under test only ever sees the generated (G, H) pairs.
"""

import hashlib
import json
import os
import random

from normone import (
    alternating, cohomology, cyclic, dihedral, product_of_cyclics,
    subgroup_classes, symmetric,
)
from normone.perms import PermGroup

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# catalog groups of order <= 24; C2xC2 is the Klein four-group V4
GROUP_SPECS = (
    tuple(f"C{n}" for n in range(2, 13))
    + ("C2xC2", "C2xC4", "C2xC2xC2", "C3xC3", "C2xC6", "S3", "A4", "S4")
    + tuple(f"D{n}" for n in range(3, 13))
)
MAX_INDEX = 8

# The verify-paper rows, in verify-paper order, with the source paper's
# values: Z/2 for A4, trivial for A5-A7.
PAPER_ROWS = (
    ("A4", ("A4", "--point-stabilizer", "4"), ["2"]),
    ("A5", ("A5", "--point-stabilizer", "5"), []),
    ("A6_a", ("A6", "--subgroup", "(1 2 3 4 5),(1 2 3)"), []),
    ("A6_b", ("A6", "--subgroup", "(1 2 3 4 5),(1 4)(5 6)"), []),
    ("A7", ("A7", "--point-stabilizer", "7"), []),
)

# Draws are stratified by the frozen single-pair cost.  The eligible pool
# (pairs costing at most the workload's cap), sorted by cost, is cut into
# buckets of pairs whose costs differ by at most COST_RATIO, holding at
# most cost / unit pairs, and a seed picks one pair per bucket.  Cheap
# pairs thus sit in buckets of one and are always drawn, while costly
# pairs are drawn one from each group of near-equal cost.  A draw whose
# total cost is more than BALANCE away from the expected total is drawn
# again.  Every seed so gets a different list of 92-99 pairs, enough for
# ten beyond the p90, with about the same total cost and latency
# percentiles.  The caps leave out the
# pairs that alone would be most of a pass of six to seven normalised
# seconds: the pipeline's pairs above 1.6 s (among them the flasque-rank
# 147-199 pairs, D8 and C2^3 of index 8) and the oracle's pairs above
# 1.3 s (D8, S4 and D12 with index 4-8).
COST_RATIO = 1.6
BALANCE = 0.02
DRAWS = {  # workload: (cost column, cost cap in s, cost unit in s)
    "class_sweep": ("pipeline_s", 1.6, 0.07),
    "oracle_sweep": ("oracle_s", 1.3, 0.1),
}

# cache_requery: four pairs from each flasque-rank band, so stored entries
# run from small to large; every band's pairs compute in under 1 s.  An
# entry's size also grows with |G|, so a band sorted by (|G|, flasque
# rank) is cut into four strata and a seed picks one pair from each:
# every seed stores about the same sizes.
CACHE_BANDS = ((1, 1), (4, 4), (13, 15), (31, 35), (42, 46))
CACHE_PER_BAND = 4
CACHE_REQUERIES = 1000


def build_group(spec):
    """A group from a spec in the command-line grammar (A4, S3, D6, C2xC4)."""
    if "x" in spec:
        return product_of_cyclics(tuple(int(p[1:]) for p in spec.split("x")))
    kind, n = spec[0], int(spec[1:])
    return {"A": alternating, "S": symmetric, "C": cyclic, "D": dihedral}[kind](n)


def fresh_pair(G, H):
    """Copies of G and H that share no cached state (elements, words,
    subgroup classes) with the originals or with other copies."""
    copy = PermGroup(G.degree, G.generators, label=G.label, kind=G.kind,
                     max_order=G.max_order)
    return copy, copy.subgroup(H.generators)


def forget_presentations():
    """Empty the program's process-wide cache of validated catalog
    presentations, so the next pair builds and validates its presentation
    (Todd-Coxeter included) as a fresh process would.  Together with
    fresh_pair this makes a pair's time independent of the pairs run
    before it."""
    cohomology._catalog.clear()
    cohomology._validated.clear()


def canonical_elements(G, H):
    """Sorted image tuples of the conjugate of H that sorts first, so a
    class is named independently of the representative returned."""
    best = None
    for g in G.elements():
        gi = g.inverse()
        conj = tuple(sorted((gi * h * g).images for h in H.elements()))
        if best is None or conj < best:
            best = conj
    return best


def subgroup_from_elements(G, images):
    """Subgroup of G on the given element images, generated greedily in
    sorted order."""
    by_images = {p.images: p for p in G.elements()}
    gens = []
    H = G.trivial_subgroup()
    for im in images:
        if H.order() == len(images):
            break
        if by_images[im] not in H:
            gens.append(by_images[im])
            H = G.subgroup(gens)
    return H


def pair_key(spec, images):
    digest = hashlib.sha256(repr(images).encode()).hexdigest()[:12]
    return f"{spec}/{len(images)}/{digest}"


def pool_pairs():
    """{key: (spec, G, H)} for every class H with 2 <= [G:H] <= MAX_INDEX."""
    out = {}
    for spec in GROUP_SPECS:
        G = build_group(spec)
        n = G.order()
        for cls in subgroup_classes(G):
            if 2 <= n // cls.order() <= MAX_INDEX:
                images = canonical_elements(G, cls)
                out[pair_key(spec, images)] = (spec, G, subgroup_from_elements(G, images))
    return out


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return {row["key"]: row for row in json.load(fh)["pairs"]}


def _stratified(rows, cost, unit, rng):
    buckets = []
    for r in sorted(rows, key=lambda r: (-r[cost], r["key"])):
        top = buckets[-1][0][cost] if buckets else 0.0
        if (buckets and len(buckets[-1]) < top // unit
                and top <= COST_RATIO * r[cost]):
            buckets[-1].append(r)
        else:
            buckets.append([r])
    expected = sum(sum(r[cost] for r in b) / len(b) for b in buckets)
    while True:
        picks = [rng.choice(b) for b in buckets]
        if abs(sum(r[cost] for r in picks) - expected) <= BALANCE * expected:
            break
    keys = [r["key"] for r in picks]
    rng.shuffle(keys)
    return keys


def draw(workload, seed, reference):
    """The pair keys of one pass, in order, for a sweep or the cache."""
    rng = random.Random(f"{workload}:{seed}")
    rows = list(reference.values())
    if workload in DRAWS:
        cost, cap, unit = DRAWS[workload]
        return _stratified([r for r in rows if r[cost] <= cap], cost, unit, rng)
    if workload == "cache_requery":
        return cache_pairs(rng, rows)
    raise ValueError(f"no seeded draw for {workload}")


def cache_pairs(rng, rows):
    picked = []
    for lo, hi in CACHE_BANDS:
        band = sorted((group_order(r), r["flasque_rank"], r["key"]) for r in rows
                      if lo <= r["flasque_rank"] <= hi and r["subgroup"] != "1")
        for i in range(CACHE_PER_BAND):
            stratum = band[i * len(band) // CACHE_PER_BAND:
                           (i + 1) * len(band) // CACHE_PER_BAND]
            picked.append(rng.choice(stratum)[2])
    return picked


def group_order(row):
    """|G| of a reference row: the index times |H|, the key's middle part."""
    return row["index"] * int(row["key"].split("/")[1])


def requery_order(keys, seed):
    """The timed cache reads: every stored pair equally often, shuffled."""
    rng = random.Random(f"requery:{seed}")
    order = [keys[i % len(keys)] for i in range(CACHE_REQUERIES)]
    rng.shuffle(order)
    return order
