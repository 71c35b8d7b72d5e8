"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  The A7 entry is best-effort: when a configured cap stops it,
the criterion reports SKIPPED rather than failing.
"""

import json
import random
import subprocess
import sys
import time
import warnings
from collections import Counter

import pytest

from normone.cohomology import sha2_omega
from normone.errors import CapExceeded
from normone.intmat import AbelianInvariants, IntMatrix, snf_invariants
from normone.lattices import chevalley_module
from normone.perms import (
    Permutation, alternating, are_conjugate_subgroups, cyclic, dihedral,
    product_of_cyclics, subgroup_classes, symmetric,
)
from normone.resolutions import coflasque_cover, norm_one_invariant
from oracles import (
    bar_h1, det, dual, element_order, h1, is_flasque, lattice_pool, presentation_catalog, snf,
    twist_lattice,
)

P = Permutation.from_cycles
V4 = product_of_cyclics((2, 2))
Z2 = AbelianInvariants(0, (2,))
TRIVIAL = AbelianInvariants(0, ())


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def a6_data():
    G = alternating(6)
    H1 = G.subgroup([P([(1, 2, 3, 4, 5)], 6), P([(1, 2, 3)], 6)])
    H2 = G.subgroup([P([(1, 2, 3, 4, 5)], 6), P([(1, 4), (5, 6)], 6)])
    t0 = time.monotonic()
    inv1 = norm_one_invariant(G, H1)
    inv2 = norm_one_invariant(G, H2)
    elapsed = time.monotonic() - t0
    return G, H1, H2, inv1, inv2, elapsed


def test_criterion_1_a4():
    t0 = time.monotonic()
    G = alternating(4)
    inv = norm_one_invariant(G, G.point_stabilizer(4))
    elapsed = time.monotonic() - t0
    report("1 (A4 -> Z/2)", inv == Z2, f"got {inv} in {elapsed:.1f}s (< 10s expected)")


def test_criterion_2_a5():
    t0 = time.monotonic()
    G = alternating(5)
    inv = norm_one_invariant(G, G.point_stabilizer(5))
    elapsed = time.monotonic() - t0
    report("2 (A5 -> 0)", inv == TRIVIAL, f"got {inv} in {elapsed:.1f}s (< 2min expected)")


def test_criterion_3_a6_both_classes(a6_data):
    G, H1, H2, inv1, inv2, elapsed = a6_data
    conj = are_conjugate_subgroups(G, H1, H2)
    ok = inv1 == TRIVIAL and inv2 == TRIVIAL and not conj
    report("3 (A6 both A5-classes -> 0, non-conjugate)", ok,
           f"got {inv1}, {inv2}, conjugate={conj} in {elapsed:.1f}s (< 30min expected)")


def test_criterion_4_a7_best_effort():
    t0 = time.monotonic()
    G = alternating(7)
    try:
        inv = norm_one_invariant(G, G.point_stabilizer(7))
    except CapExceeded as exc:
        print(f"ACCEPTANCE 4 (A7 -> 0): SKIPPED  default caps exceeded: {exc}")
        pytest.skip(f"A7 skipped at default caps: {exc}")
    elapsed = time.monotonic() - t0
    report("4 (A7 -> 0)", inv == TRIVIAL, f"got {inv} in {elapsed:.1f}s (best effort)")


def _oracle_pairs():
    C2 = cyclic(2)
    C4 = cyclic(4)
    C6 = cyclic(6)
    S3 = symmetric(3)
    A4 = alternating(4)
    D4 = dihedral(4)
    return [
        ("C2/1", C2, C2.trivial_subgroup()),
        ("C4/C2", C4, C4.subgroup([P([(1, 3), (2, 4)], 4)])),
        ("C6/C2", C6, C6.subgroup([P([(1, 4), (2, 5), (3, 6)], 6)])),
        ("S3/C2", S3, S3.subgroup([P([(1, 2)], 3)])),
        ("S3/C3", S3, S3.subgroup([P([(1, 2, 3)], 3)])),
        ("A4/A3", A4, A4.point_stabilizer(4)),
        ("A4/C2", A4, A4.subgroup([P([(1, 2), (3, 4)], 4)])),
        ("V4/1", V4, V4.trivial_subgroup()),
        ("D4/C2 noncentral", D4, D4.subgroup([P([(2, 4)], 4)])),
    ]


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, G, H in _oracle_pairs():
            a = sha2_omega(G, H)
            b = norm_one_invariant(G, H)
            if a != b:
                mismatches.append(f"{name}: sha={a} pipeline={b}")
    elapsed = time.monotonic() - t0
    report("5 (sha2_omega == pipeline on 9 pairs)", not mismatches,
           f"{'; '.join(mismatches) or 'all agree'} in {elapsed:.1f}s (< 5min expected)")


def test_criterion_6_klein_four_sha():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inv = sha2_omega(V4, V4.trivial_subgroup())
    report("6 (sha2_omega(V4, 1) = Z/2)", inv == Z2, f"got {inv}")


def _snf_identities(trials=1000):
    rng = random.Random(20250808)
    for _ in range(trials):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        A = IntMatrix([[rng.randint(-100, 100) for _ in range(n)] for _ in range(m)])
        d = snf(A)
        if d.U * A * d.V != d.D:
            return f"U*A*V != D for {A!r}"
        if abs(det(d.U)) != 1 or abs(det(d.V)) != 1:
            return f"transform not unimodular for {A!r}"
        diag = [d.D.data[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j and d.D.data[i][j]:
                    return f"D not diagonal for {A!r}"
        nz = [x for x in diag if x]
        if any(x < 0 for x in nz):
            return f"negative invariant for {A!r}"
        for a, b in zip(nz, nz[1:]):
            if b % a:
                return f"divisibility chain broken for {A!r}"
        if snf_invariants(A) != nz:
            return f"snf_invariants differs from the reference for {A!r}"
    return None


def _catalog_groups_order_le_12():
    groups = [alternating(3), alternating(4), symmetric(2), symmetric(3)]
    groups += [cyclic(k) for k in range(2, 13)]
    groups += [dihedral(k) for k in range(1, 7)]
    groups += [product_of_cyclics(p) for p in
               [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4),
                (2, 2, 2), (2, 2, 3)]]
    assert all(g.order() <= 12 for g in groups)
    return groups


def _h1_vs_bar(lattices_per_group=20):
    rng = random.Random(1234)
    checked = 0
    for G in _catalog_groups_order_le_12():
        pres = presentation_catalog(G)
        pool = lattice_pool(G)
        for i in range(lattices_per_group):
            base = pool[i % len(pool)]
            L = twist_lattice(rng, base) if i >= len(pool) else base
            if h1(L, pres) != bar_h1(L):
                return f"h1 != bar oracle over {G.label} (rank {L.rank})", checked
            checked += 1
    return None, checked


def _flasque_sides_up_to_360():
    cases = [
        (cyclic(2), "trivial"), (cyclic(4), "half"), (cyclic(6), "half"),
        (symmetric(3), "point"), (symmetric(4), "point"),
        (alternating(4), "point"), (alternating(5), "point"),
        (V4, "trivial"), (dihedral(4), "reflection"),
        (symmetric(5), "point"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for G, mode in cases:
            H = _subgroup_for(G, mode)
            ok, witness = is_flasque(_flasque_side(chevalley_module(G, H)))
            if not ok:
                return f"{G.label}: side not flasque at {witness.describe()}"
        G = alternating(6)
        H = G.subgroup([P([(1, 2, 3, 4, 5)], 6), P([(1, 2, 3)], 6)])
        ok, witness = is_flasque(_flasque_side(chevalley_module(G, H)))
        if not ok:
            return f"A6: side not flasque at {witness.describe()}"
    return None


def _flasque_side(L):
    """F in 0 -> L -> P -> F -> 0: the dual of the kernel of a coflasque
    cover of dual(L), whose transpose is that resolution."""
    return dual(coflasque_cover(dual(L)).side)


def _subgroup_for(G, mode):
    if mode == "trivial":
        return G.trivial_subgroup()
    if mode == "half":
        n = G.order()
        gen = G.generators[0]
        return G.subgroup([gen * gen]) if n % 2 == 0 else G.trivial_subgroup()
    if mode == "reflection":
        return G.subgroup([P([(2, 4)], G.degree)])
    return G.point_stabilizer(G.degree)


def test_criterion_7_property_suite():
    t0 = time.monotonic()
    fail = _snf_identities(1000)
    report("7a (reference SNF identities and snf_invariants, 1000 matrices <= 8x8)",
           fail is None,
           fail or f"in {time.monotonic() - t0:.1f}s")
    t0 = time.monotonic()
    fail, checked = _h1_vs_bar(20)
    report("7b (h1 == bar oracle, catalog groups |G| <= 12)", fail is None,
           fail or f"{checked} lattices in {time.monotonic() - t0:.1f}s")
    t0 = time.monotonic()
    fail = _flasque_sides_up_to_360()
    report("7c (flasque sides pass is_flasque: Tate H^-1 vanishes on every "
           "prime-power class, |G| <= 360)", fail is None,
           fail or f"in {time.monotonic() - t0:.1f}s")
    t0 = time.monotonic()
    G = alternating(5)
    a = norm_one_invariant(G, G.point_stabilizer(1))
    b = norm_one_invariant(G, G.point_stabilizer(5))
    report("7d (conjugation invariance on A5 stabilizers)", a == b,
           f"got {a}, {b} in {time.monotonic() - t0:.1f}s")


def test_criterion_8_fpgroups():
    from normone.fpgroups import (
        preimage_an, schur_cover_sn, todd_coxeter, verify_commutator_claim,
    )
    t0 = time.monotonic()
    results = {}
    for n, expected in ((4, 48), (5, 240)):
        results[f"U{n}"] = todd_coxeter(schur_cover_sn(n), ()).coset_count == expected
    for n, expected in ((4, 24), (5, 120)):
        data = preimage_an(n)
        results[f"V{n}"] = (data.v_order == expected
                            and data.index_table.coset_count == 2)
        results[f"claim{n}"] = verify_commutator_claim(data)
    ok = all(results.values())
    report("8 (covering-group orders and commutator identity)", ok,
           f"{results} in {time.monotonic() - t0:.1f}s (< 1min expected)")


def test_criterion_9_cli():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "normone.cli", "verify-paper", "--max-n", "6"],
        capture_output=True, text=True, timeout=1800)
    ok = proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    schema_ok = all(
        set(rec) == {"group", "subgroup", "j_rank", "flasque_rank", "h1",
                     "verdict", "ms", "version"}
        for rec in lines)
    report("9a (verify-paper exits 0 over criteria 1-3)", ok and len(lines) == 4,
           f"rc={proc.returncode}, {len(lines)} records in {time.monotonic() - t0:.1f}s")
    report("9b (JSON schema stable)", schema_ok, f"keys checked on {len(lines)} records")
    rng = random.Random(424242)
    from normone.cli import parse_cycles
    bad = 0
    for _ in range(10_000):
        degree = rng.randint(1, 12)
        images = list(range(degree))
        rng.shuffle(images)
        p = Permutation(images)
        if parse_cycles(p.cycle_string(), degree=degree) != p:
            bad += 1
    report("9c (cycle parser round-trip, 10^4 permutations)", bad == 0,
           f"{bad} failures")


# (degree, number of transitive groups, the groups with H^1 = Z/2 over the
# stabilizer of a point, each named by its counts of element orders; every
# other transitive group of the degree has H^1 = 0)
_CLASSIFICATIONS = (
    # Kunyavskii (1984): a quartic HNP failure needs G = V4 or A4
    (4, 5, {"V4": {1: 1, 2: 3}, "A4": {1: 1, 2: 3, 3: 8}}),
    # Bartels (1981): the HNP holds in prime degree
    (5, 5, {}),
    # a regression value until compared with Hoshi-Kanai-Yamasaki's
    # degree-6 list: A4 (6T4) and A5 (6T12) acting on 6 points
    (6, 16, {"A4": {1: 1, 2: 3, 3: 8}, "A5": {1: 1, 2: 15, 3: 20, 5: 24}}),
)


def _transitive_classes(n):
    """The subgroup classes of S_n whose orbit of point 1 is all n points."""
    out = []
    for cls in subgroup_classes(symmetric(n)):
        orbit = [0]
        for p in orbit:
            for g in cls.generators:
                if g.images[p] not in orbit:
                    orbit.append(g.images[p])
        if len(orbit) == n:
            out.append(cls)
    return out


def test_criterion_10_published_classifications():
    t0 = time.monotonic()
    problems = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n, count, nontrivial in _CLASSIFICATIONS:
            groups = _transitive_classes(n)
            if len(groups) != count:
                problems.append(f"degree {n}: {len(groups)} transitive groups, not {count}")
            found = []
            for G in groups:
                H = G.point_stabilizer(1)
                inv = norm_one_invariant(G, H)
                orders = dict(Counter(element_order(p) for p in G.elements()))
                name = next((k for k, v in nontrivial.items() if v == orders), None)
                if inv != (Z2 if name else TRIVIAL):
                    problems.append(f"degree {n}, order {G.order()}: h1={inv}")
                if name:
                    found.append(name)
                if G.order() <= 360 and sha2_omega(G, H) != inv:
                    problems.append(f"degree {n}, order {G.order()}: sha2_omega != {inv}")
            if sorted(found) != sorted(nontrivial):
                problems.append(f"degree {n}: Z/2 for {found}, not {sorted(nontrivial)}")
    report("10 (transitive groups of degree 4-6: Kunyavskii, Bartels, degree-6 regression)",
           not problems, f"{'; '.join(problems) or 'all agree'} in "
           f"{time.monotonic() - t0:.1f}s")
