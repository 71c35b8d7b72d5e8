"""Independent brute-force oracles for the test suite.

Everything here recomputes a quantity the library produces by a faster
route, using the most literal definition available, so the two sides
never share a code path.  The dimension shift through Ind J, which the
library's `sha2_omega` replaced by a free cover of I_{G/H}, lives here as
`sha2_omega_shift`.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from normone.intmat import (
    AbelianInvariants, IntMatrix, det, hnf_basis, kernel_basis,
    quotient_invariants, snf_invariants, vstack,
)
from normone.lattices import GLattice, LatticeMap, chevalley_module, dual
from normone.perms import Permutation, cyclic_subgroup_classes


def brute_closure(degree, gens):
    """Multiply-until-stable closure, deliberately different from the
    library's BFS (grows by all pairwise products each round)."""
    elems = {Permutation.identity(degree)}
    elems.update(gens)
    while True:
        new = set()
        for a in elems:
            for b in gens:
                c = a * b
                if c not in elems:
                    new.add(c)
        if not new:
            return elems
        elems |= new


def bar_h1(L):
    """H^1 from the bar complex: cocycles are arbitrary functions on G
    with c(gh) = c(g) rho(h) + c(h), coboundaries m |-> m rho(g) - m."""
    G = L.group
    elems = G.elements()
    n = len(elems)
    pos = {p: i for i, p in enumerate(elems)}
    R = L.rank
    if R == 0 or n == 1:
        return AbelianInvariants(0, ())
    rho = [L.matrix_of(p).tolist() for p in elems]
    ncols = n * n * R
    C = [[0] * ncols for _ in range(n * R)]

    def add_block(row_block, col_block, mat, sign):
        base_r = row_block * R
        base_c = col_block * R
        for a in range(R):
            row = C[base_r + a]
            for b in range(R):
                row[base_c + b] += sign * mat[a][b]

    ident = [[1 if a == b else 0 for b in range(R)] for a in range(R)]
    k = 0
    for gi, g in enumerate(elems):
        for hi, h in enumerate(elems):
            ghi = pos[g * h]
            add_block(ghi, k, ident, +1)
            add_block(gi, k, rho[hi], -1)
            add_block(hi, k, ident, -1)
            k += 1
    Z = kernel_basis(IntMatrix(C, ncols=ncols))
    B = []
    for a in range(R):
        row = []
        for gi in range(n):
            row.extend(rho[gi][a][b] - (1 if a == b else 0) for b in range(R))
        B.append(row)
    return quotient_invariants(Z, IntMatrix(B, ncols=n * R))


def _bar2_lattices(elems, rho, R):
    """(Z2, B2) for 2-cocycles of the given element list acting by rho,
    as row lattices in the n*n*R coordinate space of functions on pairs.

    Right-module bar differentials:
      (df)(g,h,k) = f(h,k) - f(gh,k) + f(g,hk) - f(g,h) rho(k)
      (db)(g,h)   = b(g) rho(h) - b(gh) + b(h)
    """
    n = len(elems)
    pos = {p: i for i, p in enumerate(elems)}
    ident = [[1 if a == b else 0 for b in range(R)] for a in range(R)]

    pair = {}
    k = 0
    for g in elems:
        for h in elems:
            pair[(g, h)] = k
            k += 1

    ncols = n * n * n * R
    C = [[0] * ncols for _ in range(n * n * R)]

    def add(row_block, col_block, mat, sign):
        base_r = row_block * R
        base_c = col_block * R
        for a in range(R):
            row = C[base_r + a]
            for b in range(R):
                row[base_c + b] += sign * mat[a][b]

    col = 0
    for g in elems:
        for h in elems:
            for kk in elems:
                add(pair[(h, kk)], col, ident, +1)
                add(pair[(g * h, kk)], col, ident, -1)
                add(pair[(g, h * kk)], col, ident, +1)
                add(pair[(g, h)], col, rho[pos[kk]], -1)
                col += 1
    # a Hermite basis, since sha2_omega_bar takes coordinates in it
    Z2 = hnf_basis(kernel_basis(IntMatrix(C, ncols=ncols)))

    B = []
    for gi in range(n):
        for a in range(R):
            row = [0] * (n * n * R)
            for g in elems:
                for h in elems:
                    blk = pair[(g, h)] * R
                    if g == elems[gi]:
                        for b in range(R):
                            row[blk + b] += rho[pos[h]][a][b]
                    if g * h == elems[gi]:
                        row[blk + a] -= 1
                    if h == elems[gi]:
                        row[blk + a] += 1
            B.append(row)
    return Z2, IntMatrix(B, ncols=n * n * R)


def sha2_omega_bar(G, H):
    """Kernel of restriction on bar-complex H^2(G, J_{G/H}): independent
    of dimension shifting and of presentations.  Tiny groups only."""
    from normone.intmat import hnf_coordinates, hstack

    J = chevalley_module(G, H)
    R = J.rank
    elems = G.elements()
    rho = [J.matrix_of(p).tolist() for p in elems]
    Z2, B2 = _bar2_lattices(elems, rho, R)
    z = Z2.nrows
    if z == 0:
        return AbelianInvariants(0, ())

    def relation_lattice(Z, B):
        K = kernel_basis(vstack(Z, B))
        return hnf_basis(IntMatrix([list(r[: Z.nrows]) for r in K.data],
                                   ncols=Z.nrows))

    R_s = relation_lattice(Z2, B2)
    pair_index = {}
    k = 0
    for g in elems:
        for h in elems:
            pair_index[(g, h)] = k
            k += 1

    phi_blocks = []
    rel_blocks = []
    for cls in cyclic_subgroup_classes(G):
        sub = sorted(cls.elements())
        spos = {p: i for i, p in enumerate(sub)}
        srho = [rho[elems.index(p)] for p in sub]
        Zc, Bc = _bar2_lattices(sub, srho, R)
        if Zc.nrows == 0:
            continue
        rel_blocks.append(relation_lattice(Zc, Bc))
        rows = []
        for zrow in Z2.data:
            restricted = []
            for g in sub:
                for h in sub:
                    blk = pair_index[(g, h)] * R
                    restricted.extend(zrow[blk:blk + R])
            rows.append(restricted)
        # Zc is an HNF basis, so coordinates come from back-substitution
        coef = hnf_coordinates(Zc, IntMatrix(rows, ncols=Zc.ncols))
        assert coef is not None, "restriction left the cocycle lattice"
        phi_blocks.append(coef)
    if not phi_blocks:
        pre = IntMatrix.identity(z)
    else:
        phi = hstack(*phi_blocks)
        total = phi.ncols
        rel_rows = []
        offset = 0
        for blk in rel_blocks:
            for row in blk.data:
                rel_rows.append([0] * offset + list(row)
                                + [0] * (total - offset - blk.ncols))
            offset += blk.ncols
        K = kernel_basis(vstack(phi, IntMatrix(rel_rows, ncols=total)))
        pre = hnf_basis(IntMatrix([list(r[:z]) for r in K.data], ncols=z))
    return quotient_invariants(pre, R_s)


def induced(L):
    """Z[G] tensor L with the diagonal right action, plus the norm-style
    embedding sum_x (x tensor v); the embedding splits over Z."""
    G = L.group
    elems = G.elements()
    n = len(elems)
    pos = {p: i for i, p in enumerate(elems)}
    R = L.rank
    eye = np.eye(n, dtype=np.int64)
    # block (x, x*g) of the action of g is rho(g)
    mats = [IntMatrix(np.kron(eye[[pos[x * g] for x in elems]], rho.array))
            for g, rho in zip(G.generators, L.action)]
    I = GLattice(G, n * R, mats, label=f"Ind({L.label})" if L.label else None)
    return I, LatticeMap(L, I, IntMatrix(np.tile(np.eye(R, dtype=np.int64), n)))


@dataclass(frozen=True)
class ShiftData:
    """0 -> L -> Ind(L) -> shifted -> 0, with explicit maps."""

    embed: LatticeMap
    shifted: GLattice
    project: LatticeMap


def dimension_shift(L):
    """Cokernel of the split embedding L -> Ind(L); shifts Tate degree by one.

    The embedding sends v to sum_x x (x) v, so its rows and the basis
    vectors x (x) e_j with x past the first element x0 form a basis of
    Ind(L).  In it, the coordinate of w on x (x) e_j is w[x, j] - w[x0, j]:
    that is the projection onto the cokernel, and the vectors x (x) e_j
    themselves are the section.
    """
    I, emb = induced(L)
    R, N = L.rank, I.rank
    proj = IntMatrix(np.vstack([-np.tile(np.eye(R, dtype=np.int64), len(L.group.elements()) - 1),
                                np.eye(N - R, dtype=np.int64)]))
    mats = [IntMatrix(a.array[R:] @ proj) for a in I.action]
    shifted = GLattice(L.group, N - R, mats,
                       label=f"shift({L.label})" if L.label else None)
    assert (emb.matrix * proj).is_zero(), "projection misses the embedded copy"
    return ShiftData(emb, shifted, LatticeMap(I, shifted, proj))


def sha2_omega_shift(G, H):
    """Sha^2_omega(G, J_{G/H}) through the dimension shift
    0 -> J -> Ind J -> J1 -> 0: the torsion of Z^rank(M) modulo the rows
    rho(s) - 1 over G's generators and a basis of ker(N_C) for each
    cyclic class C, for M = dual(J1) of rank (|G| - 1) * rank(J).  N_C is
    the literal sum of rho(c) over the elements of C."""
    J = chevalley_module(G, H)
    M = dual(dimension_shift(J).shifted)
    ident = IntMatrix.identity(M.rank)
    rows = [M.matrix_of(s) - ident for s in G.generators]
    for cls in cyclic_subgroup_classes(G):
        norm = IntMatrix.zeros(M.rank, M.rank)
        for c in cls.elements():
            norm = norm + M.matrix_of(c)
        rows.append(kernel_basis(norm))
    d = snf_invariants(vstack(*rows))
    # M^G has rank rank(J), so M*I_G has rank rank(M) - rank(J)
    assert len(d) == M.rank - J.rank, "a cyclic norm kernel escapes ker(N_G)"
    return AbelianInvariants(0, tuple(x for x in d if x > 1))


def tate_minus1_literal(S, L):
    """ker(N_S) / sum of row spaces of (rho(s_i) - 1): the definition,
    with N_S summed over every element of S."""
    R = L.rank
    if R == 0 or S.order() == 1:
        return AbelianInvariants(0, ())
    N = IntMatrix.zeros(R, R)
    for s in S.elements():
        N = N + L.matrix_of(s)
    ident = IntMatrix.identity(R)
    denom = vstack(*[L.matrix_of(g) - ident for g in S.generators])
    return quotient_invariants(kernel_basis(N), denom)


def all_subgroups_brute(G):
    """Every subgroup generated by at most two elements, as frozensets.
    Complete for the small groups used in tests (their subgroups are all
    2-generated)."""
    elems = G.elements()
    found = set()
    found.add(frozenset([G.identity()]))
    for a in elems:
        found.add(frozenset(brute_closure(G.degree, [a])))
    for a, b in combinations(elems, 2):
        found.add(frozenset(brute_closure(G.degree, [a, b])))
    return found


def conjugacy_class_count_brute(G, subgroup_sets):
    elems = G.elements()
    remaining = set(subgroup_sets)
    count = 0
    while remaining:
        s = remaining.pop()
        count += 1
        for g in elems:
            gi = g.inverse()
            conj = frozenset(gi * h * g for h in s)
            remaining.discard(conj)
    return count


def elementary_divisors(inv):
    """Multiset of prime-power elementary divisors of a finite group."""
    out = []
    for t in inv.torsion:
        n = t
        p = 2
        while p * p <= n:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                out.append(q)
            p += 1
        if n > 1:
            out.append(n)
    return sorted(out)


def minors_gcd(A, k):
    """gcd of all k x k minors."""
    from math import gcd
    g = 0
    rows = range(A.nrows)
    cols = range(A.ncols)
    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = IntMatrix([[A.data[i][j] for j in ci] for i in ri])
            g = gcd(g, det(sub))
            if g == 1:
                return 1
    return g


def random_unimodular(rng, n, ops=8):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-1, 1])
        for col in range(n):
            rows[i][col] += c * rows[j][col]
    return IntMatrix(rows)


def twist_lattice(rng, L):
    """Conjugate the action by a random unimodular basis change."""
    from normone.intmat import inverse_unimodular
    from normone.lattices import GLattice
    W = random_unimodular(rng, L.rank)
    Wi = inverse_unimodular(W)
    mats = [W * m * Wi for m in L.action]
    return GLattice(L.group, L.rank, mats)


def lattice_pool(G, max_rank=4):
    """Genuine G-lattices of small rank for randomized comparisons."""
    from normone.lattices import (
        augmentation_ideal, chevalley_module, direct_sum, dual, perm_lattice,
        trivial_lattice,
    )
    from normone.perms import subgroup_classes
    pool = [trivial_lattice(G)]
    for cls in subgroup_classes(G):
        index = G.order() // cls.order()
        if 2 <= index <= max_rank:
            pool.append(perm_lattice(G, cls))
        if 2 <= index <= max_rank + 1:
            pool.append(chevalley_module(G, cls))
            pool.append(augmentation_ideal(G, cls)[0])
    pool.extend([dual(L) for L in pool if L.rank <= max_rank])
    sums = []
    for a in pool:
        for b in pool:
            if a.rank + b.rank <= max_rank:
                sums.append(direct_sum(a, b))
                if len(sums) >= 6:
                    break
        if len(sums) >= 6:
            break
    pool.extend(sums)
    return [L for L in pool if L.rank <= max_rank]


def _smallest_below(W, rows, col):
    """The row among rows whose entry in col is the smallest nonzero |entry|,
    the first one on ties; None when all of them are zero."""
    nonzero = [i for i in rows if W[i][col]]
    return min(nonzero, key=lambda i: abs(W[i][col])) if nonzero else None


def hermite_reference(rows, track):
    """Row Hermite form by the dense elimination, on Python-int lists: each
    Euclid step rewrites every row below the pivot, whether or not its
    entry in the pivot column is zero.  Same pivot rule as the library
    (smallest nonzero |entry| of the column, first on ties), same final
    bottom-up reduction above the pivots.  Returns (H, U or None)."""
    m, ncols = len(rows), len(rows[0])
    W = [list(row) + ([int(i == j) for j in range(m)] if track else [])
         for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        k = _smallest_below(W, range(r, m), c)
        if k is None:
            continue
        while True:
            W[r], W[k] = W[k], W[r]
            if not any(W[i][c] for i in range(r + 1, m)):
                break
            for i in range(r + 1, m):
                q = W[i][c] // W[r][c]
                W[i] = [x - q * y for x, y in zip(W[i], W[r])]
            k = _smallest_below(W, range(r, m), c)
        if W[r][c] < 0:
            W[r] = [-x for x in W[r]]
        pivots.append((r, c))
        r += 1
    for r, c in pivots:
        for i in range(r):
            q = W[i][c] // W[r][c]
            W[i] = [x - q * y for x, y in zip(W[i], W[r])]
    H = [row[:ncols] for row in W]
    return H, ([row[ncols:] for row in W] if track else None)


def smith_reference(W, m, n):
    """Smith elimination on the leading m x n block of the list of rows W,
    dense, on Python ints: each row step rewrites every row below the
    pivot and each column step every column right of it.  Row and column
    operations act on whole rows and columns, so a border around the block
    collects the transforms.  Same pivot rule as the library (smallest
    nonzero |entry| of the remaining block, first in row-major order on
    ties).  Returns (W, rank)."""
    W = [list(row) for row in W]

    def swap_columns(a, b):
        for row in W:
            row[a], row[b] = row[b], row[a]

    t = 0
    while t < m and t < n:
        block = [(abs(W[i][j]), i, j) for i in range(t, m) for j in range(t, n)
                 if W[i][j]]
        if not block:
            break
        _, bi, bj = min(block)
        W[t], W[bi] = W[bi], W[t]
        swap_columns(t, bj)
        while True:
            if any(W[i][t] for i in range(t + 1, m)):
                for i in range(t + 1, m):
                    q = W[i][t] // W[t][t]
                    W[i] = [x - q * y for x, y in zip(W[i], W[t])]
                i = _smallest_below(W, range(t + 1, m), t)
                if i is not None:
                    W[t], W[i] = W[i], W[t]
                    continue
            if any(W[t][j] for j in range(t + 1, n)):
                qs = [W[t][j] // W[t][t] for j in range(t + 1, n)]
                for row in W:
                    for j, q in enumerate(qs, start=t + 1):
                        row[j] -= q * row[t]
                nonzero = [j for j in range(t + 1, n) if W[t][j]]
                if nonzero:
                    swap_columns(t, min(nonzero, key=lambda j: abs(W[t][j])))
                    continue
            bad = next((i for i in range(t + 1, m)
                        if any(W[i][j] % W[t][t] for j in range(t + 1, n))), None)
            if bad is None:
                break
            W[t] = [x + y for x, y in zip(W[t], W[bad])]
        if W[t][t] < 0:
            W[t] = [-x for x in W[t]]
        t += 1
    return W, t
