"""Independent oracles and reference routines for the test suite.

Everything here recomputes a quantity the library produces by a faster
route, using the most literal definition available, so the two sides
never share a code path.  H^1 has two references: `bar_h1`, the bar
complex on all of G, and `h1`, from a finite presentation of G (the
catalog of `presentation_catalog`).  The dimension shift through Ind J,
which the library's `sha2_omega` replaced by a free cover of I_{G/H},
lives here as `sha2_omega_shift`, and the coset-sum norm kernel that it
replaced by lifts through the coset graph as `norm_kernel`.  `hnf`
exposes the transforms of the library's Hermite elimination and `snf`
those of the dense `smith_reference`, which the program itself never
needs.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

import normone.intmat as intmat
from normone.errors import InternalCheckError, NormOneError
from normone.fpgroups import CosetTable, FpGroup, todd_coxeter
from normone.intmat import (
    AbelianInvariants, IntMatrix, hnf_basis, hnf_coordinates, kernel_basis,
    snf_invariants,
)
from normone.lattices import (
    GLattice, LatticeMap, augmentation_ideal, chevalley_module, dual,
    perm_lattice,
)
from normone.perms import (
    SUBGROUP_CLASS_CAP, Permutation, PermGroup, _class_handles, _cyclic_classes, _spanned,
    alternating, coset_moves, cyclic, dihedral, product_of_cyclics, right_transversal,
    subgroup_classes, symmetric,
)


# ---------------------------------------------------------------------------
# the library's eliminations with their transforms, and exact helpers

def hnf(A):
    """Row Hermite normal form (H, U): U unimodular, U*A = H, H in
    row-echelon form with positive pivots and the entries above each
    pivot reduced into [0, pivot).  The library's tracked echelon
    elimination, then its pass above the pivots on the rows of [H | U]
    with a pivot."""
    n = A.ncols
    H, U = intmat._hermite(A.tolist(), True)
    r = sum(1 for h in H if any(h))
    W = intmat._reduce_above([h + u for h, u in zip(H[:r], U[:r])])
    return (IntMatrix([w[:n] for w in W] + H[r:], n),
            IntMatrix([w[n:] for w in W] + U[r:], A.nrows))


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V unimodular and D = diag(d1 | d2 | ... | dr)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    rank: int


def snf(A):
    """Full Smith decomposition: the dense `smith_reference`, run on the
    bordered array [[A, I_m], [I_n, 0]], whose row operations build U and
    whose column operations build V in the same pass."""
    m, n = A.nrows, A.ncols
    W, rank = smith_reference(bordered(A.tolist(), n), m, n)
    return SmithDecomposition(IntMatrix([row[n:] for row in W[:m]], m),
                              IntMatrix([row[:n] for row in W[:m]], n),
                              IntMatrix([row[:n] for row in W[m:]], n), rank=rank)


def bordered(rows, n):
    """[[A, I_m], [I_n, 0]] as lists of rows, for the m x n rows of A."""
    m = len(rows)
    return ([row + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
            + [[int(i == j) for j in range(n)] + [0] * m for i in range(n)])


def inverse_unimodular(A):
    """Exact inverse of a unimodular square matrix: U of its Hermite form."""
    if A.nrows != A.ncols:
        raise ValueError("not square")
    H, U = hnf(A)
    if H != IntMatrix.identity(A.nrows):
        raise ValueError("matrix is not unimodular")
    return U


def quotient_invariants(Z, B):
    """Structure of (row lattice of Z) / (row lattice of B).

    Every row of B must lie in Z's row lattice; raises ValueError otherwise.
    """
    if Z.ncols != B.ncols:
        raise ValueError("ambient dimensions differ")
    Hz = hnf_basis(Z)
    coefs = hnf_coordinates(Hz, B)
    if coefs is None:
        raise ValueError("quotient_invariants: B is not contained in Z's lattice")
    d = snf_invariants(coefs)
    return AbelianInvariants(Hz.nrows - len(d), tuple(x for x in d if x > 1))


def det(A):
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if A.nrows != A.ncols:
        raise ValueError("not square")
    n = A.nrows
    if n == 0:
        return 1
    M = A.tolist()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def matrix_sum(mats, n):
    """The exact sum of the n x n IntMatrix values mats (zero when empty)."""
    total = [[0] * n for _ in range(n)]
    for M in mats:
        for acc, row in zip(total, M.data):
            for j, x in enumerate(row):
                acc[j] += x
    return IntMatrix(total, n)


def subtract(A, B):
    """A - B, entry by entry."""
    if (A.nrows, A.ncols) != (B.nrows, B.ncols):
        raise ValueError("shape mismatch")
    return IntMatrix([[x - y for x, y in zip(r, s)] for r, s in zip(A.data, B.data)],
                     A.ncols)


def zeros(m, n):
    return IntMatrix([[0] * n for _ in range(m)], n)


def vstack(*mats):
    """The rows of mats, one matrix after the other."""
    if any(m.ncols != mats[0].ncols for m in mats):
        raise ValueError("column counts differ")
    return IntMatrix([row for m in mats for row in m.data], mats[0].ncols)


def hstack(*mats):
    """mats side by side."""
    if any(m.nrows != mats[0].nrows for m in mats):
        raise ValueError("row counts differ")
    return IntMatrix([sum(rows, ()) for rows in zip(*(m.data for m in mats))],
                     sum(m.ncols for m in mats))


def group_order(inv):
    """Order of the group with AbelianInvariants inv, or None when infinite."""
    if inv.free_rank:
        return None
    n = 1
    for t in inv.torsion:
        n *= t
    return n


# ---------------------------------------------------------------------------
# groups and lattices

def coset_position(G, H, transversal, p):
    """1-based position of the coset H*p in the transversal."""
    if p not in G.element_set():
        raise ValueError("element is not in the group")
    hset = H.element_set()
    for i, rep in enumerate(transversal, start=1):
        if p * rep.inverse() in hset:
            return i
    raise ValueError("element lies in no listed coset (not in the group?)")


def is_normal(H):
    """Whether H is normal in its parent (a group without one is normal
    in itself)."""
    hset = H.element_set()
    return all(g.inverse() * h * g in hset
               for g in (H.parent or H).generators for h in H.generators)


def core(G, H):
    """Largest normal subgroup of G contained in H: the kernel of the
    action of G on the right cosets of H.  The pipeline needs only its
    order, which it counts."""
    T, coset_of = right_transversal(G, H)
    still = list(range(len(T)))
    helems = H.elements()
    return _spanned(G, sorted(h for h, m in zip(helems, coset_moves(T, coset_of, helems))
                              if m == still))


def trivial_lattice(G):
    """Z with the trivial action: Z[G/G], whose one generator matrix per
    generator of G is the 1 x 1 permutation matrix."""
    one = IntMatrix.identity(1)
    return GLattice(G, 1, [one] * len(G.generators), label="Z")


def direct_sum(L1, L2):
    """L1 + L2 with the block-diagonal action, L1's basis first."""
    if L1.group is not L2.group:
        raise ValueError("direct sum needs a common group")
    r1, r2 = L1.rank, L2.rank
    mats = [IntMatrix([row + (0,) * r2 for row in a.data]
                      + [(0,) * r1 + row for row in b.data], r1 + r2)
            for a, b in zip(L1.action, L2.action)]
    return GLattice(L1.group, r1 + r2, mats)


def small_catalog():
    """The catalog groups of order at most 24 that the tests pin the
    table-read class handles and free cover against: the groups of the
    benchmark's sweep pool and the degenerate C1, D1 and D2."""
    return ([cyclic(n) for n in range(1, 13)] + [dihedral(n) for n in range(1, 13)]
            + [symmetric(3), alternating(4), symmetric(4)]
            + [product_of_cyclics(p) for p in ((2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6))])


def cyclic_subgroup_classes(G, cap=SUBGROUP_CLASS_CAP):
    """The nontrivial cyclic classes of subgroup_classes(G), the same
    representatives in the same order, from its seeding step alone: every
    cyclic class, where `sha2_omega` keeps only the maximal ones."""
    return _class_handles(G, _cyclic_classes(G, cap)[0][1:])


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
    mats = [IntMatrix(np.kron(eye[[pos[x * g] for x in elems]], rho.data).tolist(), n * R)
            for g, rho in zip(G.generators, L.action)]
    I = GLattice(G, n * R, mats, label=f"Ind({L.label})" if L.label else None)
    return I, LatticeMap(L, I, IntMatrix(np.tile(np.eye(R, dtype=np.int64), n).tolist(),
                                         n * R))


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
                                np.eye(N - R, dtype=np.int64)]).tolist(), N - R)
    mats = [IntMatrix(a.data[R:], N) * proj for a in I.action]
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
    rows = [subtract(M.matrix_of(s), ident) for s in G.generators]
    for cls in cyclic_subgroup_classes(G):
        norm = matrix_sum([M.matrix_of(c) for c in cls.elements()], M.rank)
        rows.append(kernel_basis(norm))
    d = snf_invariants(vstack(*rows))
    # M^G has rank rank(J), so M*I_G has rank rank(M) - rank(J)
    assert len(d) == M.rank - J.rank, "a cyclic norm kernel escapes ker(N_G)"
    return AbelianInvariants(0, tuple(x for x in d if x > 1))


def free_cover_literal(G, H):
    """The free cover Z[G]^r -> I_{G/H} of `sha2_omega` built from
    permutation products alone: each copy of Z[G] is perm_lattice(G, 1),
    the picks s_j come from enumerating <H, s_1, ..., s_j>, and e_g in
    copy j goes to the coset of g minus that of s_j*g.  It runs on a copy
    of G that holds no multiplication table, so no module or coset is
    read off one."""
    G = PermGroup(G.degree, G.generators, label=G.label)
    H = G.subgroup(H.generators)
    I = augmentation_ideal(G, H)
    picked = []
    span = H
    for s in G.generators:
        if span.order() == G.order():
            break
        if s not in span:
            picked.append(s)
            span = G.subgroup(list(H.generators) + picked)
    T, _ = right_transversal(G, H)
    images = []
    for s in picked:
        for g in G.elements():
            row = [0] * len(T)
            row[coset_position(G, H, T, g) - 1] += 1
            row[coset_position(G, H, T, s * g) - 1] -= 1
            images.append(row[:-1])
    regular = free = perm_lattice(G, G.trivial_subgroup())
    for _ in picked[1:]:
        free = direct_sum(free, regular)
    return LatticeMap(free, I, IntMatrix(images, I.rank))


def norm_kernel(K, moves, r):
    """A basis of ker(K*N_D) for a subgroup D of G, the rows of K lying
    in Z[G]^r numbered as in `sha2_omega`'s free cover (point j|G| + g is
    element g of copy j), and moves the columns table[x] of
    G.multiplication_table() over the elements x of D.

    rho(x) sends e_y to e_(y*x) in each copy of Z[G], so (v*N_D) at y is
    the sum of v over y's coset {y*x : x in D}: the columns of K*N_D are
    those of K summed over each copy's D-cosets, each repeated |D|
    times.  The kernel is taken of the r|G|/|D| coset sums alone, by one
    elimination.  This is the coset-sum route `sha2_omega` took before
    it lifted each cyclic norm kernel through the coset graph's forest;
    unlike the lift, it holds for any subgroup D, not only a cyclic one.
    """
    n = len(moves[0])
    coset = [-1] * n
    m = 0
    for y in range(n):
        if coset[y] < 0:
            for move in moves:
                coset[move[y]] = m
            m += 1
    # point i, element y of copy j, adds to the sum over y's coset in copy j
    column = [j * m + c for j in range(r) for c in coset]
    sums = []
    for row in K.data:
        acc = [0] * (r * m)
        for i, x in enumerate(row):
            if x:
                acc[column[i]] += x
        sums.append(acc)
    return kernel_basis(IntMatrix(sums, r * m))


# ---------------------------------------------------------------------------
# H^1 from a finite presentation, the second H^1 reference next to bar_h1
#
# A presentation is a pair (FpGroup, images): one permutation per
# generator, which must generate the group but need not be its stored
# generators.  A 1-cocycle is determined by its generator values, subject
# to one linear condition per relator.  The cocycle rule for right
# modules is
#
#     c(uv) = c(u) * rho(v) + c(v),      c(x^-1) = -c(x) * rho(x)^-1,
#
# so coboundaries are m |-> m * rho(x) - m.  Unknown counts scale with the
# generator count rather than |G|.

_catalog = {}


def presentation_catalog(G):
    """(FpGroup, images) for a group built by the perms constructors,
    validated when first built."""
    if G.kind is None:
        raise NormOneError(f"no catalog presentation for {G.label}")
    got = _catalog.get(G.kind)
    if got is None:
        got = _build_presentation(G)
        _ensure_valid(got, G)
        _catalog[G.kind] = got
    return got


def _build_presentation(G):
    kind, param = G.kind
    if kind == "C":
        n = param
        if n == 1:
            return FpGroup(0, ()), ()
        return FpGroup(1, ((1,) * n,)), (G.generators[0],)
    if kind == "C*":
        parts = [p for p in param if p > 1]
        rels = [(k,) * p for k, p in enumerate(parts, start=1)]
        rels += [(k, l, -k, -l) for k in range(1, len(parts) + 1)
                 for l in range(k + 1, len(parts) + 1)]
        return FpGroup(len(parts), tuple(rels)), G.generators
    if kind == "D":
        n = param
        if n == 1:
            return FpGroup(1, ((1, 1),)), (G.generators[0],)
        return FpGroup(2, ((1,) * n, (2, 2), (1, 2, 1, 2))), G.generators
    if kind == "S":
        n = param
        if n == 1:
            return FpGroup(0, ()), ()
        images = tuple(Permutation.from_cycles([(i, i + 1)], degree=n)
                       for i in range(1, n))
        rels = [(i, i) for i in range(1, n)]
        rels += [(i, i + 1) * 3 for i in range(1, n - 1)]
        rels += [(i, j) * 2 for i in range(1, n) for j in range(i + 2, n)]
        return FpGroup(n - 1, tuple(rels)), images
    if kind == "A":
        n = param
        if n <= 2:
            return FpGroup(0, ()), ()
        t1 = Permutation.from_cycles([(1, 2)], degree=n)
        images = tuple(
            t1 * Permutation.from_cycles([(i + 1, i + 2)], degree=n)
            for i in range(1, n - 1)
        )
        if n == 3:
            return FpGroup(1, ((1, 1, 1),)), images
        rels = [(1, 1, 1)] + [(i, i) for i in range(2, n - 1)]
        rels += [(i, i + 1) * 3 for i in range(1, n - 2)]
        rels += [(i, j) * 2 for i in range(1, n - 1) for j in range(i + 2, n - 1)]
        return FpGroup(n - 2, tuple(rels)), images
    raise NormOneError(f"no catalog presentation for kind {kind!r}")


def _ensure_valid(pres, G):
    """The images satisfy the relators and generate G, and the presented
    group has G's order, by coset enumeration."""
    fp, images = pres
    if not fp.ngens:
        return
    # the images act on G's points as a coset table's generators act on cosets
    on_points = CosetTable(G.degree, images)
    for w in fp.relators:
        if not on_points.word_permutation(w).is_identity():
            raise InternalCheckError(f"catalog relator {w} fails on images")
    if len(G.elements_with_words(alphabet=images)) != G.order():
        raise InternalCheckError("presentation images do not generate")
    table = todd_coxeter(fp, ())
    if table.coset_count != G.order():
        raise InternalCheckError(
            f"presentation of {G.label} enumerates to {table.coset_count}, "
            f"expected {G.order()}")


class _H1Data(NamedTuple):
    """Everything h1 computes: generator matrices, cocycles, coboundaries."""

    mats: tuple
    invs: tuple
    Z1: IntMatrix
    B1: IntMatrix

    def value_at(self, values, word):
        """Value of the cocycle with the given generator values at the
        element word (over presentation generators), as a list."""
        acc = [0] * len(values[0])
        for letter in word:
            j = abs(letter) - 1
            if letter > 0:
                image = (IntMatrix([acc]) * self.mats[j]).data[0]
                acc = [x + y for x, y in zip(image, values[j])]
            else:
                acc = [x - y for x, y in zip(acc, values[j])]
                acc = list((IntMatrix([acc]) * self.invs[j]).data[0])
        return acc


def _relator_blocks(word, mats, invs, R):
    """Coefficient blocks B_j with c(word) = sum_j c_j * B_j.

    Built from suffix products: the letter at position k contributes
    T_k (or -rho^-1 * T_k for an inverse letter) to its generator's block,
    where T_k is rho of the suffix after position k.
    """
    s = len(mats)
    suffix = [None] * (len(word) + 1)
    suffix[len(word)] = IntMatrix.identity(R)
    for k in range(len(word) - 1, -1, -1):
        letter = word[k]
        m = mats[letter - 1] if letter > 0 else invs[-letter - 1]
        suffix[k] = m * suffix[k + 1]
    blocks = [zeros(R, R) for _ in range(s)]
    for k, letter in enumerate(word):
        j = abs(letter) - 1
        if letter > 0:
            blocks[j] = matrix_sum([blocks[j], suffix[k + 1]], R)
        else:
            blocks[j] = subtract(blocks[j], invs[j] * suffix[k + 1])
    return blocks


def h1_data(L, pres):
    """Cocycles Z1 and coboundaries B1 of L, over the generator values of
    the presentation pres.

    Z1 is the lattice of generator values that every relator's blocks
    kill, found by one kernel of all the blocks side by side; its rows
    are a saturated basis with full row rank.  B1 holds the coboundaries
    of L's basis vectors.
    """
    fp, images = pres
    G = L.group
    if fp.ngens == 0:
        empty = IntMatrix([], ncols=0)
        return _H1Data((), (), empty, IntMatrix([], ncols=0))
    span = G.elements_with_words(alphabet=images)
    if len(span) != G.order():
        raise ValueError("presentation images do not generate the acting group")
    mats = tuple(L.matrix_of(img) for img in images)
    invs = tuple(L.matrix_of(img.inverse()) for img in images)
    R = L.rank
    blocks = [vstack(*_relator_blocks(w, mats, invs, R)) for w in fp.relators if w]
    Z1 = kernel_basis(hstack(*blocks)) if blocks else IntMatrix.identity(fp.ngens * R)
    ident = IntMatrix.identity(R)
    B1 = hstack(*[subtract(m, ident) for m in mats]) if R else IntMatrix([], ncols=0)
    return _H1Data(mats, invs, Z1, B1)


def h1(L, pres):
    """H^1(G, L) as invariant factors, via the presentation pres."""
    if L.rank == 0 or pres[0].ngens == 0:
        return AbelianInvariants(0, ())
    data = h1_data(L, pres)
    try:
        inv = quotient_invariants(data.Z1, data.B1)
    except ValueError as exc:
        raise InternalCheckError(
            f"coboundaries escape the cocycle lattice over {L.group.label}: "
            f"{exc}") from exc
    if inv.free_rank:
        raise InternalCheckError(
            f"H^1 came out with free rank {inv.free_rank} over {L.group.label} "
            f"(rank {L.rank}); the action is broken")
    return inv


def tate_cyclic(c, L):
    """(Tate H^0, H^1) of the cyclic group <c> acting on L.

    With N = 1 + rho + ... + rho^(m-1):  H^0 = fixed / image(N),
    H^1 = ker(N) / image(rho - 1).
    """
    if L.rank == 0:
        return AbelianInvariants(0, ()), AbelianInvariants(0, ())
    rho = L.matrix_of(c)
    powers = [IntMatrix.identity(L.rank)]
    for _ in range(c.order() - 1):
        powers.append(powers[-1] * rho)
    N = matrix_sum(powers, L.rank)
    diff = subtract(rho, IntMatrix.identity(L.rank))
    return (quotient_invariants(kernel_basis(diff), N),
            quotient_invariants(kernel_basis(N), diff))


def tate_minus1_literal(S, L):
    """ker(N_S) / sum of row spaces of (rho(s_i) - 1): the definition,
    with N_S summed over every element of S."""
    R = L.rank
    if R == 0 or S.order() == 1:
        return AbelianInvariants(0, ())
    N = matrix_sum([L.matrix_of(s) for s in S.elements()], R)
    ident = IntMatrix.identity(R)
    denom = vstack(*[subtract(L.matrix_of(g), ident) for g in S.generators])
    return quotient_invariants(kernel_basis(N), denom)


def is_flasque_all_classes(L):
    """The flasque check over every subgroup class, the trivial one
    included, with no Sylow restriction and Tate H^-1 by its definition
    (`tate_minus1_literal`): (True, None) when it vanishes on each, else
    (False, the first class in decreasing order on which it does not)."""
    for cls in subgroup_classes(L.group):
        if not tate_minus1_literal(cls, L).is_trivial():
            return False, cls
    return True, None


def all_subgroups_brute(G):
    """Every subgroup generated by at most two elements, as frozensets.
    Complete for the small groups used in tests (their subgroups are all
    2-generated)."""
    elems = G.elements()
    found = set()
    found.add(frozenset([Permutation.identity(G.degree)]))
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
    W = random_unimodular(rng, L.rank)
    Wi = inverse_unimodular(W)
    mats = [W * m * Wi for m in L.action]
    return GLattice(L.group, L.rank, mats)


def lattice_pool(G, max_rank=4):
    """Genuine G-lattices of small rank for randomized comparisons."""
    pool = [trivial_lattice(G)]
    for cls in subgroup_classes(G):
        index = G.order() // cls.order()
        if 2 <= index <= max_rank:
            pool.append(perm_lattice(G, cls))
        if 2 <= index <= max_rank + 1:
            pool.append(chevalley_module(G, cls))
            pool.append(augmentation_ideal(G, cls))
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


def hermite_reference(rows, track, reduced=True):
    """Row Hermite form by the dense elimination, on Python-int lists: each
    Euclid step rewrites every row below the pivot, whether or not its
    entry in the pivot column is zero.  Same pivot rule as the library
    (smallest nonzero |entry| of the column, first on ties), and when
    reduced the same final reduction above the pivots, from the top (the
    library's `_hermite` stops before it, `_reduce_above` runs it).
    Returns (H, U or None)."""
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
    for r, c in pivots if reduced else ():
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
    collects the transforms.  Each pivot is the smallest nonzero |entry|
    of the remaining block, the first in row-major order on ties.  The
    reference for the library's `snf_invariants`, which has no column
    steps.  Returns (W, rank)."""
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
