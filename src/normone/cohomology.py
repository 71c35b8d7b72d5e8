"""Cohomology of G-lattices.

Tate H^-1 is the torsion of one Smith form; the pipeline takes its H^1
from it by duality, and `sha2_omega` takes Sha^2_omega from one more
Smith form by the same duality, over the kernel of a free cover
Z[G]^r -> I_{G/H} of the augmentation ideal.  The cover's matrix is the
incidence matrix of a graph on the cosets, so that kernel is read off a
spanning forest as the graph's cycle lattice, with no elimination, and
the cover's checks are read off the graph's edge list: it is onto when
the graph is connected, and a row is in the kernel when its boundary is
zero.  The cycle lattice has an identity block at the left-out edges of
the forest, so the action on it is read there too: a moved row with zero
boundary lies in the lattice, with its entries at those edges as its
coordinates, which is what a back-substitution would check and return.
No presentation of the acting group is needed; the tests' independent
routes (the bar complex, H^1 from a presentation, the dimension shift)
live in `tests/oracles.py`.
"""

from __future__ import annotations

from itertools import compress

from .errors import CapExceeded, InternalCheckError
from .intmat import AbelianInvariants, IntMatrix, kernel_basis, snf_invariants, snf_rows
from .lattices import GLattice, check_index, minus_one_rows
from .perms import (
    SUBGROUP_CLASS_CAP, PermGroup, closure_idx, coset_moves, maximal_cyclic_subgroup_classes,
    right_transversal,
)

SHA_ORDER_CAP = 360

# Always empty: the library keeps no presentations.  Kept only because
# bench/workloads.forget_presentations clears them before each sweep pair.
_catalog = {}
_validated = set()


def check_sha_order(G: PermGroup):
    """Refuse a group of order above SHA_ORDER_CAP, where the one Smith
    form of `sha2_omega` outgrows memory."""
    if G.order() > SHA_ORDER_CAP:
        raise CapExceeded(f"|G|={G.order()} exceeds the sha2 cap {SHA_ORDER_CAP}")


def tate_minus1(S, L: GLattice) -> AbelianInvariants:
    """Tate H^-1(S, L) = ker(N_S) / L*I_S.

    Computed as the torsion of L / L*I_S: over Q the module splits as
    fixed part plus ker(N_S), N_S is invertible on the fixed part, so
    ker(N_S) and L*I_S span the same subspace and the quotient is exactly
    the torsion of the coinvariants.  The augmentation ideal I_S is
    generated by s - 1 over the generators s of S, so only generator
    matrices enter.  The literal ker/image formula is kept as a test
    oracle.
    """
    gens = S.generators
    if not gens or L.rank == 0:
        return AbelianInvariants(0, ())
    d = snf_invariants(IntMatrix(minus_one_rows([L.matrix_of(s) for s in gens]), L.rank))
    return AbelianInvariants(0, tuple(x for x in d if x > 1))


def _cycle_lattice(ends, d) -> IntMatrix:
    """The Hermite basis of the integer kernel of the incidence matrix of
    a graph on the vertices 0..d-1 whose edge i runs from ends[i][0] to
    ends[i][1]: the rows x with x*A = 0, A having row e_u - e_v at edge
    (u, v).  Loops and parallel edges are allowed, and the graph need not
    be connected.  No elimination runs.

    A spanning forest is grown greedily from the last edge down, joining
    two trees (union-find) whenever an edge does.  Each edge i left out
    closes one cycle, e_i plus the forest path from its head back to its
    tail, signed by the direction each forest edge is walked; a loop is
    e_i alone.  The cycles form a basis of the kernel: a kernel vector
    minus its entries at the left-out edges times their cycles is
    carried by the forest, whose incidence rows are independent, so it
    is 0.  Edge i was left out because its ends were already joined by
    the edges above it, so every other edge on its cycle has an index
    above i and lies in the forest, and edge i lies on no other cycle.
    In the order of i, the cycles therefore have a leading 1 at column i
    and 0 in every other leading column: they are the reduced row
    echelon form of the kernel, its unique Hermite basis, the rows
    hnf_basis(kernel_basis(A)) returns.
    """
    root = list(range(d))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x
    near = [[] for _ in range(d)]
    left = []
    for i in range(len(ends) - 1, -1, -1):
        u, v = ends[i]
        a, b = find(u), find(v)
        if a == b:
            left.append(i)
        else:
            root[a] = b
            near[u].append((v, i, 1))
            near[v].append((u, i, -1))
    # each tree hangs from its first vertex; up[x] is the sign of the
    # edge from x to its parent when walked upwards
    parent, edge, up, depth = [-1] * d, [-1] * d, [0] * d, [-1] * d
    for top in range(d):
        if depth[top] < 0:
            depth[top] = 0
            queue = [top]
            for x in queue:
                for y, i, sign in near[x]:
                    if depth[y] < 0:
                        parent[y], edge[y], up[y], depth[y] = x, i, -sign, depth[x] + 1
                        queue.append(y)
    rows = []
    for i in reversed(left):
        row = [0] * len(ends)
        row[i] = 1
        # walk from the head v up to the meeting vertex, and from there
        # down to the tail u: together e_v - e_u
        x, y = ends[i][1], ends[i][0]
        while x != y:
            if depth[x] >= depth[y]:
                row[edge[x]] = up[x]
                x = parent[x]
            else:
                row[edge[y]] = -up[y]
                y = parent[y]
        rows.append(row)
    return IntMatrix(rows, len(ends))


def _connected(ends, d) -> bool:
    """Whether the graph on the vertices 0..d-1 whose edge i runs from
    ends[i][0] to ends[i][1] is connected: a walk from vertex 0 reaches
    all d.  Exactly then do the incidence rows e_u - e_v span the vectors
    with coordinate sum 0, since each component's rows span those carried
    by it."""
    near = [[] for _ in range(d)]
    for u, v in ends:
        near[u].append(v)
        near[v].append(u)
    seen = bytearray(d)
    seen[0] = 1
    queue = [0]
    for x in queue:
        for y in near[x]:
            if not seen[y]:
                seen[y] = 1
                queue.append(y)
    return len(queue) == d


def _free_cover(G: PermGroup, H: PermGroup):
    """(K, ends, moves): the free cover Z[G]^r -> I_{G/H} of `sha2_omega`
    as the edge list of a graph on the cosets, the Hermite basis K of its
    kernel, and the action of G's generators on Z[G]^r.  Z[G]^r is one
    permutation lattice on r|G| points, point j|G| + a being element a of
    copy j (G.elements() numbers the elements).  It is read off
    G.multiplication_table(), which the cyclic class search has built: a
    generator x sends element a to a*x, so moves[k], the point
    permutation of the k-th generator, moves each copy's points by its
    column.  The coset of each element, in the numbering of I's basis, is
    `right_transversal`'s coset map, which reads the same table.

    The cover sends point j|G| + g to H*g - H*s_j*g, the row e_u - e_v of
    the edge ends[j|G| + g] = (u, v) from H*g to H*s_j*g, with the last
    coset's column dropped (every row sums to 0, so the kernel is the
    same): its matrix A is the incidence matrix of this coset graph.  K
    is its cycle lattice, `_cycle_lattice`.

    Self-checks, each the graph form of a check on A:
    - onto: A's rows span I exactly when the graph is connected
      (`_connected`);
    - equivariance, rho(x)*A = A*rho_I(x): the edge at the point p*x is
      the edge at p with both ends moved by x's coset permutation
      (`coset_moves`, which `augmentation_ideal` reads too);
    - K has r|G| - [G:H] + 1 rows, the rank of ker A for an onto A;
    - K*A = 0: every row of K has zero boundary, the sum of its entries
      times e_u - e_v over its edges."""
    number, table, _ = G.multiplication_table()
    hgens = [number[h.images] for h in H.generators]
    span = set(closure_idx(table, hgens))
    gens = [number[x.images] for x in G.generators]
    picked = []
    for s in gens:
        if len(span) == len(table):
            break
        if s not in span:
            picked.append(s)
            span = set(closure_idx(table, hgens + picked))
    # coset[g] numbers the coset H*g as I's basis numbers it
    T, coset_of = right_transversal(G, H)
    coset, d = coset_of.coset, len(T)
    ends = [(coset[g], coset[col[s]]) for s in picked for g, col in enumerate(table)]
    if not _connected(ends, d):
        raise InternalCheckError(f"free cover of I over {G.label} is not onto")
    n, r = len(table), len(picked)
    moves = [[j * n + c for j in range(r) for c in table[x]] for x in gens]
    for k, (move, cmove) in enumerate(zip(moves, coset_moves(T, coset_of, G.generators))):
        # the edge at each point p*x against the edge at p moved by x
        if [ends[q] for q in move] != [(cmove[u], cmove[v]) for u, v in ends]:
            raise InternalCheckError(
                f"free cover of I over {G.label} is not equivariant for generator {k}")
    K = _cycle_lattice(ends, d)
    if K.nrows != r * n - d + 1:
        raise InternalCheckError(
            f"cycle lattice of the free cover over {G.label} has {K.nrows} rows, "
            f"expected r|G| - [G:H] + 1 = {r * n - d + 1}")
    for row in K.data:
        if any(_boundary(ends, d, row, compress(range(len(row)), row))):
            raise InternalCheckError(f"cycle lattice of the free cover over {G.label} "
                                     "is not in its kernel")
    return K, ends, moves


def _boundary(ends, d, values, points):
    """The sum of values[p] * (e_u - e_v) over the points p, where
    ends[p] = (u, v), as a list of d entries."""
    acc = [0] * d
    for p in points:
        c = values[p]
        u, v = ends[p]
        acc[u] += c
        acc[v] -= c
    return acc


def _kernel_action(K, ends, d, moves, label):
    """The matrix of each point permutation of moves on the lattice that
    K's rows span, as a list of rows: row i holds the coordinates of
    K_i*P_x in K.  K is `_free_cover`'s cycle lattice of the coset graph
    on d vertices with edges ends.

    K must have an identity block at its leading columns, the left-out
    edges of `_cycle_lattice`: each row leads with a 1, and no other row
    is nonzero there.  That is checked first, in one pass over K's
    nonzero entries.  Then a row w of the cover's kernel has its entries
    at the leading columns as coordinates: w minus that combination of
    K's rows lies in the kernel and is 0 at every leading column, so it
    is 0, K's rows spanning the kernel over Q by the row count and
    connectivity `_free_cover` checks.  An integer w lies in the kernel
    exactly when its boundary is zero.  So each gathered row K_i*P_x is
    accepted, with its entries at the leading columns as coordinates,
    exactly when its boundary is zero: the test a back-substitution
    against K would make.
    """
    support = [list(compress(range(K.ncols), row)) for row in K.data]
    no_block = (f"cycle lattice of the free cover over {label} has no identity "
                "block at its leading columns")
    # lead[p] is i when p is the leading column of row i, else -1
    lead = [-1] * K.ncols
    for i, (row, cols) in enumerate(zip(K.data, support)):
        if not cols or row[cols[0]] != 1 or lead[cols[0]] >= 0:
            raise InternalCheckError(no_block)
        lead[cols[0]] = i
    if any(lead[p] >= 0 for cols in support for p in cols[1:]):
        raise InternalCheckError(no_block)
    action = []
    for k, move in enumerate(moves):
        # entry p of K_i is entry move[p] of K_i*P_x, on that point's edge
        edges = [ends[q] for q in move]
        block = []
        for row, cols in zip(K.data, support):
            if any(_boundary(edges, d, row, cols)):
                raise InternalCheckError(f"cycle lattice of the free cover over {label} "
                                         f"is not stable under generator {k}")
            coords = [0] * K.nrows
            for p in cols:
                i = lead[move[p]]
                if i >= 0:
                    coords[i] = row[p]
            block.append(coords)
        action.append(block)
    return action


def _norm_kernel(K: IntMatrix, moves, r) -> IntMatrix:
    """A basis of ker(K*N_C) for a cyclic subgroup C of G, the rows of K
    lying in Z[G]^r numbered as in `_free_cover`, and moves the columns
    table[c] of G.multiplication_table() over the elements c of C.

    rho(c) sends e_y to e_(y*c) in each copy of Z[G], so (v*N_C) at y is
    the sum of v over y's coset {y*c : c in C}: the columns of K*N_C are
    those of K summed over each copy's C-cosets, each repeated |C|
    times.  The kernel is taken of the r|G|/|C| coset sums alone, built
    by adding each entry of K once."""
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
        for i in compress(range(K.ncols), row):
            acc[column[i]] += row[i]
        sums.append(acc)
    return kernel_basis(IntMatrix(sums, r * m))


def sha2_omega(G: PermGroup, H, class_cap=SUBGROUP_CLASS_CAP) -> AbelianInvariants:
    """Sha^2_omega(G, J_{G/H}), the kernel of restriction from H^2(G, J)
    to all cyclic subgroups, as the torsion of one Smith form.

    Cover I = I_{G/H} by Z[G]^r, sending e_g in copy j to (H - H*s_j)*g.
    The s_j are taken greedily from G's generators, each only when it is
    outside <H, s_1, ..., s_(j-1)>, until that group is G.  They generate
    I, since H - H*gs = (H - H*s) + (H - H*g)*s and H - H*hs = H - H*s for
    h in H.  Each pick at least doubles the subgroup, so r <= log2 [G:H],
    and the kernel K has rank r|G| - ([G:H] - 1), at most
    (|G| - 1)([G:H] - 1), with equality only at index 2, where r = 1.
    K is the cycle lattice of the coset graph, whose incidence matrix
    the cover's matrix is, read off a spanning forest already in Hermite
    form (`_free_cover`).
    The transpose 0 -> J -> Z[G]^r -> dual(K) -> 0 has a free middle
    term, so H^2(S, J) = H^1(S, dual K) for every subgroup S, naturally
    in S, and that is dual to Tate H^-1(S, K) = ker(N_S) / K*I_S (Brown,
    Cohomology of Groups, VI.7), the duality the pipeline uses.
    Restriction G -> C is dual to corestriction C -> G, which on Tate
    H^-1 is induced by the identity of K.  So Sha^2_omega is dual to

        ker(N_G) / (K*I_G + sum over cyclic C of ker(N_C)),

    and a finite abelian group has the invariants of its dual.  One
    cyclic subgroup per class suffices: a conjugate contributes
    ker(N_C) * rho(g), equal to ker(N_C) modulo K*I_G.  So do the maximal
    cyclic subgroups alone: for C <= C', N_C' = N_C * sum(C'/C) over a
    transversal, so ker(N_C) lies in ker(N_C'), and every cyclic
    subgroup lies in a maximal one, a conjugate of a kept representative.
    Each representative comes as its element numbers in
    G.multiplication_table(), whose columns are its moves.
    Each ker(N_C) lies in ker(N_G), the saturation of K*I_G, so the
    quotient is the torsion of Z^rank(K) modulo the stacked rows of
    rho(s) - 1 over the generators s and a basis of each ker(N_C), the
    kernel of K*N_C on Z[G]^r.  `_norm_kernel` takes it of K's columns
    summed over the cosets of C, the distinct columns of K*N_C.  rho(s)
    permutes the points, so row i of K*rho(s) is K_i with its entries
    moved, and its coordinates in K are its entries at K's leading
    columns (`_kernel_action`).

    Self-checks, all on the coset graph's edge list: the graph is
    connected, so the cover is onto; the cover commutes with the action;
    K has r|G| - [G:H] + 1 rows, each with zero boundary, so K*A = 0 for
    the cover's matrix A (`_free_cover`); K has an identity block at its
    leading columns, and every row of K*rho(s) has zero boundary
    (`_kernel_action`).  The last two are the membership test of a
    back-substitution against K: with the row count and connectivity,
    the identity block makes K's rows a basis of ker A, so a row lies in
    their span exactly when its boundary is zero, and its coordinates are
    its entries at the leading columns.  K^G has rank r, since
    (Z[G]^r)^G has rank r and I^G = 0, so the Smith rank, that of
    K*I_G, is rank(K) - r; a ker(N_C) row outside ker(N_G) would raise
    it.  Every
    invariant divides [G:H], which kills Sha^2_omega(G, J): restricted to
    H, J is a permutation lattice, on which Sha^2_omega vanishes (by
    Shapiro's lemma it becomes the characters of a subgroup that die on
    each of its cyclic subgroups, and only the trivial one does), and
    corestriction after restriction to H is multiplication by [G:H].

    H = G is refused first, with the pipeline's UsageError, then |G| above
    SHA_ORDER_CAP (`check_sha_order`).  class_cap
    bounds |G| for the cyclic class search, as `subgroup_classes` takes it;
    that search runs next, so the cap stops a call before the free cover or
    the multiplication table is built.
    """
    check_index(G, H)
    check_sha_order(G)
    classes = maximal_cyclic_subgroup_classes(G, class_cap)
    K, ends, moves = _free_cover(G, H)
    index = G.order() // H.order()
    # rho(s) - 1 for each generator s, in place on the coordinate rows
    rows = []
    for block in _kernel_action(K, ends, index, moves, G.label):
        for i, row in enumerate(block):
            row[i] -= 1
        rows += block
    _, table, _ = G.multiplication_table()
    r = K.ncols // G.order()
    for nums in classes:
        rows += map(list, _norm_kernel(K, [table[c] for c in nums], r).data)
    # the Smith form works on these lists themselves, so its input is held once
    d = snf_rows(rows)
    if len(d) != K.nrows - r:
        raise InternalCheckError(
            f"sha2_omega over {G.label} has Smith rank {len(d)}, expected "
            f"{K.nrows - r}: a cyclic norm kernel escapes ker(N_G)")
    torsion = tuple(x for x in d if x > 1)
    if any(index % x for x in torsion):
        raise InternalCheckError(
            f"sha2_omega over {G.label} has invariants {torsion} not "
            f"dividing [G:H]={index}")
    return AbelianInvariants(0, torsion)
