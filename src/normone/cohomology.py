"""Cohomology of G-lattices.

Tate H^-1 is the torsion of one Smith form; the pipeline takes its H^1
from it by duality, and `sha2_omega` takes Sha^2_omega from one more
Smith form by the same duality, over the kernel of a free cover
Z[G]^r -> I_{G/H} of the augmentation ideal.  The cover's matrix is the
incidence matrix of a graph on the cosets, so that kernel is read off a
spanning forest as the graph's cycle lattice, with no elimination, and
the cover's checks are read off the graph and its forest: it is onto
when the spanning forest is one tree, and a row is in the kernel when
its boundary is zero.  The cycle lattice has an identity block at the
left-out edges of the forest, so the action on it is read there too: a
moved row with zero boundary lies in the lattice, with its entries at
those edges as its coordinates, which is what a back-substitution would
check and return.
The forest also lifts: a vector of I is the boundary of a row on the
forest's edges, each edge carrying the sum over the subtree below it.
Each cyclic norm kernel is read that way, from lifts of the vectors of I
fixed by the cyclic group, since the norm of a cyclic group C kills
exactly the image of 1 - c on the free module Z[G]^r; no elimination
runs for it.  No presentation of the acting group is needed; the tests'
independent routes (the bar complex, H^1 from a presentation, the
dimension shift, the coset-sum norm kernels) live in `tests/oracles.py`.
"""

from __future__ import annotations

from itertools import compress

from .errors import CapExceeded, InternalCheckError
from .intmat import AbelianInvariants, IntMatrix, kernel_basis, snf_rows
from .lattices import GLattice, check_index, minus_one_rows
from .perms import (
    SUBGROUP_CLASS_CAP, PermGroup, closure_idx, coset_moves, maximal_cyclic_subgroup_classes,
    orbits, right_transversal,
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
    d = snf_rows(minus_one_rows([L.matrix_of(s) for s in gens]))
    return AbelianInvariants(0, tuple(x for x in d if x > 1))


def _cycle_lattice(ends, d):
    """(K, forest): K is the Hermite basis of the integer kernel of the
    incidence matrix of a graph on the vertices 0..d-1 whose edge i runs
    from ends[i][0] to ends[i][1], the rows x with x*A = 0, A having row
    e_u - e_v at edge (u, v); forest is the spanning forest K is read
    off.  Loops and parallel edges are allowed, and the graph need not
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
    kernel_basis(A) returns.

    forest is (order, parent, edge, up).  Each tree hangs from its first
    vertex, and order lists the vertices tree by tree, breadth-first, so
    that a parent comes before its children.  parent[x] is -1 at a top;
    below it, x hangs from parent[x] by the edge edge[x], whose row
    e_u - e_v is up[x] * (e_x - e_parent[x]) (`_forest_lift`).
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
    # up[x] is the sign of the edge from x to its parent when walked upwards
    parent, edge, up, depth = [-1] * d, [-1] * d, [0] * d, [-1] * d
    order = []
    for top in range(d):
        if depth[top] < 0:
            depth[top] = 0
            queue = [top]
            for x in queue:
                for y, i, sign in near[x]:
                    if depth[y] < 0:
                        parent[y], edge[y], up[y], depth[y] = x, i, -sign, depth[x] + 1
                        queue.append(y)
            order += queue
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
    return IntMatrix(rows, len(ends)), (order, parent, edge, up)


def _forest_lift(forest, y):
    """The (edge, value) pairs of a row w carried by the forest's edges
    whose boundary, the sum of w's entries times e_u - e_v over its
    edges (u, v), is y: a list of integers, one per vertex, summing to 0
    on each tree of the forest (as `_cycle_lattice` returns it).  Only
    the nonzero values are listed.

    The edge above x carries up[x] times the sum of y over x's subtree.
    Its row is up[x] * (e_x - e_parent[x]), so x's entry in the boundary
    is its subtree's sum less its children's subtree sums, y[x]; a top's
    entry is minus its children's sums, y at the top, as its tree sums
    to 0.  The subtree sums are gathered children first, in reverse
    breadth-first order."""
    order, parent, edge, up = forest
    below = list(y)
    lift = []
    for x in reversed(order):
        p = parent[x]
        if p >= 0 and below[x]:
            lift.append((edge[x], up[x] * below[x]))
            below[p] += below[x]
    return lift


def _free_cover(G: PermGroup, H: PermGroup):
    """(K, ends, moves, forest): the free cover Z[G]^r -> I_{G/H} of
    `sha2_omega` as the edge list of a graph on the cosets, the Hermite
    basis K of its kernel, the action of G's generators on Z[G]^r, and
    the spanning forest K is read off.  Z[G]^r is one
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
    is its cycle lattice, and forest the spanning forest it is read off
    (`_cycle_lattice`).  The edge of copy 0 at element g leaves the
    coset of g: ends[g][0] is coset[g].

    Self-checks, each the graph form of a check on A:
    - onto: A's rows span I exactly when the graph is connected, that
      is when the spanning forest is one tree;
    - equivariance, rho(x)*A = A*rho_I(x): the edge at the point p*x is
      the edge at p with both ends moved by x's coset permutation
      (`coset_moves`, which `augmentation_ideal` reads too);
    - K has r|G| - [G:H] + 1 rows, the rank of ker A for an onto A;
    - K*A = 0: every row of K has zero boundary, the sum of its entries
      times e_u - e_v over its edges."""
    number, table = G.multiplication_table()
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
    n, r = len(table), len(picked)
    moves = [[j * n + c for j in range(r) for c in table[x]] for x in gens]
    for k, (move, cmove) in enumerate(zip(moves, coset_moves(T, coset_of, G.generators))):
        # the edge at each point p*x against the edge at p moved by x
        if [ends[q] for q in move] != [(cmove[u], cmove[v]) for u, v in ends]:
            raise InternalCheckError(
                f"free cover of I over {G.label} is not equivariant for generator {k}")
    K, forest = _cycle_lattice(ends, d)
    # a forest of one tree spans the graph, and then its rows span I
    if forest[1].count(-1) != 1:
        raise InternalCheckError(f"free cover of I over {G.label} is not onto")
    if K.nrows != r * n - d + 1:
        raise InternalCheckError(
            f"cycle lattice of the free cover over {G.label} has {K.nrows} rows, "
            f"expected r|G| - [G:H] + 1 = {r * n - d + 1}")
    for row in K.data:
        if any(_boundary(ends, d, row, compress(range(len(row)), row))):
            raise InternalCheckError(f"cycle lattice of the free cover over {G.label} "
                                     "is not in its kernel")
    return K, ends, moves, forest


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


def _identity_block(K, label):
    """(support, lead) for `_free_cover`'s cycle lattice K: support[i]
    lists the columns where row i is nonzero, and lead[p] is i when p is
    the leading column of row i, else -1.

    K must have an identity block at its leading columns, the left-out
    edges of `_cycle_lattice`: each row leads with a 1, and no other row
    is nonzero there.  That is checked in one pass over K's nonzero
    entries.  Then a row w of the cover's kernel has its entries at the
    leading columns as coordinates: w minus that combination of K's rows
    lies in the kernel and is 0 at every leading column, so it is 0, K's
    rows spanning the kernel over Q by the row count and connectivity
    `_free_cover` checks.  An integer w lies in the kernel exactly when
    its boundary is zero.  So a row is accepted, with its entries at the
    leading columns as coordinates, exactly when its boundary is zero:
    the test a back-substitution against K would make.
    """
    support = [list(compress(range(K.ncols), row)) for row in K.data]
    no_block = (f"cycle lattice of the free cover over {label} has no identity "
                "block at its leading columns")
    lead = [-1] * K.ncols
    for i, (row, cols) in enumerate(zip(K.data, support)):
        if not cols or row[cols[0]] != 1 or lead[cols[0]] >= 0:
            raise InternalCheckError(no_block)
        lead[cols[0]] = i
    if any(lead[p] >= 0 for cols in support for p in cols[1:]):
        raise InternalCheckError(no_block)
    return support, lead


def _kernel_action(K, support, lead, ends, d, moves, label):
    """The matrix of each point permutation of moves on the lattice that
    K's rows span, as a list of rows: row i holds the coordinates of
    K_i*P_x in K.  K is `_free_cover`'s cycle lattice of the coset graph
    on d vertices with edges ends, and (support, lead) its
    `_identity_block`: each gathered row K_i*P_x is accepted when its
    boundary is zero, with its entries at the leading columns as its
    coordinates.
    """
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


def _norm_lifts(nrows, lead, ends, d, forest, col, label):
    """The rows that stand for ker(N_C) on the cover's kernel K in the
    Smith form of `sha2_omega`, for the cyclic group C generated by the
    element c whose column of G.multiplication_table() is col: the
    coordinates in K of w_y - w_y*rho(c), for y over a basis of I^C and
    w_y its `_forest_lift`.  K has nrows rows and the leading columns
    lead (`_identity_block`); ends, d and forest are the coset graph and
    its spanning forest (`_free_cover`).

    I^C is spanned by the indicator vectors of C's orbits on the cosets
    with coordinate sum 0, so its basis is the integer kernel of the
    column of orbit sizes, at most [G:H] rows.  The orbits are the
    cycles of c on the cosets, the `orbits` of its move: c moves the
    coset of g, the tail of copy 0's edge at g, to that of g*c, the tail
    of the edge at col[g].
    rho(c) sends point j|G| + g to j|G| + col[g], so w_y*rho(c) moves
    w_y's entries, and its boundary is y moved by c, which is y.  So
    w_y - w_y*rho(c) has zero boundary; that is checked, and its entries
    at the leading columns are its coordinates, as in `_kernel_action`.
    """
    n = len(col)
    move = [0] * d
    for g in range(n):
        move[ends[g][0]] = ends[col[g]][0]
    cycles = orbits([move], d)
    if len(cycles) == 1:
        # C is transitive on the cosets, so I^C = 0
        return []
    orbit = [0] * d
    for k, cycle in enumerate(cycles):
        for u in cycle:
            orbit[u] = k
    rows = []
    for a in kernel_basis(IntMatrix([[len(c)] for c in cycles], 1)).data:
        row = {}
        for p, x in _forest_lift(forest, [a[k] for k in orbit]):
            q = p - p % n + col[p % n]
            row[p] = row.get(p, 0) + x
            row[q] = row.get(q, 0) - x
        if any(_boundary(ends, d, row, row)):
            raise InternalCheckError(f"a norm row lifted through the forest over {label} "
                                     "is not in the kernel of the free cover")
        coords = [0] * nrows
        for p, x in row.items():
            if lead[p] >= 0:
                coords[lead[p]] = x
        rows.append(coords)
    return rows


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
    Each ker(N_C) lies in ker(N_G), the saturation of K*I_G, so the
    quotient is the torsion of Z^rank(K) modulo the stacked rows of
    rho(s) - 1 over the generators s, which span K*I_G, and of each
    K meet ker(N_C).  rho(s) permutes the points, so row i of K*rho(s)
    is K_i with its entries moved, and its coordinates in K are its
    entries at K's leading columns (`_kernel_action`).

    K meet ker(N_C) needs no elimination.  Let C = <c>.  Z[G]^r is a
    free Z[C]-module, on which Tate H^-1(C, -) vanishes (Brown, VI), so
    there ker(N_C) is the image of 1 - c.  If v = u(1 - c) lies in K,
    then uA is fixed by C, a y in I^C, and u - w_y lies in K for any
    lift w_y of y through the cover.  So K meet ker(N_C) is
    K(1 - c) + {w_y(1 - c) : y in a basis of I^C}, and K(1 - c) lies in
    K*I_G, whose rows are already stacked: each class adds one row
    w_y - w_y*rho(c) per basis vector y, one fewer than C's orbits on
    the cosets.  w_y is read off the forest K came from (`_forest_lift`),
    and the row's coordinates in K at its leading columns
    (`_norm_lifts`).  Each kept class comes as a generator c and its
    element numbers in G.multiplication_table(), where c's column is its
    move.

    Self-checks, all on the coset graph's edge list and its forest: the
    spanning forest is one tree, so the cover is onto; the cover
    commutes with the action; K has r|G| - [G:H] + 1 rows, each with
    zero boundary, so K*A = 0 for the cover's matrix A (`_free_cover`);
    K has an identity block at its leading columns (`_identity_block`),
    and every row of K*rho(s) and every lifted norm row has zero
    boundary (`_kernel_action`, `_norm_lifts`).  The last two are the
    membership test of a back-substitution against K: with the row
    count and the one tree, the identity block makes K's rows a basis of
    ker A, so a row lies in their span exactly when its boundary is
    zero, and its coordinates are its entries at the leading columns.  K^G has rank r, since
    (Z[G]^r)^G has rank r and I^G = 0, so the Smith rank, that of
    K*I_G, is rank(K) - r; a norm row outside ker(N_G) would raise
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
    K, ends, moves, forest = _free_cover(G, H)
    index = G.order() // H.order()
    support, lead = _identity_block(K, G.label)
    # rho(s) - 1 for each generator s, in place on the coordinate rows
    rows = []
    for block in _kernel_action(K, support, lead, ends, index, moves, G.label):
        for i, row in enumerate(block):
            row[i] -= 1
        rows += block
    _, table = G.multiplication_table()
    for c, _ in classes:
        rows += _norm_lifts(K.nrows, lead, ends, index, forest, table[c], G.label)
    r = K.ncols // G.order()
    # the Smith form works on these lists themselves, so its input is held once
    d = snf_rows(rows)
    if len(d) != K.nrows - r:
        raise InternalCheckError(
            f"sha2_omega over {G.label} has Smith rank {len(d)}, expected "
            f"{K.nrows - r}: a lifted norm row escapes ker(N_G)")
    torsion = tuple(x for x in d if x > 1)
    if any(index % x for x in torsion):
        raise InternalCheckError(
            f"sha2_omega over {G.label} has invariants {torsion} not "
            f"dividing [G:H]={index}")
    return AbelianInvariants(0, torsion)
