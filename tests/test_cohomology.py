import functools
import random
import re
import warnings

import pytest
from hypothesis import example, given, strategies as st

import normone.cohomology as cohomology
import oracles
from normone.cohomology import sha2_omega, tate_minus1
from normone.errors import CapExceeded, InternalCheckError, NormOneError
from normone.intmat import (
    AbelianInvariants, IntMatrix, hnf_basis, hnf_coordinates, kernel_basis, permutation_matrix,
)
from normone.lattices import (
    GLattice, _restricted_action, chevalley_module, dual, minus_one_rows, perm_lattice,
)
from normone.perms import (
    PermGroup, Permutation, alternating, cyclic, dihedral, maximal_cyclic_subgroup_classes,
    product_of_cyclics, subgroup_classes, symmetric,
)
from oracles import (
    bar_h1, cyclic_subgroup_classes, dimension_shift, direct_sum, elementary_divisors,
    free_cover_literal, h1, h1_data, lattice_pool, matrix_sum, norm_kernel, presentation_catalog,
    sha2_omega_shift, small_catalog, tate_cyclic, tate_minus1_literal, trivial_lattice,
    twist_lattice,
)

P = Permutation.from_cycles
V4 = product_of_cyclics((2, 2))
TRIVIAL = AbelianInvariants(0, ())


def sign_lattice():
    return GLattice(cyclic(2), 1, [IntMatrix([[-1]])])


CATALOG_GROUPS = [
    cyclic(2), cyclic(3), cyclic(4), cyclic(5), cyclic(6), cyclic(8),
    symmetric(2), symmetric(3), symmetric(4),
    alternating(3), alternating(4), alternating(5),
    dihedral(1), dihedral(2), dihedral(3), dihedral(4), dihedral(5), dihedral(6),
    V4, product_of_cyclics((2, 4)), product_of_cyclics((2, 2, 2)),
    product_of_cyclics((3, 3)), product_of_cyclics((2, 6)),
]


class TestPresentationCatalog:
    @pytest.mark.parametrize("G", CATALOG_GROUPS, ids=lambda g: g.label)
    def test_catalog_validates(self, G):
        # presentation_catalog itself enumerates cosets and compares orders
        fp, images = presentation_catalog(G)
        assert len(images) == fp.ngens

    def test_c5(self):
        fp, _ = presentation_catalog(cyclic(5))
        assert fp.ngens == 1
        assert fp.relators == ((1,) * 5,)

    def test_s4_coxeter(self):
        fp, images = presentation_catalog(symmetric(4))
        assert fp.ngens == 3
        assert images == (P([(1, 2)], 4), P([(2, 3)], 4), P([(3, 4)], 4))
        assert (1, 1) in fp.relators
        assert (1, 2) * 3 in fp.relators
        assert (1, 3) * 2 in fp.relators

    def test_a5_and_a7_enumerate(self):
        presentation_catalog(alternating(5))
        presentation_catalog(alternating(7))

    def test_no_catalog_for_ad_hoc_groups(self):
        G = PermGroup(4, [P([(1, 2, 3, 4)], 4)])
        with pytest.raises(NormOneError):
            presentation_catalog(G)

    def test_unlabeled_group_is_named_by_its_generators(self):
        S = alternating(5).point_stabilizer(5)
        assert S.label == f"<{S.describe()}>" == "<(2 3 4),(1 2)(3 4)>"
        with pytest.raises(NormOneError, match=re.escape(
                "no catalog presentation for <(2 3 4),(1 2)(3 4)>")):
            presentation_catalog(S)


class TestH1:
    def test_sign_over_c2(self):
        assert h1(sign_lattice(), presentation_catalog(cyclic(2))) == \
            AbelianInvariants(0, (2,))

    def test_permutation_lattices_vanish(self):
        for G, H in [
            (alternating(4), alternating(4).subgroup([P([(1, 2, 3)], 4)])),
            (symmetric(3), symmetric(3).subgroup([P([(1, 2)], 3)])),
            (V4, V4.subgroup([V4.generators[0]])),
        ]:
            pres = presentation_catalog(G)
            assert h1(perm_lattice(G, H), pres).is_trivial()

    def test_trivial_lattice_over_a5(self):
        assert h1(trivial_lattice(alternating(5)),
                  presentation_catalog(alternating(5))).is_trivial()

    def test_direct_sum_additive(self):
        G = cyclic(2)
        pres = presentation_catalog(G)
        L = sign_lattice()
        both = h1(direct_sum(L, L), pres)
        single = h1(L, pres)
        assert elementary_divisors(both) == \
            sorted(elementary_divisors(single) + elementary_divisors(single))

    def test_matches_bar_complex_on_assorted_lattices(self):
        rng = random.Random(2024)
        for G in (cyclic(4), symmetric(3), V4, alternating(4)):
            pres = presentation_catalog(G)
            for L in lattice_pool(G):
                for candidate in (L, twist_lattice(rng, L)):
                    assert h1(candidate, pres) == bar_h1(candidate), \
                        f"mismatch over {G.label} rank {candidate.rank}"

    def test_zero_rank(self):
        G = cyclic(2)
        zero = GLattice(G, 0, [IntMatrix([], ncols=0)])
        assert h1(zero, presentation_catalog(G)).is_trivial()


class TestTateCyclic:
    def test_trivial_action(self):
        for n in (2, 3, 6):
            G = cyclic(n)
            h0, h1_ = tate_cyclic(G.generators[0], trivial_lattice(G))
            assert h0 == AbelianInvariants(0, (n,))
            assert h1_.is_trivial()

    def test_regular_lattice_trivial(self):
        G = cyclic(4)
        L = perm_lattice(G, G.trivial_subgroup())
        h0, h1_ = tate_cyclic(G.generators[0], L)
        assert h0.is_trivial() and h1_.is_trivial()

    def test_sign(self):
        h0, h1_ = tate_cyclic(cyclic(2).generators[0], sign_lattice())
        assert h0.is_trivial()
        assert h1_ == AbelianInvariants(0, (2,))

    def test_permutation_lattices_vanish_in_degrees_plus_minus_one(self):
        # degree 0 does NOT vanish for non-free orbits (it is Z/|stabilizer|
        # by Shapiro), so only the +-1 degrees are asserted here; induced
        # modules vanish in degree 0 too, covered in the induced tests
        for G in (symmetric(3), alternating(4), cyclic(6)):
            for H in (G.trivial_subgroup(), G.point_stabilizer(G.degree)):
                L = perm_lattice(G, H)
                for cls in cyclic_subgroup_classes(G):
                    c = next(e for e in cls.elements() if e.order() == cls.order())
                    _, h1_ = tate_cyclic(c, L)
                    assert h1_.is_trivial()
                    assert tate_minus1(cls, L).is_trivial()

    def test_free_orbit_degree_zero_counterexample(self):
        # stabilizer C2 inside S3 fixes one coset of the point action, so
        # Tate^0 there is Z/2 and the blanket "(0,0) for permutation
        # lattices" claim would be wrong
        G = symmetric(3)
        L = perm_lattice(G, G.point_stabilizer(3))
        c = P([(1, 2)], 3)
        h0, h1_ = tate_cyclic(c, L)
        assert h0 == AbelianInvariants(0, (2,))
        assert h1_.is_trivial()


class TestTateMinus1:
    def test_trivial_subgroup(self):
        G = cyclic(2)
        assert tate_minus1(G.trivial_subgroup(), sign_lattice()).is_trivial()

    def test_regular_lattice(self):
        G = cyclic(2)
        L = perm_lattice(G, G.trivial_subgroup())
        assert tate_minus1(G, L).is_trivial()

    def test_sign_detected(self):
        G = cyclic(2)
        assert tate_minus1(G, sign_lattice()) == \
            AbelianInvariants(0, (2,))

    def test_klein_four_chevalley(self):
        # Z[V4] restricted to any C2 is free, so the long exact sequence of
        # 0 -> Z -> Z[V4] -> J -> 0 gives Tate^-1(C2, J) = Tate^0(C2, Z) = Z/2;
        # the explicit 3x3 kernel/image computation agrees
        G = V4
        J = chevalley_module(G, G.trivial_subgroup())
        C2 = G.subgroup([P([(1, 2), (3, 4)], 4)])
        assert tate_minus1(C2, J) == AbelianInvariants(0, (2,))
        assert tate_minus1_literal(C2, J) == AbelianInvariants(0, (2,))

    def test_matches_literal_definition(self):
        rng = random.Random(7)
        for G in (cyclic(4), symmetric(3), V4, alternating(4)):
            pool = lattice_pool(G)
            for cls in subgroup_classes(G):
                for L in pool[:4]:
                    for cand in (L, twist_lattice(rng, L)):
                        assert tate_minus1(cls, cand) == \
                            tate_minus1_literal(cls, cand)


class TestDimensionShift:
    def test_rank(self):
        G = cyclic(2)
        L = sign_lattice()
        shift = dimension_shift(L)
        assert shift.shifted.rank == (G.order() - 1) * L.rank

    def test_projection_kills_embedding(self):
        G = symmetric(3)
        L = chevalley_module(G, G.subgroup([P([(2, 3)], 3)]))
        shift = dimension_shift(L)
        assert (shift.embed.matrix * shift.project.matrix).is_zero()

    def test_shifts_tate_degree_on_cyclic_subgroups(self):
        # H^1 of the shifted module = H^2 = H^0 (cyclic periodicity)
        for G in (cyclic(2), cyclic(4), symmetric(3), V4):
            pool = lattice_pool(G)[:3]
            for L in pool:
                shift = dimension_shift(L)
                for cls in cyclic_subgroup_classes(G):
                    c = next(e for e in cls.elements() if e.order() == cls.order())
                    h0_L, _ = tate_cyclic(c, L)
                    _, h1_shift = tate_cyclic(c, shift.shifted)
                    assert h0_L == h1_shift, f"{G.label} rank {L.rank}"


def _shift_pairs():
    S3, A4, D4 = symmetric(3), alternating(4), dihedral(4)
    C222, S4 = product_of_cyclics((2, 2, 2)), symmetric(4)
    return [
        ("V4/1", V4, V4.trivial_subgroup()),
        ("S3/C2", S3, S3.subgroup([P([(1, 2)], 3)])),
        ("A4/A3", A4, A4.point_stabilizer(4)),
        ("A4/C2", A4, A4.subgroup([P([(1, 2), (3, 4)], 4)])),
        ("D4/C2 noncentral", D4, D4.subgroup([P([(2, 4)], 4)])),
        ("C2^3/C2", C222, C222.subgroup([P([(1, 2)], 6)])),
        ("S4/S3", S4, S4.point_stabilizer(4)),
    ]


# the small catalog groups over every proper subgroup class, and A5 and
# S5 over a point stabilizer
ORACLE_GROUPS = [*small_catalog(), alternating(5), symmetric(5)]


def _oracle_subgroups(G):
    if G.order() > 24:
        return [G.point_stabilizer(5)]
    return [H for H in subgroup_classes(G) if H.order() < G.order()]


def _oracle_pairs():
    return [(G, H) for G in ORACLE_GROUPS for H in _oracle_subgroups(G)]


@functools.cache
def _literal_norm_kernels(G, H):
    """(free, K, kernels) for sha2_omega's free cover of (G, H): its source,
    the Hermite basis K of its kernel, and for each cyclic class C of G,
    keyed by C's elements, (C, ker(K*N_C)) with N_C the literal sum of
    rho(c) over C.  The cover is `free_cover_literal`, and K comes from an
    elimination of its matrix, not from the coset graph."""
    cover = free_cover_literal(G, H)
    free = cover.source
    K = hnf_basis(kernel_basis(cover.matrix))
    kernels = {}
    for cls in cyclic_subgroup_classes(G):
        norm = matrix_sum([free.matrix_of(c) for c in cls.elements()], free.rank)
        kernels[cls.elements()] = (cls, kernel_basis(K * norm))
    return free, K, kernels


def _incidence(ends, d):
    """The incidence matrix of a graph on d vertices: row e_u - e_v for
    the edge (u, v), a zero row for a loop."""
    rows = []
    for u, v in ends:
        row = [0] * d
        row[u] += 1
        row[v] -= 1
        rows.append(row)
    return IntMatrix(rows, d)


@st.composite
def multigraphs(draw):
    # loops and parallel edges come up as often as not, and few enough
    # edges leave a graph disconnected
    d = draw(st.integers(1, 8))
    vertex = st.integers(0, d - 1)
    return draw(st.lists(st.tuples(vertex, vertex), max_size=16)), d


def _a6_rows():
    A6 = alternating(6)
    return [(A6, A6.subgroup([P([(1, 2, 3, 4, 5)], 6), P([(1, 2, 3)], 6)])),
            (A6, A6.subgroup([P([(1, 2, 3, 4, 5)], 6), P([(1, 4), (5, 6)], 6)]))]


class TestCycleLattice:
    @given(multigraphs())
    # loops, a double edge and an isolated vertex (four components); a
    # triangle against the direction of its last edge, with a bridge; no edge
    @example(([(0, 0), (1, 2), (2, 1), (3, 3)], 5))
    @example(([(0, 1), (1, 2), (0, 2), (2, 3)], 4))
    @example(([], 3))
    def test_matches_the_eliminated_hermite_basis(self, graph):
        ends, d = graph
        K, _ = cohomology._cycle_lattice(ends, d)
        assert K == hnf_basis(kernel_basis(_incidence(ends, d)))

    def test_every_free_cover_kernel(self):
        # the Hermite basis an elimination of the cover's matrix gives, on
        # every oracle pair (A5 and S5 over a point stabilizer among them)
        # and on both A6 rows
        for G, H in _oracle_pairs() + _a6_rows():
            K = cohomology._free_cover(G, H)[0]
            cover = free_cover_literal(G, H)
            assert K == hnf_basis(kernel_basis(cover.matrix)), (G.label, H.describe())


def _orbits(col, ends, d):
    """The orbits on the coset graph's vertices of the element whose
    column of the multiplication table is col, by brute force over the
    edges of copy 0: the edge at g leaves the coset of g."""
    n = len(col)
    orbit = [{u} for u in range(d)]
    for _ in range(d):
        for g in range(n):
            u, v = ends[g][0], ends[col[g]][0]
            orbit[u] |= orbit[v]
            orbit[v] |= orbit[u]
    return orbit


class TestForestLift:
    @given(multigraphs(), st.lists(st.integers(-9, 9), min_size=8, max_size=8))
    # a loop, a double edge and an isolated vertex; a triangle with a
    # bridge; no edge
    @example(([(0, 0), (1, 2), (2, 1), (3, 3)], 5), [4, 1, -2, 7, 3, 0, 0, 0])
    @example(([(0, 1), (1, 2), (0, 2), (2, 3)], 4), [1, 2, 3, 4, 0, 0, 0, 0])
    @example(([], 3), [1, 2, 3, 0, 0, 0, 0, 0])
    def test_boundary_is_the_demand_on_forest_edges(self, graph, values):
        # a demand summing to 0 on each component (its sum taken off the
        # component's first vertex) lifts to a row on forest edges, none
        # a left-out edge of the cycle lattice, whose boundary is the demand
        ends, d = graph
        K, forest = cohomology._cycle_lattice(ends, d)
        component = [{u} for u in range(d)]
        for _ in range(d):
            for u, v in ends:
                component[u] |= component[v]
                component[v] |= component[u]
        y = values[:d]
        for u in range(d):
            if u == min(component[u]):
                y[u] -= sum(y[x] for x in component[u])
        lift = cohomology._forest_lift(forest, y)
        edges = [p for p, _ in lift]
        assert len(set(edges)) == len(edges) and all(x for _, x in lift)
        left_out = {next(i for i, x in enumerate(row) if x) for row in K.data}
        assert not left_out & set(edges)
        w = [0] * len(ends)
        for p, x in lift:
            w[p] = x
        assert (IntMatrix([w], len(ends)) * _incidence(ends, d)).data[0] == tuple(y)


class TestConnected:
    @given(multigraphs())
    # a loop, a double edge and an isolated vertex; a path; one vertex
    @example(([(0, 0), (1, 2), (2, 1)], 4))
    @example(([(2, 1), (0, 2), (3, 2)], 4))
    @example(([], 1))
    def test_matches_the_hermite_basis_of_the_incidence_rows(self, graph):
        # the rows e_u - e_v, last column dropped, span Z^(d-1) exactly
        # when the walk reaches every vertex
        ends, d = graph
        rows = IntMatrix([row[:-1] for row in _incidence(ends, d).data], d - 1)
        spans = hnf_basis(rows) == IntMatrix.identity(d - 1)
        assert cohomology._connected(ends, d) == spans


class TestSha2Omega:
    def test_matches_degree_two_bar_complex(self):
        # fully independent route: 2-cocycles on all of GxG, restriction by
        # literal function restriction -- no dimension shift, no presentation
        from oracles import sha2_omega_bar
        cases = [
            (cyclic(2), cyclic(2).trivial_subgroup()),
            (cyclic(4), cyclic(4).subgroup([P([(1, 3), (2, 4)], 4)])),
            (V4, V4.trivial_subgroup()),
            (symmetric(3), symmetric(3).subgroup([P([(1, 2)], 3)])),
            (product_of_cyclics((2, 2, 2)),
             product_of_cyclics((2, 2, 2)).subgroup([P([(1, 2)], 6)])),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for G, H in cases:
                assert sha2_omega_bar(G, H) == sha2_omega(G, H), G.label

    def test_cyclic_groups_vanish(self):
        for n in (2, 3, 4, 6):
            G = cyclic(n)
            assert sha2_omega(G, G.trivial_subgroup()).is_trivial()

    def test_klein_four(self):
        G = V4
        assert sha2_omega(G, G.trivial_subgroup()) == AbelianInvariants(0, (2,))

    def test_a4_over_a3(self):
        G = alternating(4)
        assert sha2_omega(G, G.point_stabilizer(4)) == AbelianInvariants(0, (2,))

    def test_cap(self):
        G = symmetric(6)
        with pytest.raises(CapExceeded):
            sha2_omega(G, G.point_stabilizer(6))

    def test_matches_dimension_shift(self):
        # the route through Ind J that the free cover replaced
        for name, G, H in _shift_pairs():
            assert sha2_omega(G, H) == sha2_omega_shift(G, H), name

    def test_free_cover_ranks(self):
        # r <= log2 d, so K is never larger than the shifted module of
        # rank (|G|-1)(d-1), and the greedy r is 1 at index 2
        A5 = alternating(5)
        pairs = _shift_pairs() + [("A5/A4", A5, A5.point_stabilizer(5))]
        for name, G, H in pairs:
            n, d = G.order(), G.order() // H.order()
            K, cover = cohomology._free_cover(G, H)[0], free_cover_literal(G, H)
            r, rank = cover.source.rank // n, kernel_basis(cover.matrix).nrows
            assert cover.source.rank == r * n and cover.target.rank == d - 1, name
            assert K.nrows == rank, name
            assert 2 ** r <= d, name
            assert rank == r * n - (d - 1) <= (n - 1) * (d - 1), name
            if d == 2:
                assert r == 1, name
            if name == "A5/A4":
                assert rank == 56

    def test_free_cover_matches_the_permutation_route(self):
        # each copy of Z[G] read off the multiplication table is
        # perm_lattice(G, 1), and the coset graph's incidence matrix, last
        # column dropped, is the cover built from permutation products,
        # with the same picks
        for G, H in _oracle_pairs():
            _, ends, moves, _ = cohomology._free_cover(G, H)
            literal = free_cover_literal(G, H)
            d = G.order() // H.order()
            assert [permutation_matrix(m) for m in moves] == list(literal.source.action), (
                G.label, H.describe())
            incidence = IntMatrix([row[:-1] for row in _incidence(ends, d).data], d - 1)
            assert incidence == literal.matrix, (G.label, H.describe())

    def test_action_matches_the_back_substitution(self):
        # coordinates read at K's leading columns are those hnf_coordinates
        # finds, on every oracle pair and on both A6 rows
        for G, H in _oracle_pairs() + _a6_rows():
            K, ends, moves, _ = cohomology._free_cover(G, H)
            support, lead = cohomology._identity_block(K, G.label)
            action = cohomology._kernel_action(K, support, lead, ends, G.order() // H.order(),
                                               moves, G.label)
            literal = _restricted_action(K, free_cover_literal(G, H).source)
            assert [IntMatrix(m, K.nrows) for m in action] == literal, (G.label, H.describe())

    def test_dropped_cyclic_classes_add_nothing(self):
        # for C <= C', ker(N_C) lies in ker(N_C'), so the rows of K*I_G and
        # the kernels of the maximal classes already span those of the rest
        for G, H in _oracle_pairs():
            free, K, kernels = _literal_norm_kernels(G, H)
            elems = G.elements()
            kept = [tuple(elems[i] for i in nums)
                    for _, nums in maximal_cyclic_subgroup_classes(G)]
            rows = minus_one_rows(_restricted_action(K, free))
            for key in kept:
                rows += kernels[key][1].data
            span = hnf_basis(IntMatrix(rows, K.nrows))
            for key, (cls, kernel) in kernels.items():
                if key not in kept:
                    assert hnf_coordinates(span, kernel) is not None, (
                        G.label, H.describe(), cls.describe())

    @pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda G: G.label)
    def test_matches_the_shift_over_every_cyclic_class(self, G):
        # the dimension shift stacks a norm kernel for every cyclic class
        for H in _oracle_subgroups(G):
            assert sha2_omega(G, H) == sha2_omega_shift(G, H), H.describe()

    def test_lifts_give_the_literal_norm_kernels(self):
        # for every cyclic class C = <c>, not only the maximal ones that
        # sha2_omega passes, the lifted rows and the rows of K*(rho(c) - 1)
        # span K meet ker(N_C): the literal kernel of K*N_C, which the
        # coset sums of oracles.norm_kernel find too
        for G, H in _oracle_pairs():
            free, K, kernels = _literal_norm_kernels(G, H)
            cover, ends, _, forest = cohomology._free_cover(G, H)
            assert cover == K
            _, lead = cohomology._identity_block(K, G.label)
            number, table, _ = G.multiplication_table()
            d, r = G.order() // H.order(), free.rank // G.order()
            seen = []
            for cls, kernel in kernels.values():
                c = next(x for x in cls.elements() if x.order() == cls.order())
                col = table[number[c.images]]
                lifted = cohomology._norm_lifts(K.nrows, lead, ends, d, forest, col, G.label)
                assert len(lifted) == len(set(map(frozenset, _orbits(col, ends, d)))) - 1
                moved = minus_one_rows([hnf_coordinates(K, K * free.matrix_of(c))])
                want = hnf_basis(kernel)
                assert hnf_basis(IntMatrix(lifted + moved, K.nrows)) == want, (
                    G.label, H.describe(), cls.describe())
                nums = sorted(number[x.images] for x in cls.elements())
                assert hnf_basis(norm_kernel(K, [table[x] for x in nums], r)) == want
                seen.append(nums)
            # the maximal classes, as sha2_omega passes them, are among them
            assert all(nums in seen for _, nums in maximal_cyclic_subgroup_classes(G))

    def test_onto_check_catches_a_dropped_pick(self, monkeypatch):
        # V4 over 1 needs both generators (r = 2); a closure that reports
        # all of G once one generator is picked drops the last pick, and
        # one copy of Z[G] does not cover I, of rank 3
        G = product_of_cyclics((2, 2))
        H = G.trivial_subgroup()
        assert cohomology._free_cover(G, H)[0].ncols == 2 * G.order()
        closure = cohomology.closure_idx

        def whole_after_a_pick(table, gens):
            return list(range(len(table))) if gens else closure(table, gens)
        monkeypatch.setattr(cohomology, "closure_idx", whole_after_a_pick)
        with pytest.raises(InternalCheckError, match="free cover of I over C2xC2 is not onto"):
            cohomology._free_cover(G, H)

    def test_equivariance_catches_a_corrupted_coset_action(self, monkeypatch):
        # two entries of the first generator's coset permutation swapped:
        # the cosets no longer move as G moves them, so the edge at a moved
        # point is no longer the moved edge
        coset_moves = cohomology.coset_moves
        calls = []

        def corrupted(T, coset_of, xs):
            moves = coset_moves(T, coset_of, xs)
            moves[0][0], moves[0][1] = moves[0][1], moves[0][0]
            calls.append(moves)
            return moves
        monkeypatch.setattr(cohomology, "coset_moves", corrupted)
        G = alternating(4)
        with pytest.raises(InternalCheckError, match="not equivariant for generator 0"):
            cohomology._free_cover(G, G.point_stabilizer(4))
        assert len(calls) == 1 and len(calls[0]) == len(G.generators)

    def test_kernel_check_catches_a_corrupted_cycle(self, monkeypatch):
        # one more unit at an edge that is not a loop: that cycle's image
        # under the cover is the edge's nonzero row
        cycle_lattice = cohomology._cycle_lattice

        def corrupted(ends, d):
            K, forest = cycle_lattice(ends, d)
            rows = K.tolist()
            rows[0][next(i for i, (u, v) in enumerate(ends) if u != v)] += 1
            return IntMatrix(rows, len(ends)), forest
        monkeypatch.setattr(cohomology, "_cycle_lattice", corrupted)
        G = alternating(4)
        with pytest.raises(InternalCheckError, match="is not in its kernel"):
            sha2_omega(G, G.point_stabilizer(4))

    def test_rank_check_catches_a_dropped_forest_edge(self, monkeypatch):
        # the greedy forest keeps the last edge that is not a loop; without
        # it, A4's coset graph over A3 (12 edges on 4 vertices) stays
        # connected, so its cycles, read back with a zero at that edge,
        # still lie in the kernel but are one too few
        cycle_lattice = cohomology._cycle_lattice

        def dropped(ends, d):
            i = max(k for k, (u, v) in enumerate(ends) if u != v)
            K, forest = cycle_lattice(ends[:i] + ends[i + 1:], d)
            return IntMatrix([row[:i] + (0,) + row[i:] for row in K.data], len(ends)), forest
        monkeypatch.setattr(cohomology, "_cycle_lattice", dropped)
        G = alternating(4)
        with pytest.raises(InternalCheckError, match="has 8 rows, expected .* = 9"):
            sha2_omega(G, G.point_stabilizer(4))

    @pytest.mark.parametrize("corrupt", [
        lambda rows: [a + b for a, b in zip(rows[0], rows[1])],
        lambda rows: [-a for a in rows[0]],
    ], ids=["sum", "negated"])
    def test_identity_block_check_catches_a_changed_basis(self, corrupt, monkeypatch):
        # the second cycle added to the first, or the first negated: still
        # a basis of the kernel, of the right row count, but the first row
        # is nonzero at the second's leading column, or leads with -1, so
        # coordinates cannot be read at the leading columns
        cycle_lattice = cohomology._cycle_lattice

        def changed(ends, d):
            K, forest = cycle_lattice(ends, d)
            rows = K.tolist()
            rows[0] = corrupt(rows)
            return IntMatrix(rows, len(ends)), forest
        monkeypatch.setattr(cohomology, "_cycle_lattice", changed)
        G = alternating(4)
        with pytest.raises(InternalCheckError, match="no identity block"):
            sha2_omega(G, G.point_stabilizer(4))

    def test_stability_check_catches_a_corrupted_point_action(self, monkeypatch):
        # the free cover passes its own checks; two points of the first
        # generator's permutation swapped afterwards move some cycle off
        # the kernel
        free_cover = cohomology._free_cover

        def corrupted(G, H):
            K, ends, moves, forest = free_cover(G, H)
            move = moves[0]
            p = next(q for q in range(1, len(ends)) if ends[move[q]] != ends[move[0]])
            move[0], move[p] = move[p], move[0]
            return K, ends, moves, forest
        monkeypatch.setattr(cohomology, "_free_cover", corrupted)
        G = alternating(4)
        with pytest.raises(InternalCheckError, match="is not stable under generator 0"):
            sha2_omega(G, G.point_stabilizer(4))

    def test_matches_pipeline_on_point_stabilizers(self):
        # the paper's A4 and A5 rows, and S5
        from normone.resolutions import norm_one_invariant
        for G in (alternating(4), alternating(5), symmetric(5)):
            H = G.point_stabilizer(G.degree)
            assert sha2_omega(G, H) == norm_one_invariant(G, H), G.label

    def test_no_full_subgroup_search(self, monkeypatch):
        # the oracle needs the cyclic classes only, which the seeding step
        # of the class search gives without extending them
        import normone.perms as perms

        def refuse(*args, **kwargs):
            raise AssertionError("sha2_omega enumerated every subgroup class")
        monkeypatch.setattr(perms, "subgroup_classes", refuse)
        for G in (symmetric(4), dihedral(6)):
            G = PermGroup(G.degree, G.generators, label=G.label)
            assert sha2_omega(G, G.point_stabilizer(G.degree)).is_trivial()

    def test_one_smith_form_and_no_presentation(self, monkeypatch):
        # Sha^2_omega comes from Tate H^-1 of the dual by corestriction, so
        # no presentation is enumerated on the way
        import sys

        def refuse(*args, **kwargs):
            raise AssertionError("a presentation reached sha2_omega")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "normone" and hasattr(module, "todd_coxeter"):
                monkeypatch.setattr(module, "todd_coxeter", refuse)
        calls = []
        snf_rows = cohomology.snf_rows

        def counted(W):
            calls.append(W)
            return snf_rows(W)
        monkeypatch.setattr(cohomology, "snf_rows", counted)
        A4 = alternating(4)
        assert sha2_omega(V4, V4.trivial_subgroup()) == AbelianInvariants(0, (2,))
        assert sha2_omega(A4, A4.point_stabilizer(4)) == AbelianInvariants(0, (2,))
        assert len(calls) == 2

    def test_divisibility_check_fires(self, monkeypatch):
        # Sha^2_omega(A4, J) over A3 is Z/2; made Z/6, it still divides
        # |G| = 12 but not [G:H] = 4, which kills it
        snf_rows = cohomology.snf_rows

        def tripled(W):
            d = snf_rows(W)
            return [*d[:-1], 3 * d[-1]]
        monkeypatch.setattr(cohomology, "snf_rows", tripled)
        G = alternating(4)
        with pytest.raises(InternalCheckError, match=r"not dividing \[G:H\]=4"):
            sha2_omega(G, G.point_stabilizer(4))

    def test_rank_check_catches_a_stray_norm_kernel(self, monkeypatch):
        # rows outside ker(N_C) raise the rank of the stacked matrix above
        # rank(K) - r: every class stands for all of K
        def stray(nrows, *args):
            return IntMatrix.identity(nrows).tolist()
        monkeypatch.setattr(cohomology, "_norm_lifts", stray)
        G = alternating(4)
        with pytest.raises(InternalCheckError, match="Smith rank"):
            sha2_omega(G, G.point_stabilizer(4))

    def test_boundary_check_catches_a_corrupted_lift(self, monkeypatch):
        # one more unit on the first edge of the first lift, A4's C3 over
        # A3: <c> fixes one coset only, so it moves that forest edge off
        # its ends, and w_y - w_y*rho(c) gets a nonzero boundary
        forest_lift = cohomology._forest_lift
        calls = []

        def corrupted(forest, y):
            lift = forest_lift(forest, y)
            if not calls:
                (p, x), *rest = lift
                lift = [(p, x + 1), *rest]
            calls.append(y)
            return lift
        monkeypatch.setattr(cohomology, "_forest_lift", corrupted)
        G = alternating(4)
        with pytest.raises(InternalCheckError, match="is not in the kernel of the free cover"):
            sha2_omega(G, G.point_stabilizer(4))
        assert len(calls) == 1

    @pytest.mark.parametrize("G", [alternating(4), symmetric(4), dihedral(6)],
                             ids=lambda G: G.label)
    def test_no_elimination_above_the_index_but_the_smith_form(self, G, monkeypatch):
        # the cover, its kernel, the action and the norm lifts run no
        # elimination on more than [G:H] rows; the one Smith form does
        import normone.intmat as intmat
        G = PermGroup(G.degree, G.generators, label=G.label)
        H = G.point_stabilizer(G.degree)
        hermite, snf_rows = intmat._hermite, cohomology.snf_rows
        inside, sizes, smith = [], [], []

        def counted_hermite(W, track):
            (smith if inside else sizes).append(len(W))
            return hermite(W, track)

        def counted_snf(W):
            inside.append(W)
            try:
                return snf_rows(W)
            finally:
                inside.pop()
        monkeypatch.setattr(intmat, "_hermite", counted_hermite)
        monkeypatch.setattr(cohomology, "snf_rows", counted_snf)
        sha2_omega(G, H)
        index = G.order() // H.order()
        assert sizes and max(sizes) <= index, sizes
        assert smith


def generator_values(data, row):
    """A Z1 row cut into its values on the presentation generators."""
    R = len(row) // len(data.mats)
    return [row[j * R:(j + 1) * R] for j in range(len(data.mats))]


def test_h1_data_exposes_cocycles():
    G = cyclic(2)
    data = h1_data(sign_lattice(), presentation_catalog(G))
    assert data.Z1.nrows == 1
    # cocycle value at the generator word is the stored generator value
    row = data.Z1.data[0]
    assert data.value_at(generator_values(data, row), (1,)) == list(row)


def test_cocycles_vanish_on_relators():
    for G in (symmetric(3), alternating(4), product_of_cyclics((2, 4))):
        pres = presentation_catalog(G)
        J = chevalley_module(G, G.point_stabilizer(G.degree))
        data = h1_data(J, pres)
        for row in data.Z1.data:
            for w in pres[0].relators:
                assert data.value_at(generator_values(data, row), w) == [0] * J.rank


def test_h1_data_takes_one_kernel_for_all_relators(monkeypatch):
    G = symmetric(4)
    pres = presentation_catalog(G)
    relators = pres[0].relators
    assert len(relators) > 1
    J = chevalley_module(G, G.point_stabilizer(4))
    calls = []
    kernel_basis = oracles.kernel_basis

    def counted(A):
        calls.append(A)
        return kernel_basis(A)
    monkeypatch.setattr(oracles, "kernel_basis", counted)
    data = h1_data(J, pres)
    # one kernel of every relator's blocks side by side
    assert len(calls) == 1
    assert calls[0].ncols == len(relators) * J.rank
    assert data.Z1.nrows > 0


def test_h1_inverse_matrices_invert_the_generators():
    # invs[j] is rho of the inverse image, a product of generator matrices
    G = alternating(4)
    pres = presentation_catalog(G)
    J = chevalley_module(G, G.point_stabilizer(4))
    for L in (J, dual(J), dimension_shift(J).shifted):
        data = h1_data(L, pres)
        assert len(data.invs) == len(data.mats) == pres[0].ngens
        for m, inv in zip(data.mats, data.invs):
            assert inv * m == IntMatrix.identity(L.rank)
