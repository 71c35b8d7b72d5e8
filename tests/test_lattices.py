from collections import Counter

import pytest

from normone.errors import InternalCheckError
from normone.intmat import IntMatrix, kernel_basis, snf_invariants
from normone.lattices import (
    GLattice, LatticeMap, augmentation_ideal, chevalley_module, dual,
    fixed_sublattice, perm_lattice,
)
from normone.perms import (
    Permutation, alternating, cyclic, product_of_cyclics, symmetric,
)
from oracles import (
    core, det, direct_sum, induced, inverse_unimodular, presentation_catalog,
    tate_cyclic, trivial_lattice,
)

P = Permutation.from_cycles
V4 = product_of_cyclics((2, 2))


def sign_lattice():
    return GLattice(cyclic(2), 1, [IntMatrix([[-1]])])


def inclusion(G, H):
    """I_{G/H} -> Z[G/H], sending basis vector i to coset_i - coset_last;
    LatticeMap checks that it is equivariant."""
    I, Z = augmentation_ideal(G, H), perm_lattice(G, H)
    rows = [[int(j == i) - int(j == Z.rank - 1) for j in range(Z.rank)]
            for i in range(I.rank)]
    return LatticeMap(I, Z, IntMatrix(rows, Z.rank))


class TestPermLattice:
    def test_whole_group_gives_trivial(self):
        G = symmetric(3)
        L = perm_lattice(G, G)
        assert L.rank == 1
        assert all(m == IntMatrix.identity(1) for m in L.action)

    def test_rank_and_permutation_matrices(self):
        G = alternating(6)
        L = perm_lattice(G, G.point_stabilizer(1))
        assert L.rank == 6
        for m in L.action:
            for row in m.data:
                assert sorted(row) == [0] * 5 + [1]
            for col in m.transpose().data:
                assert sorted(col) == [0] * 5 + [1]

    def test_action_is_homomorphism(self):
        G = symmetric(3)
        L = perm_lattice(G, G.subgroup([P([(2, 3)], 3)]))
        for g in G.elements():
            for h in G.elements():
                assert L.matrix_of(g) * L.matrix_of(h) == L.matrix_of(g * h)


class TestChevalley:
    def test_c2_sign_case(self):
        G = cyclic(2)
        J = chevalley_module(G, G.trivial_subgroup())
        assert J.rank == 1
        assert J.action[0] == IntMatrix([[-1]])

    def test_rank(self):
        G = alternating(6)
        J = chevalley_module(G, G.point_stabilizer(1))
        assert J.rank == 5

    def test_homomorphism_s3(self):
        G = symmetric(3)
        J = chevalley_module(G, G.subgroup([P([(2, 3)], 3)]))
        for m in J.action:
            assert abs(det(m)) == 1
        for g in G.elements():
            for h in G.elements():
                assert J.matrix_of(g) * J.matrix_of(h) == J.matrix_of(g * h)

    def test_kernel_is_core(self):
        # faithful when the core is trivial: distinct matrices per element
        G = symmetric(3)
        J = chevalley_module(G, G.subgroup([P([(2, 3)], 3)]))
        mats = {J.matrix_of(g) for g in G.elements()}
        assert len(mats) == 6

    def test_kernel_is_core_when_nontrivial(self):
        # normal subgroup: exactly the core acts trivially
        G = cyclic(4)
        H = G.subgroup([P([(1, 3), (2, 4)], 4)])
        J = chevalley_module(G, H)
        c = core(G, H)
        assert c.order() == 2
        ident = IntMatrix.identity(J.rank)
        for g in G.elements():
            assert (J.matrix_of(g) == ident) == (g in c.element_set())

    def test_projection_from_perm_module(self):
        # Z[G/H] -> J is equivariant, surjective, kernel = norm vector
        G = alternating(4)
        H = G.subgroup([P([(1, 2, 3)], 4)])
        Zl = perm_lattice(G, H)
        J = chevalley_module(G, H)
        d = Zl.rank
        proj = IntMatrix(
            [[1 if j == i else 0 for j in range(d - 1)] for i in range(d - 1)]
            + [[-1] * (d - 1)])
        m = LatticeMap(Zl, J, proj)  # equivariance checked at construction
        assert snf_invariants(m.matrix) == [1] * (d - 1)
        K = kernel_basis(proj)
        assert K == IntMatrix([[1] * d])


class TestAugmentationIdeal:
    def test_rank_and_inclusion(self):
        G = alternating(4)
        H = G.subgroup([P([(1, 2, 3)], 4)])
        inc = inclusion(G, H)
        assert inc.source.rank == 3
        assert inc.matrix.nrows == 3 and inc.matrix.ncols == 4
        for row in inc.matrix.data:
            assert sum(row) == 0  # lands in the augmentation kernel

    def test_equals_dual_of_chevalley(self):
        # the pipeline covers I in place of dual(J), so every verify-paper
        # row and a group outside the catalog are pinned here
        A4, A5, A6 = alternating(4), alternating(5), alternating(6)
        S = A5.point_stabilizer(5)
        for G, H in [
            (A4, A4.subgroup([P([(1, 2, 3)], 4)])),
            (symmetric(3), symmetric(3).subgroup([P([(2, 3)], 3)])),
            (A5, A5.point_stabilizer(5)),
            (A6, A6.subgroup([P([(1, 2, 3, 4, 5)], 6), P([(1, 2, 3)], 6)])),
            (A6, A6.subgroup([P([(1, 2, 3, 4, 5)], 6), P([(1, 4), (5, 6)], 6)])),
            (alternating(7), alternating(7).point_stabilizer(7)),
            (S, S.point_stabilizer(4)),
        ]:
            I = augmentation_ideal(G, H)
            Jd = dual(chevalley_module(G, H))
            assert I.action == Jd.action


class TestDual:
    def test_dual_acts_by_transposed_inverses(self):
        # dual takes rho(g^-1) from matrix_of; check it against an
        # independent Hermite inverse on permutation and non-permutation
        # lattices alike
        from normone.resolutions import coflasque_cover

        for G in (alternating(4), symmetric(4)):
            H = G.point_stabilizer(G.degree)
            J = chevalley_module(G, H)
            middle = coflasque_cover(dual(J)).middle
            for L in (perm_lattice(G, H), middle, J, dual(J)):
                D = dual(L)
                for j, a in enumerate(L.action):
                    assert D.action[j] == inverse_unimodular(a).transpose()

    def test_involution(self):
        G = alternating(4)
        J = chevalley_module(G, G.subgroup([P([(1, 2, 3)], 4)]))
        assert dual(dual(J)).action == J.action

    def test_perm_lattice_self_dual(self):
        G = symmetric(3)
        L = perm_lattice(G, G.subgroup([P([(2, 3)], 3)]))
        assert dual(L).action == L.action

    def test_trivial(self):
        G = cyclic(3)
        assert dual(trivial_lattice(G)).action == trivial_lattice(G).action

    def test_dual_map_equivariant(self):
        G = alternating(4)
        H = G.subgroup([P([(1, 2, 3)], 4)])
        inc = inclusion(G, H)
        # the transpose of an equivariant map is one between the duals
        dm = LatticeMap(dual(inc.target), dual(inc.source), inc.matrix.transpose())
        assert dm.matrix == inc.matrix.transpose()


class TestDirectSum:
    def test_ranks_and_blocks(self):
        G = cyclic(2)
        L = direct_sum(sign_lattice(), trivial_lattice(G))
        assert L.rank == 2
        assert L.action[0] == IntMatrix([[-1, 0], [0, 1]])

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            direct_sum(trivial_lattice(cyclic(2)), trivial_lattice(cyclic(3)))

    def test_sum_with_zero_lattice(self):
        G = cyclic(2)
        zero = GLattice(G, 0, [IntMatrix([], ncols=0)])
        L = sign_lattice()
        assert direct_sum(L, zero).action == L.action
        assert direct_sum(zero, L).rank == 1


class TestInduced:
    def test_rank_and_split(self):
        G = cyclic(2)
        L = sign_lattice()
        I, emb = induced(L)
        assert I.rank == 2
        # projecting onto the identity-element block undoes the embedding
        elems = G.elements()
        e_pos = elems.index(Permutation.identity(G.degree))
        block = IntMatrix([[1 if (i == e_pos * L.rank + j) else 0
                            for j in range(L.rank)] for i in range(I.rank)]).transpose()
        assert emb.matrix * block.transpose() == IntMatrix.identity(L.rank)

    def test_induced_is_cohomologically_trivial_for_c2(self):
        G = cyclic(2)
        I, _ = induced(sign_lattice())
        h0, h1 = tate_cyclic(G.generators[0], I)
        assert h0.is_trivial() and h1.is_trivial()

    def test_equivariance_of_embedding(self):
        G = symmetric(3)
        L = chevalley_module(G, G.subgroup([P([(2, 3)], 3)]))
        I, emb = induced(L)
        assert I.rank == 6 * L.rank
        assert emb.source is L and emb.target is I

    def test_cohomologically_trivial_on_all_cyclic_subgroups(self):
        from normone.cohomology import tate_minus1
        from oracles import cyclic_subgroup_classes
        for G in (symmetric(3), V4):
            L = chevalley_module(G, G.trivial_subgroup())
            I, _ = induced(L)
            for cls in cyclic_subgroup_classes(G):
                c = next(e for e in cls.elements() if e.order() == cls.order())
                h0, h1 = tate_cyclic(c, I)
                assert h0.is_trivial() and h1.is_trivial()
                assert tate_minus1(cls, I).is_trivial()


class TestFixedSublattice:
    def test_full_group_fixes_norm_vector(self):
        G = alternating(4)
        H = G.subgroup([P([(1, 2, 3)], 4)])
        L = perm_lattice(G, H)
        F = fixed_sublattice(L, G)
        assert F == IntMatrix([[1, 1, 1, 1]])

    def test_trivial_subgroup_fixes_everything(self):
        G = cyclic(3)
        L = perm_lattice(G, G.trivial_subgroup())
        assert fixed_sublattice(L, G.trivial_subgroup()) == IntMatrix.identity(3)

    def test_sign_action_has_no_fixed_vectors(self):
        G = cyclic(2)
        J = chevalley_module(G, G.trivial_subgroup())
        assert fixed_sublattice(J, G).nrows == 0

    def test_saturated(self):
        G = V4
        L = perm_lattice(G, G.trivial_subgroup())
        for cls in (G, G.subgroup([G.generators[0]])):
            F = fixed_sublattice(L, cls)
            if F.nrows:
                assert all(x == 1 for x in snf_invariants(F))
                for g in cls.generators:
                    assert F * L.matrix_of(g) == F


class TestLatticeMap:
    def test_rejects_non_equivariant(self):
        G = cyclic(2)
        L = sign_lattice()
        T = trivial_lattice(G)
        with pytest.raises(InternalCheckError):
            LatticeMap(L, T, IntMatrix([[1]]))

    def test_accepts_zero_map(self):
        G = cyclic(2)
        LatticeMap(sign_lattice(), trivial_lattice(G), IntMatrix([[0]]))


def test_catalog_relators_act_trivially_on_lattices():
    # the action is a homomorphism: every catalog relator evaluates to the
    # identity matrix
    for G, H in [
        (alternating(4), alternating(4).subgroup([P([(1, 2, 3)], 4)])),
        (symmetric(4), symmetric(4).point_stabilizer(4)),
        (V4, V4.trivial_subgroup()),
    ]:
        L = chevalley_module(G, H)
        fp, images = presentation_catalog(G)
        mats = [L.matrix_of(img) for img in images]
        invs = [inverse_unimodular(m) for m in mats]
        for w in fp.relators:
            acc = IntMatrix.identity(L.rank)
            for letter in w:
                acc = acc * (mats[letter - 1] if letter > 0 else invs[-letter - 1])
            assert acc == IntMatrix.identity(L.rank)


@pytest.mark.parametrize("G", [alternating(4), symmetric(4)], ids=["A4", "S4"])
def test_matrix_of_is_the_product_along_the_word(G):
    # longest words first, so most elements are reached through prefixes
    # that are not memoized yet
    words = sorted(G.elements_with_words().items(), key=lambda kv: -len(kv[1]))
    J = chevalley_module(G, G.point_stabilizer(G.degree))
    for L in (J, dual(J)):
        for p, word in words:
            expected = IntMatrix.identity(L.rank)
            for k in word:
                expected = expected * L.action[k - 1]
            assert L.matrix_of(p) == expected


@pytest.mark.parametrize("make", [
    lambda G: chevalley_module(G, G.point_stabilizer(4)),
    lambda G: perm_lattice(G, G.trivial_subgroup()),
], ids=["J", "Z[G]"])
def test_matrix_of_costs_one_product_per_element_past_the_generators(make, monkeypatch):
    # words are memoized by prefix: a generator's matrix is its action
    # matrix, the identity costs no product, every other element one, and
    # no permutation is multiplied once the words exist
    G = alternating(4)
    L = make(G)
    G.elements_with_words()
    calls = Counter()
    for cls in (IntMatrix, Permutation):
        def counted(a, b, mul=cls.__mul__, name=cls.__name__):
            calls[name] += 1
            return mul(a, b)
        monkeypatch.setattr(cls, "__mul__", counted)
    for j, g in enumerate(G.generators):
        assert L.matrix_of(g) is L.action[j]
    for p in G.elements():
        L.matrix_of(p)
    assert calls == {"IntMatrix": G.order() - 1 - len(G.generators)}
