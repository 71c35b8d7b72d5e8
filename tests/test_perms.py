import random

import pytest

from normone.cli import main
from normone.errors import CapExceeded, NotASubgroupError
from normone.lattices import chevalley_module
from normone.perms import (
    Permutation, PermGroup, alternating, are_conjugate_subgroups,
    coset_moves, cyclic, dihedral, maximal_cyclic_subgroup_classes, product_of_cyclics,
    _spanned, right_transversal, small_generating_set, subgroup_classes, symmetric,
)
from oracles import (
    all_subgroups_brute, brute_closure, conjugacy_class_count_brute, core,
    coset_position, cyclic_subgroup_classes, is_normal, small_catalog,
)

P = Permutation.from_cycles
V4 = product_of_cyclics((2, 2))


class TestPermutation:
    def test_composition_applies_left_factor_first(self):
        # (1 2) then (2 3): 1 -> 2 -> 3
        p = P([(1, 2)], 3) * P([(2, 3)], 3)
        assert p == P([(1, 3, 2)], 3)

    def test_inverse_and_power(self):
        g = P([(1, 2, 3, 4, 5)], 5)
        assert g * g.inverse() == Permutation.identity(5)
        assert g * g * g * g * g == Permutation.identity(5)
        assert (g * g).inverse() == g.inverse() * g.inverse()

    def test_order(self):
        assert P([(1, 2), (3, 4, 5)], 5).order() == 6
        assert Permutation.identity(4).order() == 1

    def test_cycle_string_round_trip(self):
        g = P([(1, 2, 3), (4, 5)], 6)
        assert g.cycle_string() == "(1 2 3)(4 5)"
        assert Permutation.identity(3).cycle_string() == "()"

    def test_from_cycles_rejects_repeats(self):
        with pytest.raises(ValueError):
            P([(1, 2, 1)], 3)

    def test_extend(self):
        g = P([(1, 2)], 2).extend(5)
        assert g.degree == 5
        assert g.images[4] == 4

    def test_nondisjoint_cycles_compose_left_to_right(self):
        assert P([(1, 2), (2, 3)], 3) == P([(1, 3, 2)], 3)


class TestCatalog:
    def test_orders(self):
        assert alternating(6).order() == 360
        assert symmetric(4).order() == 24
        assert dihedral(4).order() == 8    # order 2n convention
        assert cyclic(5).order() == 5
        assert V4.order() == 4
        assert product_of_cyclics((2, 3)).order() == 6
        assert alternating(5).order() == 60

    def test_standard_generators(self):
        G = symmetric(4)
        assert G.generators[0] == P([(1, 2)], 4)
        assert G.generators[1] == P([(1, 2, 3, 4)], 4)
        A5 = alternating(5)
        assert A5.generators == (P([(1, 2, 3)], 5), P([(1, 2, 3, 4, 5)], 5))
        A6 = alternating(6)
        assert A6.generators == (P([(1, 2, 3)], 6), P([(2, 3, 4, 5, 6)], 6))

    def test_degree_cap(self):
        with pytest.raises(CapExceeded):
            alternating(17)

    def test_small_degenerate_cases(self):
        assert alternating(2).order() == 1
        assert symmetric(2).order() == 2
        assert cyclic(1).order() == 1
        assert dihedral(1).order() == 2
        assert dihedral(2).order() == 4

    def test_trivial_group_on_larger_degree(self):
        assert PermGroup(3, ()).order() == 1

    def test_order_matches_brute_closure(self):
        for G in (alternating(5), symmetric(4), symmetric(5), dihedral(6),
                  dihedral(14), V4):
            assert G.order() == len(brute_closure(G.degree, G.generators))

    def test_nonstandard_generating_pair(self):
        G = PermGroup(5, [P([(1, 2, 3, 4, 5)], 5), P([(1, 2, 3)], 5)])
        assert G.order() == 60


class TestSubgroups:
    def test_membership_required(self):
        G = alternating(4)
        with pytest.raises(NotASubgroupError):
            G.subgroup([P([(1, 2)], 4)])  # odd permutation

    def test_point_stabilizer(self):
        G = alternating(6)
        H = G.point_stabilizer(1)
        assert H.order() == 60
        assert all(g.images[0] == 0 for g in H.elements())

    def test_is_normal(self):
        S3 = symmetric(3)
        assert is_normal(S3.subgroup([P([(1, 2, 3)], 3)]))
        assert not is_normal(S3.subgroup([P([(1, 2)], 3)]))

    def test_small_generating_set(self):
        G = alternating(4)
        gens = small_generating_set(G.elements())
        assert len(gens) <= 2
        assert G.subgroup(gens).order() == 12

    def test_group_is_its_own_subgroup(self):
        A4 = alternating(4)
        assert right_transversal(A4, A4)[0] == [Permutation.identity(4)]
        assert core(A4, A4).order() == 12
        with pytest.raises(NotASubgroupError):
            right_transversal(A4, symmetric(3))

    def test_subgroup_is_a_group(self):
        A6 = alternating(6)
        H = A6.point_stabilizer(6)
        assert H.parent is A6
        classes = subgroup_classes(H)
        assert all(c.parent is H for c in classes)
        orders = [c.order() for c in classes]
        assert orders == [c.order() for c in subgroup_classes(alternating(5))]
        assert len(orders) == 9


class TestMultiplicationTable:
    @pytest.mark.parametrize("G", [symmetric(4), alternating(5), product_of_cyclics((2, 6))],
                             ids=lambda G: G.label)
    def test_entries_are_permutation_products(self, G):
        number, table, inv = G.multiplication_table()
        elems = G.elements()
        assert [number[p.images] for p in elems] == list(range(len(elems)))
        for c, pc in enumerate(elems):
            assert table[c] == [number[(pa * pc).images] for pa in elems]
            assert inv[c] == number[pc.inverse().images]

    def test_only_the_class_search_builds_it(self, monkeypatch, capsys):
        def refuse(G):
            raise AssertionError(f"multiplication table of {G.label} built")

        monkeypatch.setattr(PermGroup, "multiplication_table", refuse)
        for G, point in ((PermGroup(5, alternating(5).generators, label="A5"), 5),
                         (alternating(8), 8)):
            H = G.point_stabilizer(point)
            assert core(G, H).order() == 1
            T, coset_of = right_transversal(G, H)
            assert len(coset_moves(T, coset_of, G.generators)) == len(G.generators)
            assert chevalley_module(G, H).rank == point - 1
        assert main(["compute", "A8", "--point-stabilizer", "8"]) == 3

    @pytest.mark.parametrize("G", [symmetric(4), dihedral(6), product_of_cyclics((2, 2, 2)),
                                   alternating(5)], ids=lambda G: G.label)
    def test_reads_match_the_permutation_products(self, G, monkeypatch):
        # one copy of G holds the table its class search built and reads
        # cosets, moves, cores and words off it without a single product;
        # a bare copy composes permutations, and every answer is the same
        held = PermGroup(G.degree, G.generators, label=G.label)
        bare = PermGroup(G.degree, G.generators, label=G.label)
        classes = subgroup_classes(held)
        alphabet = held.generators[::-1]
        read = []
        with monkeypatch.context() as m:
            m.setattr(Permutation, "__mul__", lambda p, q: pytest.fail("product taken"))
            for H in classes:
                T, coset_of = right_transversal(held, H)
                read.append((T, coset_of.number, coset_of.coset,
                             coset_moves(T, coset_of, held.generators),
                             coset_moves(T, coset_of, H.elements()),
                             core(held, H).generators, core(held, H).elements()))
            words = [list(held.elements_with_words().items()),
                     list(held.elements_with_words(alphabet=alphabet).items())]
        for H, got in zip(classes, read):
            H = bare.subgroup(H.generators)
            T, coset_of = right_transversal(bare, H)
            assert got == (T, coset_of.number, coset_of.coset,
                           coset_moves(T, coset_of, bare.generators),
                           coset_moves(T, coset_of, H.elements()),
                           core(bare, H).generators, core(bare, H).elements()), H.describe()
        assert words == [list(bare.elements_with_words().items()),
                         list(bare.elements_with_words(alphabet=alphabet).items())]
        assert bare._table is None


class TestTransversal:
    def test_index_six(self):
        G = alternating(6)
        T, _ = right_transversal(G, G.point_stabilizer(1))
        assert len(T) == 6
        assert T[0].is_identity()

    def test_whole_group(self):
        G = symmetric(3)
        T, _ = right_transversal(G, G)
        assert T == [Permutation.identity(3)]

    def test_c4_over_c2(self):
        G = cyclic(4)
        H = G.subgroup([P([(1, 3), (2, 4)], 4)])
        T, _ = right_transversal(G, H)
        assert len(T) == 2
        assert T[0].is_identity()
        # reps found in ascending order are the lex-minimal coset members
        assert T[1] == min(h * T[1] for h in H.elements())

    def test_reps_cover_and_are_disjoint(self):
        G = symmetric(4)
        H = G.subgroup([P([(1, 2)], 4), P([(3, 4)], 4)])
        T, _ = right_transversal(G, H)
        assert len(T) == G.order() // H.order()
        hset = H.element_set()
        for i, a in enumerate(T):
            for b in T[i + 1:]:
                assert a * b.inverse() not in hset
        cosets = {(h * t).images for t in T for h in H.elements()}
        assert len(cosets) == G.order()

    def test_coset_position(self):
        G = alternating(4)
        H = G.subgroup([P([(1, 2, 3)], 4)])
        T, _ = right_transversal(G, H)
        assert coset_position(G, H, T, Permutation.identity(4)) == 1
        for k, rep in enumerate(T, start=1):
            assert coset_position(G, H, T, rep) == k
            for h in H.elements():
                assert coset_position(G, H, T, h * rep) == k
        assert coset_position(G, H, T, P([(1, 2), (3, 4)], 4)) != 1

    def test_coset_map_agrees_with_coset_position(self):
        G = symmetric(4)
        for H in subgroup_classes(G):
            T, coset_of = right_transversal(G, H)
            assert coset_of.group is G
            assert coset_of.number == {g.images: a for a, g in enumerate(G.elements())}
            for a, g in enumerate(G.elements()):
                assert coset_of.coset[a] + 1 == coset_position(G, H, T, g)
            moves = coset_moves(T, coset_of, G.elements())
            for g, m in zip(G.elements(), moves):
                assert m == [coset_position(G, H, T, t * g) - 1 for t in T]

    def test_coset_position_rejects_outsiders(self):
        G = alternating(4)
        H = G.subgroup([P([(1, 2, 3)], 4)])
        T, _ = right_transversal(G, H)
        with pytest.raises(ValueError):
            coset_position(G, H, T, P([(1, 2)], 4))


class TestCore:
    def test_simple_group_trivial_core(self):
        G = alternating(6)
        H = G.point_stabilizer(1)
        assert core(G, H).order() == 1

    def test_core_of_whole_group(self):
        G = symmetric(3)
        assert core(G, G).order() == 6

    def test_normal_subgroup_is_its_own_core(self):
        G = symmetric(3)
        H = G.subgroup([P([(1, 2, 3)], 3)])
        c = core(G, H)
        assert c.element_set() == H.element_set()

    def test_core_is_normal_and_contained(self):
        G = symmetric(4)
        H = G.subgroup([P([(1, 2)], 4), P([(1, 2, 3)], 4)])  # S3
        c = core(G, H)
        assert c.element_set() <= H.element_set()
        assert is_normal(c)


class TestConjugacy:
    def test_the_two_a5_classes_of_a6(self):
        G = alternating(6)
        H1 = G.subgroup([P([(1, 2, 3, 4, 5)], 6), P([(1, 2, 3)], 6)])
        H2 = G.subgroup([P([(1, 2, 3, 4, 5)], 6), P([(1, 4), (5, 6)], 6)])
        assert H1.order() == H2.order() == 60
        assert not are_conjugate_subgroups(G, H1, H2)

    def test_reflexive(self):
        G = symmetric(4)
        H = G.subgroup([P([(1, 2, 3)], 4)])
        assert are_conjugate_subgroups(G, H, H)

    def test_point_stabilizers_conjugate(self):
        G = alternating(5)
        assert are_conjugate_subgroups(G, G.point_stabilizer(1), G.point_stabilizer(2))

    def test_symmetric_and_transitive_on_random_pairs(self):
        rng = random.Random(11)
        G = symmetric(4)
        elems = G.elements()
        handles = []
        for _ in range(12):
            gens = [rng.choice(elems) for _ in range(2)]
            handles.append(G.subgroup(gens))
        for a in handles:
            for b in handles:
                ab = are_conjugate_subgroups(G, a, b)
                assert ab == are_conjugate_subgroups(G, b, a)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            are_conjugate_subgroups(alternating(8),
                                    alternating(8).trivial_subgroup(),
                                    alternating(8).trivial_subgroup())


class TestSubgroupClasses:
    def test_a4_has_five(self):
        classes = subgroup_classes(alternating(4))
        assert len(classes) == 5
        assert sorted(c.order() for c in classes) == [1, 2, 3, 4, 12]

    def test_s3_has_four(self):
        assert len(subgroup_classes(symmetric(3))) == 4

    def test_prime_cyclic(self):
        assert len(subgroup_classes(cyclic(7))) == 2

    def test_matches_brute_force(self):
        for G in (symmetric(3), alternating(4), dihedral(4), V4):
            subs = all_subgroups_brute(G)
            expected = conjugacy_class_count_brute(G, subs)
            assert len(subgroup_classes(G)) == expected

    def test_no_two_reps_conjugate(self):
        G = symmetric(4)
        classes = subgroup_classes(G)
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                assert not are_conjugate_subgroups(G, a, b)

    def test_random_subgroups_hit_some_class(self):
        rng = random.Random(5)
        G = alternating(5)
        classes = subgroup_classes(G)
        elems = G.elements()
        for _ in range(15):
            gens = [rng.choice(elems) for _ in range(rng.randint(1, 2))]
            H = G.subgroup(gens)
            assert any(are_conjugate_subgroups(G, H, c) for c in classes
                       if c.order() == H.order())

    def test_sorted_by_decreasing_order(self):
        classes = subgroup_classes(alternating(5))
        orders = [c.order() for c in classes]
        assert orders == sorted(orders, reverse=True)
        assert orders[0] == 60 and orders[-1] == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            subgroup_classes(alternating(7), cap=100)

    def test_one_cached_list_whatever_the_cap(self):
        # a fresh copy of A5, so no earlier test has filled its cache
        G = PermGroup(5, alternating(5).generators, label="A5")
        classes = subgroup_classes(G, cap=60)
        assert subgroup_classes(G) is classes
        with pytest.raises(CapExceeded):
            subgroup_classes(G, cap=59)

    def test_cyclic_classes(self):
        G = alternating(4)
        cyc = cyclic_subgroup_classes(G)
        assert sorted(c.order() for c in cyc) == [2, 3]

    @pytest.mark.parametrize("G", [
        *(cyclic(n) for n in range(2, 13)), V4,
        *(product_of_cyclics(ns) for ns in ((2, 4), (2, 2, 2), (3, 3), (2, 6))),
        symmetric(3), alternating(4), symmetric(4),
        *(dihedral(n) for n in range(3, 13)), alternating(5),
    ], ids=lambda G: G.label)
    def test_cyclic_classes_match_the_full_search(self, G):
        # the seeding step alone gives the nontrivial cyclic classes of the
        # full search: the same representatives, generators and order
        G = PermGroup(G.degree, G.generators, label=G.label)
        full = [h for h in subgroup_classes(G) if h.order() > 1
                and any(e.order() == h.order() for e in h.elements())]
        cyc = cyclic_subgroup_classes(G)
        assert [h.elements() for h in cyc] == [h.elements() for h in full]
        assert [h.generators for h in cyc] == [h.generators for h in full]

    @pytest.mark.parametrize("G", [*small_catalog(), alternating(5), symmetric(5),
                                   alternating(6)], ids=lambda G: G.label)
    def test_maximal_cyclic_classes(self, G):
        # the cyclic classes in no larger cyclic subgroup, by brute force
        # over the powers of every element: the same classes, in order,
        # their element numbers naming the handles' elements
        G = PermGroup(G.degree, G.generators, label=G.label)

        def powers(y):
            out, p = {y}, y * y
            while p != y:
                out.add(p)
                p = p * y
            return out
        cyclics = [powers(y) for y in G.elements()]
        expect = [h for h in cyclic_subgroup_classes(G)
                  if not any(set(h.elements()) < c for c in cyclics)]
        elems = G.elements()
        got = maximal_cyclic_subgroup_classes(G)
        assert [tuple(elems[i] for i in nums) for _, nums in got] == [h.elements() for h in expect]
        # each comes with its smallest generator, whose powers are its elements
        for c, nums in got:
            assert c == min(i for i in nums if sorted(powers(elems[i])) == [elems[k] for k in nums])

    @pytest.mark.parametrize("G", [*small_catalog(), alternating(6)], ids=lambda G: G.label)
    def test_handles_match_the_greedy_generating_set(self, G):
        # generators walked off the multiplication table are those that
        # small_generating_set picks from the sorted elements, and the
        # order is by decreasing order, then by the sorted elements; the
        # maximal cyclic classes come as sorted element numbers, which
        # sort as the elements they name
        G = PermGroup(G.degree, G.generators, label=G.label)
        for handles in (subgroup_classes(G), cyclic_subgroup_classes(G)):
            for h in handles:
                ref = _spanned(G, h.elements())
                assert h.generators == ref.generators
                assert h.elements() == ref.elements()
                assert h.parent is G
            keys = [(-h.order(), [p.images for p in h.elements()]) for h in handles]
            assert keys == sorted(keys)
        elems = G.elements()
        classes = maximal_cyclic_subgroup_classes(G)
        for _, nums in classes:
            assert nums == sorted(nums)
            assert tuple(elems[i] for i in nums) == _spanned(G, [elems[i] for i in nums]).elements()
        keys = [(-len(nums), [elems[i].images for i in nums]) for _, nums in classes]
        assert keys == sorted(keys)


    @pytest.mark.parametrize("G, described", [
        (symmetric(4), ['(3 4),(2 3),(1 2)', '(2 3 4),(1 2)(3 4)', '(3 4),(1 2),(1 3)(2 4)',
                        '(3 4),(2 3)', '(3 4),(1 2)', '(1 2)(3 4),(1 3)(2 4)', '(1 2 3 4)',
                        '(2 3 4)', '(3 4)', '(1 2)(3 4)', '1']),
        (dihedral(6), ['(2 6)(3 5),(1 2)(3 6)(4 5)', '(2 6)(3 5),(1 3)(4 6)',
                       '(1 2)(3 6)(4 5),(1 3 5)(2 4 6)', '(1 2 3 4 5 6)',
                       '(2 6)(3 5),(1 4)(2 3)(5 6)', '(1 3 5)(2 4 6)', '(2 6)(3 5)',
                       '(1 2)(3 6)(4 5)', '(1 4)(2 5)(3 6)', '1']),
        (product_of_cyclics((2, 2, 2)), [
            '(5 6),(3 4),(1 2)', '(5 6),(3 4)', '(5 6),(1 2)', '(5 6),(1 2)(3 4)',
            '(3 4),(1 2)', '(3 4),(1 2)(5 6)', '(3 4)(5 6),(1 2)', '(3 4)(5 6),(1 2)(5 6)',
            '(5 6)', '(3 4)', '(3 4)(5 6)', '(1 2)', '(1 2)(5 6)', '(1 2)(3 4)',
            '(1 2)(3 4)(5 6)', '1']),
    ], ids=["S4", "D6", "C2xC2xC2"])
    def test_greedy_generators_as_printed(self, G, described):
        # `classes` and `--class` records print these generating sets
        assert [c.describe() for c in subgroup_classes(G)] == described

    def test_point_stabilizer_generators_as_printed(self):
        assert alternating(5).point_stabilizer(5).describe() == '(2 3 4),(1 2)(3 4)'


class TestWords:
    def test_c3(self):
        G = cyclic(3)
        words = G.elements_with_words()
        assert len(words) == 3
        assert words[Permutation.identity(3)] == ()

    def test_words_evaluate_back(self):
        G = alternating(4)
        words = G.elements_with_words()
        assert len(words) == 12
        for p, w in words.items():
            acc = Permutation.identity(4)
            for k in w:
                acc = acc * G.generators[k - 1]
            assert acc == p

    def test_alternate_alphabet(self):
        G = alternating(4)
        alphabet = (P([(1, 2), (3, 4)], 4), P([(1, 2, 3)], 4))
        words = G.elements_with_words(alphabet=alphabet)
        assert len(words) == 12
