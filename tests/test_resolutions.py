import random
import re
import sys
import time
import warnings

import pytest

import normone.intmat as intmat
import normone.resolutions as resolutions
import oracles
from normone.cohomology import sha2_omega, tate_minus1
from normone.errors import CapExceeded, InternalCheckError
from normone.intmat import (
    AbelianInvariants, IntMatrix, hnf_basis, hnf_coordinates, snf_invariants, snf_rows,
)
from normone.lattices import (
    GLattice, LatticeMap, _restricted_action, augmentation_ideal, chevalley_module,
    fixed_sublattice, minus_one_columns, perm_lattice,
)
from normone.perms import (
    Permutation, alternating, are_conjugate_subgroups, cyclic, dihedral,
    product_of_cyclics, right_transversal, subgroup_classes, symmetric,
)
from normone.resolutions import (
    Resolution, Verdict, coflasque_cover, is_coflasque, norm_one_invariant, verdict,
)
from oracles import (
    dual, h1, is_flasque, is_flasque_all_classes, is_normal, presentation_catalog,
    small_catalog, trivial_lattice,
)

P = Permutation.from_cycles
V4 = product_of_cyclics((2, 2))
Z2 = AbelianInvariants(0, (2,))


def prime_power(n):
    """Whether n is a power of one prime (1 is not)."""
    return len([p for p in range(2, n + 1)
                if n % p == 0 and all(p % q for q in range(2, p))]) == 1


def sign_lattice():
    return GLattice(cyclic(2), 1, [IntMatrix([[-1]])])


def dual_chevalley(make, n):
    """dual J_{G/H} for G = make(n) and H the stabilizer of n."""
    G = make(n)
    return dual(chevalley_module(G, G.point_stabilizer(n)))


def flasque_side(L):
    """F in 0 -> L -> P -> F -> 0: the dual of the kernel of a coflasque
    cover of dual(L), whose transpose is that resolution."""
    return dual(coflasque_cover(dual(L)).side)


class TestCoflasqueCover:
    def test_trivial_lattice(self):
        G = symmetric(3)
        res = coflasque_cover(trivial_lattice(G))
        assert res.side.rank == 0
        assert res.middle.rank == 1

    def test_perm_lattice_gets_a_greedy_cover(self):
        # a permutation lattice takes the greedy pass like any other input:
        # Z[A4/C3] (rank 4) is not returned as its own cover
        G = alternating(4)
        L = perm_lattice(G, G.subgroup([P([(1, 2, 3)], 4)]))
        res = coflasque_cover(L)
        assert (res.middle.rank, res.side.rank) == (5, 1)
        assert is_coflasque(res.side) == (True, None)

    def test_augmentation_ideal_a4(self):
        G = alternating(4)
        I = augmentation_ideal(G, G.point_stabilizer(4))
        res = coflasque_cover(I)
        assert res.middle.rank == res.base.rank + res.side.rank
        ok, witness = is_coflasque(res.side)
        assert ok, f"kernel fails coflasqueness at {witness}"

    def test_exactness_data(self):
        G = symmetric(3)
        I = augmentation_ideal(G, G.subgroup([P([(2, 3)], 3)]))
        res = coflasque_cover(I)
        assert (res.inject.matrix * res.project.matrix).is_zero()
        assert snf_invariants(res.project.matrix) == [1] * res.base.rank
        if res.side.rank:
            assert snf_invariants(res.inject.matrix) == [1] * res.side.rank

    def test_restricted_action_rejects_unstable_kernel(self):
        # the swap of C2 moves the first basis vector off the line it spans
        G = cyclic(2)
        Q = perm_lattice(G, G.trivial_subgroup())
        with pytest.raises(InternalCheckError, match="not stable"):
            _restricted_action(IntMatrix([[1, 0]]), Q)
        assert _restricted_action(IntMatrix([[1, 1]]), Q) == [IntMatrix([[1]])]

    def test_one_elimination_per_cover(self, monkeypatch):
        # the restricted action back-substitutes against the kernel's
        # Hermite basis and runs no Hermite elimination of its own, and the
        # greedy pass takes one fixed sublattice per class
        calls = {"_hermite": 0, "fixed_sublattice": 0}
        inside = []

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(intmat, "_hermite")
        counted(resolutions, "fixed_sublattice")
        restricted = resolutions._restricted_action

        def restricted_counted(*args):
            before = calls["_hermite"]
            out = restricted(*args)
            inside.append(calls["_hermite"] - before)
            return out
        monkeypatch.setattr(resolutions, "_restricted_action", restricted_counted)
        G = alternating(4)
        L = dual(chevalley_module(G, G.point_stabilizer(4)))
        res = coflasque_cover(L)
        assert res.side.rank > 0
        assert inside == [0]
        assert calls["fixed_sublattice"] == len(subgroup_classes(G))

    @pytest.mark.parametrize("make, n", [(alternating, 4), (symmetric, 4)],
                             ids=["A4", "S4"])
    def test_fixed_lattices_and_kernel_are_hermite(self, make, n):
        # the cover's greedy walk over each fixed lattice and its
        # back-substitution against the kernel K both need the Hermite
        # basis, which kernel_basis returns
        G = make(n)
        for L in (chevalley_module(G, G.point_stabilizer(n)),
                  augmentation_ideal(G, G.point_stabilizer(n))):
            for cls in subgroup_classes(G):
                F = fixed_sublattice(L, cls)
                assert F == hnf_basis(F)
            K = coflasque_cover(L).inject.matrix
            assert K.nrows and K == hnf_basis(K)

    @pytest.mark.parametrize("make", [
        lambda: dual_chevalley(alternating, 4),
        lambda: dual_chevalley(symmetric, 4),
        lambda: dual_chevalley(alternating, 5),
        sign_lattice,
        lambda: perm_lattice(alternating(4), alternating(4).subgroup([P([(1, 2, 3)], 4)])),
    ], ids=["A4", "S4", "A5", "C2-sign", "A4-perm"])
    def test_middle_term_covers_every_fixed_lattice(self, make):
        # checked through Q's own fixed sublattice (a kernel), not through
        # the orbit sums the cover builds
        L = make()
        G = L.group
        res = coflasque_cover(L)
        assert is_coflasque(res.side) == (True, None)
        Q, EV = res.middle, res.project.matrix
        for a in Q.action:
            assert {x for row in a.data for x in row} <= {0, 1}
            assert set(map(sum, a.data)) == set(map(sum, zip(*a.data))) == {1}
        for cls in subgroup_classes(G):
            image = hnf_basis(fixed_sublattice(Q, cls) * EV)
            assert hnf_coordinates(image, fixed_sublattice(L, cls)) is not None
        # a permutation lattice is its own dual, so Q is also the middle
        # term of the transposed resolution 0 -> J -> Q -> F -> 0
        assert dual(Q).action == Q.action

    @pytest.mark.parametrize("make, n", [
        (alternating, 4), (symmetric, 4), (alternating, 5), (dihedral, 6),
    ], ids=["A4", "S4", "A5", "D6"])
    def test_orbit_sums_match_the_fixed_sublattice(self, make, n):
        # one summand Z[G/H'] (x) Z^2 over a point stabilizer H', with rows
        # drawn at random: the orbit sums on its cosets span the image of
        # its fixed sublattice, taken as a kernel, for every class S
        G = make(n)
        H = G.point_stabilizer(n)
        T, coset_of = right_transversal(G, H)
        rng = random.Random(n)
        rows = [[[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)] for _ in T]
        for cls in subgroup_classes(G):
            sums = resolutions._fixed_images((T, coset_of, rows), cls.generators)
            fixed = fixed_sublattice(perm_lattice(G, H), cls)
            want = [v for k in range(2)
                    for v in (fixed * IntMatrix([vs[k] for vs in rows], 3)).data]
            assert hnf_basis(IntMatrix(sums, 3)) == hnf_basis(IntMatrix(want, 3)), (
                G.label, cls.describe())


class TestFlasqueResolution:
    def test_perm_module_side_has_trivial_h1(self):
        # the flasque class of a permutation lattice is that of 0, so the
        # side is stably permutation: flasque, with H^1 = 0, though the
        # greedy cover of Z[S3/C2] leaves it rank 1
        G = symmetric(3)
        L = perm_lattice(G, G.subgroup([P([(2, 3)], 3)]))
        F = flasque_side(L)
        assert F.rank == 1
        assert is_flasque(F) == (True, None)
        assert h1(F, presentation_catalog(G)).is_trivial()

    def test_a4_side_has_z2_h1(self):
        G = alternating(4)
        J = chevalley_module(G, G.point_stabilizer(4))
        assert h1(flasque_side(J), presentation_catalog(G)) == Z2

    def test_a5_side_vanishes(self):
        G = alternating(5)
        J = chevalley_module(G, G.point_stabilizer(5))
        assert h1(flasque_side(J), presentation_catalog(G)).is_trivial()

    def test_sides_are_flasque(self):
        for G, H in [
            (alternating(4), alternating(4).point_stabilizer(4)),
            (symmetric(4), symmetric(4).point_stabilizer(4)),
            (V4, V4.trivial_subgroup()),
        ]:
            ok, witness = is_flasque(flasque_side(chevalley_module(G, H)))
            assert ok, f"{G.label}: witness {witness}"


class TestFlasqueCheckers:
    def test_permutation_lattices_are_flasque_and_coflasque(self):
        G = symmetric(3)
        L = perm_lattice(G, G.subgroup([P([(1, 2)], 3)]))
        assert is_flasque(L) == (True, None)
        assert is_coflasque(L) == (True, None)

    def test_sign_lattice_is_neither(self):
        # ker(N) = Z surjects onto Z/2 over the image of (g - 1) = 2Z
        L = sign_lattice()
        ok, witness = is_flasque(L)
        assert not ok
        assert witness.order() == 2
        ok2, witness2 = is_coflasque(L)
        assert not ok2
        assert witness2.order() == 2

    def test_prime_power_classes_decide_as_every_class(self, monkeypatch):
        # the library computes Tate H^-1 on the classes of prime-power order
        # only, which Sylow restriction makes enough: it agrees with the
        # check over every class, flasque or not, and names a witness of
        # prime-power order
        A4, S4, S3 = alternating(4), symmetric(4), symmetric(3)
        lattices = [sign_lattice(), perm_lattice(S3, S3.subgroup([P([(1, 2)], 3)]))]
        for G, H in [(A4, A4.point_stabilizer(4)), (S4, S4.point_stabilizer(4)),
                     (V4, V4.trivial_subgroup())]:
            J = chevalley_module(G, H)
            lattices += [J, dual(J), perm_lattice(G, H), flasque_side(J)]
        verdicts = []
        for L in lattices:
            ok, witness = is_flasque(L)
            assert ok == is_flasque_all_classes(L)[0], L
            if ok:
                assert witness is None
            else:
                assert prime_power(witness.order()), L
                assert not tate_minus1(witness, L).is_trivial()
            verdicts.append(ok)
        assert True in verdicts and False in verdicts
        # on a flasque lattice every prime-power class is computed, and
        # nothing else
        F = flasque_side(chevalley_module(S4, S4.point_stabilizer(4)))
        seen = []
        tate = oracles.tate_minus1

        def recorded(S, L):
            seen.append(S)
            return tate(S, L)
        monkeypatch.setattr(oracles, "tate_minus1", recorded)
        assert is_flasque(F) == (True, None)
        assert seen == [cls for cls in subgroup_classes(S4) if prime_power(cls.order())]
        assert len(seen) < len(subgroup_classes(S4)) - 1

    def test_minus_one_columns_give_tate_of_the_dual(self):
        # the coflasque check's Smith form of W_S = [rho(s) - 1, side by
        # side] has the torsion of Tate H^-1(S, dual L), taken literally
        # on the dual, for I, J and Z[G/H] over every pair (G, H) of the
        # sweep pool and A5's, and every nontrivial class S
        counts = {}
        pool = [G for G in small_catalog() if G.label not in ("C1", "D1", "D2")]
        for G in pool + [alternating(5)]:
            classes = subgroup_classes(G)
            compared = nontrivial = 0
            for H in classes:
                if not 2 <= G.order() // H.order() <= 8:
                    continue
                for L in (augmentation_ideal(G, H), chevalley_module(G, H),
                          perm_lattice(G, H)):
                    D = dual(L)
                    for S in classes[:-1]:
                        got = [d for d in snf_rows(minus_one_columns(L, S.generators))
                               if d > 1]
                        assert tuple(got) == tate_minus1(S, D).torsion, (
                            G.label, H.describe(), L.label, S.describe())
                        compared += 1
                        nontrivial += bool(got)
            counts[G.label] = (compared, nontrivial)
        a5 = counts.pop("A5")
        assert tuple(map(sum, zip(*counts.values()))) == (2961, 1453)
        assert a5[1] > 0

    def test_chevalley_of_klein_four_not_flasque(self):
        # classes are scanned in decreasing order, so the witness is the
        # first failure: the full group, with Tate^-1(V4, J) = Z/4
        G = V4
        J = chevalley_module(G, G.trivial_subgroup())
        ok, witness = is_flasque(J)
        assert not ok and witness.order() in (2, 4)
        from normone.cohomology import tate_minus1
        assert not tate_minus1(witness, J).is_trivial()


class TestNormOneInvariant:
    def test_a4_counterexample(self):
        G = alternating(4)
        assert norm_one_invariant(G, G.point_stabilizer(4)) == Z2

    def test_pipeline_needs_no_presentation(self, monkeypatch):
        # H^1 of the flasque side comes from Tate H^-1 of its dual, so no
        # presentation is enumerated on the way
        import sys

        def refuse(*args, **kwargs):
            raise AssertionError("a presentation reached the pipeline")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "normone" and hasattr(module, "todd_coxeter"):
                monkeypatch.setattr(module, "todd_coxeter", refuse)
        A4, A5 = alternating(4), alternating(5)
        assert norm_one_invariant(A4, A4.point_stabilizer(4)) == Z2
        assert norm_one_invariant(A5, A5.point_stabilizer(5)).is_trivial()

    def test_groups_outside_the_catalog(self):
        # point stabilizers have no catalog kind, hence no presentation;
        # sha2_omega needs none either, so it checks every small class
        S = alternating(5).point_stabilizer(5)
        assert S.kind is None and S.order() == 12
        assert norm_one_invariant(S, S.point_stabilizer(4)) == Z2
        indices = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # the index-3 class is normal
            for H in subgroup_classes(S):
                if 2 <= S.order() // H.order() <= 8:
                    assert sha2_omega(S, H) == norm_one_invariant(S, H), H.describe()
                    indices.append(S.order() // H.order())
        assert sorted(indices) == [3, 4, 6]
        T = alternating(6).point_stabilizer(6)
        assert T.kind is None and T.order() == 60
        assert norm_one_invariant(T, T.point_stabilizer(5)).is_trivial()

    def test_a5_trivial(self):
        G = alternating(5)
        assert norm_one_invariant(G, G.point_stabilizer(5)).is_trivial()

    def test_conjugate_subgroups_agree(self):
        G = alternating(4)
        a = norm_one_invariant(G, G.point_stabilizer(1))
        b = norm_one_invariant(G, G.point_stabilizer(4))
        assert a == b == Z2

    def test_normal_subgroup_warns_but_runs(self):
        G = symmetric(3)
        H = G.subgroup([P([(1, 2, 3)], 3)])
        with pytest.warns(UserWarning):
            inv = norm_one_invariant(G, H)
        assert inv.is_trivial()

    def test_normality_is_judged_in_g(self):
        # <(1 3),(2 4)> is normal in the dihedral subgroup it was taken in,
        # but not in S4, where its core is trivial: no warning
        G = symmetric(4)
        D4 = G.subgroup([P([(1, 2, 3, 4)], 4), P([(1, 3)], 4)])
        H = D4.subgroup([P([(1, 3)], 4), P([(2, 4)], 4)])
        assert is_normal(H)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm_one_invariant(G, H)

    def test_nontrivial_core_warns(self):
        # one warning per condition: a normal H, its own core, gets the
        # normal one, which names the unfaithful action too; a non-normal
        # H with a nontrivial core (D4 in S4, core V4) gets the core one
        C6, S4 = cyclic(6), symmetric(4)
        cases = ((C6.subgroup([P([(1, 4), (2, 5), (3, 6)], 6)]), "is normal in C6"),
                 (S4.subgroup([P([(1, 2, 3, 4)], 4), P([(1, 3)], 4)]), "core of"))
        for H, start in cases:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                inv = norm_one_invariant(H.parent, H)
            assert inv.is_trivial()
            assert len(caught) == 1 and caught[0].category is UserWarning
            message = str(caught[0].message)
            assert start in message and "unfaithful" in message

    def test_pipeline_builds_one_exact_sequence(self, monkeypatch):
        # one coflasque cover of I = dual(J) carries everything: one
        # Resolution, and the coflasque self-check runs once, on the call
        # chain _pipeline -> coflasque_cover -> is_coflasque.  No dual is
        # built: the library holds no `dual`, and the only lattices made
        # are Z[G/H], I, the cover's middle term Q and its kernel N
        import normone
        import normone.lattices as lattices
        made, built, chain = [], [], []
        resolution, check, cover = (resolutions.Resolution, resolutions.is_coflasque,
                                    resolutions.coflasque_cover)
        init = lattices.GLattice.__init__

        def counted_resolution(*args):
            made.append(args)
            return resolution(*args)

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        def watched(fn):
            def call(*args, **kwargs):
                chain.append((sys._getframe(1).f_code.co_name, fn.__name__))
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(resolutions, "Resolution", counted_resolution)
        monkeypatch.setattr(resolutions, "is_coflasque", watched(check))
        monkeypatch.setattr(resolutions, "coflasque_cover", watched(cover))
        monkeypatch.setattr(lattices.GLattice, "__init__", counted_init)
        G = alternating(4)
        H = G.point_stabilizer(4)
        assert resolutions._pipeline(G, H).invariants == Z2
        assert len(made) == 1
        assert chain == [("_pipeline", "coflasque_cover"), ("coflasque_cover", "is_coflasque")]
        res = made[0]
        assert [L.label for L in built] == [f"Z[A4/{H.describe()}]", f"I[A4/{H.describe()}]",
                                            None, None]
        assert built[2:] == [res[1], res[2]]
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "normone":
                assert not hasattr(module, "dual") and not hasattr(module, "is_flasque"), name
        assert normone.is_coflasque is check

    def test_flasque_self_check_fires(self, monkeypatch):
        # _pipeline -> coflasque_cover -> is_coflasque: a failing check
        # stops the pipeline inside the cover
        G = alternating(4)
        monkeypatch.setattr(resolutions, "is_coflasque", lambda *a, **k: (False, G))
        with pytest.raises(InternalCheckError, match="not flasque") as err:
            resolutions._pipeline(G, G.point_stabilizer(4))
        assert err.traceback[-1].name == "coflasque_cover"

    def test_divisibility_check_fires(self, monkeypatch):
        # 3 divides |G| = 12 but not [G:H] = 4, which kills H^1(G, F)
        G = alternating(4)
        tate = resolutions.tate_minus1

        def z3_on_g(S, L):
            return AbelianInvariants(0, (3,)) if S is G else tate(S, L)

        monkeypatch.setattr(resolutions, "tate_minus1", z3_on_g)
        with pytest.raises(InternalCheckError, match=r"do not divide \[G:H\]=4"):
            resolutions._pipeline(G, G.point_stabilizer(4))

    def test_broken_cover_is_caught_at_a_prime_power_class(self, monkeypatch):
        # hide the class of <(3 4),(1 2)>, of order 4, from the cover's
        # class list only: the cover misses its fixed lattice, and its
        # coflasque check, which reads the classes afresh, names the hidden
        # prime-power class
        G = symmetric(4)
        hidden = next(cls for cls in subgroup_classes(G) if are_conjugate_subgroups(
            G, cls, G.subgroup([P([(3, 4)], 4), P([(1, 2)], 4)])))
        classes = resolutions.subgroup_classes
        callers = []

        def cover_call_hides(S, **kwargs):
            out = classes(S, **kwargs)
            caller = sys._getframe(1).f_code.co_name
            if caller == "coflasque_cover":
                out = [cls for cls in out if cls is not hidden]
            callers.append(caller)
            return out

        monkeypatch.setattr(resolutions, "subgroup_classes", cover_call_hides)
        with pytest.raises(InternalCheckError, match="not flasque") as err:
            resolutions._pipeline(G, G.point_stabilizer(4))
        assert err.traceback[-1].name == "coflasque_cover"
        assert hidden.order() == 4
        assert f"witness {hidden.describe()})" in str(err.value)
        # the pipeline's own call (the cap check), the cover's, its check's
        assert callers == ["_pipeline", "coflasque_cover", "is_coflasque"]

    def test_broken_greedy_pass_is_caught_by_the_coflasque_check(self, monkeypatch):
        # the class of <(3 4),(1 2)> looks covered at its first test in the
        # greedy pass, so no summand is added for it; the cover's own
        # coflasque check on the finished kernel names it
        G = symmetric(4)
        hidden = next(cls for cls in subgroup_classes(G) if are_conjugate_subgroups(
            G, cls, G.subgroup([P([(3, 4)], 4), P([(1, 2)], 4)])))
        fixed_sublattice, hnf_coordinates = resolutions.fixed_sublattice, resolutions.hnf_coordinates
        hidden_fixed, faked = [], []

        def recording(L, S):
            F = fixed_sublattice(L, S)
            if S is hidden:
                hidden_fixed.append(F)
            return F

        def first_test_passes(B, A):
            if not faked and hidden_fixed and A is hidden_fixed[0]:
                faked.append(A)
                return IntMatrix.identity(A.nrows)
            return hnf_coordinates(B, A)

        monkeypatch.setattr(resolutions, "fixed_sublattice", recording)
        monkeypatch.setattr(resolutions, "hnf_coordinates", first_test_passes)
        assert hidden.describe() == "(3 4),(1 2)"
        with pytest.raises(InternalCheckError, match=re.escape(
                "not flasque (witness (3 4),(1 2))")) as err:
            coflasque_cover(augmentation_ideal(G, G.point_stabilizer(4)))
        assert err.traceback[-1].name == "coflasque_cover"
        assert len(faked) == 1

    def test_max_rank_cap(self):
        G = alternating(4)
        with pytest.raises(CapExceeded):
            norm_one_invariant(G, G.point_stabilizer(4), max_rank=3)

    @pytest.mark.parametrize("make, n, bound", [
        (alternating, 4, 19), (alternating, 5, 21), (symmetric, 4, 19),
    ], ids=["A4", "A5", "S4"])
    def test_flasque_rank_stays_low(self, make, n, bound):
        # the cover adds fixed vectors one at a time; adding the whole
        # fixed basis of each uncovered class would give 43, 41 and 31
        G = make(n)
        assert resolutions._pipeline(G, G.point_stabilizer(n)).flasque_rank <= bound

    def test_regular_c2xc2xc3_is_small_and_fast(self):
        # J has rank 11; with whole fixed bases the flasque side has rank
        # 235 and the pipeline takes 6-7 s
        G = product_of_cyclics((2, 2, 3))
        H = G.trivial_subgroup()
        t0 = time.perf_counter()
        result = resolutions._pipeline(G, H)
        elapsed = time.perf_counter() - t0
        assert result.invariants == sha2_omega(G, H) == Z2
        assert result.flasque_rank <= 36
        assert elapsed < 1.0

    def test_class_cap_propagates(self):
        G = alternating(7)
        with pytest.raises(CapExceeded):
            norm_one_invariant(G, G.point_stabilizer(7), class_cap=500)


def test_oracle_agreement_across_subgroup_classes():
    # every subgroup class of each listed group, all three computation
    # routes (the pipeline's duality, sha2_omega and h1 by presentation);
    # the full order <= 24 sweep (100 pairs, including the rank-23 S4
    # modules) was run during development with zero mismatches -- this
    # keeps the index <= 8 slice in the permanent suite
    from normone.cohomology import sha2_omega
    groups = [cyclic(k) for k in (2, 3, 4, 5, 6, 8, 9, 10, 12)] + [
        symmetric(3), alternating(4), V4,
        dihedral(3), dihedral(4), dihedral(5), dihedral(6),
        product_of_cyclics((2, 4)), product_of_cyclics((2, 2, 2)),
        product_of_cyclics((3, 3)), product_of_cyclics((2, 6)),
    ]
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for G in groups:
            for H in subgroup_classes(G):
                if H.order() == G.order() or G.order() // H.order() > 8:
                    continue
                inv = norm_one_invariant(G, H)
                assert sha2_omega(G, H) == inv, \
                    f"routes disagree on {G.label} / {H.describe()}"
                side = flasque_side(chevalley_module(G, H))
                assert h1(side, presentation_catalog(G)) == inv, \
                    f"presentation route disagrees on {G.label} / {H.describe()}"
                checked += 1
    assert checked >= 80


class TestVerdict:
    def test_trivial_invariant_settles_both(self):
        G = alternating(5)
        v = verdict(G, G.point_stabilizer(5))
        assert v.hnp == "holds" and v.wa == "holds"
        assert v.to_dict() == {"hnp": "holds", "wa": "holds", "obstruction": []}

    def test_nontrivial_invariant_stays_undetermined(self):
        G = alternating(4)
        v = verdict(G, G.point_stabilizer(4))
        assert v.hnp == "undetermined" and v.wa == "undetermined"
        assert v.to_dict()["obstruction"] == ["2"]

    def test_cyclic_group(self):
        G = cyclic(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = verdict(G, G.trivial_subgroup())
        assert v.hnp == "holds" and v.wa == "holds"


class TestRecords:
    def test_resolution_refuses_each_defect(self):
        # 0 -> Z -> middle -> Z -> 0 over C2 acting trivially, so every
        # map is equivariant and only Resolution's own checks can refuse
        G = cyclic(2)
        Z, Z2 = (GLattice(G, n, [IntMatrix.identity(n)]) for n in (1, 2))

        def build(middle, inject, project):
            return Resolution(Z, middle, Z, LatticeMap(Z, middle, IntMatrix(inject)),
                              LatticeMap(middle, Z, IntMatrix(project)))

        for middle, inject, project, message in (
                (Z, [[1]], [[1]], "ranks are not additive"),
                (Z2, [[1, 0]], [[1], [1]], "composite of the two maps is nonzero"),
                (Z2, [[1, -1]], [[2], [2]], "middle term does not surject over Z"),
                (Z2, [[2, -2]], [[1], [1]], "injection is not saturated")):
            with pytest.raises(InternalCheckError, match=message):
                build(middle, inject, project)
        assert build(Z2, [[1, -1]], [[1], [1]]).middle is Z2

    def test_records_are_frozen(self):
        G = alternating(4)
        H = G.point_stabilizer(4)
        records = (
            (Z2, "torsion"),
            (coflasque_cover(augmentation_ideal(G, H)), "side"),
            (resolutions._pipeline(G, H), "invariants"),
            (Verdict.of(Z2), "hnp"),
        )
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                record.note = None
