import math

import pytest

from normone.errors import CapExceeded
from normone.fpgroups import (
    FpGroup, preimage_an, schur_cover_sn, todd_coxeter, verify_commutator_claim,
)
from normone.perms import Permutation


class TestToddCoxeter:
    def test_cyclic_over_trivial(self):
        table = todd_coxeter(FpGroup(1, [(1,) * 5]), ())
        assert table.coset_count == 5

    def test_cyclic_over_subgroup(self):
        # <x | x^6> over <x^2>: index 2
        table = todd_coxeter(FpGroup(1, [(1,) * 6]), [(1, 1)])
        assert table.coset_count == 2

    def test_infinite_index_hits_cap(self):
        # free group on one generator over the trivial subgroup
        with pytest.raises(CapExceeded):
            todd_coxeter(FpGroup(1, ()), (), max_cosets=50)

    def test_table_is_verified_group_action(self):
        fp = FpGroup(2, [(1, 1), (2, 2, 2), (1, 2) * 2])  # S3 as (2,3,2)
        table = todd_coxeter(fp, ())
        assert table.coset_count == 6
        for w in fp.relators:
            assert table.word_permutation(w).is_identity()

    def test_subgroup_words_fix_base_coset(self):
        fp = FpGroup(2, [(1, 1), (2, 2, 2), (1, 2) * 2])
        table = todd_coxeter(fp, [(2,)])
        assert table.coset_count == 2
        assert table.word_permutation((2,)).images[0] == 0


class TestCover:
    def test_orders(self):
        for n in (4, 5):
            table = todd_coxeter(schur_cover_sn(n), ())
            assert table.coset_count == 2 * math.factorial(n)

    def test_killing_center_gives_symmetric_group(self):
        for n in (4, 5):
            cover = schur_cover_sn(n)
            quotient = FpGroup(cover.ngens, cover.relators + ((1,),))
            table = todd_coxeter(quotient, ())
            assert table.coset_count == math.factorial(n)

    def test_range_check(self):
        with pytest.raises(CapExceeded):
            schur_cover_sn(3)
        with pytest.raises(CapExceeded):
            schur_cover_sn(9)


class TestEvenPreimage:
    def test_index_two_and_orders(self):
        # 6 is MAX_SCHUR_N
        for n in (4, 5, 6):
            data = preimage_an(n)
            assert data.index_table.coset_count == 2
            assert data.v_order == math.factorial(n)

    def test_central_element_has_order_two(self):
        data = preimage_an(4)
        z = data.v_generators[0]
        assert not z.is_identity()
        assert (z * z).is_identity()

    def test_commutator_claim(self):
        # verified in the finite quotients for these n, which is weaker than
        # the abstract derivation from the defining relations
        assert verify_commutator_claim(preimage_an(4))
        assert verify_commutator_claim(preimage_an(5))
        assert verify_commutator_claim(preimage_an(6))

    def test_trivial_commutator_sanity(self):
        # [e2, e2] is the identity, not the central involution
        data = preimage_an(4)
        z, e2 = data.v_generators[0], data.v_generators[2]
        comm = e2 * e2 * e2.inverse() * e2.inverse()
        assert comm.is_identity()
        assert comm != z

    def test_faithful_action(self):
        data = preimage_an(4)
        degree = data.v_order
        assert all(g.degree == degree for g in data.v_generators)
        # regular action: only the identity fixes a point
        for g in data.v_generators:
            if not g.is_identity():
                assert g.images[0] != 0
