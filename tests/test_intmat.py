import copy
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import normone.cohomology as cohomology
import normone.intmat as intmat
import normone.lattices as lattices
import normone.resolutions as resolutions
from normone.intmat import (
    AbelianInvariants, IntMatrix, hnf_basis, hnf_coordinates, kernel_basis,
    permutation_matrix, snf_invariants,
)
from normone.cohomology import sha2_omega
from normone.perms import (
    alternating, cyclic, dihedral, product_of_cyclics, subgroup_classes, symmetric,
)
from normone.resolutions import norm_one_invariant
from oracles import (
    bordered_identity, det, group_order, hermite_reference, hnf, hstack, inverse_unimodular,
    minors_gcd, quotient_invariants, random_unimodular, smith_reference, snf,
    subtract, tracked_kernel, transpose, vstack, zeros,
)


def mat(rows, ncols=None):
    return IntMatrix(rows, ncols=ncols)


def matrices(size, entries):
    return st.integers(1, size).flatmap(
        lambda m: st.integers(1, size).flatmap(
            lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m, max_size=m)))


small_matrices = matrices(6, st.integers(-100, 100))
# past int64; the mix keeps small entries (and zeros) next to huge ones,
# and entries at the int64 edges, whose sums and products cross 2**63
HUGE = 1 << 70
BOUNDARY = ((1 << 62) - 1, 1 << 62, (1 << 63) - 1, 1 << 63)
huge_entries = st.one_of(st.integers(-HUGE, HUGE), st.integers(-3, 3),
                         st.sampled_from(BOUNDARY + tuple(-x for x in BOUNDARY)))


@st.composite
def action_blocks(draw):
    """Sparse matrices shaped like the ones the oracles' `induced` and
    `dimension_shift` feed to kernel_basis: side by side, blocks kron(P, S) or kron(P, S) - I
    for permutation matrices P and small square S."""
    k, R = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        P = np.eye(k, dtype=np.int64)[draw(st.permutations(range(k)))]
        S = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=R, max_size=R),
                                   min_size=R, max_size=R)), dtype=np.int64)
        blocks.append(np.kron(P, S) - draw(st.integers(0, 1)) * np.eye(k * R, dtype=np.int64))
    return np.hstack(blocks).tolist()


# entries of one absolute value, so that most pivot choices are ties
tied_matrices = st.integers(1, 5).flatmap(
    lambda v: matrices(6, st.sampled_from((0, 0, v, -v, 2 * v))))


@st.composite
def with_zero_lines(draw, inner):
    """A matrix from inner with zero rows and zero columns put in."""
    rows = [list(row) for row in draw(inner)]
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, len(rows[0])))
        for row in rows:
            row.insert(j, 0)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
    return rows


reference_inputs = with_zero_lines(st.one_of(
    action_blocks(), tied_matrices, matrices(5, st.integers(-12, 12)),
    matrices(4, huge_entries)))


class TestHNF:
    def test_identity(self):
        I = IntMatrix.identity(3)
        H, U = hnf(I)
        assert H == I and U == I

    def test_zero(self):
        Z = zeros(2, 2)
        H, U = hnf(Z)
        assert H.is_zero()
        assert abs(det(U)) == 1

    def test_worked_2x2(self):
        # rows (2,4),(1,1): swap, eliminate -> [[1,1],[0,2]]
        A = mat([[2, 4], [1, 1]])
        H, U = hnf(A)
        assert H == mat([[1, 1], [0, 2]])
        assert U * A == H
        assert abs(det(U)) == 1

    def test_idempotent(self):
        A = mat([[6, 4, 2], [2, 8, 9], [0, 0, 5]])
        H, _ = hnf(A)
        H2, _ = hnf(H)
        assert H2 == H

    @given(st.one_of(small_matrices, matrices(5, huge_entries)))
    def test_hnf_properties(self, rows):
        A = mat(rows)
        H, U = hnf(A)
        assert U * A == H
        assert abs(det(U)) == 1
        # echelon with positive pivots, reduced above
        last = -1
        for row in H.data:
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            assert nz[0] > last
            last = nz[0]
            assert row[nz[0]] > 0
        cols = [j for row in H.data for j in [next((k for k, x in enumerate(row) if x), None)] if j is not None]
        for r, c in enumerate(cols):
            piv = H.data[r][c]
            for i in range(r):
                assert 0 <= H.data[i][c] < piv

    def test_empty_inputs(self):
        # no rows, no columns, or nothing to solve for
        H, U = hnf(mat([], ncols=3))
        assert H == mat([], ncols=3) and U == mat([], ncols=0)
        H, U = hnf(zeros(2, 0))
        assert H == zeros(2, 0) and U == IntMatrix.identity(2)
        assert kernel_basis(zeros(2, 0)) == IntMatrix.identity(2)
        assert transpose(mat([], ncols=3)) == zeros(3, 0)
        assert transpose(zeros(2, 0)) == mat([], ncols=2)
        assert hnf_coordinates(hnf_basis(mat([], ncols=2)), mat([[0, 0]])) == mat([[]])
        assert snf_invariants(mat([], ncols=2)) == []
        A = mat([[6, 4, 2], [2, 8, 9], [0, 0, 5]])
        H, U = hnf(A)
        assert U * A == H
        assert snf_invariants(A) == [1, 10, 20]
        d = snf(A)
        assert d.U * A * d.V == d.D

    def test_python_fallback_on_huge_entries(self):
        big = 1 << 70
        A = mat([[big, 1], [1, big]])
        H, U = hnf(A)
        assert U * A == H
        assert abs(det(U)) == 1


@given(reference_inputs)
# a step past int64 (2**58 times 2**58), and entries near 2**58 beside unit rows
@example([[1 << 58, 1], [1, 1 << 58]])
@example([[1, 0], [3 << 56, 3 << 56], [0, 1]])
def test_eliminations_match_dense_reference(rows):
    # the eliminations touch only the rows a pivot line reaches and walk
    # only that line's nonzero entries; the dense eliminations must give
    # the same echelon forms of A and of [A | I], pivot for pivot, the
    # same Hermite forms and kernels, and the same Smith invariants, huge
    # entries included
    m, n = len(rows), len(rows[0])
    bordered = bordered_identity(rows)
    W = hermite_reference(bordered)
    D, rank = smith_reference(rows, m, n)
    assert intmat._hermite(copy.deepcopy(rows)) == hermite_reference(rows, reduced=False)
    assert intmat._hermite(copy.deepcopy(bordered)) == hermite_reference(bordered, reduced=False)
    A = mat(rows)
    assert hnf(A) == (mat([w[:n] for w in W], n), mat([w[n:] for w in W], m))
    assert hnf_basis(A) == mat([w[:n] for w in W if any(w[:n])], n)
    assert kernel_basis(A) == mat([w[n:] for w in W if not any(w[:n])], m)
    assert snf_invariants(A) == [D[i][i] for i in range(rank)]


def check_elimination(name, args, out):
    """out, what the elimination `name` returned on args, against the
    dense references; coordinates by X*H = B, and a None by B leaving
    H's lattice."""
    if name == "_hermite":
        rows, = args
        assert out == (hermite_reference(rows, reduced=False) if rows else [])
    elif name == "_reduce_above":
        rows, = args
        assert out == (hermite_reference(rows) if rows else [])
    elif name == "snf_invariants":
        A, = args
        D, rank = smith_reference(A.tolist(), A.nrows, A.ncols)
        assert out == [D[i][i] for i in range(rank)]
    elif name == "snf_rows":
        W, = args
        D, rank = smith_reference(W, len(W), len(W[0]) if W else 0)
        assert out == [D[i][i] for i in range(rank)]
    else:
        H, B = args
        if out is None:
            widened = hermite_reference(H + B)
            assert [row for row in widened if any(row)] != H
        else:
            assert [[sum(x * h[j] for x, h in zip(xs, H)) for j in range(len(b))]
                    for xs, b in zip(out, B)] == B


ELIMINATIONS = ("_hermite", "_reduce_above", "_back_substitute")


def test_pipeline_eliminations_match_references(monkeypatch):
    # every elimination and Smith form of two point-stabilizer pipelines
    # and one oracle run, input by input: shapes and entries the random
    # inputs miss
    runs = []

    def record(module, name):
        elim = getattr(module, name)

        def run(*args):
            # an IntMatrix is immutable; lists of rows are copied
            inputs = args if name == "snf_invariants" else copy.deepcopy(args)
            out = elim(*args)
            runs.append((name, inputs, copy.deepcopy(out)))
            return out
        monkeypatch.setattr(module, name, run)

    for name in ELIMINATIONS:
        record(intmat, name)
    record(resolutions, "snf_invariants")
    record(cohomology, "snf_rows")
    G = product_of_cyclics((2, 2, 3))
    assert sha2_omega(G, G.trivial_subgroup()) == AbelianInvariants(0, (2,))
    for G in (alternating(4), alternating(5)):
        norm_one_invariant(G, G.point_stabilizer(G.degree))
    for name, args, out in runs:
        check_elimination(name, args, out)
    assert {name for name, _, _ in runs} == {*ELIMINATIONS, "snf_invariants", "snf_rows"}
    assert any(out is None for name, _, out in runs if name == "_back_substitute")


@given(reference_inputs)
def test_kernel_is_the_hermite_basis_of_a_tracked_kernel(rows):
    # one elimination of [A | I] gives the Hermite basis of the kernel
    # that a tracked elimination of A's columns alone spans
    A = mat(rows)
    assert kernel_basis(A) == hnf_basis(tracked_kernel(A))


def test_pool_kernels_are_hermite_bases_of_tracked_kernels(monkeypatch):
    # every kernel the pipeline and sha2_omega take over the pairs of
    # order <= 24 and index 2..8 (fixed sublattices, the cover's kernel,
    # the cyclic norm kernels) is the Hermite basis of the tracked
    # kernel, in one elimination
    inputs = []
    for module in (lattices, resolutions, cohomology):
        def recorded(A, kernel=module.kernel_basis):
            inputs.append(A)
            return kernel(A)
        monkeypatch.setattr(module, "kernel_basis", recorded)
    groups = [cyclic(n) for n in range(2, 13)] + [
        product_of_cyclics(t) for t in ((2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6))
    ] + [symmetric(3), alternating(4), symmetric(4)] + [dihedral(n) for n in range(3, 13)]
    pairs = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for G in groups:
            for H in subgroup_classes(G):
                if 2 <= G.order() // H.order() <= 8:
                    norm_one_invariant(G, H)
                    sha2_omega(G, H)
                    pairs += 1
    assert pairs == 121
    assert len(inputs) > 121
    for A in inputs:
        assert kernel_basis(A) == hnf_basis(tracked_kernel(A))


def hermite_passes(monkeypatch, A):
    """(snf_invariants(A), the number of Hermite passes it ran)."""
    passes = []
    hermite = intmat._hermite

    def counted(*args):
        passes.append(args)
        return hermite(*args)
    monkeypatch.setattr(intmat, "_hermite", counted)
    return snf_invariants(A), len(passes)


class TestSNF:
    def test_three_passes(self, monkeypatch):
        # the passes give [[2,1],[0,2]], then [[1,2],[0,4]] from the
        # columns, then [[1,0],[0,4]]
        assert hermite_passes(monkeypatch, mat([[2, 1], [0, 2]])) == ([1, 4], 3)

    def test_diagonal_put_in_divisibility_order(self, monkeypatch):
        assert hermite_passes(monkeypatch, mat([[4, 0], [0, 6]])) == ([2, 12], 1)
        assert hermite_passes(monkeypatch, mat([[2, 0], [0, 3]])) == ([1, 6], 1)

    def test_wide_pivots_off_the_diagonal(self, monkeypatch):
        # echelon after one pass, but the pivots sit in columns 1 and 2
        A = mat([[0, 2, 0, 0], [0, 0, 3, 0]])
        assert hermite_passes(monkeypatch, A) == ([1, 6], 2)

    def test_unit_pivots_below_full_column_rank(self, monkeypatch):
        # rank 2 < 3 columns, both pivots 1: no second pass
        A = mat([[1, 2, 3], [2, 5, 11], [3, 7, 14]])
        assert hermite_passes(monkeypatch, A) == ([1, 1], 1)

    def test_zero_and_empty(self):
        assert snf_invariants(zeros(3, 2)) == []
        assert snf_invariants(mat([], ncols=3)) == []
        assert snf_invariants(zeros(2, 0)) == []

    def test_diag_2_3(self):
        d = snf(mat([[2, 0], [0, 3]]))
        assert d.D == mat([[1, 0], [0, 6]])
        assert d.rank == 2

    def test_zero(self):
        d = snf(zeros(2, 3))
        assert d.rank == 0
        assert d.D.is_zero()

    def test_2x2_gcd_det(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        d = snf(mat([[2, 4], [6, 8]]))
        assert [d.D.data[0][0], d.D.data[1][1]] == [2, 4]

    @given(st.one_of(small_matrices, matrices(5, huge_entries)))
    def test_snf_identities(self, rows):
        A = mat(rows)
        d = snf(A)
        assert d.U * A * d.V == d.D
        assert abs(det(d.U)) == 1
        assert abs(det(d.V)) == 1
        diag = [d.D.data[i][i] for i in range(min(A.nrows, A.ncols))]
        for i, x in enumerate(diag):
            for j in range(A.ncols):
                if j != i and i < A.nrows:
                    assert d.D.data[i][j] == 0
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert snf_invariants(A) == nz

    @given(st.one_of(matrices(4, st.integers(-9, 9)), matrices(4, huge_entries)))
    def test_invariant_products_match_minor_gcds(self, rows):
        A = mat(rows)
        inv = snf_invariants(A)
        prod = 1
        for k, d in enumerate(inv, start=1):
            prod *= d
            assert prod == abs(minors_gcd(A, k))


class TestKernel:
    def test_identity_has_no_kernel(self):
        assert kernel_basis(IntMatrix.identity(3)).nrows == 0

    def test_column_sum(self):
        K = kernel_basis(mat([[1], [-1]]))
        assert K == mat([[1, 1]])

    def test_primitive_solution(self):
        # the basis is saturated and in Hermite form
        assert kernel_basis(mat([[2], [4]])) == mat([[2, -1]])

    def test_one_elimination(self, monkeypatch):
        # the kernel's Hermite basis comes from one elimination of
        # [A | I], with no second, canonicalizing Hermite pass
        calls = []
        hermite = intmat._hermite

        def counted(*args):
            calls.append(args)
            return hermite(*args)
        monkeypatch.setattr(intmat, "_hermite", counted)
        A = mat([[1, 2], [3, 4], [5, 6], [7, 8]])
        K = kernel_basis(A)
        assert len(calls) == 1
        assert K.nrows == 2 and (K * A).is_zero()
        assert K == hnf_basis(K)

    @given(small_matrices)
    def test_kernel_saturated(self, rows):
        A = mat(rows)
        K = kernel_basis(A)
        if K.nrows:
            assert (K * A).is_zero()
            assert all(x == 1 for x in snf_invariants(K))
        # rank-nullity over Q
        assert K.nrows == A.nrows - len(snf_invariants(A))


class TestQuotient:
    def test_two_torsion_squared(self):
        inv = quotient_invariants(IntMatrix.identity(2), mat([[2, 0], [0, 2]]))
        assert inv == AbelianInvariants(0, (2, 2))

    def test_trivial(self):
        inv = quotient_invariants(IntMatrix.identity(2), IntMatrix.identity(2))
        assert inv.is_trivial()

    def test_rank_one_sublattice(self):
        inv = quotient_invariants(mat([[1, 1]]), mat([[3, 3]]))
        assert inv == AbelianInvariants(0, (3,))

    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            quotient_invariants(mat([[2, 0]]), mat([[1, 0]]))

    def test_free_rank(self):
        inv = quotient_invariants(IntMatrix.identity(2), mat([[2, 0]]))
        assert inv == AbelianInvariants(1, (2,))

    @given(small_matrices, st.integers(0, 2 ** 30))
    def test_invariant_under_row_ops(self, rows, seed):
        rng = random.Random(seed)
        Z = mat(rows)
        B = mat([[2 * x for x in row] for row in rows])
        base = quotient_invariants(Z, B)
        W = random_unimodular(rng, Z.nrows)
        W2 = random_unimodular(rng, B.nrows)
        assert quotient_invariants(W * Z, B) == base
        assert quotient_invariants(Z, W2 * B) == base


class TestSolveInverse:
    # hnf_coordinates solves X*H = B against a Hermite basis H, here hnf_basis(A)
    def test_solve_identity(self):
        H = hnf_basis(IntMatrix.identity(3))
        assert hnf_coordinates(H, mat([[4, 5, 6]])) == mat([[4, 5, 6]])

    def test_parity_obstruction(self):
        assert hnf_coordinates(hnf_basis(mat([[2]])), mat([[1]])) is None

    def test_diagonal(self):
        H = hnf_basis(mat([[2, 0], [0, 3]]))
        assert hnf_coordinates(H, mat([[4, 3]])) == mat([[2, 1]])

    @given(small_matrices)
    def test_solve_round_trip(self, rows):
        H = hnf_basis(mat(rows))
        x = mat([[i - 2 for i in range(H.nrows)]], ncols=H.nrows)
        # H has full row rank, so the coordinates are x itself
        assert hnf_coordinates(H, x * H) == x

    @given(small_matrices, st.integers(0, 2 ** 30))
    def test_matrix_form_agrees_with_vector_form(self, rows, seed):
        rng = random.Random(seed)
        H = hnf_basis(mat(rows))
        B = []
        for _ in range(rng.randint(1, 4)):
            x = mat([[rng.randint(-3, 3) for _ in range(H.nrows)]], ncols=H.nrows)
            b = (x * H).tolist()[0]
            if rng.random() < 0.3:
                b[rng.randrange(H.ncols)] += 1
            B.append(b)
        X = hnf_coordinates(H, mat(B))
        each = [hnf_coordinates(H, mat([b])) for b in B]
        if any(x is None for x in each):
            assert X is None
        else:
            assert X == vstack(*each)
            assert X * H == mat(B)

    def test_matrix_form_none_if_any_row_unsolvable(self):
        H = hnf_basis(mat([[2, 0], [0, 3]]))
        assert hnf_coordinates(H, mat([[4, 3], [2, 6]])) == mat([[2, 1], [1, 2]])
        assert hnf_coordinates(H, mat([[4, 3], [1, 0], [2, 6]])) is None

    def test_matrix_form_zero_rows(self):
        H = hnf_basis(mat([[2, 0, 1], [0, 3, 0]]))
        assert hnf_coordinates(H, mat([], ncols=3)) == mat([], ncols=2)
        with pytest.raises(ValueError):
            hnf_coordinates(H, mat([], ncols=2))

    def test_inverse_unimodular(self):
        rng = random.Random(7)
        for n in (1, 2, 4):
            W = random_unimodular(rng, n)
            assert W * inverse_unimodular(W) == IntMatrix.identity(n)

    def test_inverse_rejects_singular(self):
        with pytest.raises(ValueError):
            inverse_unimodular(mat([[2, 0], [0, 1]]))


def test_abelian_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))
    assert str(AbelianInvariants(0, (2, 4))) == "Z/2 x Z/4"
    assert str(AbelianInvariants(1, ())) == "Z"
    assert str(AbelianInvariants(0, ())) == "0"
    assert group_order(AbelianInvariants(0, (2, 2))) == 4
    assert group_order(AbelianInvariants(1, ())) is None
    with pytest.raises(ValueError, match="negative free rank"):
        AbelianInvariants(-1, ())
    # a named tuple, with its torsion made a tuple of ints
    assert AbelianInvariants(0, [2]) == (0, (2,))
    assert repr(AbelianInvariants(0, (2,))) == "AbelianInvariants(free_rank=0, torsion=(2,))"


@st.composite
def permutation_products(draw):
    """(images, A, B): a permutation of range(n), an m x n matrix A and
    an n x k matrix B, where n, m and k may each be 0."""
    n, m, k = draw(st.integers(0, 6)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = st.one_of(st.integers(-9, 9), huge_entries)
    images = draw(st.permutations(range(n)))
    A = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    B = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    return images, mat(A, n), mat(B, k)


@given(permutation_products())
@example(([], mat([], 0), mat([], 0)))
@example(([], mat([[], []], 0), mat([], 3)))
@example(([0], mat([[7]]), mat([[-5]])))
@example(([0], mat([], 1), mat([[]], 0)))
@example(([0, 1, 2], mat([[1, 2, 3]]), mat([[1], [2], [3]])))
@example(([2, 0, 1], mat([], 3), mat([[], [], []], 0)))
def test_permutation_products_match_the_dense_product(case):
    # a product with a permutation matrix reads its index list; the same
    # entries without it take the dense product, walking both factors
    images, A, B = case
    P = permutation_matrix(images)
    dense = mat(P.data, len(images))
    assert P.images is not None and dense.images is None and P == dense
    assert A * P == A * dense
    assert P * B == dense * B
    assert P * P == dense * dense and (P * P).images is not None
    identity = IntMatrix.identity(len(images))
    assert A * identity == A and identity * B == B and identity * P == P


def test_permutation_matrix_refuses_a_non_permutation():
    for images in ([0, 0], [1], [0, 2], [-1, 0]):
        with pytest.raises(ValueError, match="not a permutation"):
            permutation_matrix(images)


def test_hnf_basis_canonical():
    A = mat([[0, 2, 4], [0, 1, 1]])
    B = mat([[0, 1, 1], [0, 3, 5]])
    assert hnf_basis(A) == hnf_basis(B)


def test_vstack_empty_rows():
    A = mat([], ncols=3)
    B = mat([[1, 2, 3]])
    assert vstack(A, B) == B


def py_matrix(rows):
    return tuple(tuple(row) for row in rows)


def assert_stored(M, rows):
    """M holds exactly rows, as tuples of Python ints, and refuses mutation."""
    assert M.data == py_matrix(rows)
    assert type(M.data) is tuple and all(type(row) is tuple for row in M.data)
    assert all(type(x) is int for row in M.data for x in row)
    with pytest.raises(AttributeError):
        M.data = ()


@given(matrices(5, huge_entries), st.data())
def test_storage_matches_python_ints(a, data):
    m, n = len(a), len(a[0])
    b = data.draw(st.lists(st.lists(huge_entries, min_size=n, max_size=n),
                           min_size=m, max_size=m))
    c = data.draw(st.lists(st.lists(huge_entries, min_size=2, max_size=2),
                           min_size=n, max_size=n))
    A, B, C = mat(a), mat(b), mat(c)
    for M, rows in ((A, a), (B, b), (C, c)):
        assert_stored(M, rows)
    assert_stored(subtract(A, B), [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)])
    assert_stored(transpose(A), [list(col) for col in zip(*a)])
    assert_stored(vstack(A, B), a + b)
    assert_stored(hstack(A, B), [r + s for r, s in zip(a, b)])
    assert_stored(A * C, [[sum(x * y for x, y in zip(r, col)) for col in zip(*c)]
                          for r in a])
