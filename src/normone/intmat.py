"""Exact integer linear algebra: Hermite bases, coordinates against them,
kernels and Smith invariant factors (`hnf_basis`, `hnf_coordinates`,
`kernel_basis`, `snf_invariants`).

Everything here is exact over arbitrary-precision integers.  An IntMatrix
holds one read-only 2-D NumPy array in a canonical dtype: int64 when
every |entry| < _NP_CAP, else dtype=object (exact Python ints).  Products,
sums, stacking and the eliminations all run on that array.  A product
runs on int64 while its worst-case entry bound stays below _NP_CAP.  Each
elimination (Hermite, Smith, back-substitution) is written once.  A step
rewrites only the lines it changes: the rows with a nonzero entry in the
pivot column (the columns with one in the pivot row, for Smith's column
steps).  On int64 every step is guarded by a running upper bound on the
largest |entry|, grown by max|multiplier| * max|pivot line| per step and
taken exactly again only when it would reach _NP_CAP; on a would-be
overflow the same routine reruns from the start on a dtype=object copy.
The arithmetic and the pivot rule (minimal nonzero absolute value, ties
broken by position) do not depend on the dtype, so neither does the
output.

Row-vector convention throughout: lattice elements are rows, maps act by
right multiplication, `kernel_basis(A)` solves x*A = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

# Magnitude ceiling for int64 arrays.  An elimination step can at most add
# |q|*|pivot line| to an entry; the running bound keeps every product and
# every intermediate strictly below it, and a product of matrices runs on
# int64 only if its bound stays below.
_NP_CAP = 1 << 59

_to_int = np.frompyfunc(int, 1, 1)


class _Overflow(Exception):
    """Internal: an int64 step would overflow; rerun on Python ints."""


def exact_array(x):
    """x, an integer array or nested sequence, as an array in the
    canonical dtype: int64 when every |entry| < _NP_CAP, else dtype=object
    holding Python ints.  May return x itself."""
    if isinstance(x, np.ndarray):
        a = x
    else:
        # not np.asarray: it may infer uint64 or float64 past int64
        try:
            a = np.array(x, dtype=np.int64)
        except OverflowError:
            a = np.array(x, dtype=object)
    if a.dtype != object and np.can_cast(a.dtype, np.int64):
        a = a.astype(np.int64, copy=False)
        if not a.size or (a.max() < _NP_CAP and a.min() > -_NP_CAP):
            return a
    a = a.astype(object, copy=False)
    if _bound(a) < _NP_CAP:
        return a.astype(np.int64)
    return _to_int(a)


def _bound(a):
    """max |entry| of the array a, as a Python int (0 when empty)."""
    return int(np.abs(a).max(initial=0))


class IntMatrix:
    """Dense integer matrix with unbounded entries.

    Immutable: `array` is a read-only 2-D NumPy array in the canonical
    dtype (see the module docstring).  An explicit column count
    disambiguates matrices with zero rows.  `data` is a tuple-of-tuples
    copy of the entries as Python ints, built on each access.
    """

    __slots__ = ("array", "nrows", "ncols")
    # ndarray @ IntMatrix defers to __rmatmul__
    __array_ufunc__ = None

    def __init__(self, rows, ncols=None):
        if isinstance(rows, np.ndarray):
            rows = rows.copy()
        else:
            rows = list(rows)
            if len({len(row) for row in rows}) > 1:
                raise ValueError("ragged rows")
        a = exact_array(rows)
        if a.ndim != 2:
            if a.size:
                raise ValueError("rows must form a 2-D array")
            a = a.reshape(0, ncols or 0)
        elif ncols is not None and ncols != a.shape[1]:
            if a.shape[0]:
                raise ValueError("ncols does not match row length")
            a = a.reshape(0, ncols)
        a.flags.writeable = False
        object.__setattr__(self, "array", a)
        object.__setattr__(self, "nrows", a.shape[0])
        object.__setattr__(self, "ncols", a.shape[1])

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @property
    def data(self):
        return tuple(map(tuple, self.array.tolist()))

    @staticmethod
    def identity(n):
        return IntMatrix(np.eye(n, dtype=np.int64))

    @staticmethod
    def zeros(m, n):
        return IntMatrix(np.zeros((m, n), dtype=np.int64))

    def tolist(self):
        return self.array.tolist()

    def row(self, i):
        return self.array[i].tolist()

    def transpose(self):
        return IntMatrix(self.array.T)

    def is_zero(self):
        return not self.array.any()

    def max_abs(self):
        return _bound(self.array)

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        return IntMatrix(_matmul(self.array, other.array))

    def __rmatmul__(self, v):
        """v @ M for a row vector or a stack of rows v: an exact ndarray."""
        return _matmul(exact_array(v), self.array)

    def __add__(self, other):
        if self.array.shape != other.array.shape:
            raise ValueError("shape mismatch")
        return IntMatrix(self.array + other.array)

    def __sub__(self, other):
        if self.array.shape != other.array.shape:
            raise ValueError("shape mismatch")
        return IntMatrix(self.array - other.array)

    def __neg__(self):
        return IntMatrix(-self.array)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.array.shape == other.array.shape
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.ncols, self.data))

    def __repr__(self):
        if self.nrows * self.ncols <= 36:
            return f"IntMatrix({self.tolist()})"
        return f"IntMatrix(<{self.nrows}x{self.ncols}>, max|entry|={self.max_abs()})"


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group Z^free_rank + sum Z/t_i.

    Torsion entries are > 1 and each divides the next.
    """

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion not in divisibility order: {self.torsion}")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion entries must be > 1")

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " x ".join(parts) if parts else "0"


def _matmul(A, B):
    """Exact A @ B of two canonical arrays: on int64 while the entry bound
    inner * max|A| * max|B| stays below _NP_CAP, else on Python ints."""
    if (A.dtype != object and B.dtype != object
            and B.shape[0] * _bound(A) * _bound(B) < _NP_CAP):
        return A @ B
    return A.astype(object) @ B.astype(object)


def _eliminate(elim, W, *args):
    """elim(W', *args) on a writable copy W' of the canonical array W: on
    int64 when W is, rerun on exact Python ints (dtype=object) when a
    guard raises _Overflow."""
    if W.dtype != object:
        try:
            return elim(W.copy(), *args)
        except _Overflow:
            pass
    return elim(W.astype(object), *args)


def _start_bound(W):
    """The running bound an elimination of the canonical array W starts
    from: None (unguarded) on dtype=object; on int64, _NP_CAP - 1, which
    every entry is below, so that the first step takes max|W| exactly and
    an elimination without steps never takes it."""
    return None if W.dtype == object else _NP_CAP - 1


def _grow(bound, q, line_max, W, touched):
    """The running bound on max|W| once the entries W[touched] have taken
    away the multiples q of a line whose largest |entry| is line_max.  A
    bound of None (unguarded, as on dtype=object) stays None.

    Each step adds max|q| * line_max to the bound.  Only when that would
    reach _NP_CAP is max|W| taken exactly, and only when the touched
    entries themselves could then reach it is _Overflow raised, so a
    stale bound never sends the elimination to Python ints.
    """
    if bound is None:
        return None
    step = int(np.abs(q).max()) * line_max
    if bound + step >= _NP_CAP:
        bound = _bound(W)
        if bound + step >= _NP_CAP and _bound(W[touched]) + step >= _NP_CAP:
            raise _Overflow
    return bound + step


def _hermite(W, track):
    """Row Hermite elimination of the m x n array W, on [W | I_m] when
    track.  Returns (H, U or None) as arrays.

    Each column's pivot is its smallest nonzero |entry|, the first on
    ties.  A step rewrites only the rows with a nonzero entry in the pivot
    column, and on int64 it is guarded by a running bound on max|W| (see
    `_grow`).  Entries above the pivots are reduced in one pass at the
    end, pivot by pivot from the top; doing it eagerly lets intermediate
    entries snowball.
    """
    m, ncols = W.shape
    if track:
        W = np.hstack([W, np.eye(m, dtype=W.dtype)])
    bound = _start_bound(W)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        rows = r + W[r:, c].nonzero()[0]
        if not rows.size:
            continue
        i = rows[abs(W[rows, c]).argmin()]
        # the rows below r still nonzero in column c once row i is swapped up
        rows = rows[1:] if rows[0] == r else rows[rows != i]
        while True:
            if i != r:
                W[[r, i]] = W[[i, r]]
            if not rows.size:
                break
            q = W[rows, c] // W[r, c]
            bound = _grow(bound, q, _bound(W[r]), W, rows)
            W[rows] -= q[:, None] * W[r]
            rows = rows[W[rows, c].nonzero()[0]]
            if not rows.size:
                break
            # a remainder is smaller than the pivot, so the next pivot is one
            # of them, and the old pivot row it swaps with stays nonzero
            i = rows[abs(W[rows, c]).argmin()]
        if W[r, c] < 0:
            W[r] = -W[r]
        pivots.append((r, c))
        r += 1
    # the first pivot row has no rows above it
    for r, c in pivots[1:]:
        q = W[:r, c] // W[r, c]
        rows = q.nonzero()[0]
        if rows.size:
            q = q[rows]
            bound = _grow(bound, q, _bound(W[r]), W, rows)
            W[rows] -= q[:, None] * W[r]
    return W[:, :ncols], (W[:, ncols:] if track else None)


def _hnf(A, track):
    """(H, U or None) for the canonical array A."""
    if not A.size:
        # nothing to eliminate: H is the input, U the identity
        return A, (np.eye(A.shape[0], dtype=np.int64) if track else None)
    return _eliminate(_hermite, A, track)


def hnf_basis(A: IntMatrix) -> IntMatrix:
    """Nonzero rows of the Hermite form: a canonical basis of A's row lattice."""
    H, _ = _hnf(A.array, track=False)
    return IntMatrix(H[(H != 0).any(axis=1)])


def _back_substitute(W, r):
    """W = [H; B] with H its first r rows, in Hermite form without zero
    rows: the X with X*H = B, or None when some row of B has none."""
    H, res = W[:r], W[r:]
    X = np.zeros((res.shape[0], r), dtype=W.dtype)
    # one pass gives each H row's max and the running bound over B's rows
    line_max = abs(W).max(axis=1, initial=0).tolist()
    bound = None if W.dtype == object else max(line_max[r:])
    for k, c in enumerate((H != 0).argmax(axis=1).tolist()):
        rows = res[:, c].nonzero()[0]
        if not rows.size:
            continue
        v = res[rows, c]
        if (v % H[k, c]).any():
            return None
        q = v // H[k, c]
        bound = _grow(bound, q, line_max[k], res, rows)
        res[rows] -= q[:, None] * H[k]
        X[rows, k] = q
    return None if res.any() else X


def _coordinates(H, B):
    """Back-substitution of the rows of the array B against the Hermite
    basis H (arrays): X with X*H = B, or None."""
    if not B.shape[0]:
        return np.zeros((0, H.shape[0]), dtype=np.int64)
    return _eliminate(_back_substitute, np.vstack([H, B]), H.shape[0])


def hnf_coordinates(H: IntMatrix, B: IntMatrix):
    """X with X*H = B, for H in Hermite form without zero rows (as
    hnf_basis returns it); None when some row of B is not in H's row
    lattice.  Back-substitution only, no elimination of H.

    This is the one way to take coordinates: a lattice whose coordinates
    are wanted is brought to Hermite form once, where it is built, and
    every right-hand side is then solved against it.  H has full row
    rank, so X is unique."""
    if B.ncols != H.ncols:
        raise ValueError("right-hand side length does not match column count")
    X = _coordinates(H.array, B.array)
    return None if X is None else IntMatrix(X)


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the left integer kernel {x : x*A = 0}, as rows.

    The basis is saturated: every integer solution is an integer
    combination of the rows.  They are U's rows at the zero rows of one
    tracked Hermite form U*A = H, not a Hermite basis (take hnf_basis).
    """
    H, U = _hnf(A.array, track=True)
    return IntMatrix(U[~(H != 0).any(axis=1)])


def _smith(W, m, n):
    """Smith elimination on the leading m x n block of W, in place.

    Row operations act on whole rows and column operations on whole
    columns, so a border [[A, I_m], [I_n, 0]] around A collects U in its
    top right block and V in its bottom left one (the tests check
    U*A*V = D that way).  Each pivot is the
    smallest nonzero |entry| of the remaining block, the first in row-major
    order on ties.  A row step rewrites only the rows with a nonzero entry
    in the pivot column, a column step only the columns with one in the
    pivot row, each guarded on int64 by a running bound (see `_grow`).
    Returns (W, rank); W[i, i] for i < rank are the invariant factors
    d1 | d2 | ..., all positive.
    """
    bound = _start_bound(W)
    t = 0
    while t < m and t < n:
        sub = W[t:m, t:n]
        nz = sub.nonzero()
        if not nz[0].size:
            break
        k = abs(sub[nz]).argmin()
        bi, bj = nz[0][k] + t, nz[1][k] + t
        if bi != t:
            W[[t, bi]] = W[[bi, t]]
        if bj != t:
            W[:, [t, bj]] = W[:, [bj, t]]
        while True:
            rows = t + 1 + W[t + 1:m, t].nonzero()[0]
            while rows.size:
                q = W[rows, t] // W[t, t]
                bound = _grow(bound, q, _bound(W[t]), W, rows)
                W[rows] -= q[:, None] * W[t]
                rows = rows[W[rows, t].nonzero()[0]]
                if rows.size:
                    # a smaller remainder appeared in the column; pivot on it
                    i = rows[abs(W[rows, t]).argmin()]
                    W[[t, i]] = W[[i, t]]
            cols = t + 1 + W[t, t + 1:n].nonzero()[0]
            if cols.size:
                q = W[t, cols] // W[t, t]
                bound = _grow(bound, q, _bound(W[:, t]), W, (slice(None), cols))
                W[:, cols] -= W[:, t][:, None] * q
                cols = cols[W[t, cols].nonzero()[0]]
                if cols.size:
                    j = cols[abs(W[t, cols]).argmin()]
                    W[:, [t, j]] = W[:, [j, t]]
                    continue
            # the pivot must divide the rest of the block (a unit one does)
            if abs(W[t, t]) == 1:
                break
            bad = (W[t + 1:m, t + 1:n] % W[t, t]).nonzero()[0]
            if not bad.size:
                break
            i = t + 1 + bad[0]
            bound = _grow(bound, 1, _bound(W[i]), W, t)
            W[t] += W[i]
        if W[t, t] < 0:
            W[t] = -W[t]
        t += 1
    return W, t


def snf_invariants(A: IntMatrix):
    """Invariant factors d1 | d2 | ... of A's row lattice (no transforms)."""
    if not A.array.size:
        return []
    W, rank = _eliminate(_smith, A.array, A.nrows, A.ncols)
    return W.diagonal()[:rank].tolist()


def vstack(*mats):
    if any(m.ncols != mats[0].ncols for m in mats):
        raise ValueError("column counts differ")
    return IntMatrix(np.vstack([m.array for m in mats]))


def hstack(*mats):
    if any(m.nrows != mats[0].nrows for m in mats):
        raise ValueError("row counts differ")
    return IntMatrix(np.hstack([m.array for m in mats]))
