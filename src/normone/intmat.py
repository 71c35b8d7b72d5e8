"""Exact integer linear algebra: Hermite and Smith normal forms, kernels,
and finite abelian quotients.

Everything here is exact over arbitrary-precision integers.  Each
elimination (Hermite, Smith) is written once, over a NumPy array.  It
runs on int64 whenever the entries are small enough; every destructive
step is then guarded by a worst-case bound, and on a would-be overflow
the same routine reruns from the start on a dtype=object array of Python
ints.  The arithmetic and the pivot rule (minimal nonzero absolute value,
ties broken by position) do not depend on the dtype, so neither does the
output.

Row-vector convention throughout: lattice elements are rows, maps act by
right multiplication, `kernel_basis(A)` solves x*A = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

# Magnitude ceiling for int64 arrays.  An elimination step can at most add
# |q|*|pivot line| to an entry; the guards keep every intermediate strictly
# below 2**62, and a product runs on int64 only if its bound stays below.
_NP_CAP = 1 << 59


class _Overflow(Exception):
    """Internal: an int64 step would overflow; rerun on Python ints."""


class IntMatrix:
    """Dense integer matrix with unbounded entries.

    Immutable; algorithms copy the data into arrays internally.
    An explicit column count disambiguates matrices with zero rows.
    """

    __slots__ = ("data", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row length")
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", int(ncols))

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def identity(n):
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(m, n):
        return IntMatrix([[0] * n for _ in range(m)], ncols=n)

    def tolist(self):
        return [list(row) for row in self.data]

    def row(self, i):
        return list(self.data[i])

    def transpose(self):
        return IntMatrix(
            [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def max_abs(self):
        return max((abs(x) for row in self.data for x in row), default=0)

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        return IntMatrix(_matmul(self.data, other.data, other.ncols), ncols=other.ncols)

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            ncols=self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntMatrix([[-x for x in row] for row in self.data], ncols=self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.ncols, self.data))

    def __repr__(self):
        if self.nrows * self.ncols <= 36:
            return f"IntMatrix({self.tolist()})"
        return f"IntMatrix(<{self.nrows}x{self.ncols}>, max|entry|={self.max_abs()})"


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V unimodular and D = diag(d1 | d2 | ... | dr)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    rank: int


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


TRIVIAL_GROUP = AbelianInvariants(0, ())


def _max_abs(rows):
    return max((abs(x) for row in rows for x in row), default=0)


def _matmul(A, B, bcols):
    """Exact product of two row-sequence matrices: on int64 while the entry
    bound inner * max|A| * max|B| stays below _NP_CAP, else on Python ints."""
    if not A or not B:
        return [[0] * bcols for _ in A]
    dtype = np.int64 if len(B) * _max_abs(A) * _max_abs(B) < _NP_CAP else object
    return (np.array(A, dtype=dtype) @ np.array(B, dtype=dtype)).tolist()


def row_times(row, mat: IntMatrix):
    """row * mat for one row vector, skipping zero entries."""
    out = [0] * mat.ncols
    for i, x in enumerate(row):
        if x:
            for j, y in enumerate(mat.data[i]):
                if y:
                    out[j] += x * y
    return out


def _eliminate(elim, rows, width, *args):
    """elim(W, *args) with W the rows as an int64 array; rerun on exact
    Python ints (dtype=object) when an entry already reaches _NP_CAP or a
    guard raises _Overflow."""
    if _max_abs(rows) < _NP_CAP:
        try:
            return elim(np.array(rows, dtype=np.int64).reshape(len(rows), width), *args)
        except _Overflow:
            pass
    return elim(np.array(rows, dtype=object).reshape(len(rows), width), *args)


def _guard(q, line, rest):
    """On int64, raise _Overflow unless rest - q * line stays below _NP_CAP."""
    if line.dtype != object and (int(np.abs(q).max()) * int(np.abs(line).max())
                                 + int(np.abs(rest).max()) >= _NP_CAP):
        raise _Overflow


def _smallest(v):
    """Index of the smallest nonzero |entry| of v, the first one on ties."""
    nz = np.nonzero(v)[0]
    return int(nz[np.argmin(np.abs(v[nz]))])


def _hermite(W, ncols, track):
    """Row Hermite elimination of the m x ncols array W, on [W | I_m] when
    track.  Returns (H rows, U rows or None) as lists of Python ints.

    Each column's pivot is its smallest nonzero |entry|.  Entries above the
    pivots are reduced in one bottom-up pass at the end; doing it eagerly
    lets intermediate entries snowball.
    """
    m = W.shape[0]
    if track:
        W = np.hstack([W, np.eye(m, dtype=W.dtype)])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        col = W[r:, c]
        if not col.any():
            continue
        while True:
            k = _smallest(col)
            if k:
                W[[r, r + k]] = W[[r + k, r]]
            below = W[r + 1:, c]
            if not below.any():
                break
            q = below // W[r, c]
            _guard(q, W[r], W[r + 1:])
            W[r + 1:] -= q[:, None] * W[r]
        if W[r, c] < 0:
            W[r] = -W[r]
        pivots.append((r, c))
        r += 1
    for r, c in pivots:
        if r:
            q = W[:r, c] // W[r, c]
            if q.any():
                _guard(q, W[r], W[:r])
                W[:r] -= q[:, None] * W[r]
    return W[:, :ncols].tolist(), (W[:, ncols:].tolist() if track else None)


def _hnf_rows(rows, ncols, track):
    if not rows or not ncols:
        # nothing to eliminate: H is the input, U the identity
        m = len(rows)
        U = [[int(i == j) for j in range(m)] for i in range(m)] if track else None
        return [list(r) for r in rows], U
    return _eliminate(_hermite, rows, ncols, ncols, track)


def hnf(A: IntMatrix):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*A = H, H in row-echelon form with
    positive pivots and the entries above each pivot reduced into
    [0, pivot).  H is unique for this convention.
    """
    H, U = _hnf_rows(A.data, A.ncols, track=True)
    return IntMatrix(H, ncols=A.ncols), IntMatrix(U, ncols=A.nrows)


def hnf_basis(A: IntMatrix) -> IntMatrix:
    """Nonzero rows of the Hermite form: a canonical basis of A's row lattice."""
    H, _ = _hnf_rows(A.data, A.ncols, track=False)
    rows = [row for row in H if any(row)]
    return IntMatrix(rows, ncols=A.ncols)


def _pivot_cols(hrows):
    cols = []
    for row in hrows:
        for j, x in enumerate(row):
            if x:
                cols.append(j)
                break
    return cols


def _solve_hnf(hrows, pivcols, b):
    """Solve coef * hrows = b for integer coef, or None.  hrows in HNF."""
    res = list(b)
    coef = [0] * len(hrows)
    for k, (row, c) in enumerate(zip(hrows, pivcols)):
        v = res[c]
        if v:
            if v % row[c]:
                return None
            q = v // row[c]
            coef[k] = q
            for j in range(c, len(res)):
                res[j] -= q * row[j]
    if any(res):
        return None
    return coef


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the left integer kernel {x : x*A = 0}, as rows.

    The basis is saturated: every integer solution is an integer
    combination of the rows.  Rows are HNF-canonicalized.
    """
    H, U = _hnf_rows(A.data, A.ncols, track=True)
    ker = [U[i] for i in range(len(H)) if not any(H[i])]
    if not ker:
        return IntMatrix([], ncols=A.nrows)
    K, _ = _hnf_rows(ker, A.nrows, track=False)
    return IntMatrix([row for row in K if any(row)], ncols=A.nrows)


def solve_left(A: IntMatrix, B):
    """Integer solutions of X*A = B, or None if some row of B has none.

    B is an IntMatrix of right-hand sides, one per row, and the result is
    an IntMatrix; a single vector b is the one-row case and gives a list.
    One Hermite form of A serves every row: each row is back-substituted
    against it, and the coefficients are mapped through its transform in
    one product.  When A has full row rank the solution is unique.
    """
    single = not isinstance(B, IntMatrix)
    if single:
        B = IntMatrix([B])
    if B.ncols != A.ncols:
        raise ValueError("right-hand side length does not match column count")
    H, U = _hnf_rows(A.data, A.ncols, track=True)
    nz = [i for i, row in enumerate(H) if any(row)]
    hrows = [H[i] for i in nz]
    pivcols = _pivot_cols(hrows)
    coefs = []
    for b in B.data:
        coef = _solve_hnf(hrows, pivcols, b)
        if coef is None:
            return None
        coefs.append(coef)
    X = _matmul(coefs, [U[i] for i in nz], A.nrows)
    return X[0] if single else IntMatrix(X, ncols=A.nrows)


def inverse_unimodular(A: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular square matrix."""
    if A.nrows != A.ncols:
        raise ValueError("not square")
    H, U = _hnf_rows(A.data, A.ncols, track=True)
    n = A.nrows
    for i in range(n):
        if any(H[i][j] != (1 if i == j else 0) for j in range(n)):
            raise ValueError("matrix is not unimodular")
    return IntMatrix(U, ncols=n)


def _smith(W, m, n):
    """Smith elimination on the leading m x n block of W, in place.

    Row operations act on whole rows and column operations on whole
    columns, so a border [[A, I_m], [I_n, 0]] around A collects U in its
    top right block and V in its bottom left one.  Each pivot is the
    smallest nonzero |entry| of the remaining block, the first in row-major
    order on ties.  Returns (W, rank); W[i, i] for i < rank are the
    invariant factors d1 | d2 | ..., all positive.
    """
    t = 0
    while t < m and t < n:
        sub = W[t:m, t:n]
        nz = np.nonzero(sub)
        if nz[0].size == 0:
            break
        k = int(np.argmin(np.abs(sub[nz])))
        bi, bj = int(nz[0][k]) + t, int(nz[1][k]) + t
        if bi != t:
            W[[t, bi]] = W[[bi, t]]
        if bj != t:
            W[:, [t, bj]] = W[:, [bj, t]]
        while True:
            col = W[t + 1:m, t]
            if col.any():
                q = col // W[t, t]
                _guard(q, W[t], W[t + 1:m])
                W[t + 1:m] -= q[:, None] * W[t]
                if col.any():
                    # a smaller remainder appeared in the column; pivot on it
                    i = t + 1 + _smallest(col)
                    W[[t, i]] = W[[i, t]]
                    continue
            row = W[t, t + 1:n]
            if row.any():
                q = row // W[t, t]
                _guard(q, W[:, t], W[:, t + 1:n])
                W[:, t + 1:n] -= W[:, t][:, None] * q
                if row.any():
                    j = t + 1 + _smallest(row)
                    W[:, [t, j]] = W[:, [j, t]]
                    continue
            # the pivot must divide the rest of the block for the chain
            bad = np.nonzero(W[t + 1:m, t + 1:n] % W[t, t])[0]
            if not bad.size:
                break
            i = t + 1 + int(bad[0])
            _guard(1, W[t], W[i])
            W[t] += W[i]
        if W[t, t] < 0:
            W[t] = -W[t]
        t += 1
    return W, t


def snf_invariants(A: IntMatrix):
    """Invariant factors d1 | d2 | ... of A's row lattice (no transforms)."""
    if not A.nrows or not A.ncols:
        return []
    W, rank = _eliminate(_smith, A.data, A.ncols, A.nrows, A.ncols)
    return [int(W[i, i]) for i in range(rank)]


def snf(A: IntMatrix) -> SmithDecomposition:
    """Full Smith decomposition U*A*V = D with transforms.

    The same elimination as `snf_invariants`, run on the bordered array
    [[A, I_m], [I_n, 0]]: its row operations build U and its column
    operations build V in the same pass.
    """
    m, n = A.nrows, A.ncols
    border = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(A.data)]
    border += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]
    W, rank = _eliminate(_smith, border, n + m, m, n)
    return SmithDecomposition(
        IntMatrix(W[:m, n:].tolist(), ncols=m), IntMatrix(W[:m, :n].tolist(), ncols=n),
        IntMatrix(W[m:, :n].tolist(), ncols=n), rank=rank)


def quotient_invariants(Z: IntMatrix, B: IntMatrix) -> AbelianInvariants:
    """Structure of (row lattice of Z) / (row lattice of B).

    Every row of B must lie in Z's row lattice; raises ValueError otherwise.
    """
    if Z.ncols != B.ncols:
        raise ValueError("ambient dimensions differ")
    Hz = hnf_basis(Z)
    hrows = Hz.tolist()
    pivcols = _pivot_cols(hrows)
    r = len(hrows)
    coefs = []
    for brow in B.data:
        coef = _solve_hnf(hrows, pivcols, list(brow))
        if coef is None:
            raise ValueError("quotient_invariants: B is not contained in Z's lattice")
        coefs.append(coef)
    d = snf_invariants(IntMatrix(coefs, ncols=r))
    torsion = tuple(x for x in d if x > 1)
    return AbelianInvariants(r - len(d), torsion)


def det(A: IntMatrix):
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


def vstack(*mats):
    ncols = mats[0].ncols
    rows = []
    for m in mats:
        if m.ncols != ncols:
            raise ValueError("column counts differ")
        rows.extend(m.tolist())
    return IntMatrix(rows, ncols=ncols)


def hstack(*mats):
    nrows = mats[0].nrows
    rows = [[] for _ in range(nrows)]
    for m in mats:
        if m.nrows != nrows:
            raise ValueError("row counts differ")
        for i, row in enumerate(m.data):
            rows[i].extend(row)
    return IntMatrix(rows, ncols=sum(m.ncols for m in mats))


def lattice_contains(Z: IntMatrix, rows) -> bool:
    """Do all given row vectors lie in Z's row lattice?"""
    Hz = hnf_basis(Z)
    hrows = Hz.tolist()
    pivcols = _pivot_cols(hrows)
    return all(_solve_hnf(hrows, pivcols, list(r)) is not None for r in rows)

