"""Exact integer linear algebra: Hermite and Smith normal forms, kernels,
and finite abelian quotients.

Everything here is exact over arbitrary-precision integers.  The hot
loops (Hermite elimination, Smith pivoting) run on int64 numpy arrays
whenever the entries are small enough; every destructive step is guarded
by a worst-case bound, and on a would-be overflow the whole computation
restarts on the pure-Python path.  Both paths follow the same pivot rule
(minimal nonzero absolute value, ties broken by position), so the output
is identical regardless of which one ran.

Row-vector convention throughout: lattice elements are rows, maps act by
right multiplication, `kernel_basis(A)` solves x*A = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

# Magnitude ceiling for the int64 fast path.  An elimination step can at
# most add |q|*|pivot row| to an entry; the guards in the loops keep every
# intermediate strictly below 2**62.
_NP_CAP = 1 << 59


class _Overflow(Exception):
    """Internal: int64 fast path would overflow; redo in pure Python."""


class IntMatrix:
    """Dense integer matrix with unbounded entries.

    Immutable; algorithms copy the data into plain lists internally.
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
        return IntMatrix(_matmul(self.tolist(), other.tolist(), other.ncols), ncols=other.ncols)

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


def _matmul(A, B, bcols):
    """Exact product of two list-of-lists matrices."""
    if not A or not B:
        return [[0] * bcols for _ in A]
    inner = len(B)
    amax = max((abs(x) for row in A for x in row), default=0)
    bmax = max((abs(x) for row in B for x in row), default=0)
    if amax and bmax and inner * amax * bmax < (1 << 62):
        return (np.array(A, dtype=np.int64) @ np.array(B, dtype=np.int64)).tolist()
    Bcols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bcols] for row in A]


def _hnf_py(rows, ncols, track):
    """Row Hermite form, pure Python.  Returns (H rows, U rows or None).

    Entries above the pivots are reduced in one bottom-up pass at the
    end; doing it eagerly lets intermediate entries snowball.
    """
    m = len(rows)
    W = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track else None
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        while True:
            best = -1
            bestval = 0
            for i in range(r, m):
                v = W[i][c]
                if v and (best < 0 or abs(v) < bestval):
                    best, bestval = i, abs(v)
            if best < 0:
                break
            if best != r:
                W[r], W[best] = W[best], W[r]
                if track:
                    U[r], U[best] = U[best], U[r]
            piv = W[r][c]
            dirty = False
            wr = W[r]
            for i in range(r + 1, m):
                v = W[i][c]
                if v:
                    q = v // piv
                    if q:
                        wi = W[i]
                        for j in range(ncols):
                            wi[j] -= q * wr[j]
                        if track:
                            ui, ur = U[i], U[r]
                            for j in range(m):
                                ui[j] -= q * ur[j]
                    if W[i][c]:
                        dirty = True
            if not dirty:
                break
        if best < 0:
            continue
        if W[r][c] < 0:
            W[r] = [-x for x in W[r]]
            if track:
                U[r] = [-x for x in U[r]]
        pivots.append((r, c))
        r += 1
    for r, c in pivots:
        piv = W[r][c]
        wr = W[r]
        for i in range(r):
            q = W[i][c] // piv
            if q:
                wi = W[i]
                for j in range(c, ncols):
                    wi[j] -= q * wr[j]
                if track:
                    ui, ur = U[i], U[r]
                    for j in range(m):
                        ui[j] -= q * ur[j]
    return W, U


def _hnf_np(rows, ncols, track):
    """Same elimination as _hnf_py on int64, with overflow guards."""
    m = len(rows)
    A = np.array(rows, dtype=np.int64).reshape(m, ncols)
    if track:
        W = np.hstack([A, np.eye(m, dtype=np.int64)])
    else:
        W = A
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        found = False
        while True:
            col = W[r:, c]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                break
            found = True
            k = int(nz[np.argmin(np.abs(col[nz]))])
            if k:
                W[[r, r + k]] = W[[r + k, r]]
            piv = int(W[r, c])
            below = W[r + 1 :, c]
            if not below.any():
                break
            q = below // piv
            qmax = int(np.abs(q).max())
            if qmax:
                bound = qmax * int(np.abs(W[r]).max()) + int(np.abs(W[r + 1 :]).max())
                if bound >= _NP_CAP:
                    raise _Overflow
                W[r + 1 :] -= q[:, None] * W[r][None, :]
        if not found:
            continue
        if W[r, c] < 0:
            W[r] = -W[r]
        pivots.append((r, c))
        r += 1
    for r, c in pivots:
        piv = int(W[r, c])
        if r:
            q = W[:r, c] // piv
            if q.any():
                bound = int(np.abs(q).max()) * int(np.abs(W[r]).max()) + int(np.abs(W[:r]).max())
                if bound >= _NP_CAP:
                    raise _Overflow
                W[:r] -= q[:, None] * W[r][None, :]
    H = [[int(x) for x in row[:ncols]] for row in W]
    U = [[int(x) for x in row[ncols:]] for row in W] if track else None
    return H, U


def _hnf_rows(rows, ncols, track):
    if not rows or not ncols:
        # nothing to eliminate: H is the input, U the identity
        m = len(rows)
        U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track else None
        return [list(r) for r in rows], U
    if max(abs(x) for row in rows for x in row) < _NP_CAP:
        try:
            return _hnf_np(rows, ncols, track)
        except _Overflow:
            pass
    return _hnf_py(rows, ncols, track)


def hnf(A: IntMatrix):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*A = H, H in row-echelon form with
    positive pivots and the entries above each pivot reduced into
    [0, pivot).  H is unique for this convention.
    """
    H, U = _hnf_rows(A.tolist(), A.ncols, track=True)
    return IntMatrix(H, ncols=A.ncols), IntMatrix(U, ncols=A.nrows)


def hnf_basis(A: IntMatrix) -> IntMatrix:
    """Nonzero rows of the Hermite form: a canonical basis of A's row lattice."""
    H, _ = _hnf_rows(A.tolist(), A.ncols, track=False)
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
    H, U = _hnf_rows(A.tolist(), A.ncols, track=True)
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
    H, U = _hnf_rows(A.tolist(), A.ncols, track=True)
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
    H, U = _hnf_rows(A.tolist(), A.ncols, track=True)
    n = A.nrows
    for i in range(n):
        if any(H[i][j] != (1 if i == j else 0) for j in range(n)):
            raise ValueError("matrix is not unimodular")
    return IntMatrix(U, ncols=n)


def _snf_invariants_py(rows, ncols):
    D = [list(r) for r in rows]
    m = len(D)
    invs = []
    t = 0
    while True:
        best = None
        bestval = 0
        for i in range(t, m):
            di = D[i]
            for j in range(t, ncols):
                v = di[j]
                if v and (best is None or abs(v) < bestval):
                    best, bestval = (i, j), abs(v)
                    if bestval == 1:
                        break
            if bestval == 1 and best is not None:
                break
        if best is None:
            break
        bi, bj = best
        if bi != t:
            D[t], D[bi] = D[bi], D[t]
        if bj != t:
            for row in D:
                row[t], row[bj] = row[bj], row[t]
        while True:
            piv = D[t][t]
            dt = D[t]
            col_dirty = False
            for i in range(t + 1, m):
                v = D[i][t]
                if v:
                    q = v // piv
                    if q:
                        di = D[i]
                        for j in range(t, ncols):
                            di[j] -= q * dt[j]
                    if D[i][t]:
                        col_dirty = True
            if col_dirty:
                # smaller residue appeared in the column; re-pivot on it
                best = min(
                    (i for i in range(t, m) if D[i][t]),
                    key=lambda i: abs(D[i][t]),
                )
                if best != t:
                    D[t], D[best] = D[best], D[t]
                continue
            row_dirty = False
            piv = D[t][t]
            dt = D[t]
            for j in range(t + 1, ncols):
                v = dt[j]
                if v:
                    q = v // piv
                    if q:
                        for row in D:
                            row[j] -= q * row[t]
                    if dt[j]:
                        row_dirty = True
            if row_dirty:
                best = min(
                    (j for j in range(t, ncols) if dt[j]),
                    key=lambda j: abs(dt[j]),
                )
                if best != t:
                    for row in D:
                        row[t], row[best] = row[best], row[t]
                continue
            # pivot must divide the remaining submatrix for the chain
            piv = D[t][t]
            offender = None
            for i in range(t + 1, m):
                di = D[i]
                for j in range(t + 1, ncols):
                    if di[j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            dt2, do = D[t], D[offender]
            for j in range(t, ncols):
                dt2[j] += do[j]
        invs.append(abs(D[t][t]))
        t += 1
        if t == m or t == ncols:
            break
    return invs


def _snf_invariants_np(rows, ncols):
    D = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    m = len(rows)
    invs = []
    t = 0
    while t < m and t < ncols:
        sub = D[t:, t:]
        nz = np.nonzero(sub)
        if nz[0].size == 0:
            break
        k = int(np.argmin(np.abs(sub[nz])))
        bi, bj = int(nz[0][k]) + t, int(nz[1][k]) + t
        if bi != t:
            D[[t, bi]] = D[[bi, t]]
        if bj != t:
            D[:, [t, bj]] = D[:, [bj, t]]
        while True:
            piv = int(D[t, t])
            col = D[t + 1 :, t]
            if col.any():
                q = col // piv
                if q.any():
                    bound = int(np.abs(q).max()) * int(np.abs(D[t]).max()) + int(
                        np.abs(D[t + 1 :]).max()
                    )
                    if bound >= _NP_CAP:
                        raise _Overflow
                    D[t + 1 :] -= q[:, None] * D[t][None, :]
                col = D[t + 1 :, t]
                if col.any():
                    i = int(np.argmin(np.where(col != 0, np.abs(col), np.iinfo(np.int64).max)))
                    D[[t, t + 1 + i]] = D[[t + 1 + i, t]]
                    continue
            piv = int(D[t, t])
            rowr = D[t, t + 1 :]
            if rowr.any():
                q = rowr // piv
                if q.any():
                    bound = int(np.abs(q).max()) * int(np.abs(D[:, t]).max()) + int(
                        np.abs(D[:, t + 1 :]).max()
                    )
                    if bound >= _NP_CAP:
                        raise _Overflow
                    D[:, t + 1 :] -= D[:, t][:, None] * q[None, :]
                rowr = D[t, t + 1 :]
                if rowr.any():
                    j = int(np.argmin(np.where(rowr != 0, np.abs(rowr), np.iinfo(np.int64).max)))
                    D[:, [t, t + 1 + j]] = D[:, [t + 1 + j, t]]
                    continue
            piv = int(D[t, t])
            rem = D[t + 1 :, t + 1 :]
            if rem.size:
                bad = np.nonzero(rem % piv)
                if bad[0].size:
                    i = int(bad[0][0]) + t + 1
                    if int(np.abs(D[t]).max()) + int(np.abs(D[i]).max()) >= _NP_CAP:
                        raise _Overflow
                    D[t] += D[i]
                    continue
            break
        invs.append(abs(int(D[t, t])))
        t += 1
    return invs


def snf_invariants(A: IntMatrix):
    """Invariant factors d1 | d2 | ... of A's row lattice (no transforms)."""
    rows = A.tolist()
    if not rows or not A.ncols:
        return []
    if max((abs(x) for row in rows for x in row), default=0) < _NP_CAP:
        try:
            return _snf_invariants_np(rows, A.ncols)
        except _Overflow:
            pass
    return _snf_invariants_py(rows, A.ncols)


def snf(A: IntMatrix) -> SmithDecomposition:
    """Full Smith decomposition U*A*V = D with transforms.

    Pure Python; intended for moderate sizes.  The invariant-only variant
    `snf_invariants` is the fast path for large quotients.
    """
    m, n = A.nrows, A.ncols
    D = A.tolist()
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t = 0
    while t < m and t < n:
        best = None
        bestval = 0
        for i in range(t, m):
            for j in range(t, n):
                v = D[i][j]
                if v and (best is None or abs(v) < bestval):
                    best, bestval = (i, j), abs(v)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            D[t], D[bi] = D[bi], D[t]
            U[t], U[bi] = U[bi], U[t]
        if bj != t:
            for row in D:
                row[t], row[bj] = row[bj], row[t]
            for row in V:
                row[t], row[bj] = row[bj], row[t]
        while True:
            piv = D[t][t]
            col_dirty = False
            for i in range(t + 1, m):
                v = D[i][t]
                if v:
                    q = v // piv
                    if q:
                        for j in range(n):
                            D[i][j] -= q * D[t][j]
                        for j in range(m):
                            U[i][j] -= q * U[t][j]
                    if D[i][t]:
                        col_dirty = True
            if col_dirty:
                bi = min((i for i in range(t, m) if D[i][t]), key=lambda i: abs(D[i][t]))
                if bi != t:
                    D[t], D[bi] = D[bi], D[t]
                    U[t], U[bi] = U[bi], U[t]
                continue
            piv = D[t][t]
            row_dirty = False
            for j in range(t + 1, n):
                v = D[t][j]
                if v:
                    q = v // piv
                    if q:
                        for row in D:
                            row[j] -= q * row[t]
                        for row in V:
                            row[j] -= q * row[t]
                    if D[t][j]:
                        row_dirty = True
            if row_dirty:
                bj = min((j for j in range(t, n) if D[t][j]), key=lambda j: abs(D[t][j]))
                if bj != t:
                    for row in D:
                        row[t], row[bj] = row[bj], row[t]
                    for row in V:
                        row[t], row[bj] = row[bj], row[t]
                continue
            piv = D[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(n):
                D[t][j] += D[offender][j]
            for j in range(m):
                U[t][j] += U[offender][j]
        if D[t][t] < 0:
            for j in range(n):
                D[t][j] = -D[t][j]
            for j in range(m):
                U[t][j] = -U[t][j]
        t += 1
    return SmithDecomposition(
        IntMatrix(U, ncols=m), IntMatrix(D, ncols=n), IntMatrix(V, ncols=n), rank=t
    )


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

