"""Exact integer linear algebra: Hermite bases, coordinates against them,
kernels and Smith invariant factors (`hnf_basis`, `hnf_coordinates`,
`kernel_basis`, `snf_invariants`, and `snf_rows` on row lists it takes
over).

Everything here is exact: an IntMatrix holds its entries as a tuple of
rows, each a tuple of Python ints, so no size of entry needs a second
path.  There are two eliminations, Hermite and back-substitution, each
written once; Smith invariants come from alternating Hermite passes on
rows and on columns.  They run on lists of rows copied off the matrix,
stored back as one IntMatrix.  A step rewrites only the rows with a
nonzero entry in the pivot column, walking only the nonzero entries of
the pivot row.  The pivot rule is the smallest nonzero absolute value,
ties broken by position.  A product likewise walks only the nonzero
entries of both factors, unless one is a permutation matrix:
`permutation_matrix` keeps the index list it was built from, and a
product with it is an index gather of the other factor's rows (on the
left) or columns (on the right), with the value of the dense product.
`snf_rows` runs the Smith passes on the caller's own lists, uncopied.

Row-vector convention throughout: lattice elements are rows, maps act by
right multiplication, `kernel_basis(A)` solves x*A = 0.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, compress
from math import gcd
from operator import itemgetter


class IntMatrix:
    """Dense integer matrix with unbounded entries.

    Immutable: `data` is the tuple of rows, each a tuple of Python ints;
    callers pass ints, which are not checked entry by entry.  An explicit
    column count disambiguates matrices with zero rows.  `images` is the
    index list of a matrix that `permutation_matrix` built, None for any
    other; equality and hashing read the entries only.
    """

    __slots__ = ("data", "nrows", "ncols", "images")

    def __init__(self, rows, ncols=None):
        data = tuple(map(tuple, rows))
        if len(set(map(len, data))) > 1:
            raise ValueError("ragged rows")
        if data:
            if ncols is not None and ncols != len(data[0]):
                raise ValueError("ncols does not match row length")
            ncols = len(data[0])
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", ncols or 0)
        object.__setattr__(self, "images", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def identity(n):
        return permutation_matrix(range(n))

    def tolist(self):
        return [list(row) for row in self.data]

    def is_zero(self):
        return not any(map(any, self.data))

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        n = other.ncols
        if self.images is not None:
            # row p of P*M is row images[p] of M
            if other.images is not None:
                return permutation_matrix([other.images[q] for q in self.images])
            data = other.data
            return _unchecked(tuple([data[q] for q in self.images]), n)
        if other.images is not None:
            # column j of M*P is column k of M for the k with images[k] = j
            if n < 2:
                return self
            inverse = [0] * n
            for k, j in enumerate(other.images):
                inverse[j] = k
            return _unchecked(tuple(map(itemgetter(*inverse), self.data)), n)
        lines = [_line(row, 0) for row in other.data]
        out = []
        for row in self.data:
            acc = [0] * n
            for k, a in _line(row, 0):
                for j, x in lines[k]:
                    acc[j] += a * x
            out.append(acc)
        return IntMatrix(out, n)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.ncols == other.ncols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ncols, self.data))

    def __repr__(self):
        if self.nrows * self.ncols <= 36:
            return f"IntMatrix({self.tolist()})"
        big = max(map(abs, chain.from_iterable(self.data)))
        return f"IntMatrix(<{self.nrows}x{self.ncols}>, max|entry|={big})"


def _unchecked(data, ncols, images=None):
    """The IntMatrix on data, a tuple of rows that are tuples of length
    ncols, built without the constructor's copy and checks."""
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "data", data)
    object.__setattr__(m, "nrows", len(data))
    object.__setattr__(m, "ncols", ncols)
    object.__setattr__(m, "images", images)
    return m


def permutation_matrix(images):
    """The square 0/1 matrix whose row p is the unit row at images[p].

    It keeps the list images, and a product with it on either side is
    an index gather of the other factor's rows or columns."""
    images = tuple(images)
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError("images is not a permutation of range(n)")
    zero = (0,) * n
    rows = tuple(zero[:q] + (1,) + zero[q + 1:] for q in images)
    return _unchecked(rows, n, images)


class AbelianInvariants(namedtuple("AbelianInvariants", "free_rank torsion")):
    """A finitely generated abelian group Z^free_rank + sum Z/t_i.

    Torsion entries are > 1 and each divides the next.  A named tuple:
    equal to the plain tuple (free_rank, torsion), and immutable.
    """

    __slots__ = ()

    def __new__(cls, free_rank, torsion):
        torsion = tuple(int(t) for t in torsion)
        if free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"torsion not in divisibility order: {torsion}")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion entries must be > 1")
        return super().__new__(cls, free_rank, torsion)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " x ".join(parts) if parts else "0"


def _line(row, start):
    """The nonzero (index, entry) pairs of row, from start on."""
    return [(j, row[j]) for j in compress(range(start, len(row)), row[start:])]


def _smallest(W, rows, c):
    """The one of rows whose entry in column c of W has the smallest
    |value|, the first on ties; every such entry is nonzero.  The search
    stops at the first |value| 1, which no entry undercuts."""
    best, low = rows[0], abs(W[rows[0]][c])
    for i in rows:
        if low == 1:
            break
        a = abs(W[i][c])
        if a < low:
            best, low = i, a
    return best


def _hermite(W):
    """Row echelon elimination of the list W of integer rows, in place,
    across all its columns; returns W.  The pivots are positive and the
    zero rows come last.

    Each column's pivot is its smallest nonzero |entry|, the first on
    ties; a pivot of 1 or -1 leaves every remainder 0, so its column is
    not scanned again.  A step rewrites only the rows with a nonzero
    entry in the pivot column, walking the pivot row's nonzero entries
    from the pivot column on (before it, the row is zero).  Entries
    above the pivots are left as they are: `_reduce_above` reduces them
    where a Hermite basis is wanted (`hnf_basis`, `kernel_basis`).
    """
    m = len(W)
    ncols = len(W[0]) if m else 0
    r = 0
    for c in range(ncols):
        if r == m:
            break
        rows = [i for i in range(r, m) if W[i][c]]
        if not rows:
            continue
        i = _smallest(W, rows, c)
        W[r], W[i] = W[i], W[r]
        # the rows below r still nonzero in column c once row i is swapped up
        rows = rows[1:] if rows[0] == r else [k for k in rows if k != i]
        while rows:
            p = W[r][c]
            line = _line(W[r], c)
            for k in rows:
                row = W[k]
                q = row[c] // p
                for j, x in line:
                    row[j] -= q * x
            if p == 1 or p == -1:
                # a unit pivot leaves no remainder: the column is clear
                break
            rows = [k for k in rows if W[k][c]]
            if rows:
                # a remainder is smaller than the pivot, so the next pivot is one
                # of them, and the old pivot row it swaps with stays nonzero
                i = _smallest(W, rows, c)
                W[r], W[i] = W[i], W[r]
        if W[r][c] < 0:
            W[r] = [-x for x in W[r]]
        r += 1
    return W


def _reduce_above(W):
    """Reduce the entries above the pivots of the list of rows W, in row
    echelon form with positive pivots and no zero rows, into [0, pivot),
    in place, pivot by pivot from the top; returns W.  Done once after
    the elimination: doing it eagerly lets intermediate entries snowball.
    """
    # the first pivot row has no rows above it
    for r in range(1, len(W)):
        pivot_row = W[r]
        c = next(compress(range(len(pivot_row)), pivot_row))
        p = pivot_row[c]
        line = None
        for row in W[:r]:
            q = row[c] // p
            if q:
                line = line or _line(pivot_row, c)
                for j, x in line:
                    row[j] -= q * x
    return W


def hnf_basis(A: IntMatrix) -> IntMatrix:
    """Nonzero rows of the Hermite form: a canonical basis of A's row lattice."""
    return IntMatrix(_reduce_above([row for row in _hermite(A.tolist()) if any(row)]), A.ncols)


def _back_substitute(H, B):
    """The rows X with X*H = B, for the lists of rows H, in Hermite form
    without zero rows, and B, which is reduced in place; None when some
    row of B has none."""
    lines = []
    for h in H:
        c = next(j for j, x in enumerate(h) if x)
        lines.append((c, h[c], _line(h, c)))
    X = []
    for b in B:
        coords = []
        for c, p, line in lines:
            q, rem = divmod(b[c], p)
            if rem:
                return None
            if q:
                for j, x in line:
                    b[j] -= q * x
            coords.append(q)
        if any(b):
            return None
        X.append(coords)
    return X


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
    X = _back_substitute(H.tolist(), B.tolist())
    return None if X is None else IntMatrix(X, H.nrows)


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Hermite basis of the left integer kernel {x : x*A = 0}, as rows.

    One elimination of [A | I] across all its columns: its rows with a
    zero A-part hold, in their I-part, the rows x of a unimodular U with
    x*A = 0 past A's rank, which span the whole kernel (the basis is
    saturated), already in row echelon form; reducing above their pivots
    makes them the kernel's Hermite basis, the rows hnf_basis would give.
    """
    n, m = A.ncols, A.nrows
    zero = (0,) * m
    W = []
    for i, row in enumerate(A.data):
        w = [*row, *zero]
        w[n + i] = 1
        W.append(w)
    K = [row[n:] for row in _hermite(W) if not any(row[:n])]
    return IntMatrix(_reduce_above(K), m)


def snf_invariants(A: IntMatrix):
    """Invariant factors d1 | d2 | ... of A's row lattice (no transforms),
    by `snf_rows` on a copy of A's rows."""
    return snf_rows(A.tolist())


def snf_rows(W):
    """Invariant factors d1 | d2 | ... of the row lattice of W, a list of
    integer rows as lists, which it takes over: W and its rows are
    overwritten, so a caller that builds its rows as lists hands them
    over without a second copy.

    Hermite passes alternate on rows and columns: each takes the nonzero
    rows H of `_hermite` (with no pass above the pivots, which changes no
    pivot) and hands H's transpose to the next, until H is diagonal.  If
    every pivot of a pass is 1, the pivot columns hold a unit-triangular
    minor of full rank, and every invariant is 1.

    Termination: after two passes H is square, upper triangular and of
    full rank.  Let t be the first index whose row and column are not yet
    zero off H[t][t].  A row pass makes H[t][t] the gcd of its column,
    the previous pass's row t, so each pass replaces H[t][t] by a
    divisor.  When the value stays, it divides that column, whose row t
    is H[t][t]*e_t; the pivot rule (smallest |entry|, first on ties)
    picks that row, so the pass clears row t and column t for good.  The diagonal is then put in divisibility
    order by pairwise gcd/lcm over its entries > 1.
    """
    while True:
        H = [row for row in _hermite(W) if any(row)]
        if all(next(filter(None, row)) == 1 for row in H):
            return [1] * len(H)
        if all(row[i] and row.count(0) == len(row) - 1 for i, row in enumerate(H)):
            break
        W[:] = [list(col) for col in zip(*H)]
    big = [row[i] for i, row in enumerate(H) if row[i] > 1]
    for i in range(len(big)):
        for j in range(i + 1, len(big)):
            g = gcd(big[i], big[j])
            big[i], big[j] = g, big[i] // g * big[j]
    return [1] * (len(H) - len(big)) + big
