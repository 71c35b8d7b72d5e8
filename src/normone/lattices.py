"""G-lattices: free Z-modules with a right action of a permutation group.

Actions are stored as one unimodular matrix per group generator; a row
vector v transforms as v * rho(g).  All the modules the pipeline needs
live here: coset permutation modules Z[G/H], the augmentation ideal, the
Chevalley module J_{G/H} (cokernel of 1 -> N_{G/H}), fixed sublattices,
and the action on a stable sublattice.  A permutation
lattice is one whose generator matrices are permutation matrices, built
from index lists (`intmat.permutation_matrix`); no tag marks it.

Maps between lattices are stored explicitly and checked for equivariance
at construction; silent transpose/side mistakes are the dominant failure
mode in this kind of code, so they fail fast instead.
"""

from __future__ import annotations

from itertools import chain

from .errors import InternalCheckError, UsageError
from .intmat import IntMatrix, hnf_coordinates, kernel_basis, permutation_matrix
from .perms import PermGroup, coset_moves, right_transversal


class GLattice:
    """Free Z-module of finite rank with a right action of a PermGroup.

    `action` holds rho(g) for each group generator g; any other element,
    inverses included, acts through `matrix_of`, a product of those.
    """

    __slots__ = ("group", "rank", "action", "label", "_matrix_cache")

    def __init__(self, group, rank, action, label=None):
        action = tuple(action)
        if len(action) != len(group.generators):
            raise ValueError("need one action matrix per group generator")
        for m in action:
            if m.nrows != rank or m.ncols != rank:
                raise ValueError("action matrix has wrong shape")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_matrix_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("GLattice is immutable; caches are internal")

    def matrix_of(self, p):
        """rho(p) for any group element, memoized by word.

        p's word is its stored word over the generators
        (`elements_with_words`).  Those words are closed under prefixes,
        so the cache is keyed by word: word[:i] gets rho(word[:i-1]) *
        rho(g_k) from its memoized prefix, a one-letter word is that
        generator's action matrix itself and the empty word the identity.
        Every element costs at most one product, and no permutation is
        multiplied.
        """
        word = self.group.elements_with_words().get(p)
        if word is None:
            raise ValueError("element is not in the acting group")
        cache = self._matrix_cache
        got = cache.get(word)
        if got is None:
            if not word:
                got = cache[word] = IntMatrix.identity(self.rank)
            else:
                got = self.action[word[0] - 1]
                for i in range(2, len(word) + 1):
                    prefix = word[:i]
                    nxt = cache.get(prefix)
                    if nxt is None:
                        nxt = cache[prefix] = got * self.action[word[i - 1] - 1]
                    got = nxt
        return got

    def __repr__(self):
        name = self.label or "GLattice"
        return f"{name}(rank={self.rank} over {self.group.label})"


class LatticeMap:
    """Equivariant map of G-lattices; v in source maps to v * matrix."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if source.group is not target.group:
            raise ValueError("maps must stay over one group")
        if matrix.nrows != source.rank or matrix.ncols != target.rank:
            raise ValueError("map matrix has wrong shape")
        for j in range(len(source.group.generators)):
            if source.action[j] * matrix != matrix * target.action[j]:
                raise InternalCheckError(
                    f"map is not equivariant for generator {j}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeMap is immutable")

    def __repr__(self):
        return f"LatticeMap({self.source!r} -> {self.target!r})"


def _coset_permutations(G: PermGroup, H: PermGroup):
    """The index d of H and, for each generator g, the d x d permutation
    matrix of g on the sorted canonical right cosets T of H: row i is the
    unit row of the coset of T[i]*g."""
    T, coset_of = right_transversal(G, H)
    return len(T), [permutation_matrix(m) for m in coset_moves(T, coset_of, G.generators)]


def check_index(G: PermGroup, H: PermGroup):
    """Refuse H = G: at index 1 the augmentation Z[G/H] -> Z is an
    isomorphism, so there is no augmentation ideal or Chevalley module."""
    if H.order() == G.order():
        raise UsageError("subgroup is the whole group; the quotient module "
                         "needs index >= 2")


def perm_lattice(G: PermGroup, H: PermGroup):
    """Z[G/H]: basis the sorted canonical right cosets, permuted by G."""
    d, perms = _coset_permutations(G, H)
    return GLattice(G, d, perms, label=f"Z[{G.label}/{H.describe()}]")


def chevalley_module(G: PermGroup, H: PermGroup) -> GLattice:
    """J_{G/H}: quotient of Z[G/H] by the norm element, rank d-1.

    Basis: the first d-1 canonical cosets; the last coset is dropped.
    A generator g sends basis row i to the row of coset sigma(i) when
    that is not the dropped one, and to the all-minus-one row otherwise:
    the leading (d-1) x (d-1) block of the permutation matrix minus its
    last column.
    """
    d, perms = _coset_permutations(G, H)
    check_index(G, H)
    mats = [IntMatrix([[x - row[-1] for x in row[:-1]] for row in p.data[:-1]], d - 1)
            for p in perms]
    return GLattice(G, d - 1, mats, label=f"J[{G.label}/{H.describe()}]")


def augmentation_ideal(G: PermGroup, H: PermGroup) -> GLattice:
    """The kernel of the augmentation Z[G/H] -> Z.

    Basis: coset_i - coset_last for i < d.  With that choice the action
    matrices coincide with those of dual(chevalley_module(G, H)).
    """
    P = perm_lattice(G, H)
    d = P.rank
    check_index(G, H)
    # coset_i - coset_last goes to coset_sigma(i) - coset_sigma(last)
    mats = [IntMatrix([[x - y for x, y in zip(row[:-1], p.data[-1])] for row in p.data[:-1]],
                      d - 1)
            for p in P.action]
    return GLattice(G, d - 1, mats, label=f"I[{G.label}/{H.describe()}]")


def minus_one_rows(mats):
    """The rows of rho - 1 for each square matrix rho of mats, one matrix
    after the other, as lists of Python ints."""
    rows = []
    for m in mats:
        for i, row in enumerate(m.data):
            row = list(row)
            row[i] -= 1
            rows.append(row)
    return rows


def minus_one_columns(L: GLattice, gens):
    """W = [rho(s) - 1 for s in gens, side by side], the rank x
    rank*len(gens) matrix whose left kernel is the sublattice fixed by
    gens, as lists of Python ints: row i of W is row i of each rho(s) - 1."""
    n = L.rank
    rows = minus_one_rows([L.matrix_of(s) for s in gens])
    return [list(chain.from_iterable(rows[i::n])) for i in range(n)]


def fixed_sublattice(L: GLattice, S: PermGroup) -> IntMatrix:
    """Hermite basis of the vectors fixed by every element of S: the
    kernel of the matrices rho(s) - 1 over S's generators side by side."""
    gens = S.generators
    if not gens:
        return IntMatrix.identity(L.rank)
    return kernel_basis(IntMatrix(minus_one_columns(L, gens), L.rank * len(gens)))


def _restricted_action(K: IntMatrix, L: GLattice):
    """Action on the sublattice spanned by the rows of K (must be stable).

    K is a Hermite basis (as kernel_basis returns it), so the
    coordinates of K*a in it come from back-substitution; K*a for every
    generator a is stacked so one pass serves them all.  The result is
    split into one matrix per generator.
    """
    r = K.nrows
    X = hnf_coordinates(K, IntMatrix([row for a in L.action for row in (K * a).data],
                                     ncols=K.ncols))
    if X is None:
        raise InternalCheckError("kernel is not stable under the action")
    return [IntMatrix(X.data[i * r:(i + 1) * r], ncols=r) for i in range(len(L.action))]
