"""Cohomology of G-lattices.

Tate H^-1 is the torsion of one Smith form; the pipeline takes its H^1
from it by duality, and `sha2_omega` takes Sha^2_omega from one more
Smith form by the same duality.  `h1` computes H^1 from a finite
presentation of the acting group instead, as the tests' cross-check
only, and the presentation catalog exists for it: a 1-cocycle is
determined by its generator values, subject to one linear condition per
relator.  The cocycle rule for right modules is fixed once and for all
as

    c(uv) = c(u) * rho(v) + c(v),      c(x^-1) = -c(x) * rho(x)^-1,

so coboundaries are m |-> m * rho(x) - m.  Unknown counts scale with the
generator count rather than |G|; a brute-force bar-complex computation
exists in the test suite as an independent oracle for small groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InternalCheckError, NormOneError
from .intmat import (
    AbelianInvariants, IntMatrix, exact_array, hstack, kernel_basis,
    quotient_invariants, snf_invariants, vstack,
)
from .lattices import GLattice, LatticeMap, chevalley_module, dual, induced
from .perms import Permutation, PermGroup, cyclic_subgroup_classes

SHA_ORDER_CAP = 24


@dataclass(frozen=True)
class Presentation:
    """Finite presentation with a permutation image for each generator.

    Words are tuples of nonzero ints, +k / -k for the k-th generator and
    its inverse.   The images need not be the group's stored generators;
    they only have to generate.
    """

    ngens: int
    relators: tuple
    images: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "relators",
                           tuple(tuple(int(x) for x in w) for w in self.relators))
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.ngens:
            raise ValueError("one image per generator required")
        for w in self.relators:
            for letter in w:
                if letter == 0 or abs(letter) > self.ngens:
                    raise ValueError(f"bad letter {letter}")

    def evaluate(self, word) -> Permutation:
        if not self.images:
            raise ValueError("presentation has no generators")
        p = Permutation.identity(self.images[0].degree)
        for letter in word:
            g = self.images[abs(letter) - 1]
            p = p * (g if letter > 0 else g.inverse())
        return p


_catalog = {}
_validated = set()


def presentation_catalog(G: PermGroup) -> Presentation:
    """Catalog presentation for groups built by the perms constructors."""
    if G.kind is None:
        raise NormOneError(f"no catalog presentation for {G.label}")
    got = _catalog.get(G.kind)
    if got is None:
        got = _build_presentation(G)
        _catalog[G.kind] = got
    _ensure_valid(got, G)
    return got


def _build_presentation(G: PermGroup) -> Presentation:
    kind, param = G.kind
    if kind == "C":
        n = param
        if n == 1:
            return Presentation(0, (), (), "C1")
        return Presentation(1, ((1,) * n,), (G.generators[0],), f"C{n}")
    if kind == "C*":
        parts = [p for p in param if p > 1]
        rels = []
        for k, p in enumerate(parts):
            rels.append((k + 1,) * p)
        for k in range(len(parts)):
            for l in range(k + 1, len(parts)):
                rels.append((k + 1, l + 1, -(k + 1), -(l + 1)))
        return Presentation(len(parts), tuple(rels), G.generators, G.label)
    if kind == "D":
        n = param
        if n == 1:
            return Presentation(1, ((1, 1),), (G.generators[0],), "D1")
        rels = ((1,) * n, (2, 2), (1, 2, 1, 2))
        return Presentation(2, rels, G.generators, f"D{n}")
    if kind == "S":
        n = param
        if n == 1:
            return Presentation(0, (), (), "S1")
        images = tuple(Permutation.from_cycles([(i, i + 1)], degree=n)
                       for i in range(1, n))
        rels = []
        for i in range(1, n):
            rels.append((i, i))
        for i in range(1, n - 1):
            rels.append((i, i + 1) * 3)
        for i in range(1, n):
            for j in range(i + 2, n):
                rels.append((i, j) * 2)
        return Presentation(n - 1, tuple(rels), images, f"S{n}")
    if kind == "A":
        n = param
        if n <= 2:
            return Presentation(0, (), (), G.label)
        t1 = Permutation.from_cycles([(1, 2)], degree=n)
        images = tuple(
            t1 * Permutation.from_cycles([(i + 1, i + 2)], degree=n)
            for i in range(1, n - 1)
        )
        if n == 3:
            return Presentation(1, ((1, 1, 1),), images, "A3")
        rels = [(1, 1, 1)]
        for i in range(2, n - 1):
            rels.append((i, i))
        for i in range(1, n - 2):
            rels.append((i, i + 1) * 3)
        for i in range(1, n - 1):
            for j in range(i + 2, n - 1):
                rels.append((i, j) * 2)
        return Presentation(n - 2, tuple(rels), images, f"A{n}")
    raise NormOneError(f"no catalog presentation for kind {kind!r}")


def _ensure_valid(P: Presentation, G: PermGroup):
    """Images satisfy the relators, generate G, and the presented group
    has the right order (checked once by coset enumeration)."""
    key = (G.kind, id(P))
    if key in _validated:
        return
    for w in P.relators:
        if not P.evaluate(w).is_identity():
            raise InternalCheckError(f"catalog relator {w} fails on images")
    if P.ngens:
        span = G.elements_with_words(alphabet=P.images)
        if len(span) != G.order():
            raise InternalCheckError("presentation images do not generate")
        from .fpgroups import FpGroup, todd_coxeter
        table = todd_coxeter(FpGroup(P.ngens, P.relators), ())
        if table.coset_count != G.order():
            raise InternalCheckError(
                f"presentation of {G.label} enumerates to {table.coset_count}, "
                f"expected {G.order()}")
    _validated.add(key)


class _H1Data:
    """Everything h1 computes: generator matrices, cocycles, coboundaries."""

    __slots__ = ("mats", "invs", "Z1", "B1")

    def __init__(self, mats, invs, Z1, B1):
        self.mats = mats
        self.invs = invs
        self.Z1 = Z1
        self.B1 = B1

    def value_at(self, values, word):
        """Value of the cocycle with the given generator values at the
        element word (over presentation generators), as a list."""
        values = [exact_array(v) for v in values]
        acc = np.zeros_like(values[0])
        for letter in word:
            j = abs(letter) - 1
            if letter > 0:
                acc = acc @ self.mats[j] + values[j]
            else:
                acc = (acc - values[j]) @ self.invs[j]
        return acc.tolist()


def _relator_blocks(word, mats, invs, R):
    """Coefficient blocks B_j with c(word) = sum_j c_j * B_j.

    Built from suffix products: the letter at position k contributes
    T_k (or -rho^-1 * T_k for an inverse letter) to its generator's block,
    where T_k is rho of the suffix after position k.
    """
    s = len(mats)
    suffix = [None] * (len(word) + 1)
    suffix[len(word)] = IntMatrix.identity(R)
    for k in range(len(word) - 1, -1, -1):
        letter = word[k]
        m = mats[letter - 1] if letter > 0 else invs[-letter - 1]
        suffix[k] = m * suffix[k + 1]
    blocks = [IntMatrix.zeros(R, R) for _ in range(s)]
    for k, letter in enumerate(word):
        j = abs(letter) - 1
        contrib = suffix[k + 1] if letter > 0 else -(invs[j] * suffix[k + 1])
        blocks[j] = blocks[j] + contrib
    return blocks


def h1_data(L: GLattice, P: Presentation) -> _H1Data:
    """Cocycles Z1 and coboundaries B1 of L, over P's generator values.

    Z1 is the lattice of generator values that every relator's blocks
    kill, found by one kernel of all the blocks side by side; its rows
    are a saturated basis with full row rank.  B1 holds the coboundaries
    of L's basis vectors.
    """
    G = L.group
    if P.ngens == 0:
        empty = IntMatrix([], ncols=0)
        return _H1Data((), (), empty, IntMatrix([], ncols=0))
    span = G.elements_with_words(alphabet=P.images)
    if len(span) != G.order():
        raise ValueError("presentation images do not generate the acting group")
    mats = tuple(L.matrix_of(img) for img in P.images)
    invs = tuple(L.matrix_of(img.inverse()) for img in P.images)
    R = L.rank
    blocks = [vstack(*_relator_blocks(w, mats, invs, R)) for w in P.relators if w]
    Z1 = kernel_basis(hstack(*blocks)) if blocks else IntMatrix.identity(P.ngens * R)
    ident = IntMatrix.identity(R)
    B1 = hstack(*[m - ident for m in mats]) if R else IntMatrix([], ncols=0)
    return _H1Data(mats, invs, Z1, B1)


def h1(L: GLattice, P: Presentation) -> AbelianInvariants:
    """H^1(G, L) as invariant factors, via the presentation."""
    if L.rank == 0 or P.ngens == 0:
        return AbelianInvariants(0, ())
    data = h1_data(L, P)
    try:
        inv = quotient_invariants(data.Z1, data.B1)
    except ValueError as exc:
        raise InternalCheckError(
            f"coboundaries escape the cocycle lattice over {L.group.label}: "
            f"{exc}") from exc
    if inv.free_rank:
        raise InternalCheckError(
            f"H^1 came out with free rank {inv.free_rank} over {L.group.label} "
            f"(rank {L.rank}); the action is broken")
    return inv


def _norm_matrix(rho: IntMatrix, m: int) -> IntMatrix:
    acc = IntMatrix.identity(rho.nrows)
    cur = IntMatrix.identity(rho.nrows)
    for _ in range(m - 1):
        cur = cur * rho
        acc = acc + cur
    return acc


def tate_cyclic(c: Permutation, L: GLattice):
    """(Tate H^0, H^1) of the cyclic group <c> acting on L.

    With N = 1 + rho + ... + rho^(m-1):  H^0 = fixed / image(N),
    H^1 = ker(N) / image(rho - 1).
    """
    if L.rank == 0:
        return AbelianInvariants(0, ()), AbelianInvariants(0, ())
    m = c.order()
    rho = L.matrix_of(c)
    ident = IntMatrix.identity(L.rank)
    N = _norm_matrix(rho, m)
    diff = rho - ident
    return (quotient_invariants(kernel_basis(diff), N),
            quotient_invariants(kernel_basis(N), diff))


def tate_minus1(S, L: GLattice) -> AbelianInvariants:
    """Tate H^-1(S, L) = ker(N_S) / L*I_S.

    Computed as the torsion of L / L*I_S: over Q the module splits as
    fixed part plus ker(N_S), N_S is invertible on the fixed part, so
    ker(N_S) and L*I_S span the same subspace and the quotient is exactly
    the torsion of the coinvariants.  The augmentation ideal I_S is
    generated by s - 1 over the generators s of S, so only generator
    matrices enter.  The literal ker/image formula is kept as a test
    oracle.
    """
    gens = S.generators
    if not gens or L.rank == 0:
        return AbelianInvariants(0, ())
    ident = IntMatrix.identity(L.rank)
    stacked = vstack(*[L.matrix_of(s) - ident for s in gens])
    d = snf_invariants(stacked)
    return AbelianInvariants(0, tuple(x for x in d if x > 1))


@dataclass(frozen=True)
class ShiftData:
    """0 -> L -> Ind(L) -> shifted -> 0, with explicit maps."""

    embed: LatticeMap
    shifted: GLattice
    project: LatticeMap


def dimension_shift(L: GLattice) -> ShiftData:
    """Cokernel of the split embedding L -> Ind(L); shifts Tate degree by one.

    The embedding sends v to sum_x x (x) v, so its rows and the basis
    vectors x (x) e_j with x past the first element x0 form a basis of
    Ind(L).  In it, the coordinate of w on x (x) e_j is w[x, j] - w[x0, j]:
    that is the projection onto the cokernel, and the vectors x (x) e_j
    themselves are the section.
    """
    I, emb = induced(L)
    R, N = L.rank, I.rank
    proj = IntMatrix(np.vstack([-np.tile(np.eye(R, dtype=np.int64), len(L.group.elements()) - 1),
                                np.eye(N - R, dtype=np.int64)]))
    mats = [IntMatrix(a.array[R:] @ proj) for a in I.action]
    shifted = GLattice(L.group, N - R, mats,
                       label=f"shift({L.label})" if L.label else None)
    if not (emb.matrix * proj).is_zero():
        raise InternalCheckError("projection does not kill the embedded copy")
    return ShiftData(emb, shifted, LatticeMap(I, shifted, proj))


def sha2_omega(G: PermGroup, H) -> AbelianInvariants:
    """Sha^2_omega(G, J_{G/H}), the kernel of restriction from H^2(G, J)
    to all cyclic subgroups, as the torsion of one Smith form.

    Dimension shifting gives H^2(S, J) = H^1(S, J1) for every subgroup S,
    and H^1(S, J1) is dual to Tate H^-1(S, M) = ker(N_S) / M*I_S for
    M = dual(J1) (Brown, Cohomology of Groups, VI.7), the duality the
    pipeline uses.  Restriction G -> C is dual to corestriction C -> G,
    which on Tate H^-1 is induced by the identity of M.  So Sha^2_omega is
    dual to

        ker(N_G) / (M*I_G + sum over cyclic C of ker(N_C)),

    and a finite abelian group has the invariants of its dual.  One
    cyclic subgroup per class suffices: a conjugate contributes
    ker(N_C) * rho(g), equal to ker(N_C) modulo M*I_G.  Each ker(N_C) lies
    in ker(N_G), the saturation of M*I_G, so the quotient is the torsion
    of Z^r modulo the stacked rows of rho(s) - 1 over the generators s and
    a basis of each ker(N_C).  Small |G| only: M has rank
    (|G|-1) * rank(J).

    Self-checks: J^G = 0 gives (J1)^G, hence M^G, rank rank(J), so the
    Smith rank, that of M*I_G, is rank(M) - rank(J); a ker(N_C) row
    outside ker(N_G) would raise it.  Every invariant divides |G|, which
    kills H^2(G, J).
    """
    if G.order() > SHA_ORDER_CAP:
        raise CapExceeded(f"|G|={G.order()} exceeds the sha2 cap {SHA_ORDER_CAP}")
    J = chevalley_module(G, H)
    M = dual(dimension_shift(J).shifted)
    if M.rank == 0:
        return AbelianInvariants(0, ())
    ident = IntMatrix.identity(M.rank)
    rows = [M.matrix_of(s) - ident for s in G.generators]
    for cls in cyclic_subgroup_classes(G):
        m = cls.order()
        gen = next(e for e in cls.elements() if e.order() == m)
        rows.append(kernel_basis(_norm_matrix(M.matrix_of(gen), m)))
    d = snf_invariants(vstack(*rows))
    if len(d) != M.rank - J.rank:
        raise InternalCheckError(
            f"sha2_omega over {G.label} has Smith rank {len(d)}, expected "
            f"{M.rank - J.rank}: a cyclic norm kernel escapes ker(N_G)")
    torsion = tuple(x for x in d if x > 1)
    if any(G.order() % x for x in torsion):
        raise InternalCheckError(
            f"sha2_omega over {G.label} has invariants {torsion} not "
            f"dividing |G|={G.order()}")
    return AbelianInvariants(0, torsion)
