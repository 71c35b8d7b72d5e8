"""Cohomology of G-lattices.

Tate H^-1 is the torsion of one Smith form; the pipeline takes its H^1
from it by duality, and `sha2_omega` takes Sha^2_omega from one more
Smith form by the same duality, over the kernel of a free cover
Z[G]^r -> I_{G/H} of the augmentation ideal.  `h1` computes H^1 from a finite
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
from functools import reduce

import numpy as np

from .errors import CapExceeded, InternalCheckError, NormOneError
from .intmat import (
    AbelianInvariants, IntMatrix, exact_array, hnf_basis, hstack,
    kernel_basis, quotient_invariants, snf_invariants, vstack,
)
from .lattices import (
    GLattice, LatticeMap, _restricted_action, augmentation_ideal, direct_sum,
    perm_lattice,
)
from .perms import (
    Permutation, PermGroup, cyclic_subgroup_classes, right_transversal,
)

SHA_ORDER_CAP = 360


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


def _free_cover(G: PermGroup, H: PermGroup) -> LatticeMap:
    """The free cover Z[G]^r -> I_{G/H} of `sha2_omega`, checked to be
    onto; each copy of Z[G] is perm_lattice(G, 1), on G.elements()."""
    I, _ = augmentation_ideal(G, H)
    picked = []
    span = H
    for s in G.generators:
        if span.order() == G.order():
            break
        if s not in span:
            picked.append(s)
            span = G.subgroup(list(H.generators) + picked)
    # e_g in copy j goes to the coset of g minus that of s_j*g, whose
    # coordinates in I's basis coset_i - coset_last are its first d-1
    T, coset_of = right_transversal(G, H)
    eye = np.eye(len(T), dtype=np.int64)
    images = np.array([eye[coset_of[g.images]] - eye[coset_of[(s * g).images]]
                       for s in picked for g in G.elements()])[:, :-1]
    free = reduce(direct_sum, [perm_lattice(G, G.trivial_subgroup())] * len(picked))
    cover = LatticeMap(free, I, IntMatrix(images))
    if hnf_basis(cover.matrix) != IntMatrix.identity(I.rank):
        raise InternalCheckError(f"free cover of I over {G.label} is not onto")
    return cover


def sha2_omega(G: PermGroup, H) -> AbelianInvariants:
    """Sha^2_omega(G, J_{G/H}), the kernel of restriction from H^2(G, J)
    to all cyclic subgroups, as the torsion of one Smith form.

    Cover I = I_{G/H} by Z[G]^r, sending e_g in copy j to (H - H*s_j)*g.
    The s_j are taken greedily from G's generators, each only when it is
    outside <H, s_1, ..., s_(j-1)>, until that group is G.  They generate
    I, since H - H*gs = (H - H*s) + (H - H*g)*s and H - H*hs = H - H*s for
    h in H.  Each pick at least doubles the subgroup, so r <= log2 [G:H],
    and the kernel K has rank r|G| - ([G:H] - 1), at most
    (|G| - 1)([G:H] - 1), with equality only at index 2, where r = 1.
    The transpose 0 -> J -> Z[G]^r -> dual(K) -> 0 has a free middle
    term, so H^2(S, J) = H^1(S, dual K) for every subgroup S, naturally
    in S, and that is dual to Tate H^-1(S, K) = ker(N_S) / K*I_S (Brown,
    Cohomology of Groups, VI.7), the duality the pipeline uses.
    Restriction G -> C is dual to corestriction C -> G, which on Tate
    H^-1 is induced by the identity of K.  So Sha^2_omega is dual to

        ker(N_G) / (K*I_G + sum over cyclic C of ker(N_C)),

    and a finite abelian group has the invariants of its dual.  One
    cyclic subgroup per class suffices: a conjugate contributes
    ker(N_C) * rho(g), equal to ker(N_C) modulo K*I_G.  Each ker(N_C) lies
    in ker(N_G), the saturation of K*I_G, so the quotient is the torsion
    of Z^rank(K) modulo the stacked rows of rho(s) - 1 over the generators
    s and a basis of each ker(N_C), the kernel of K*N_C on Z[G]^r.

    Self-checks: the cover is onto.  K^G has rank r, since (Z[G]^r)^G has
    rank r and I^G = 0, so the Smith rank, that of K*I_G, is
    rank(K) - r; a ker(N_C) row outside ker(N_G) would raise it.  Every
    invariant divides |G|, which kills H^2(G, J).
    """
    if G.order() > SHA_ORDER_CAP:
        raise CapExceeded(f"|G|={G.order()} exceeds the sha2 cap {SHA_ORDER_CAP}")
    cover = _free_cover(G, H)
    free = cover.source
    K = hnf_basis(kernel_basis(cover.matrix))
    ident = IntMatrix.identity(K.nrows)
    rows = [a - ident for a in _restricted_action(K, free)]
    number, table, _ = G.multiplication_table()
    copies = K.array.reshape(K.nrows, -1, G.order())
    for cls in cyclic_subgroup_classes(G):
        # column g of K*rho(c^-1) is column g*c of K, copy by copy, and
        # summed over the elements c of C these make K*N_C
        KN = sum(copies[:, :, table[number[c.images]]] for c in cls.elements())
        rows.append(kernel_basis(IntMatrix(KN.reshape(K.nrows, free.rank))))
    d = snf_invariants(vstack(*rows))
    r = free.rank // G.order()
    if len(d) != K.nrows - r:
        raise InternalCheckError(
            f"sha2_omega over {G.label} has Smith rank {len(d)}, expected "
            f"{K.nrows - r}: a cyclic norm kernel escapes ker(N_G)")
    torsion = tuple(x for x in d if x > 1)
    if any(G.order() % x for x in torsion):
        raise InternalCheckError(
            f"sha2_omega over {G.label} has invariants {torsion} not "
            f"dividing |G|={G.order()}")
    return AbelianInvariants(0, torsion)
