"""Coflasque covers, the coflasque check, and the end-to-end invariant.

A coflasque cover 0 -> N -> Q -> L -> 0 is built from summands
Z[G/H'] (x) Z^f over subgroup class representatives H', evaluated by
(coset H'g, e_k) |-> v_k * rho(g) for f vectors v_k fixed by H'.  Q is
held as its list of summands, each the transversal of H', its coset map
and, at each coset, the images in L of the summand's f points there.
The points are the pairs (coset, k), and G moves only the coset, so the
vectors of Q fixed by a class S have a basis of orbit sums: for each
summand, each k and each orbit of S on the summand's cosets, the sum of
the points (coset, k) over the orbit.  Their images in L are read off
the coset orbits, with no action on Q built.  Classes are visited in
decreasing order.  When the summands so far do not cover
L^{H'}, the rows of its saturated basis are walked in order, and a row
becomes a v_k only if it is not yet in the lattice spanned by the images
of the H'-fixed vectors of the summands so far, those picked for H'
included; so the cover stays small (the same aim as the low-rank flabby
resolutions of Hoshi-Yamasaki).  Q is a permutation lattice, so
H^1(S, Q) = 0 and H^1(S, N) is the cokernel of Q^S -> L^S.  The greedy
pass leaves every class's fixed lattice covered, so N is coflasque by
construction.  The cover still checks the finished kernel once, with
`is_coflasque`, one Smith form per class: H^1(S, N) is dual to Tate
H^-1(S, dual N), whose invariants are those of the matrix of N's
rho(s) - 1 side by side, so no dual lattice is built.  Unlike a second
coverage test over the same class list, that check also catches a class
the pass never visited.

`is_coflasque` runs over the classes of prime-power order only, by
restriction to Sylow subgroups.  H^1(S, N) is killed by |S|.  For each
prime p, restriction to a Sylow p-subgroup P of S is injective on its
p-part, since corestriction after it is multiplication by [S:P], prime
to p.  P is conjugate to a class representative of prime-power order,
and conjugation carries the group of one onto that of the other.  So it
vanishes on every subgroup once it vanishes on those classes.  The
trivial class needs no check: H^1(1, N) = 0 says that Q -> L is onto,
which `Resolution` checks at construction.  The cover itself still
visits every class; covering only the prime-power ones makes it far
larger (S6: flasque rank 66 -> 450).

The headline computation is H^1(G, F) for the flasque term F of a
resolution 0 -> J -> P -> F -> 0 of the Chevalley module J of (G, H).
That resolution is the transpose of a coflasque cover 0 -> N -> P -> I -> 0
of the augmentation ideal I = dual J, with F = dual N (Colliot-Thelene -
Sansuc), so the pipeline builds only the cover.  By duality (Brown,
Cohomology of Groups, VI.7) H^1(G, F) is dual to Tate H^-1(G, N), the
torsion of one Smith form, so no presentation of G is needed; the tests
check it against H^1 from a presentation and from the bar complex, both
in `tests/oracles.py`.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from .cohomology import tate_minus1
from .errors import CapExceeded, InternalCheckError
from .intmat import (
    IntMatrix, hnf_basis, hnf_coordinates, kernel_basis, permutation_matrix,
    snf_invariants, snf_rows,
)
from .lattices import (
    GLattice, LatticeMap, _restricted_action, augmentation_ideal, check_index,
    fixed_sublattice, minus_one_columns,
)
from .perms import (
    SUBGROUP_CLASS_CAP, coset_moves, orbits, right_transversal, subgroup_classes,
)


class Resolution(namedtuple("Resolution", "base middle side inject project")):
    """A coflasque cover 0 -> side -> middle -> base -> 0, middle a
    permutation lattice; construction checks that the ranks add up, that
    the composite map is zero and that both maps are saturated."""

    __slots__ = ()

    def __new__(cls, base, middle, side, inject, project):
        if middle.rank != base.rank + side.rank:
            raise InternalCheckError("ranks are not additive")
        if inject.matrix.nrows and project.matrix.ncols:
            if not (inject.matrix * project.matrix).is_zero():
                raise InternalCheckError("composite of the two maps is nonzero")
        inv = snf_invariants(project.matrix)
        if len(inv) != project.target.rank or any(x != 1 for x in inv):
            raise InternalCheckError("middle term does not surject over Z")
        inv = snf_invariants(inject.matrix)
        if len(inv) != inject.source.rank or any(x != 1 for x in inv):
            raise InternalCheckError("injection is not saturated")
        return super().__new__(cls, base, middle, side, inject, project)


def _fixed_images(summand, gens):
    """The images in L of the vectors of a summand (T, coset_of, rows) of
    Q fixed by the group gens generate: for each orbit of that group on
    the summand's cosets and each picked vector k, the sum of rows[i][k]
    over the orbit's cosets i."""
    T, coset_of, rows = summand
    return [list(map(sum, zip(*[rows[i][k] for i in orbit])))
            for orbit in orbits(coset_moves(T, coset_of, gens), len(T))
            for k in range(len(rows[0]))]


def _prime_power_order(S):
    """Whether |S| is a power of a prime, the trivial group excluded: the
    classes on which `is_coflasque` runs."""
    n = S.order()
    p = next((p for p in range(2, n + 1) if n % p == 0), None)
    if p is None:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def coflasque_cover(L: GLattice, class_cap=SUBGROUP_CLASS_CAP, max_rank=None) -> Resolution:
    """0 -> N -> Q -> L -> 0 with Q permutation and N coflasque.

    The greedy pass adds summands over every class in decreasing order,
    so that Q^S -> L^S is onto for each; the image of Q^S is spanned by
    the orbit sums of S on each summand's cosets (`_fixed_images`).  Q's
    generator permutations and its map to L are built once, from the
    summands, after the pass.  The finished kernel N is then
    checked once by `is_coflasque` (see the module docstring); a failure
    raises InternalCheckError naming the witness class.  Every input takes
    this one path, a permutation lattice L included.
    """
    G = L.group
    # Q's summands (T, coset_of, rows): the summand's points are (coset i,
    # picked vector k), and rows[i][k] is the image in L of point (i, k)
    summands = []
    rank = 0
    for cls in subgroup_classes(G, cap=class_cap):
        F = fixed_sublattice(L, cls)
        if F.nrows == 0:
            continue
        span = hnf_basis(IntMatrix(
            [v for s in summands for v in _fixed_images(s, cls.generators)], L.rank))
        if hnf_coordinates(span, F) is not None:
            continue
        # walk the rows of F; a row outside the span so far is picked, and
        # its cls-fixed images join the span, so afterwards F lies in it
        T, coset_of = right_transversal(G, cls)
        # images[i][k] = F[k] * rho(T[i])
        images = [(F * L.matrix_of(t)).data for t in T]
        picked = []
        for k, row in enumerate(F.data):
            if hnf_coordinates(span, IntMatrix([row])) is not None:
                continue
            own = (T, coset_of, [[im[k]] for im in images])
            span = hnf_basis(IntMatrix([*span.data, *_fixed_images(own, cls.generators)], L.rank))
            picked.append(k)
        summands.append((T, coset_of, [[im[k] for k in picked] for im in images]))
        rank += len(T) * len(picked)
        if max_rank is not None and rank > max_rank:
            raise CapExceeded(f"cover rank {rank} exceeds --max-rank {max_rank}")
    # the points are numbered summand by summand, (i, k) i-major within
    # each, and g sends (i, k) to (coset of T[i]*g, k)
    moves = [[] for _ in G.generators]
    ev = []
    for T, coset_of, rows in summands:
        f = len(rows[0])
        for j, m in enumerate(coset_moves(T, coset_of, G.generators)):
            moves[j] += [len(ev) + i * f + k for i in m for k in range(f)]
        ev += [v for vs in rows for v in vs]
    Q = GLattice(G, len(ev), [permutation_matrix(m) for m in moves])
    project = LatticeMap(Q, L, IntMatrix(ev, L.rank))
    K = kernel_basis(project.matrix)
    nmats = _restricted_action(K, Q)
    N = GLattice(G, K.nrows, nmats)
    res = Resolution(L, Q, N, LatticeMap(N, Q, K), project)
    ok, witness = is_coflasque(N, class_cap=class_cap)
    if not ok:
        raise InternalCheckError(
            f"flasque term dual(N) is not flasque (witness {witness.describe()})")
    return res


def is_coflasque(L: GLattice, class_cap=SUBGROUP_CLASS_CAP):
    """(True, None) when H^1(S, L) vanishes for every subgroup S, else
    (False, offending class).

    For each class S of prime-power order (enough, by restriction to the
    Sylow subgroups; see the module docstring), H^1(S, L) is dual to
    Tate H^-1(S, dual L), which is the torsion of the Smith form of
    W_S = [rho(s) - 1, side by side] over S's generators s, the matrix
    whose kernel `fixed_sublattice` takes.  For Tate H^-1 of dual L
    stacks the rows of its generators' rho*(s) - 1, with
    rho*(s) = rho(s^-1)^T, and the transpose of that stack is W_S times
    the unimodular blocks -rho(s^-1) on the diagonal, since
    rho(s^-1) - 1 = (rho(s) - 1) * -rho(s^-1).  So no dual lattice is
    built.  The offending class is the first, in decreasing order, of
    prime-power order.
    """
    for cls in filter(_prime_power_order, subgroup_classes(L.group, cap=class_cap)):
        if any(d > 1 for d in snf_rows(minus_one_columns(L, cls.generators))):
            return False, cls
    return True, None


def norm_one_invariant(G, H, class_cap=SUBGROUP_CLASS_CAP, max_rank=None):
    """H^1 of the flasque side of a resolution of the Chevalley module.

    This is the group-theoretic invariant governing both the Hasse norm
    principle and weak approximation for the associated norm-one torus.
    """
    return _pipeline(G, H, class_cap=class_cap, max_rank=max_rank).invariants


class PipelineResult(namedtuple("PipelineResult", "j_rank flasque_rank middle_rank invariants")):
    __slots__ = ()


def _pipeline(G, H, class_cap=SUBGROUP_CLASS_CAP, max_rank=None) -> PipelineResult:
    check_index(G, H)
    # the class search checks the cap and builds G's multiplication table,
    # off which the cosets and the words below are all read
    subgroup_classes(G, cap=class_cap)
    # the core of H is the kernel of G's action on the cosets of H, so its
    # order is the number of elements of H that fix every coset.  H is
    # normal in G exactly when it is its own core, and then its one warning
    # names the unfaithful action too
    T, coset_of = right_transversal(G, H)
    still = list(range(len(T)))
    core_order = sum(m == still for m in coset_moves(T, coset_of, H.elements()))
    if core_order == H.order() > 1:
        warnings.warn(
            f"{H.describe()} is normal in {G.label}, so the matrix action is "
            "unfaithful; the construction still runs but the geometric "
            "setting assumes a non-normal subgroup", stacklevel=3)
    elif core_order > 1:
        warnings.warn(
            f"core of {H.describe()} in {G.label} is nontrivial; the matrix "
            "action is unfaithful", stacklevel=3)
    # 0 -> N -> P -> I -> 0 transposes to 0 -> J -> P -> F -> 0, F = dual N
    I = augmentation_ideal(G, H)
    cof = coflasque_cover(I, class_cap=class_cap, max_rank=max_rank)
    # dual to H^1(G, F), which [G:H] kills: over H, J is a permutation
    # lattice and F is flasque, so H^1(H, F) embeds in Sha^2_omega(H, J) = 0
    # (as in `sha2_omega`), and corestriction after restriction to H is
    # multiplication by [G:H]
    inv = tate_minus1(G, cof.side)
    index = G.order() // H.order()
    if any(index % t for t in inv.torsion):
        raise InternalCheckError(
            f"H^1 invariants {inv.torsion} do not divide [G:H]={index}")
    return PipelineResult(I.rank, cof.side.rank, cof.middle.rank, inv)


class Verdict(namedtuple("Verdict", "invariants hnp wa")):
    """What the invariant says about the two local-global properties.

    A trivial invariant settles both (they hold); a nontrivial one only
    bounds the pair, so attributing it to one side would be wrong and the
    verdict stays undetermined.
    """

    __slots__ = ()

    @classmethod
    def of(cls, inv):
        if inv.is_trivial():
            return cls(inv, "holds", "holds")
        return cls(inv, "undetermined", "undetermined")

    def to_dict(self):
        return {
            "hnp": self.hnp,
            "wa": self.wa,
            "obstruction": [str(t) for t in self.invariants.torsion],
        }


def verdict(G, H) -> Verdict:
    return Verdict.of(norm_one_invariant(G, H))
