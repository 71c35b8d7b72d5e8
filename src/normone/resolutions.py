"""Coflasque covers and flasque resolutions, and the end-to-end invariant.

A coflasque cover 0 -> N -> Q -> L -> 0 is built from summands
Z[G/H'] (x) Z^f over subgroup class representatives H', evaluated by
(coset H'g, e_k) |-> v_k * rho(g) for f vectors v_k fixed by H'.  Classes
are visited in decreasing order.  When the summands so far do not cover
L^{H'}, the rows of its saturated basis are walked in order, and a row
becomes a v_k only if it is not yet in the lattice spanned by the images
of the H'-fixed vectors of the summands so far, those picked for H'
included; so the cover stays small (the same aim as the low-rank flabby
resolutions of Hoshi-Yamasaki).  Whatever the greedy pass decides, the
construction is guarded by an explicit recheck that Q^{H'} -> L^{H'} is
onto for every class, which is exactly the condition forcing the kernel
to be coflasque.

Flasque resolutions arise by dualizing the cover of the dual lattice, and
the headline computation is h1 of the flasque term for the Chevalley
module of (G, H).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cohomology import h1, presentation_catalog, tate_minus1
from .errors import CapExceeded, InternalCheckError
from .intmat import (
    IntMatrix, hnf_basis, hnf_coordinates, kernel_basis, snf_invariants,
    solve_left, vstack,
)
from .lattices import (
    GLattice, LatticeMap, chevalley_module, dual, fixed_sublattice,
)
from .perms import SUBGROUP_CLASS_CAP, core, right_transversal, subgroup_classes


@dataclass(frozen=True)
class Resolution:
    """0 -> side -> middle -> base -> 0 (coflasque) or
    0 -> base -> middle -> side -> 0 (flasque); middle is permutation."""

    kind: str
    base: GLattice
    middle: GLattice
    side: GLattice
    inject: LatticeMap
    project: LatticeMap
    summands: tuple

    def __post_init__(self):
        if self.kind not in ("coflasque", "flasque"):
            raise ValueError("kind must be coflasque or flasque")
        if self.middle.rank != self.base.rank + self.side.rank:
            raise InternalCheckError("ranks are not additive")
        if self.inject.matrix.nrows and self.project.matrix.ncols:
            if not (self.inject.matrix * self.project.matrix).is_zero():
                raise InternalCheckError("composite of the two maps is nonzero")
        inv = snf_invariants(self.project.matrix)
        if len(inv) != self.project.target.rank or any(x != 1 for x in inv):
            raise InternalCheckError("middle term does not surject over Z")
        inv = snf_invariants(self.inject.matrix)
        if len(inv) != self.inject.source.rank or any(x != 1 for x in inv):
            raise InternalCheckError("injection is not saturated")


def _orbit_matrix(transversal, coset_of, cls):
    """0/1 array with one row per orbit of cls on the cosets that
    transversal lists, marking the cosets in that orbit; coset_of maps an
    element's images to its coset's index."""
    d = len(transversal)
    seen = [False] * d
    orbits = []
    for start in range(d):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        for i in orbit:
            for g in cls.generators:
                j = coset_of[(transversal[i] * g).images]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
        orbits.append(orbit)
    O = np.zeros((len(orbits), d), dtype=np.int64)
    for o, orbit in enumerate(orbits):
        O[o, orbit] = 1
    return O


class _Summand:
    """Z[G/H'] (x) Z^f, sent to L by
    (coset i, e_k) |-> vectors[k] * rho(transversal[i])."""

    __slots__ = ("handle", "vectors", "transversal", "coset_of", "ev")

    def __init__(self, handle, transversal, coset_of, vectors, images):
        self.handle = handle
        self.vectors = IntMatrix(vectors)  # the picked H'-fixed vectors
        self.transversal, self.coset_of = transversal, coset_of
        # images[k] has row i = vectors[k] * rho(transversal[i]); row i of
        # ev holds those rows of every vector, side by side
        self.ev = IntMatrix(np.concatenate(images, axis=1))

    def orbit_sums(self, cls):
        """Images in L of the cls-fixed vectors of this summand, as an
        array: one row per (orbit of cls on the cosets) x (stored vector)."""
        O = _orbit_matrix(self.transversal, self.coset_of, cls)
        return (O @ self.ev).reshape(-1, self.vectors.ncols)


def _identity_resolution(L):
    zero = GLattice(L.group, 0, [IntMatrix([], ncols=0)] * len(L.group.generators))
    inject = LatticeMap(zero, L, IntMatrix([], ncols=L.rank))
    project = LatticeMap(L, L, IntMatrix.identity(L.rank))
    return Resolution("coflasque", L, L, zero, inject, project, L.perm_summands)


def coflasque_cover(L: GLattice, class_cap=SUBGROUP_CLASS_CAP, max_rank=None) -> Resolution:
    """0 -> N -> Q -> L -> 0 with Q permutation and N coflasque."""
    if L.perm_summands is not None:
        return _identity_resolution(L)
    G = L.group
    classes = subgroup_classes(G, cap=class_cap)
    fixed = [fixed_sublattice(L, cls) for cls in classes]
    summands = []

    def fixed_span(cls):
        """Hermite basis of the images of the summands' cls-fixed vectors."""
        rows = [np.zeros((0, L.rank), dtype=np.int64)]
        rows += [s.orbit_sums(cls) for s in summands]
        return hnf_basis(IntMatrix(np.vstack(rows)))

    for cls, F in zip(classes, fixed):
        if F.nrows == 0:
            continue
        span = fixed_span(cls)
        if hnf_coordinates(span, F) is not None:
            continue
        # walk the rows of F; a row outside the span so far is picked, and
        # its cls-orbit sums join the span, so afterwards F lies in it
        transversal, coset_of = right_transversal(G, cls)
        own = _orbit_matrix(transversal, coset_of, cls)
        # images[k] has row i = F[k] * rho(transversal[i])
        images = np.stack([F.array @ L.matrix_of(t) for t in transversal], axis=1)
        picked = []
        for k, f in enumerate(F.array):
            if hnf_coordinates(span, IntMatrix([f])) is not None:
                continue
            span = hnf_basis(vstack(span, IntMatrix(own @ IntMatrix(images[k]))))
            picked.append(k)
        summands.append(_Summand(cls, transversal, coset_of, F.array[picked], images[picked]))
        if max_rank is not None:
            so_far = sum(len(s.transversal) * s.vectors.nrows for s in summands)
            if so_far > max_rank:
                raise CapExceeded(
                    f"cover rank {so_far} exceeds --max-rank {max_rank}")
    # recheck every class against the final middle term; this is the
    # condition that makes the kernel coflasque, so a failure is a bug
    for cls, F in zip(classes, fixed):
        if F.nrows and hnf_coordinates(fixed_span(cls), F) is None:
            raise InternalCheckError(
                f"cover misses the fixed lattice of {cls.describe()}")
    rank_q = sum(len(s.transversal) * s.vectors.nrows for s in summands)
    eye = np.eye(rank_q, dtype=np.int64)
    mats = []
    for g in G.generators:
        # basis vector (coset i, stored vector k) goes to (coset of T[i]*g, k)
        perm = []
        offset = 0
        for s in summands:
            f = s.vectors.nrows
            for rep in s.transversal:
                j = offset + s.coset_of[(rep * g).images] * f
                perm.extend(range(j, j + f))
            offset += len(s.transversal) * f
        mats.append(IntMatrix(eye[perm]))
    Q = GLattice(G, rank_q, mats,
                 perm_summands=tuple((s.handle, s.vectors.nrows) for s in summands))
    EV = IntMatrix([row for s in summands for row in s.ev.array.reshape(-1, L.rank)],
                   ncols=L.rank)
    project = LatticeMap(Q, L, EV)
    K = kernel_basis(EV)
    nmats = _restricted_action(K, Q)
    N = GLattice(G, K.nrows, nmats)
    inject = LatticeMap(N, Q, K)
    return Resolution("coflasque", L, Q, N, inject, project,
                      tuple((s.handle, s.vectors.nrows) for s in summands))


def _restricted_action(K: IntMatrix, Q: GLattice):
    """Action on the sublattice spanned by the rows of K (must be stable).

    K*a for every generator a is stacked into one right-hand side, so a
    single Hermite form of K serves all rows; K has full row rank, so the
    solution is unique.  The result is split into one matrix per generator.
    """
    r = K.nrows
    X = solve_left(K, IntMatrix([row for a in Q.action for row in (K * a).array],
                                ncols=K.ncols))
    if X is None:
        raise InternalCheckError("kernel is not stable under the action")
    return [IntMatrix(X.array[i * r:(i + 1) * r], ncols=r) for i in range(len(Q.action))]


def flasque_resolution(L: GLattice, check=True, class_cap=SUBGROUP_CLASS_CAP,
                       max_rank=None) -> Resolution:
    """0 -> L -> P -> M -> 0 with P permutation and M flasque,
    obtained by dualizing a coflasque cover of dual(L)."""
    cof = coflasque_cover(dual(L), class_cap=class_cap, max_rank=max_rank)
    P = dual(cof.middle)
    M = dual(cof.side)
    inject = LatticeMap(L, P, cof.project.matrix.transpose())
    project = LatticeMap(P, M, cof.inject.matrix.transpose())
    res = Resolution("flasque", L, P, M, inject, project, cof.summands)
    if check:
        ok, witness = is_flasque(M, class_cap=class_cap)
        if not ok:
            raise InternalCheckError(
                f"resolution side module is not flasque (witness {witness.describe()})")
    return res


def is_flasque(L: GLattice, class_cap=SUBGROUP_CLASS_CAP):
    """(True, None) when Tate H^-1 vanishes for every subgroup class,
    else (False, offending class)."""
    for cls in subgroup_classes(L.group, cap=class_cap):
        if not tate_minus1(cls, L).is_trivial():
            return False, cls
    return True, None


def is_coflasque(L: GLattice, class_cap=SUBGROUP_CLASS_CAP):
    """Via duality: H^1(S, L) vanishes iff Tate H^-1(S, dual L) does."""
    return is_flasque(dual(L), class_cap=class_cap)


def norm_one_invariant(G, H, check=True, class_cap=SUBGROUP_CLASS_CAP, max_rank=None):
    """h1 of the flasque side of a resolution of the Chevalley module.

    This is the group-theoretic invariant governing both the Hasse norm
    principle and weak approximation for the associated norm-one torus.
    """
    return _pipeline(G, H, check=check, class_cap=class_cap,
                     max_rank=max_rank).invariants


@dataclass(frozen=True)
class PipelineResult:
    group: object
    subgroup: object
    j_rank: int
    flasque_rank: int
    middle_rank: int
    invariants: object


def _pipeline(G, H, check=True, class_cap=SUBGROUP_CLASS_CAP, max_rank=None) -> PipelineResult:
    if H.order() == G.order():
        raise ValueError("subgroup is the whole group; the quotient module "
                         "needs index >= 2")
    if H.is_normal() and H.order() not in (1, G.order()):
        warnings.warn(
            f"{H.describe()} is normal in {G.label}; the construction still "
            "runs but the geometric setting assumes a non-normal subgroup",
            stacklevel=3)
    if core(G, H).order() > 1:
        warnings.warn(
            f"core of {H.describe()} in {G.label} is nontrivial; the matrix "
            "action is unfaithful", stacklevel=3)
    J = chevalley_module(G, H)
    res = flasque_resolution(J, check=check, class_cap=class_cap, max_rank=max_rank)
    P = presentation_catalog(G)
    inv = h1(res.side, P)
    return PipelineResult(G, H, J.rank, res.side.rank, res.middle.rank, inv)


@dataclass(frozen=True)
class Verdict:
    """What the invariant says about the two local-global properties.

    A trivial invariant settles both (they hold); a nontrivial one only
    bounds the pair, so attributing it to one side would be wrong and the
    verdict stays undetermined.
    """

    invariants: object
    hnp: str
    wa: str

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
