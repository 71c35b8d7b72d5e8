"""normone: cohomological obstructions for norm-one tori.

Given a finite permutation group G and a subgroup H, the pipeline computes
H^1(G, F) for the flasque term F of a resolution 0 -> J_{G/H} -> P -> F -> 0
of the Chevalley module — the finite abelian group that governs the Hasse
norm principle and weak approximation for the norm-one torus of a degree
[G:H] field extension with Galois closure group G.  It builds the
augmentation ideal I_{G/H} = dual J_{G/H} and one coflasque cover
0 -> N -> P -> I_{G/H} -> 0, whose transpose is that resolution with
F = dual N, and takes H^1(G, F) as the dual of Tate H^-1(G, N).
"""

__version__ = "0.2.0"

from .errors import (
    CapExceeded, InternalCheckError, NormOneError, NotASubgroupError,
    SpecParseError, UsageError,
)
from .intmat import (
    AbelianInvariants, IntMatrix, hnf_basis, kernel_basis, snf_invariants,
)
from .perms import (
    PermGroup, Permutation, alternating,
    are_conjugate_subgroups, cyclic, dihedral, product_of_cyclics,
    right_transversal, subgroup_classes, symmetric,
)
from .lattices import (
    GLattice, LatticeMap, augmentation_ideal, chevalley_module, dual,
    fixed_sublattice, perm_lattice,
)
from .cohomology import sha2_omega, tate_minus1
# fpgroups is left out: only verify-schur runs it, and that command loads
# it itself; its names are imported from normone.fpgroups
from .resolutions import (
    Resolution, Verdict, coflasque_cover, is_coflasque, is_flasque,
    norm_one_invariant, verdict,
)
