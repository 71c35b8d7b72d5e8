"""normone: cohomological obstructions for norm-one tori.

Given a finite permutation group G and a subgroup H, the pipeline builds
the Chevalley module J_{G/H}, takes a flasque resolution, and computes
H^1 of the flasque term — the finite abelian group that governs the Hasse
norm principle and weak approximation for the norm-one torus of a degree
[G:H] field extension with Galois closure group G.
"""

__version__ = "0.2.0"

from .errors import (
    CapExceeded, InternalCheckError, NormOneError, NotASubgroupError,
    SpecParseError, UsageError,
)
from .intmat import (
    AbelianInvariants, IntMatrix, SmithDecomposition, det, hnf, hnf_basis,
    kernel_basis, quotient_invariants, snf, snf_invariants,
)
from .perms import (
    PermGroup, Permutation, alternating,
    are_conjugate_subgroups, core, coset_position, cyclic, dihedral,
    klein_four, product_of_cyclics, right_transversal, subgroup_classes,
    symmetric, trivial_group,
)
from .lattices import (
    GLattice, LatticeMap, augmentation_ideal, chevalley_module, direct_sum,
    dual, dual_map, fixed_sublattice, induced, perm_lattice, trivial_lattice,
)
from .cohomology import (
    Presentation, dimension_shift, h1, presentation_catalog,
    sha2_omega, tate_cyclic, tate_minus1,
)
from .fpgroups import (
    CosetTable, FpGroup, preimage_an, schur_cover_sn, todd_coxeter,
    verify_commutator_claim,
)
from .resolutions import (
    Resolution, Verdict, coflasque_cover, flasque_resolution, is_coflasque,
    is_flasque, norm_one_invariant, verdict,
)
