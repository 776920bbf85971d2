"""Fixed-point set lattices of finite permutation actions.

Desk-scale laboratory for the interplay between permutation groups,
closure operators and incidence geometry: stabilizer chains, fixset
lattices with meet/join by stabilizer arithmetic, orbit relations with
definable closure, finite lattice reconstruction from atom actions,
Steiner systems, and projective geometry over prime fields serving as an
independent oracle throughout.
"""

__version__ = "0.1.0"

from .closure import (FixsetLattice, closure_mask, closures,
                      enumerate_fixset_lattice, galois_report)
from .errors import (CapacityError, FixlatError, InternalConsistencyError,
                     PreconditionError, ValidationError)
from .geometry import (ProjectiveSpace, oracle_iso_check, pgl_generators,
                       pgl_order, projective_points, span_closure,
                       subspace_lattice)
from .group import PermutationGroup, PrimitivityResult
from .lattice import (FiniteLattice, ReconstructionResult, atoms,
                      boolean_lattice, chain_lattice, diamond_lattice,
                      is_atomistic, is_distributive, join, lattice_automorphisms,
                      lower_cone, meet, reconstruct, stabilizer_separation,
                      stone_ultrafilters)
from .perm import Permutation
from .relational import (RelationalStructure, canonical_structure,
                         dcl_vs_fixset_report, relational_dcl)
from .steiner import (JordanReport, SteinerSystem, derivation, jordan_report,
                      make_system, steiner_automorphism_check,
                      steiner_from_affine, steiner_from_affine_planes,
                      steiner_from_projective, steiner_isomorphism,
                      verify_steiner)

__all__ = [name for name in dir() if not name.startswith("_")]
