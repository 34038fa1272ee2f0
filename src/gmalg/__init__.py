"""Exact-arithmetic toolkit for order-2 generalized matrix algebras."""

from .rings import Zmod, Rationals, parse_ring, parse_ring_flag
from .algebra import Algebra, Submodule, iter_vectors
from .morita import (
    Bimodule,
    MoritaContext,
    GMAlgebra,
    build_gma,
    validate_context,
    check_faithful,
    center_iso_phi,
    transpose,
)
from .maps import (
    LinMap,
    MapSpace,
    is_k_commuting,
    commuting_space,
    verify_structure_conditions,
    check_properness_hypotheses,
    construct_proper_form,
    properness_certificate,
    verify_proper_form_steps,
)
from .derivations import (
    is_derivation,
    derivation_space,
    adjoint_map,
    verify_derivation_form,
    verify_commuting_derivations_vanish,
)
from .families import (
    matrix_algebra,
    triangular_matrix_algebra,
    block_triangular_matrix_algebra,
    full_matrix_gma,
    triangular_gma,
    block_triangular_gma,
    InflatedSpec,
    inflated_algebra,
)

__all__ = [
    "Zmod", "Rationals", "parse_ring", "parse_ring_flag",
    "Algebra", "Submodule", "iter_vectors",
    "Bimodule", "MoritaContext", "GMAlgebra", "build_gma",
    "validate_context", "check_faithful", "center_iso_phi", "transpose",
    "LinMap", "MapSpace", "is_k_commuting", "commuting_space",
    "verify_structure_conditions", "check_properness_hypotheses",
    "construct_proper_form", "properness_certificate",
    "verify_proper_form_steps",
    "is_derivation", "derivation_space", "adjoint_map",
    "verify_derivation_form", "verify_commuting_derivations_vanish",
    "matrix_algebra", "triangular_matrix_algebra",
    "block_triangular_matrix_algebra", "full_matrix_gma", "triangular_gma",
    "block_triangular_gma", "InflatedSpec", "inflated_algebra",
]
