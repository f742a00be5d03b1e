"""Exact Groebner fans of x-homogeneous ideals in Z[[t]][x1..xn].

The package computes, entirely in exact integer/rational arithmetic:
standard bases over Z under t-local orderings, initially reduced standard
bases, Groebner cones as rational polyhedral cones, and the full Groebner
fan on the halfspace {w_0 <= 0} via a flip-based traversal.
"""

from .cone import (
    ConeData,
    GroebnerCone,
    HCone,
    SlicePolyhedron,
    affine_slice,
    boundary_cone,
    cone_from_basis,
    contains,
    dd_rays,
    dim,
    equal,
    facets,
    intersect,
    is_face,
    make_cone,
    relative_interior_point,
)
from .division import (
    DEFAULT_STEP_CAP,
    DivisionResult,
    StandardBasis,
    WeakNFResult,
    ecart,
    gpair,
    hddwr,
    minimize,
    mora_weak_nf,
    normalize_element,
    spair,
    standard_basis,
)
from .errors import (
    DivisionDiverged,
    InredDiverged,
    InvalidInput,
    NonGenericWeight,
    ParseError,
    RegimeError,
    TfanError,
    WitnessFailed,
)
from .exact import extended_gcd, kernel_basis, p_valuation, primitive, rank, rref
from .fan import Fan, boundary_fan, flip, groebner_cone_at, groebner_fan, lift, witness
from .inred import (
    InredContext,
    ensure_initially_reduced,
    generic_initial_reduce,
    initially_reduce,
    initially_reduced_standard_basis,
    inred_all_at_once,
    inred_same_degree,
    inred_step_by_step,
    is_initially_reduced,
    p_reduce,
)
from .poly import (
    Ideal,
    MonomialOrdering,
    Polynomial,
    Term,
    initial_form,
    is_x_homogeneous,
    leading_coefficient,
    leading_monomial,
    leading_term,
    lex_ordering,
    max_weight_part,
    t_skeleton,
    tail,
    weighted_ordering,
    x_degree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
