"""Quasi-Leontief utilities on finite partially ordered sets.

Order primitives, closed-form and tabulated utility objects with their
interior/dual maps, brute-force certifiers, efficient-point machinery, and
maximization with efficient refinement over comprehensive sets.
"""

from .order import (
    DownSet,
    EXACT,
    FinitePoset,
    OrderError,
    OrderReport,
    ProductSpace,
    Scale,
    check_partial_order,
    grid_space,
    tolerant,
)
from .leontief import (
    Box,
    BoxAxis,
    DecompositionError,
    DomainError,
    DualDomainError,
    LeastlessLevelSetError,
    NotCertifiedError,
    PowerLeontief,
    PriceMatrixLeontief,
    TabulatedUtility,
    UtilityError,
    affine_transform,
    classical_leontief,
    min_decompose,
    min_pointwise,
    min_product,
    restrict,
    tabulate,
)
from .oracle import (
    Certificate,
    CertificationError,
    InconsistencyError,
    certify_quasi_leontief,
    certify_regular,
    check_characterization_equivalence,
    check_isotone,
    check_lower_bounded_level_sets,
    check_meet_homomorphism,
    check_property_phi,
    require_certified,
    verify_galois,
)
from .efficiency import (
    certified_partial,
    check_charpar,
    efficient_set,
    is_efficient_global,
    is_efficient_minimal,
    minimality_witness,
    partial_utility,
)
from .maximize import (
    ArgmaxResult,
    PreconditionError,
    RefinementStep,
    RefinementTrace,
    argmax_members,
    argmax_over_downset,
    argmax_via_generators,
    check_argmax_localization,
    efficient_refinement,
    product_downset,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
