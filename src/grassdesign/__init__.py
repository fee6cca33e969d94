"""Exact zonal-polynomial machinery and design bounds on complex Grassmannians.

The package verifies, in exact rational arithmetic, that the maximum
antipodal configurations of G(m, n) average the column-shape and hook-shape
harmonic components at the minimum possible cardinality, and computes the
Delsarte-style linear-programming bounds certifying that minimum.
"""

__version__ = "0.1.0"

from .partitions import Partition, binom, column_shape, hook_shape, row_shape
from .scalars import ExactComplex, rational
from .symfunc import SchurExpansion, normalized_schur_eval, schur_eval
from .zonal import ZonalPolynomial, harmonic_dim, zonal_kernel
from .grassmann import (
    SubspaceConfiguration,
    SubspacePoint,
    great_antipodal,
    orthogonal_split_config,
    pair_invariant,
    principal_angles,
    random_subspace,
    six_point_config,
)
from .designs import (
    CoefficientFunction,
    DesignReport,
    certificate_antipodal,
    certificate_average,
    certificate_product,
    check_nonnegativity,
    classify_tight_E,
    classify_tight_EF,
    column_family,
    design_defect,
    hook_family,
    is_T_design,
    lp_bound,
    weight_family,
)

__all__ = [
    "CoefficientFunction",
    "DesignReport",
    "ExactComplex",
    "Partition",
    "SchurExpansion",
    "SubspaceConfiguration",
    "SubspacePoint",
    "ZonalPolynomial",
    "__version__",
    "binom",
    "certificate_antipodal",
    "certificate_average",
    "certificate_product",
    "check_nonnegativity",
    "classify_tight_E",
    "classify_tight_EF",
    "column_family",
    "column_shape",
    "design_defect",
    "great_antipodal",
    "harmonic_dim",
    "hook_family",
    "hook_shape",
    "is_T_design",
    "lp_bound",
    "normalized_schur_eval",
    "orthogonal_split_config",
    "pair_invariant",
    "principal_angles",
    "random_subspace",
    "rational",
    "row_shape",
    "schur_eval",
    "six_point_config",
    "weight_family",
    "zonal_kernel",
]
