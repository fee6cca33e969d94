"""Exact zonal-polynomial machinery and design bounds on complex Grassmannians.

The package verifies, in exact rational arithmetic, that the maximum
antipodal configurations of G(m, n) average the column-shape and hook-shape
harmonic components at the minimum possible cardinality, and computes the
Delsarte-style linear-programming bounds certifying that minimum.

``__all__`` is the library surface; every def of the package is one that
the command line reaches, or one kept with its reason in
``tests/test_surface.py``.
"""

__version__ = "0.1.0"

from .partitions import Partition, binom, column_shape, hook_shape, row_shape
from .scalars import rational
from .symfunc import SchurExpansion
from .zonal import ZonalPolynomial, harmonic_dim, zonal_kernel
from .grassmann import (
    SubspaceConfiguration,
    SubspacePoint,
    great_antipodal,
    six_point_config,
)
from .designs import (
    CoefficientFunction,
    DesignReport,
    certificate_antipodal,
    certificate_average,
    certificate_product,
    check_nonnegativity,
    column_family,
    hook_family,
    is_T_design,
    lp_bound,
    weight_family,
)

__all__ = [
    "CoefficientFunction",
    "DesignReport",
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
    "column_family",
    "column_shape",
    "great_antipodal",
    "harmonic_dim",
    "hook_family",
    "hook_shape",
    "is_T_design",
    "lp_bound",
    "rational",
    "row_shape",
    "six_point_config",
    "weight_family",
    "zonal_kernel",
]
