"""cantorkit: digit-restricted Cantor-like sets, exactly.

Construction and evaluation of s-adic / nega-s-adic / Cantor-series
expansions in exact rational arithmetic, cylinder geometry with an
independent level oracle, and Hausdorff-Besicovitch dimensions via
block equations, the cubic and periodic closed forms, the Cantor-series
liminf estimate and box counting.
"""

from .boxcount import FitResult, ScaleCount, box_dimension, fit_dimension
from .cylinders import (
    CylinderReport,
    IntervalR,
    OracleResult,
    VerificationReport,
    covering_sums,
    cylinder_hull,
    cylinder_interval,
    cylinder_report,
    gap_interval,
    ordering_check,
    set_interval,
    sminus_diameter_constant,
    tail_extrema_oracle,
    verify_family,
)
from .dimension import (
    DimensionResult,
    block_dimension,
    cantor_series_dim_estimate,
    family_dimension,
    md_closed_form,
    periodic_dimension,
)
from .errors import (
    CantorkitError,
    CapExceededError,
    FamilyConstraintError,
    FamilyParseError,
    InvalidDigitError,
    OutOfRangeError,
    UnsupportedFamilyError,
)
from .families import (
    FamilySpec,
    enumerate_addresses,
    eval_family_point,
    expand_address,
    membership_prefix,
    parse_family,
)
from .radix import (
    DigitString,
    digits_from_rational,
    eval_cantor,
    eval_negas_cantor,
    eval_negasadic,
    eval_sadic,
)

__version__ = "0.1.0"
