"""cantorkit: digit-restricted Cantor-like sets, exactly.

Construction and evaluation of s-adic / nega-s-adic / Cantor-series
expansions in exact rational arithmetic, cylinder geometry with an
independent level oracle, and Hausdorff-Besicovitch dimensions via
Moran-type equations, closed forms and box counting.
"""

from .boxcount import FitResult, ScaleCount, box_dimension, boxes_at_scale, fit_dimension
from .cylinders import (
    CylinderReport,
    IntervalR,
    OracleResult,
    VerificationReport,
    covering_sum,
    covering_sums,
    cylinder_diameter,
    cylinder_hull,
    cylinder_interval,
    cylinder_report,
    gap_interval,
    ordering_check,
    set_interval,
    sminus_diameter_constant,
    solve_affine_hull,
    tail_extrema_oracle,
    verify_family,
)
from .dimension import (
    CantorSeriesEstimate,
    DimensionResult,
    RatioList,
    block_dimension,
    cantor_series_dim_estimate,
    family_dimension,
    lambda_dimension,
    md_closed_form,
    moran_dimension,
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
    BlockSet,
    FamilySpec,
    blocks_of_family,
    enumerate_addresses,
    eval_family_point,
    expand_address,
    membership_prefix,
    parse_family,
)
from .radix import (
    CantorBasis,
    DigitString,
    GapSequence,
    Rational,
    digits_from_rational,
    eval_cantor,
    eval_negas_cantor,
    eval_negasadic,
    eval_sadic,
    alternating_cantor_compatible,
)

__version__ = "0.1.0"
