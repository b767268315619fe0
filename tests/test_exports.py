"""The package's public surface, pinned: an export added or removed is an edit here."""

import types

import cantorkit

PUBLIC = [
    "CantorkitError", "CapExceededError", "CylinderReport", "DigitString",
    "DimensionResult", "FamilyConstraintError", "FamilyParseError", "FamilySpec", "FitResult",
    "IntervalR", "InvalidDigitError", "OracleResult", "OutOfRangeError", "ScaleCount",
    "UnsupportedFamilyError", "VerificationReport", "block_dimension",
    "box_dimension", "cantor_series_dim_estimate", "covering_sums", "cylinder_hull",
    "cylinder_interval", "cylinder_report", "digits_from_rational", "enumerate_addresses",
    "eval_cantor", "eval_family_point", "eval_negas_cantor", "eval_negasadic", "eval_sadic",
    "expand_address", "family_dimension", "fit_dimension", "gap_interval", "md_closed_form",
    "membership_prefix", "ordering_check", "parse_family", "periodic_dimension", "set_interval",
    "sminus_diameter_constant", "tail_extrema_oracle", "verify_family",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(cantorkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
    assert len(PUBLIC) == 43
