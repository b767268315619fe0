"""The record types: immutable values, validated and normalised on construction."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from cantorkit.boxcount import FitResult, ScaleCount
from cantorkit.cylinders import (
    CylinderReport,
    IntervalR,
    OracleResult,
    OrderingEntry,
    OrderingReport,
    PropertyResult,
    VerificationReport,
)
from cantorkit.dimension import CantorSeriesEstimate, DimensionResult
from cantorkit.errors import FamilyConstraintError, FamilyParseError, InvalidDigitError
from cantorkit.families import BlockSet, FamilySpec
from cantorkit.radix import CantorBasis, DigitString

IV = IntervalR(F(1, 4), F(1, 2))
ENTRY = OrderingEntry(0, 1, "right-to-left", "right-to-left", True)
PROPERTY = PropertyResult("nesting", 3, True, ())

#: (construction, one of its fields)
RECORDS = [
    (lambda: DigitString(3, (0, 2, 1)), "digits"),
    (lambda: CantorBasis.periodic([2, 3]), "values"),
    (lambda: FamilySpec("Blocks", 3, blocks=((2, 0), (1,))), "blocks"),
    (lambda: BlockSet(((1,), (0, 1)), ((1, 1), (2, 1))), "histogram"),
    (lambda: IntervalR(F(1, 4), F(1, 2)), "lo"),
    (lambda: CylinderReport((1,), IV, F(1, 4), F(1, 3), "right-to-left"), "interval"),
    (lambda: OracleResult(IV, F(1, 9), 4), "bound"),
    (lambda: OrderingEntry(0, 1, "right-to-left", "right-to-left", True), "ok"),
    (lambda: OrderingReport((), (ENTRY,), True), "entries"),
    (lambda: PropertyResult("nesting", 3, True, ()), "failures"),
    (lambda: VerificationReport("S(s=3)", (PROPERTY,), True), "passed"),
    (lambda: ScaleCount(0.5, 2), "count"),
    (lambda: FitResult(0.6, 0.99, (0.5, 0.25)), "r2"),
    (lambda: DimensionResult(0.5, "block-root", 0.0, (0.4, 0.6), 10), "alpha"),
    (lambda: CantorSeriesEstimate((0.5, 0.6), 0.5, 2, 10, 0.1, False), "proxy"),
]


@pytest.mark.parametrize("make, field", RECORDS, ids=[type(make()).__name__ for make, _ in RECORDS])
def test_records_are_immutable_values(make, field):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a).startswith(f"{type(a).__name__}(")
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b == copy.copy(a) == pickle.loads(pickle.dumps(a))


POWER3 = CantorBasis.power(3)


def cantor3(level_sets=None):
    return FamilySpec("Cantor", 3, basis=POWER3, level_sets=level_sets)


INVALID = [
    (lambda: DigitString(1, ()), InvalidDigitError, "base must be >= 2, got 1"),
    (lambda: DigitString(3, (0, 3)), InvalidDigitError, "digit 3 outside alphabet of base 3"),
    (lambda: CantorBasis("bogus"), ValueError, "unknown basis kind 'bogus'"),
    (lambda: CantorBasis("constant"), ValueError, "constant/periodic basis needs at least one value"),
    (lambda: CantorBasis.periodic([2, 1]), ValueError, "basis value 1 must be > 1"),
    (lambda: CantorBasis.power(1), ValueError, "power basis needs base >= 2, got 1"),
    (lambda: FamilySpec("Q", 3), FamilyParseError, "unknown family kind 'Q'"),
    (lambda: FamilySpec("S", 2), FamilyConstraintError, "S requires s > 2, got 2"),
    (lambda: FamilySpec("MD", 1), FamilyConstraintError, "MD requires s > 1, got 1"),
    (lambda: FamilySpec("Blocks", 1, blocks=((0,),)), FamilyConstraintError, "Blocks requires s >= 2, got 1"),
    (lambda: FamilySpec("Su", 5), FamilyConstraintError, "Su needs a digit parameter u"),
    (lambda: FamilySpec("NSu", 5, u=5), FamilyConstraintError, "u=5 outside alphabet of base 5"),
    (lambda: FamilySpec("Sminus", 3, u=1), FamilyConstraintError, "Sminus takes no u parameter"),
    (lambda: FamilySpec("S", 3, u=2), FamilyConstraintError, "S takes no u parameter"),
    (lambda: FamilySpec("MDper", 3), FamilyConstraintError, "MDper needs a gap period m=[...]"),
    (lambda: FamilySpec("MDper", 3, period=(5, 4)), FamilyConstraintError, "MDper gaps must be odd and >= 3, got 4"),
    (lambda: FamilySpec("S", 3, period=(3,)), FamilyConstraintError, "S takes no period"),
    (lambda: FamilySpec("Blocks", 3), FamilyConstraintError, "Blocks needs a nonempty block list B=[...]"),
    (lambda: FamilySpec("Blocks", 3, blocks=((0,), (0,))), FamilyConstraintError, "duplicate blocks"),
    (lambda: FamilySpec("Blocks", 3, blocks=((0,), ())), FamilyConstraintError, "empty block"),
    (lambda: FamilySpec("Blocks", 3, blocks=((3,),)), InvalidDigitError, "block digit 3 outside base 3"),
    (lambda: FamilySpec("Tilde", 3, blocks=((0,),)), FamilyConstraintError, "Tilde takes no explicit block list"),
    (lambda: cantor3(), FamilyConstraintError, "Cantor needs a basis and per-level digit sets"),
    (lambda: cantor3(((0,), ())), FamilyConstraintError, "empty level digit set"),
    (lambda: cantor3(((-1, 0),)), InvalidDigitError, "negative digit in level set"),
    (lambda: cantor3(((0, 3),)), InvalidDigitError, "digit 3 not below every d_j >= 3"),
    (
        lambda: FamilySpec("Cantor", 7, basis=CantorBasis.periodic([3]), level_sets=((0,),)),
        FamilyConstraintError,
        "Cantor s=7 must be the largest basis value 3",
    ),
    (lambda: FamilySpec("MD", 3, basis=POWER3), FamilyConstraintError, "MD takes no Cantor basis"),
    (lambda: IntervalR(1, 0), ValueError, "empty interval: 1 > 0"),
    (lambda: ScaleCount(0.0, 1), ValueError, "box width must be positive"),
    (lambda: ScaleCount(0.5, 0), ValueError, "count must be >= 1"),
    (lambda: FitResult(2.0, 1.0, ()), ValueError, "fitted slope 2.0 outside the plausible [-0.1, 1.1]"),
    (lambda: FitResult(0.5, 1.5, ()), ValueError, "r2 1.5 outside [0, 1]"),
    (lambda: DimensionResult(1.5, "m", 0.0, (0.0, 1.0), 1), ValueError, "dimension 1.5 outside [0, 1]"),
    (lambda: DimensionResult(0.5, "m", 0.0, (0.6, 0.7), 1), ValueError, "alpha 0.5 outside bracket (0.6, 0.7)"),
]


@pytest.mark.parametrize("make, exc, message", INVALID, ids=[message for _, _, message in INVALID])
def test_validated_records_refuse_with_their_message(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert str(info.value) == message


def test_validated_records_normalise_their_fields():
    assert IntervalR(1, 2) == IntervalR(F(1), F(2)) and type(IntervalR(1, 2).lo) is F
    assert FamilySpec("S", 3).u == 0
    assert FamilySpec("MDper", 3, period=[5, 3]).period == (5, 3)
    assert FamilySpec("Blocks", 3, blocks=[[2, 0], [1], [0]]).blocks == ((0,), (1,), (2, 0))
    assert cantor3([[2, 0, 2], [1]]).level_sets == ((0, 2), (1,))
    assert CantorBasis("periodic", [2, 3]).values == (2, 3)
    assert DigitString(3, [0, 2]).digits == (0, 2)
    assert FitResult(0.5, 1 + 1e-13, ()).r2 == 1.0
    assert DimensionResult(1 + 1e-13, "m", 0.0, (0.9, 1.0), 1).alpha == 1.0
    assert DimensionResult(-1e-13, "m", 0.0, (0.0, 0.1), 1).alpha == 0.0
