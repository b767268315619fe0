from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_kernels as ref
from cantorkit import (
    DigitString,
    InvalidDigitError,
    OutOfRangeError,
    digits_from_rational,
    eval_cantor,
    eval_negas_cantor,
    eval_negasadic,
    eval_sadic,
    radix,
)


def test_sadic_finite_sums():
    assert eval_sadic(DigitString(3, (1, 0, 2))) == F(11, 27)
    assert eval_sadic(DigitString(3, ())) == 0
    assert eval_sadic(DigitString(5, (4,))) == F(4, 5)


def test_sadic_geometric_tail():
    # partial sums of the all-2 tail approach 1; the closed tail hits it exactly
    partials = [eval_sadic(DigitString(3, (2,) * n)) for n in range(1, 8)]
    assert all(a < b < 1 for a, b in zip(partials, partials[1:]))
    assert eval_sadic(DigitString(3, ()), tail=(2,)) == 1


def test_negasadic_values():
    assert eval_negasadic(DigitString(3, (1,))) == F(-1, 3)
    assert eval_negasadic(DigitString(3, ()), tail=(2, 0)) == F(-3, 4)
    assert eval_negasadic(DigitString(3, ()), tail=(0, 2)) == F(1, 4)
    # an odd-period tail closes in one step too: 1 read in base -3 repeats as 1/((-3)^1 - 1)
    assert eval_negasadic(DigitString(3, ()), tail=(1,)) == F(-1, 4)


@given(st.integers(2, 7), st.lists(st.integers(0, 9), max_size=12))
def test_negasadic_range(s, raw):
    digits = tuple(d % s for d in raw)
    x = eval_negasadic(DigitString(s, digits))
    assert F(-s, s + 1) <= x <= F(1, s + 1)


def test_cantor_series():
    basis = (2, 3, 4)
    assert eval_cantor((1, 2, 3), basis) == F(23, 24)
    assert eval_cantor((1, 2, 3), basis, alternating=True) == F(-7, 24)
    with pytest.raises(InvalidDigitError):
        eval_cantor((2,), (2,))
    with pytest.raises(ValueError, match="a Cantor basis needs at least one value"):
        eval_cantor((), ())
    with pytest.raises(ValueError, match="basis value 1 must be > 1"):
        eval_cantor((0,), (2, 1))


@given(st.integers(2, 6), st.lists(st.integers(0, 9), max_size=10))
def test_cantor_constant_basis_degenerates_to_sadic(s, raw):
    digits = tuple(d % s for d in raw)
    assert eval_cantor(digits, (s,)) == eval_sadic(DigitString(s, digits))


def test_negas_cantor():
    assert eval_negas_cantor((1, 1, 1), (1, 1, 1), 3) == F(-7, 27)
    assert eval_negas_cantor((1, 1), (3, 3), 2) == F(-7, 64)
    assert eval_negas_cantor((0, 0, 0), (5, 5, 5), 7) == 0
    with pytest.raises(ValueError):
        eval_negas_cantor((1, 1), (3, 0), 2)  # a gap below 1
    with pytest.raises(ValueError):
        eval_negas_cantor((1, 1, 1), (3, 3), 2)  # fewer gaps than digits


@given(
    st.integers(2, 5),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8)), min_size=1, max_size=6),
)
def test_gap_series_equals_alternating_cantor(s, raw):
    # under every gap m_n >= 1, the gap-structured series IS the alternating
    # Cantor series with basis d_n = s^(m_n)
    gaps = tuple(m % 9 + 1 for _, m in raw)
    eps = tuple(e % s for e, _ in raw)
    lhs = eval_negas_cantor(eps, gaps, s)
    rhs = eval_cantor(eps, [s**m for m in gaps] or [s], alternating=True)
    assert lhs == rhs


def test_digits_from_rational_positive():
    assert digits_from_rational(F(1, 3), 3, 3).digits == (1, 0, 0)
    with pytest.raises(OutOfRangeError):
        digits_from_rational(1, 3, 4)
    with pytest.raises(OutOfRangeError):
        digits_from_rational(F(5, 4), 3, 4)


def test_digits_from_rational_negative():
    assert digits_from_rational(0, 4, 5, negative=True).digits == (0,) * 5
    d = digits_from_rational(F(-1, 4), 3, 4, negative=True)
    err = abs(eval_negasadic(d) - F(-1, 4))
    assert err <= F(3, 3**4 * 2)
    # range endpoints stay representable
    lo = digits_from_rational(F(-3, 4), 3, 6, negative=True)
    assert abs(eval_negasadic(lo) - F(-3, 4)) <= F(3, 3**6 * 2)
    with pytest.raises(OutOfRangeError):
        digits_from_rational(F(1, 2), 3, 4, negative=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.fractions(), st.integers(1, 10), st.booleans())
def test_round_trip_bound(s, x, n, negative):
    if negative:
        lo, hi = F(-s, s + 1), F(1, s + 1)
    else:
        lo, hi = F(0), F(1)
    span = hi - lo
    x = lo + (x - x.__floor__()) * span  # fold into range
    if not negative and x == 1:
        x = F(0)
    d = digits_from_rational(x, s, n, negative=negative)
    back = eval_negasadic(d) if negative else eval_sadic(d)
    assert abs(back - x) <= F(s, s - 1) / s**n


def test_digit_validation():
    with pytest.raises(InvalidDigitError):
        DigitString(3, (3,))
    with pytest.raises(InvalidDigitError):
        DigitString(1, (0,))
    with pytest.raises(InvalidDigitError):
        eval_negas_cantor((5,), (3,), 3)


@pytest.mark.parametrize(
    "digits, bad",
    [((3,), 3), ((0, 2, 5, -1, 7), 5), ((1, -1, 5), -1), ((2, 0, -4), -4), ((0, 9, 1), 9)],
)
def test_digit_refusal_names_the_first_bad_digit(digits, bad):
    with pytest.raises(InvalidDigitError) as exc:
        DigitString(3, digits)
    assert str(exc.value) == f"digit {bad} outside alphabet of base 3"


NAN = float("nan")


@pytest.mark.parametrize(
    "f, args, want",
    [
        (DigitString, (3, (1.9, 2.5)), (InvalidDigitError, "digit 1.9 is not an integer")),
        (DigitString, (3, (0, 2, NAN)), (InvalidDigitError, "digit nan is not an integer")),
        (eval_sadic, (DigitString(3, ()), (1.5,)), (InvalidDigitError, "tail digit 1.5 is not an integer")),
        (eval_negasadic, (DigitString(3, (1,)), (0, NAN)), (InvalidDigitError, "tail digit nan is not an integer")),
        (eval_cantor, ((1.7,), (2,)), (InvalidDigitError, "digit 1.7 is not an integer")),
        (eval_cantor, ((1, float("inf")), (3,), True), (InvalidDigitError, "digit inf is not an integer")),
        (eval_cantor, ((1,), (2.5,)), (InvalidDigitError, "basis value 2.5 is not an integer")),
        (eval_cantor, ((1,), (3, NAN)), (InvalidDigitError, "basis value nan is not an integer")),
        (eval_negas_cantor, ((1.5,), (1,), 3), (InvalidDigitError, "digit 1.5 is not an integer")),
        (eval_negas_cantor, ((1,), (1.5,), 3), (ValueError, "gap 1.5 must be a positive integer")),
        (eval_negas_cantor, ((1, 1), (2, NAN), 3), (ValueError, "gap nan must be a positive integer")),
        (eval_negas_cantor, ((1,), (float("inf"),), 3), (ValueError, "gap inf must be a positive integer")),
    ],
)
def test_non_integer_digits_are_refused_not_truncated(f, args, want):
    assert _outcome(f, *args) == want


def test_integral_digits_of_any_type_are_read_as_ints():
    digits = DigitString(3, (2.0, F(1), True)).digits
    assert digits == (2, 1, 1) and {type(d) for d in digits} == {int}
    assert eval_negas_cantor((1, 2.0), (2.0, F(1)), 3) == eval_negas_cantor((1, 2), (2, 1), 3)
    assert eval_cantor((1.0,), (2,)) == F(1, 2)


def _outcome(f, *args, **kwargs):
    """What f returns, or the type and message of the error it raises."""
    try:
        return f(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@st.composite
def _expansions(draw):
    s = draw(st.integers(2, 40))
    digits = draw(st.lists(st.integers(0, s - 1), max_size=30))
    tail = draw(st.lists(st.integers(0, s - 1), max_size=4))
    return s, tuple(digits), tuple(tail)


@settings(max_examples=300, deadline=None)
@given(_expansions())
def test_integer_evaluators_equal_the_references(expansion):
    s, digits, tail = expansion
    d = DigitString(s, digits)
    assert eval_sadic(d) == ref.eval_sadic(d)
    assert eval_negasadic(d) == ref.eval_negasadic(d)
    for k in range(len(digits) + 1):  # the tail starts after every prefix, at both parities
        d = DigitString(s, digits[:k])
        assert eval_sadic(d, tail) == ref.eval_sadic(d, tail)
        assert eval_negasadic(d, tail) == ref.eval_negasadic(d, tail)


@pytest.mark.parametrize("alternating", (False, True))
def test_tail_digit_refusal_matches_the_reference(alternating):
    ours, theirs = (eval_negasadic, ref.eval_negasadic) if alternating else (eval_sadic, ref.eval_sadic)
    for prefix in ((0, 2), (1, 0, 2)):  # the bad tail starts at both parities
        d = DigitString(3, prefix)
        want = _outcome(theirs, d, (1, 3))
        assert _outcome(ours, d, (1, 3)) == want
        assert want == (InvalidDigitError, "tail digit 3 outside {0..2}")


@st.composite
def _cantor_series(draw):
    basis = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=4)))
    eps = draw(st.lists(st.integers(0, 8), max_size=30))
    return tuple(e % basis[n % len(basis)] for n, e in enumerate(eps)), basis


@settings(max_examples=300, deadline=None)
@given(_cantor_series(), st.booleans(), st.integers(2, 7), st.lists(st.integers(1, 6), max_size=30))
def test_cantor_folds_equal_the_references(series, alternating, s, gaps):
    eps, basis = series
    assert eval_cantor(eps, basis, alternating) == ref.eval_cantor(eps, basis, alternating)
    eps = tuple(e % s for e in eps[: len(gaps)])
    assert eval_negas_cantor(eps, gaps, s) == ref.eval_negas_cantor(eps, gaps, s)


@pytest.mark.parametrize(
    "name, args",
    [
        ("eval_cantor", ((), ())),  # an empty basis
        ("eval_cantor", ((0,), (3, 1))),  # a basis value of 1
        ("eval_cantor", ((1, 2, 3, 4), (2, 3, 4), True)),  # a bad digit at a later position
        ("eval_negas_cantor", ((1,), (1,), 1)),  # s = 1
        ("eval_negas_cantor", ((1, 1, 1), (3, 3), 2)),  # fewer gaps than digits
        ("eval_negas_cantor", ((1, 1), (3, 0), 2)),  # a gap of 0
        ("eval_negas_cantor", ((1, 2), (2, 0), 2)),  # a bad digit before its bad gap
    ],
)
def test_cantor_fold_refusals_match_the_references(name, args):
    got = _outcome(getattr(radix, name), *args)
    assert isinstance(got, tuple) and got == _outcome(getattr(ref, name), *args)


@st.composite
def _conversions(draw):
    s = draw(st.integers(2, 40))
    negative = draw(st.booleans())
    x = draw(
        st.one_of(
            # the ends of both ranges, 0 and 1, and just past the nega-s-adic ends
            st.sampled_from(
                (F(-s, s + 1), F(1, s + 1), F(0), 0, 1, F(1), F(-s, s + 1) - F(1, 10**9), F(1, s + 1) + F(1, 10**9))
            ),
            st.integers(1, 10**30).map(lambda k: 1 - F(1, k + 1)),  # just under 1
            st.fractions(min_value=-2, max_value=2),
            st.fractions(min_value=F(-s, s + 1), max_value=F(1, s + 1)),
            st.integers(-3, 3),
        )
    )
    return x, s, draw(st.integers(1, 30)), negative


@settings(max_examples=400, deadline=None)
@given(_conversions())
def test_integer_digit_extraction_equals_the_reference(conversion):
    x, s, n, negative = conversion
    got = _outcome(digits_from_rational, x, s, n, negative=negative)
    assert got == _outcome(ref.digits_from_rational, x, s, n, negative=negative)


@pytest.mark.parametrize(
    "x, s, n, negative",
    [
        (1, 3, 4, False),  # no canonical expansion
        (F(5, 4), 3, 4, False),
        (F(-1, 7), 5, 4, False),
        (F(1, 2), 3, 4, True),
        (F(-4, 5), 3, 4, True),
        ("1/3", 1, 4, False),  # base
        ("1/3", 3, 0, True),  # length
        ("x", 3, 4, False),  # not a number
    ],
)
def test_digit_extraction_refuses_as_the_reference(x, s, n, negative):
    got = _outcome(digits_from_rational, x, s, n, negative=negative)
    want = _outcome(ref.digits_from_rational, x, s, n, negative=negative)
    assert isinstance(got, tuple) and got == want
