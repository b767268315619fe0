"""Exact evaluation of positional number expansions.

Every value is returned as an exact `fractions.Fraction`.  Supported
expansions, for an integer base s > 1:

* s-adic:                 x = sum_n  a_n s^-n,          a_n in {0..s-1}
* nega-s-adic:            x = sum_n (-1)^n a_n s^-n
* Cantor series:          x = sum_n  e_n / (d_1...d_n), e_n in {0..d_n-1}
* alternating Cantor:     x = sum_n (-1)^n e_n / (d_1...d_n)
* nega-s-adic Cantor:     x = sum_n (-1)^n e_n s^-(m_1+...+m_n)

Each is x = sum_n e_n / (b_1...b_n), the alternating forms read in the
negated bases, since (-b_1)...(-b_n) = (-1)^n b_1...b_n: base s or -s, d_n or
-d_n, and -s^(m_n).  Every evaluator folds its digits Horner-style into one
integer numerator over the product of its bases, read in base -b where the
series alternates; `digits_from_rational` steps one over x's denominator.

Finite digit sequences denote zero-padded tails.  An optional periodic tail
closes eventually-periodic (nega-)s-adic expansions exactly: a block of e
digits repeats as a geometric series, in one step for every e.  Those two
tail forms are the only closures supported.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle, repeat
from math import prod
from typing import Iterable, Sequence

from .errors import InvalidDigitError, OutOfRangeError


class DigitString:
    """A finite digit sequence over the alphabet {0, ..., s-1}.

    Immutable and compared by value.  Not a tuple, since its length and
    iteration are those of its digits."""

    __slots__ = ("s", "digits")

    def __init__(self, s: int, digits: tuple[int, ...]):
        if s < 2:
            raise InvalidDigitError(f"base must be >= 2, got {s}")
        digits = tuple(_integer(d, "digit") for d in digits)
        if digits and not (0 <= min(digits) and max(digits) < s):
            bad = next(d for d in digits if not 0 <= d < s)
            raise InvalidDigitError(f"digit {bad} outside alphabet of base {s}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "digits", digits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.s, self.digits) == (other.s, other.digits)

    def __hash__(self):
        return hash((self.s, self.digits))

    def __repr__(self):
        return f"{type(self).__name__}(s={self.s!r}, digits={self.digits!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), (self.s, self.digits)

    def __len__(self):
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)


def _integer(v, what: str) -> int:
    """v as an int, refused unless v % 1 == 0: a fraction, NaN and the infinities are not."""
    if v % 1 != 0:
        raise InvalidDigitError(f"{what} {v!r} is not an integer")
    return int(v)


def _check_digit(d: int, bound: int, what: str = "digit") -> int:
    d = _integer(d, what)
    if not 0 <= d < bound:
        raise InvalidDigitError(f"{what} {d} outside {{0..{bound - 1}}}")
    return d


def _fold(digits: Iterable[int], bases: Iterable[int]) -> int:
    """sum_n d_n b_(n+1)...b_N over the digits d_1..d_N and their bases b_1..b_N, by Horner:
    the numerator of sum_n d_n / (b_1...b_n) over b_1...b_N."""
    num = 0
    for d, b in zip(digits, bases):
        num = num * b + d
    return num


def _value(d: DigitString, tail: Sequence[int], b: int) -> Fraction:
    """The digits, then the periodic tail, read in the base b = +-s: one numerator
    over b^n, or over b^n (b^e - 1) with a tail of e digits, which repeats as
    its block's value t / b^e times b^e / (b^e - 1)."""
    num, n = _fold(d.digits, repeat(b)), len(d.digits)
    if not tail:
        return Fraction(num, b**n)
    tail = [_check_digit(t, d.s, "tail digit") for t in tail]
    r = b ** len(tail) - 1
    return Fraction(num * r + _fold(tail, repeat(b)), b**n * r)


def eval_sadic(d: DigitString, tail: Sequence[int] = ()) -> Fraction:
    """Exact value of an s-adic expansion: sum a_n s^-n.

    `tail`, when given, is a digit block repeated forever after the finite
    prefix; the geometric closure is evaluated exactly.
    """
    return _value(d, tail, d.s)


def eval_negasadic(d: DigitString, tail: Sequence[int] = ()) -> Fraction:
    """Exact value of a nega-s-adic expansion: sum (-1)^n a_n s^-n."""
    return _value(d, tail, -d.s)


def eval_cantor(eps: Sequence[int], basis: Sequence[int], alternating: bool = False) -> Fraction:
    """Exact value of a (possibly alternating) Cantor series over the basis
    repeating `basis`: d_n = basis[(n-1) mod len(basis)]."""
    basis = tuple(_integer(v, "basis value") for v in basis)
    if not basis:
        raise ValueError("a Cantor basis needs at least one value")
    if min(basis) < 2:
        raise ValueError(f"basis value {min(basis)} must be > 1")
    digits = [_check_digit(e, dn) for e, dn in zip(eps, cycle(basis))]
    bases = [-dn if alternating else dn for _, dn in zip(digits, cycle(basis))]
    return Fraction(_fold(digits, bases), prod(bases))


def eval_negas_cantor(eps: Sequence[int], gaps: Sequence[int], s: int) -> Fraction:
    """Exact value of a nega-s-adic Cantor series: sum (-1)^n e_n s^-(m_1+..+m_n),
    reading the gap m_n = gaps[n-1] for each digit e_n."""
    if s < 2:
        raise InvalidDigitError(f"base must be >= 2, got {s}")
    if len(gaps) < len(eps):
        raise ValueError(f"{len(eps)} digits need as many gaps, got {len(gaps)}")
    digits, bases = [], []
    for e, m in zip(eps, gaps):
        digits.append(_check_digit(e, s))
        if not (m >= 1 and m % 1 == 0):  # NaN and the infinities fail too
            raise ValueError(f"gap {m} must be a positive integer")
        bases.append(-(s ** int(m)))
    return Fraction(_fold(digits, bases), prod(bases))


def digits_from_rational(x, s: int, n: int, negative: bool = False) -> DigitString:
    """First n digits of the canonical (nega-)s-adic expansion of x.

    Positive form: x in [0, 1); the greedy floor extraction picks the
    expansion that does not end in a trailing (s-1)-run, so x = 1 (whose only
    expansion is that run) is rejected.  Negative form: x in
    [-s/(s+1), 1/(s+1)]; each digit is the unique integer placing the shifted
    remainder back inside that range (ties resolved toward the smaller
    digit).  In both cases |eval(result) - x| <= s^-n * s/(s-1).
    """
    if s < 2:
        raise InvalidDigitError(f"base must be >= 2, got {s}")
    if n < 1:
        raise ValueError("need at least one digit")
    x = Fraction(x)
    r, q = x.numerator, x.denominator
    digits = []
    if not negative:
        if x == 1:
            raise OutOfRangeError("1 has no canonical expansion (only the trailing (s-1)-run)")
        if not 0 <= r < q:
            raise OutOfRangeError(f"{x} outside [0, 1)")
        for _ in range(n):
            a, r = divmod(r * s, q)
            digits.append(a)
    else:
        if not -s * q <= r * (s + 1) <= q:
            raise OutOfRangeError(f"{x} outside [-s/(s+1), 1/(s+1)]")
        k, qs = s * (s + 1), q * (s + 1)
        for _ in range(n):
            # with y = r/q, digit a must keep the shifted remainder -s*y - a
            # inside [-s/(s+1), 1/(s+1)]: the least a >= -s*y - 1/(s+1), clamped
            a = min(max(-((r * k + q) // qs), 0), s - 1)
            digits.append(a)
            r = -s * r - a * q
    return DigitString(s, tuple(digits))
