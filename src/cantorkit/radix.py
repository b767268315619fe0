"""Exact evaluation of positional number expansions.

Every value is returned as an exact `fractions.Fraction`.  Supported
expansions, for an integer base s > 1:

* s-adic:                 x = sum_n  a_n s^-n,          a_n in {0..s-1}
* nega-s-adic:            x = sum_n (-1)^n a_n s^-n
* Cantor series:          x = sum_n  e_n / (d_1...d_n), e_n in {0..d_n-1}
* alternating Cantor:     x = sum_n (-1)^n e_n / (d_1...d_n)
* nega-s-adic Cantor:     x = sum_n (-1)^n e_n s^-(m_1+...+m_n)

Finite digit sequences denote zero-padded tails.  An optional periodic tail
closes eventually-periodic expansions exactly (a geometric series); those
two tail forms are the only closures supported.

The (nega-)s-adic evaluators fold the digits Horner-style into one integer
numerator over s^n; `digits_from_rational` steps one over x's denominator.
The Cantor-series evaluators sum `Fraction`s term by term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidDigitError, OutOfRangeError


class DigitString:
    """A finite digit sequence over the alphabet {0, ..., s-1}.

    Immutable and compared by value.  Not a tuple, since its length and
    iteration are those of its digits."""

    __slots__ = ("s", "digits")

    def __init__(self, s: int, digits: tuple[int, ...]):
        if s < 2:
            raise InvalidDigitError(f"base must be >= 2, got {s}")
        digits = tuple(map(int, digits))
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


def _check_digit(d: int, bound: int, what: str = "digit") -> int:
    d = int(d)
    if not 0 <= d < bound:
        raise InvalidDigitError(f"{what} {d} outside {{0..{bound - 1}}}")
    return d


def _fold(s: int, digits: Sequence[int], alternating: bool) -> int:
    """sum_k sgn(k) d_k s^(len-k) over the digits d_1..d_len; sgn(k) is (-1)^k when alternating, else 1."""
    b, num = (-s if alternating else s), 0
    for a in digits:
        num = num * b + a  # Horner in base -s gives (-1)^len times the alternating sum
    return -num if alternating and len(digits) % 2 else num


def _periodic_tail_value(s: int, tail: Sequence[int], alternating: bool, start: int) -> Fraction:
    """Exact value of the periodic tail t_1 t_2 ... appended after position `start`.

    Returns sum_{j>=1} sgn(start+j) * t_((j-1) mod p + 1) * s^-(start+j) divided
    by s^-start, i.e. the tail value *relative* to position `start`; the caller
    scales by s^-start.  For the alternating form the effective period is 2p
    when p is odd (the sign pattern needs two passes to repeat).
    """
    tail = tuple(_check_digit(t, s, "tail digit") for t in tail)
    if not tail:
        return Fraction(0)
    block = tail * (1 + (alternating and len(tail) % 2))  # one effective period, of length e
    num = _fold(s, block, alternating)  # the block's value times s^e, signed from position 1
    return Fraction(-num if alternating and start % 2 else num, s ** len(block) - 1)


def _value(d: DigitString, tail: Sequence[int], alternating: bool) -> Fraction:
    """The digits, then the periodic tail, as one numerator over s^n (s^n (s^e - 1) with the tail)."""
    s, n = d.s, len(d.digits)
    num = _fold(s, d.digits, alternating)
    if not tail:
        return Fraction(num, s**n)
    t = _periodic_tail_value(s, tail, alternating, n)
    return Fraction(num * t.denominator + t.numerator, s**n * t.denominator)


def eval_sadic(d: DigitString, tail: Sequence[int] = ()) -> Fraction:
    """Exact value of an s-adic expansion: sum a_n s^-n.

    `tail`, when given, is a digit block repeated forever after the finite
    prefix; the geometric closure is evaluated exactly.
    """
    return _value(d, tail, False)


def eval_negasadic(d: DigitString, tail: Sequence[int] = ()) -> Fraction:
    """Exact value of a nega-s-adic expansion: sum (-1)^n a_n s^-n."""
    return _value(d, tail, True)


def eval_cantor(eps: Sequence[int], basis: Sequence[int], alternating: bool = False) -> Fraction:
    """Exact value of a (possibly alternating) Cantor series over the basis
    repeating `basis`: d_n = basis[(n-1) mod len(basis)]."""
    basis = tuple(int(v) for v in basis)
    if not basis:
        raise ValueError("a Cantor basis needs at least one value")
    if min(basis) < 2:
        raise ValueError(f"basis value {min(basis)} must be > 1")
    value = Fraction(0)
    denom = 1
    for n, e in enumerate(eps, 1):
        dn = basis[(n - 1) % len(basis)]
        e = _check_digit(e, dn)
        denom *= dn
        term = Fraction(e, denom)
        value += -term if (alternating and n % 2 == 1) else term
    return value


def eval_negas_cantor(eps: Sequence[int], gaps: Sequence[int], s: int) -> Fraction:
    """Exact value of a nega-s-adic Cantor series: sum (-1)^n e_n s^-(m_1+..+m_n),
    reading the gap m_n = gaps[n-1] for each digit e_n."""
    if s < 2:
        raise InvalidDigitError(f"base must be >= 2, got {s}")
    if len(gaps) < len(eps):
        raise ValueError(f"{len(eps)} digits need as many gaps, got {len(gaps)}")
    value = Fraction(0)
    k = 0
    for n, (e, m) in enumerate(zip(eps, gaps), 1):
        e = _check_digit(e, s)
        if m < 1:
            raise ValueError(f"gap {m} must be a positive integer")
        k += m
        value += Fraction((-1) ** n * e, s**k)
    return value


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
