"""Exact evaluation of positional number expansions.

Everything here is computed over `fractions.Fraction`.  The one
float-valued function is `CantorBasis.log_d`, which gives the dimension
estimates log d_n without materialising d_n.  Supported expansions, for an
integer base s > 1:

* s-adic:                 x = sum_n  a_n s^-n,          a_n in {0..s-1}
* nega-s-adic:            x = sum_n (-1)^n a_n s^-n
* Cantor series:          x = sum_n  e_n / (d_1...d_n), e_n in {0..d_n-1}
* alternating Cantor:     x = sum_n (-1)^n e_n / (d_1...d_n)
* nega-s-adic Cantor:     x = sum_n (-1)^n e_n s^-(m_1+...+m_n)

Finite digit sequences denote zero-padded tails.  An optional periodic tail
closes eventually-periodic expansions exactly (geometric series in Fraction
arithmetic); those two tail forms are the only closures supported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvalidDigitError, OutOfRangeError


class DigitString:
    """A finite digit sequence over the alphabet {0, ..., s-1}.

    Immutable and compared by value.  Not a tuple, since its length and
    iteration are those of its digits."""

    __slots__ = ("s", "digits")

    def __init__(self, s: int, digits: tuple[int, ...]):
        if s < 2:
            raise InvalidDigitError(f"base must be >= 2, got {s}")
        digits = tuple(int(d) for d in digits)
        for d in digits:
            if not 0 <= d < s:
                raise InvalidDigitError(f"digit {d} outside alphabet of base {s}")
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


class _CantorBasisFields(NamedTuple):
    kind: str
    values: tuple[int, ...]
    base: int


class CantorBasis(_CantorBasisFields):
    """A deterministic generator of a basis sequence (d_n), d_n >= 2.

    Three generator kinds are supported:

    * ``constant``: d_n = values[0] for all n
    * ``periodic``: d_n cycles through ``values``
    * ``power``:    d_n = base**n (queried lazily; ``log_d`` avoids ever
      materialising the huge integers)
    """

    __slots__ = ()

    def __new__(cls, kind: str, values: tuple[int, ...] = (), base: int = 0):
        if kind not in ("constant", "periodic", "power"):
            raise ValueError(f"unknown basis kind {kind!r}")
        values = tuple(int(v) for v in values)
        if kind in ("constant", "periodic"):
            if not values:
                raise ValueError("constant/periodic basis needs at least one value")
            for v in values:
                if v < 2:
                    raise ValueError(f"basis value {v} must be > 1")
        else:
            if base < 2:
                raise ValueError(f"power basis needs base >= 2, got {base}")
        return super().__new__(cls, kind, values, base)

    @classmethod
    def constant(cls, d: int) -> "CantorBasis":
        return cls("constant", (d,))

    @classmethod
    def periodic(cls, values: Sequence[int]) -> "CantorBasis":
        return cls("periodic", tuple(values))

    @classmethod
    def power(cls, base: int) -> "CantorBasis":
        return cls("power", (), base)

    def d(self, n: int) -> int:
        """The n-th basis element, 1-indexed."""
        if n < 1:
            raise ValueError("basis index starts at 1")
        if self.kind == "constant":
            return self.values[0]
        if self.kind == "periodic":
            return self.values[(n - 1) % len(self.values)]
        return self.base**n

    def log_d(self, n: int) -> float:
        """log d_n without materialising d_n (d_n can be astronomically big)."""
        if self.kind == "power":
            return n * math.log(self.base)
        return math.log(self.d(n))


def _check_digit(d: int, bound: int, what: str = "digit") -> int:
    d = int(d)
    if not 0 <= d < bound:
        raise InvalidDigitError(f"{what} {d} outside {{0..{bound - 1}}}")
    return d


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
    p = len(tail)
    if alternating:
        eff = p if p % 2 == 0 else 2 * p
        block = sum(
            Fraction((-1) ** (start + j) * tail[(j - 1) % p], s**j) for j in range(1, eff + 1)
        )
        # sign pattern of period eff repeats exactly: (-1)^(start+j+eff) = (-1)^(start+j)
        return block * Fraction(s**eff, s**eff - 1)
    block = sum(Fraction(tail[(j - 1) % p], s**j) for j in range(1, p + 1))
    return block * Fraction(s**p, s**p - 1)


def eval_sadic(d: DigitString, tail: Sequence[int] = ()) -> Fraction:
    """Exact value of an s-adic expansion: sum a_n s^-n.

    `tail`, when given, is a digit block repeated forever after the finite
    prefix; the geometric closure is evaluated exactly.
    """
    s = d.s
    value = sum(Fraction(a, s**n) for n, a in enumerate(d.digits, 1))
    if tail:
        value += Fraction(1, s ** len(d)) * _periodic_tail_value(s, tail, False, len(d))
    return value


def eval_negasadic(d: DigitString, tail: Sequence[int] = ()) -> Fraction:
    """Exact value of a nega-s-adic expansion: sum (-1)^n a_n s^-n."""
    s = d.s
    value = sum(Fraction((-1) ** n * a, s**n) for n, a in enumerate(d.digits, 1))
    if tail:
        value += Fraction(1, s ** len(d)) * _periodic_tail_value(s, tail, True, len(d))
    return value


def eval_cantor(eps: Sequence[int], basis: CantorBasis, alternating: bool = False) -> Fraction:
    """Exact value of a (possibly alternating) Cantor series over `basis`."""
    value = Fraction(0)
    denom = 1
    for n, e in enumerate(eps, 1):
        dn = basis.d(n)
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
    digits = []
    if not negative:
        if x == 1:
            raise OutOfRangeError("1 has no canonical expansion (only the trailing (s-1)-run)")
        if not 0 <= x < 1:
            raise OutOfRangeError(f"{x} outside [0, 1)")
        y = x
        for _ in range(n):
            y *= s
            a = y.numerator // y.denominator
            digits.append(a)
            y -= a
    else:
        lo, hi = Fraction(-s, s + 1), Fraction(1, s + 1)
        if not lo <= x <= hi:
            raise OutOfRangeError(f"{x} outside [-s/(s+1), 1/(s+1)]")
        y = x
        for _ in range(n):
            # digit a must keep the shifted remainder -s*y - a inside [lo, hi]
            a_min = -s * y - hi
            a = -((-a_min.numerator) // a_min.denominator)  # ceil
            a = min(max(a, 0), s - 1)
            digits.append(a)
            y = -s * y - a
    return DigitString(s, tuple(digits))
