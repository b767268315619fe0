"""Hausdorff-Besicovitch dimension computations.

Every family here is Moran-structured: its dimension is the unique root of a
pressure equation.  Roots are found by bisection in the contraction variable
t = s^-alpha, where the defining polynomial is monotone on (0, 1); this
converges unconditionally and needs no derivatives.  The closed forms (the
cubic for the odd-gap family, the periodic-gap ratio) are evaluated
directly; the cubic is cross-checked against its own bisection, and the
tests check the ratio against the block root over a period's blocks.

This is the only module (with boxcount) that uses floating point; residuals
of the defining equations are reported so callers can judge conditioning.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import OutOfRangeError, UnsupportedFamilyError
from .families import FamilySpec, block_histogram, digit_maps

ROOT_TOL = 1e-13
MAX_ITER = 200

#: terms of a Cantor series' dimension ratios r_n; the last tenth is the window
CANTOR_TERMS = 100_000


class _DimensionResultFields(NamedTuple):
    alpha: float
    method: str
    residual: float
    bracket: tuple[float, float]
    iterations: int
    degenerate: bool
    cross_check: float | None
    note: str | None


class DimensionResult(_DimensionResultFields):
    __slots__ = ()

    def __new__(
        cls,
        alpha: float,
        method: str,
        residual: float,
        bracket: tuple[float, float],
        iterations: int,
        degenerate: bool = False,
        cross_check: float | None = None,
        note: str | None = None,
    ):
        if not -1e-12 <= alpha <= 1 + 1e-12:
            raise ValueError(f"dimension {alpha} outside [0, 1]")
        alpha = min(max(alpha, 0.0), 1.0)
        lo, hi = bracket
        if not (lo - 1e-9 <= alpha <= hi + 1e-9):
            raise ValueError(f"alpha {alpha} outside bracket {bracket}")
        return super().__new__(cls, alpha, method, residual, bracket, iterations, degenerate, cross_check, note)


def _bisect_increasing(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, int, float, float]:
    """Root of an increasing f with f(lo) < 0 < f(hi), to float resolution."""
    it = 0
    for it in range(1, MAX_ITER + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo < ROOT_TOL * max(1.0, abs(mid)):
            break
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), it, lo, hi


def _alpha_from_t(t: float, s: int) -> float:
    return math.log(1.0 / t) / math.log(s)


def block_dimension(s: int, hist: Mapping[int, int]) -> DimensionResult:
    """Root of sum_k N_k t^k = 1 in t = s^-alpha for the length histogram
    `hist` = {k: N_k} of a finite block language (`block_histogram`).

    The polynomial is increasing on (0, 1), so bisection brackets the unique
    root.  An empty histogram is refused: MD's infinitely many odd zero runs
    have none, and `md_closed_form` solves their cubic.
    """
    if s < 2:
        raise OutOfRangeError(f"base must be >= 2, got {s}")
    if not hist:
        raise ValueError("block set has no finite histogram; md_closed_form gives MD's dimension")
    if sum(hist.values()) == 1:
        return DimensionResult(
            0.0, "block-root", 0.0, (0.0, 0.0), 0, degenerate=True,
            note="single block: the set is one point",
        )

    terms = sorted(hist.items())

    def poly(t):
        return math.fsum([n * t**k for k, n in terms]) - 1.0

    note = "solved sum_k N_k t^k = 1 with t = s^-alpha; N = " + str(dict(terms))
    t, it, t_lo, t_hi = _bisect_increasing(poly, 0.0, 1.0)
    alpha = _alpha_from_t(t, s)
    residual = abs(poly(s**-alpha))
    bracket = (_alpha_from_t(t_hi, s), _alpha_from_t(max(t_lo, 1e-300), s))
    return DimensionResult(alpha, "block-root", residual, bracket, it, note=note)


def family_dimension(fam: FamilySpec) -> DimensionResult:
    """Dimension of a family by its defining equation.

    Run/block families go through the block histogram of their digit maps;
    the free odd-gap family uses the cubic closed form; the periodic-gap
    family the exact ratio t/(m_1+...+m_t); a Cantor series the liminf
    estimate over CANTOR_TERMS terms.
    """
    if fam.kind == "Cantor":
        result = cantor_series_dim_estimate(fam)
    elif fam.kind == "MD":
        result = md_closed_form(fam.s)
    elif fam.kind == "MDper":
        result = periodic_dimension(fam.period)
    else:
        result = block_dimension(fam.s, block_histogram(b for b, *_ in digit_maps(fam, 0).values()))
    return result._replace(degenerate=fam.degenerate)


def md_closed_form(s: int) -> DimensionResult:
    """Closed-form dimension of the free odd-gap family.

    alpha = log_s x where x = cbrt((s-1)/2 + R) + cbrt((s-1)/2 - R),
    R = sqrt((27(s-1)^2 - 4)/3)/6; x is the positive root of x^3 - x = s-1.
    A bisection of alpha itself on [0, 1], where 1 - (s-1) s^-3alpha -
    s^-2alpha increases, is recorded as a cross-check; one of t = s^-alpha
    would stop at a width of 1e-13 in t, far from a root that small.

    a - R = 1/(27 (a + R)), a = (s-1)/2, cancels as s grows (below 0 at
    s = 10^13), so from s = 5 on x = c + 1/(3c), c = cbrt(a + R); below 5 the
    two cube roots, within 2 ulp there, keep the bytes `clibench` records.
    """
    if s < 2:
        raise OutOfRangeError(f"base must be >= 2, got {s}")
    if s > sys.float_info.max:
        raise OutOfRangeError(f"MD base {s} is past the float range")
    a = (s - 1) / 2.0
    if s < 5:
        r = math.sqrt((27.0 * (s - 1) ** 2 - 4.0) / 3.0) / 6.0
        x = (a + r) ** (1.0 / 3.0) + (a - r) ** (1.0 / 3.0)
    else:
        c = (a + a * math.sqrt(1 - 1 / (27 * a * a))) ** (1.0 / 3.0)
        x = c + 1 / (3 * c)
    alpha = math.log(x) / math.log(s)

    cross, it, _, _ = _bisect_increasing(lambda e: 1.0 - (s - 1) * s ** (-3 * e) - s ** (-2 * e), 0.0, 1.0)
    t = s**-alpha
    residual = abs((s - 1) * t**3 + t**2 - 1.0)
    lo, hi = sorted((alpha, cross))
    return DimensionResult(
        alpha, "closed-cubic", residual, (lo - 1e-12, hi + 1e-12), it, cross_check=cross
    )


def periodic_dimension(m: Sequence[int]) -> DimensionResult:
    """Dimension t/(m_1+...+m_t) of the periodic-gap family, exactly."""
    m = tuple(int(v) for v in m)
    if not m:
        raise ValueError("empty period")
    for v in m:
        if v < 1 or v % 2 == 0:
            raise OutOfRangeError(f"period entries must be odd positive integers, got {v}")
    alpha = len(m) / sum(m)
    return DimensionResult(
        alpha, "periodic", 0.0, (alpha, alpha), 0,
        note=f"exact {len(m)}/{sum(m)}",
    )


def _periodic_prefix(cycle: Sequence[float]) -> Callable[[int], float]:
    """n -> sum of the first n terms of the sequence repeating ``cycle``.

    That sum is (n // P) * fsum(cycle) + fsum(first n % P terms) for the
    period P.  Each prefix sum is summed exactly, as an integer over the
    largest power-of-two denominator of its terms, and rounded once by one
    integer division, so it equals its `math.fsum`; the table takes O(P)
    sums, not O(P^2)."""
    num, unit, partial = 0, 1, [0.0]
    for x in cycle:
        n, d = x.as_integer_ratio()
        if d > unit:  # powers of two: the smaller divides the larger
            num, unit = num * (d // unit), d
        num += n * (unit // d)
        partial.append(num / unit)
    period, total = len(cycle), partial[-1]
    return lambda n: (n // period) * total + partial[n % period]


def cantor_series_dim_estimate(fam: FamilySpec) -> DimensionResult:
    """min of r_n = sum_(j<=n) log|I_j| / sum_(j<=n) log d_j over the last tenth
    of CANTOR_TERMS terms, a stand-in for the liminf (which no finite prefix
    determines); the bracket spans r_n over that window.

    Logs are summed, never the products themselves.  Both repeat with their
    periods, so `_periodic_prefix` gives each sum to about 1 ulp in O(1).

    Only the window's first and last L terms are read, for the common period
    L = lcm(#d, #I); when 2L >= window, they are the whole window.  Along a
    residue class of n mod L, both sums grow by a fixed step per L terms, so
    r_n = (a + k alpha) / (b + k beta) with b, beta > 0: a monotone Moebius
    function of k, whose minimum and maximum over the window fall on the
    class's first or last member, and those lie among the terms read.  The
    cost is O(#d + #I + min(L, window)).  In a nearly constant
    class, the rounded r_n at an interior member may fall an ulp or two
    outside its ends, so a scan of the whole window can differ by that much.
    """
    if fam.kind != "Cantor":
        raise UnsupportedFamilyError(f"{fam.kind} is not a Cantor series")
    sum_log_sizes = _periodic_prefix([math.log(len(I)) for I in fam.level_sets])
    sum_log_d = _periodic_prefix([math.log(v) for v in fam.basis])
    n, window = CANTOR_TERMS, CANTOR_TERMS // 10
    terms, period = range(n - window + 1, n + 1), math.lcm(len(fam.basis), len(fam.level_sets))
    ends = {*terms[:period], *terms[-period:]}  # each residue class's first and last member
    ratios = [sum_log_sizes(j) / sum_log_d(j) for j in ends]
    return DimensionResult(
        min(ratios), "liminf-estimate", 0.0, (min(ratios), max(ratios)), n,
        note=f"min of r_n over the last {window} of {n} terms",
    )
