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
from typing import Callable, NamedTuple, Sequence

from .errors import OutOfRangeError
from .families import BlockSet, FamilySpec, blocks_of_family, check_cantor_alignment
from .radix import CantorBasis

ROOT_TOL = 1e-13
MAX_ITER = 200


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


def block_dimension(s: int, blocks: BlockSet) -> DimensionResult:
    """Root of sum_k N_k t^k = 1 in t = s^-alpha over the length histogram.

    The polynomial is increasing on (0, 1), so bisection brackets the unique
    root.  A block set with no finite histogram (MD's odd zero runs) is
    refused: `md_closed_form` solves its cubic.
    """
    if s < 2:
        raise OutOfRangeError(f"base must be >= 2, got {s}")
    if not blocks.histogram:
        raise ValueError("block set has no finite histogram; md_closed_form gives MD's dimension")
    hist = blocks.counts()
    if blocks.size == 1:
        return DimensionResult(
            0.0, "block-root", 0.0, (0.0, 0.0), 0, degenerate=True,
            note="single block: the set is one point",
        )

    def poly(t):
        return math.fsum(n * t**k for k, n in sorted(hist.items())) - 1.0

    note = "solved sum_k N_k t^k = 1 with t = s^-alpha; N = " + str(dict(sorted(hist.items())))
    t, it, t_lo, t_hi = _bisect_increasing(poly, 0.0, 1.0)
    alpha = _alpha_from_t(t, s)
    residual = abs(poly(s**-alpha))
    bracket = (_alpha_from_t(t_hi, s), _alpha_from_t(max(t_lo, 1e-300), s))
    return DimensionResult(alpha, "block-root", residual, bracket, it, note=note)


def family_dimension(fam: FamilySpec) -> DimensionResult:
    """Dimension of a family by its defining equation.

    Run/block families go through their block histogram; the free odd-gap
    family uses the cubic closed form; the periodic-gap family the exact
    ratio t/(m_1+...+m_t); a Cantor series the liminf estimate over 100,000
    terms.
    """
    if fam.kind == "Cantor":
        result = cantor_series_dim_estimate(fam.basis, fam.level_sets, n_max=100_000).to_dimension_result()
    elif fam.kind == "MD":
        result = md_closed_form(fam.s)
    elif fam.kind == "MDper":
        result = periodic_dimension(fam.period)
    else:
        result = block_dimension(fam.s, blocks_of_family(fam))
    return result._replace(degenerate=fam.degenerate)


def md_closed_form(s: int) -> DimensionResult:
    """Closed-form dimension of the free odd-gap family.

    alpha = log_s x where x = cbrt((s-1)/2 + R) + cbrt((s-1)/2 - R),
    R = sqrt((27(s-1)^2 - 4)/3)/6; x is the positive root of x^3 - x = s-1.
    The generic cubic bisection is recorded as a cross-check.
    """
    if s < 2:
        raise OutOfRangeError(f"base must be >= 2, got {s}")
    a = (s - 1) / 2.0
    r = math.sqrt((27.0 * (s - 1) ** 2 - 4.0) / 3.0) / 6.0
    x = (a + r) ** (1.0 / 3.0) + (a - r) ** (1.0 / 3.0)  # a - r > 0 (a^2 - r^2 = 1/27)
    alpha = math.log(x) / math.log(s)

    def poly(t):
        return (s - 1) * t**3 + t**2 - 1.0

    t, it, t_lo, t_hi = _bisect_increasing(poly, 0.0, 1.0)
    cross = _alpha_from_t(t, s)
    residual = abs(poly(s**-alpha))
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


class CantorSeriesEstimate(NamedTuple):
    """Running dimension ratios r_n for a digit-restricted Cantor series.

    ``ratios`` holds r_n for the trailing window n = terms-window+1..terms.
    ``proxy`` is their minimum, reported as a stand-in for the liminf (which
    no finite prefix determines)."""

    ratios: tuple[float, ...]
    proxy: float
    window: int
    terms: int
    side_condition_last: float
    side_condition_slow: bool

    def to_dimension_result(self) -> DimensionResult:
        return DimensionResult(
            self.proxy,
            "liminf-estimate",
            0.0,
            (min(self.ratios), max(self.ratios)),
            self.terms,
            note=f"min of r_n over the last {self.window} of {self.terms} terms",
        )


def _periodic_prefix(cycle: Sequence[float]) -> Callable[[int], float]:
    """n -> sum of the first n terms of the sequence repeating ``cycle``.

    That sum is (n // P) * fsum(cycle) + fsum(first n % P terms) for the
    period P; both fsums are correctly rounded and computed once."""
    partial = [math.fsum(cycle[:r]) for r in range(len(cycle) + 1)]
    period, total = len(cycle), partial[-1]
    return lambda n: (n // period) * total + partial[n % period]


def cantor_series_dim_estimate(
    basis: CantorBasis,
    level_sets: Sequence[Sequence[int]],
    n_max: int,
    window: int | None = None,
) -> CantorSeriesEstimate:
    """r_n = sum_(j<=n) log|I_j| / sum_(j<=n) log d_j plus a liminf proxy.

    Logs are summed (never the products themselves), so bases like d_n = 2^n
    stay in float range.  Both prefix sums have closed forms: the level-set
    logs and a constant or periodic basis repeat with their period P, so a
    sum is (n // P) * fsum(cycle) + fsum(first n % P terms), and a power
    basis d_n = b^n sums to log(b) * n(n+1)/2.  Each is one or two roundings
    of correctly rounded sums, about 1 ulp, so r_n is built in O(1) for just
    the n in the trailing window.  The side condition
    log d_n / log(d_1...d_n) -> 0 is evaluated at n_max and flagged (not
    failed) when it is still above 0.1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    sets = [tuple(sorted(set(int(d) for d in I))) for I in level_sets]
    if not sets:
        raise ValueError("need at least one level digit set")
    for I in sets:
        if not I:
            raise ValueError("empty level digit set")
    check_cantor_alignment(basis, sets)
    sum_log_sizes = _periodic_prefix([math.log(len(I)) for I in sets])
    if basis.kind == "power":
        log_b = math.log(basis.base)

        def sum_log_d(n):
            return log_b * (n * (n + 1) // 2)

    else:
        sum_log_d = _periodic_prefix([math.log(v) for v in basis.values])
    w = min(window if window is not None else max(100, n_max // 10), n_max)
    ratios = tuple(sum_log_sizes(n) / sum_log_d(n) for n in range(n_max - w + 1, n_max + 1))
    side = basis.log_d(n_max) / sum_log_d(n_max)
    return CantorSeriesEstimate(
        ratios=ratios,
        proxy=min(ratios),
        window=w,
        terms=n_max,
        side_condition_last=side,
        side_condition_slow=side > 0.1,
    )
