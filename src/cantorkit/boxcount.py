"""Empirical box-counting dimension from cylinder covers.

A fixed mesh of width eps is anchored at the set's infimum.  Cylinders are
subdivided until each hull fits inside one mesh step (never above the
enumeration cap), and the cover is intersected with the mesh exactly, in
rational arithmetic.  A cell counts when the cover meets its interior or
contains the cell's left endpoint; with eps a power of 1/s the cover aligns
with the mesh and exactly self-similar sets produce the clean counts (2^n
boxes of width 3^-n for the classical Cantor set) with no boundary noise.

Subdividing only the cylinders still wider than eps gives the same cell set
as deepening every address uniformly: hull endpoints are attained by set
members, so each undersized piece touches exactly the cells its deepest
descendants touch.  The cover at a finer eps refines the one at a coarser
eps, so one walk of the cylinder tree counts every scale: it carries each
cylinder's integer frame, applies one digit map per child, and finds the
mesh cells of each scale by integer division, with no `Fraction` per node.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .cylinders import _local_hulls, set_interval
from .errors import CapExceededError
from .families import DEFAULT_CAP, ROOT_FRAME, FamilySpec, _family_const, child_frames


class _ScaleCountFields(NamedTuple):
    epsilon: float
    count: int


class ScaleCount(_ScaleCountFields):
    __slots__ = ()

    def __new__(cls, epsilon: float, count: int):
        if epsilon <= 0:
            raise ValueError("box width must be positive")
        if count < 1:
            raise ValueError("count must be >= 1")
        return super().__new__(cls, epsilon, count)


class _FitResultFields(NamedTuple):
    slope: float
    r2: float
    scales: tuple[float, ...]


class FitResult(_FitResultFields):
    __slots__ = ()

    def __new__(cls, slope: float, r2: float, scales: tuple[float, ...]):
        if not -0.1 <= slope <= 1.1:
            raise ValueError(f"fitted slope {slope} outside the plausible [-0.1, 1.1]")
        if not 0 <= r2 <= 1 + 1e-12:
            raise ValueError(f"r2 {r2} outside [0, 1]")
        return super().__new__(cls, slope, min(r2, 1.0), scales)


def _cover_counts(fam: FamilySpec, epss: Sequence[Fraction], cap: int) -> list[int]:
    """Mesh cells touched at each width of the descending list `epss`, from
    one walk of the cylinder tree.

    A node is terminal for scale i when it is the first on its path with
    hull width <= epss[i].  Each node carries the index of the first scale
    still open on its path, so the walk descends only while the finest scale
    is open: it visits exactly the nodes of the finest scale's own walk,
    which contains every coarser one.
    """
    if any(eps <= 0 for eps in epss):
        raise ValueError("eps must be positive")
    hull = set_interval(fam)
    if hull.width == 0:
        return [1] * len(epss)
    # eps_i = p/q, so each mesh index floor(x/eps_i) is one integer division
    pq = [(eps.numerator, eps.denominator) for eps in epss]
    hn, hd = hull.width.numerator, hull.width.denominator
    last = [-((-hn * q) // (hd * p)) - 1 for p, q in pq]  # ceil(width/eps) cells
    cells: list[set[int]] = [set() for _ in epss]
    # a frame's hull ends, measured from the mesh's anchor inf, are
    # shift + (V + sign * local end)/den; over M * den all are integers
    local = _local_hulls(fam)  # refuses MD: its branching is unbounded
    shift = _family_const(fam) - hull.lo
    M = math.lcm(shift.denominator, *(x.denominator for ends in local.values() for x in ends))
    shift_m = int(shift * M)
    # phase -> local hull ends and width, as numerators over M
    ends = {phase: (int(lo * M), int(hi * M), int((hi - lo) * M)) for phase, (lo, hi) in local.items()}
    pm = [p * M for p, _ in pq]
    n_scales = len(epss)
    visited = 0
    stack = [(0, ROOT_FRAME)]
    while stack:
        first, frame = stack.pop()
        visited += 1
        if visited > cap:
            raise CapExceededError(f"cover needs more than {cap} cylinders at eps={epss[-1]}")
        V, den, sign, phase = frame
        lo, hi, width = ends[phase]
        end = first  # hull width over M * den against eps_i = p/q
        while end < n_scales and width * pq[end][1] <= pm[end] * den:
            end += 1
        if end > first:
            at = shift_m * den + V * M
            a, b = (at + lo, at + hi) if sign > 0 else (at - hi, at - lo)
            for i in range(first, end):
                q, d = pq[i][1], pm[i] * den
                k1 = min((a * q) // d, last[i])
                k2, rem = divmod(b * q, d)
                if rem == 0:
                    k2 -= 1  # a right end on a mesh line claims nothing beyond it
                cells[i].update(range(k1, min(max(k2, k1), last[i]) + 1))
        if end < n_scales:
            stack.extend((end, child) for _, child in child_frames(fam, frame))
    return [len(c) for c in cells]


def fit_dimension(points: Sequence[ScaleCount]) -> FitResult:
    """Least-squares slope of log N against log(1/eps), summed as `statistics.linear_regression` sums."""
    if len(points) < 3:
        raise ValueError("need at least 3 scales")
    epss = [p.epsilon for p in points]
    if len(set(epss)) != len(epss):
        raise ValueError("degenerate scales: duplicated eps")
    if max(epss) / min(epss) < 100:
        raise ValueError("scales must span at least two decades of eps")
    xs = [math.log(1.0 / p.epsilon) for p in points]
    ys = [math.log(p.count) for p in points]
    if len(set(ys)) == 1:
        return FitResult(0.0, 1.0, tuple(epss))
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / math.fsum((x - xbar) * (x - xbar) for x in xs)
    intercept = ybar - slope * xbar
    ss_tot = math.fsum((y - ybar) ** 2 for y in ys)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return FitResult(slope, max(min(r2, 1.0), 0.0), tuple(epss))


def box_dimension(
    fam: FamilySpec, n_lo: int = 4, n_hi: int = 10, cap: int = DEFAULT_CAP
) -> tuple[FitResult, list[ScaleCount]]:
    """Fit over the aligned scales eps = s^-n, n = n_lo..n_hi."""
    if n_lo < 0:
        raise ValueError("scale exponents must be >= 0")
    if n_hi - n_lo < 2:
        raise ValueError("need at least 3 scales")
    epss = [Fraction(1, fam.s**n) for n in range(n_lo, n_hi + 1)]
    counts = _cover_counts(fam, epss, cap)
    points = [ScaleCount(float(eps), count) for eps, count in zip(epss, counts)]
    return fit_dimension(points), points
