"""Empirical box-counting dimension from cylinder covers.

A fixed mesh of width eps = s^-n is anchored at phase 0's local infimum,
the set's infimum less the family constant: a translation changes no
count.  Cylinders are subdivided until each hull fits inside one mesh step
(a walk sized before it starts), and the cover is intersected with the
mesh exactly, in integers.  A cell counts when the cover meets its interior
or contains the cell's left endpoint; at these widths the cover aligns with
the mesh, and exactly self-similar sets produce the clean counts (2^n boxes
of width 3^-n for the classical Cantor set) with no boundary noise.

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
from typing import NamedTuple, Sequence

from .cylinders import _local_hulls
from .families import DEFAULT_CAP, ROOT_FRAME, FamilySpec, _selector_maps, box_walk, child_frames


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


def _cover_counts(fam: FamilySpec, ns: Sequence[int], cap: int) -> list[int]:
    """Mesh cells touched at each width s^-n, n in the ascending list `ns`,
    from one walk of the cylinder tree.

    The mesh is anchored at phase 0's local inf, the set's inf less the
    family constant; a translation changes no count.  A node is terminal for
    scale i when it is the first on its path with hull width <= s^-ns[i].
    Each node carries the index of the first scale still open on its path,
    so the walk descends only while the finest scale is open: it visits
    exactly the nodes of the finest scale's own walk, which contains every
    coarser one; `box_walk` counts them before it.
    """
    local = _local_hulls(fam)  # refuses MD: its branching is unbounded
    # a frame's hull ends, measured from the anchor, are (V + sign * local
    # end)/den - anchor; over d = M * den all are integers, and the mesh
    # index of x/d at width 1/q is one integer division, x * q // d
    M = math.lcm(*(x.denominator for ends in local.values() for x in ends))
    anchor = int(local[0][0] * M)
    # phase -> local hull ends and width, as numerators over M
    ends = {phase: (int(lo * M), int(hi * M), int((hi - lo) * M)) for phase, (lo, hi) in local.items()}
    qs = [fam.s**n for n in ns]
    last = [-((-ends[0][2] * q) // M) - 1 for q in qs]  # ceil(width * q) cells
    cells: list[set[int]] = [set() for _ in qs]
    box_walk(fam, lambda den, phase: ends[phase][2] * qs[-1] > M * den, cap, f"to eps={fam.s}^-{ns[-1]}")
    stack = [(0, ROOT_FRAME)]
    while stack:
        first, frame = stack.pop()
        V, den, sign, phase = frame
        lo, hi, width = ends[phase]
        d, end = M * den, first
        while end < len(qs) and width * qs[end] <= d:
            end += 1
        if end > first:
            at = V * M - anchor * den
            a, b = (at + lo, at + hi) if sign > 0 else (at - hi, at - lo)
            for i in range(first, end):
                k1 = min((a * qs[i]) // d, last[i])
                k2, rem = divmod(b * qs[i], d)
                if rem == 0:
                    k2 -= 1  # a right end on a mesh line claims nothing beyond it
                cells[i].update(range(k1, min(max(k2, k1), last[i]) + 1))
        if end < len(qs):
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
    fam: FamilySpec, n_lo: int = 4, n_hi: int | None = None, cap: int = DEFAULT_CAP
) -> tuple[FitResult, list[ScaleCount]]:
    """Fit over the aligned scales eps = s^-n, n = n_lo..n_hi; `n_hi` defaults to the
    smallest n >= 10 with s^(n-4) >= 100, the two decades `fit_dimension` needs."""
    if n_hi is None:
        n_hi = 10 + (fam.s**6 < 100)
    next(_selector_maps(fam, 0))  # MD and a base of over DEFAULT_CAP selectors are refused first
    if n_lo < 0:
        raise ValueError("scale exponents must be >= 0")
    if n_hi - n_lo < 2:
        raise ValueError("need at least 3 scales")
    # the checks `ScaleCount` and `fit_dimension` make after the walk, made
    # before it: float(s^-n) is 0.0 once s^n >= 2^1075, always when n > 1075
    if n_hi > 1075 or fam.s**n_hi >= 2**1075:
        raise ValueError(f"--scales n_hi = {n_hi} makes eps = {fam.s}^-{n_hi} round to float 0; lower n_hi")
    if (n_hi - n_lo) * math.log10(fam.s) < 2:
        raise ValueError("scales must span at least two decades of eps")
    ns = range(n_lo, n_hi + 1)
    points = [ScaleCount(1 / fam.s**n, count) for n, count in zip(ns, _cover_counts(fam, ns, cap))]
    return fit_dimension(points), points
