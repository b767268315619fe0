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
descendants touch.  The walk carries each cylinder's affine frame and
applies one digit map per child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import linear_regression
from typing import Sequence

from .cylinders import frame_hull, set_interval
from .errors import CapExceededError, UnsupportedFamilyError
from .families import DEFAULT_CAP, FamilySpec, address_frame, child_frames


@dataclass(frozen=True)
class ScaleCount:
    epsilon: float
    count: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("box width must be positive")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class FitResult:
    slope: float
    r2: float
    scales: tuple[float, ...]

    def __post_init__(self):
        if not -0.1 <= self.slope <= 1.1:
            raise ValueError(f"fitted slope {self.slope} outside the plausible [-0.1, 1.1]")
        if not 0 <= self.r2 <= 1 + 1e-12:
            raise ValueError(f"r2 {self.r2} outside [0, 1]")
        object.__setattr__(self, "r2", min(self.r2, 1.0))


def boxes_at_scale(fam: FamilySpec, eps, depth: int = 0, cap: int = DEFAULT_CAP) -> ScaleCount:
    """Number of eps-mesh cells touched by a cylinder cover of the family.

    `depth` is the minimum rank a cylinder must reach before it may be
    counted; beyond that, cylinders split until their hulls measure <= eps.
    """
    if fam.kind in ("MD", "Cantor"):
        raise UnsupportedFamilyError(f"{fam.kind} cylinders cannot be enumerated for counting")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    hull = set_interval(fam)
    if hull.width == 0:
        return ScaleCount(float(eps), 1)
    span = hull.width / eps
    total = -((-span.numerator) // span.denominator)  # ceil: number of mesh cells
    cells: set[int] = set()
    visited = 0
    stack = [(0, address_frame(fam, ()))]
    while stack:
        rank, frame = stack.pop()
        visited += 1
        if visited > cap:
            raise CapExceededError(f"cover needs more than {cap} cylinders at eps={eps}")
        iv = frame_hull(fam, frame)
        if iv.width > eps or rank < depth:
            stack.extend((rank + 1, child) for _, child in child_frames(fam, frame))
            continue
        qa = (iv.lo - hull.lo) / eps
        qb = (iv.hi - hull.lo) / eps
        k1 = qa.numerator // qa.denominator
        k1 = min(max(k1, 0), total - 1)
        if iv.width == 0:
            cells.add(k1)
            continue
        if qb.denominator == 1:
            k2 = qb.numerator - 1  # right endpoint on a mesh line claims nothing beyond
        else:
            k2 = qb.numerator // qb.denominator
        k2 = min(max(k2, k1), total - 1)
        cells.update(range(k1, k2 + 1))
    return ScaleCount(float(eps), len(cells))


def fit_dimension(points: Sequence[ScaleCount]) -> FitResult:
    """Least-squares slope of log N against log(1/eps)."""
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
    slope, intercept = linear_regression(xs, ys)
    mean = math.fsum(ys) / len(ys)
    ss_tot = math.fsum((y - mean) ** 2 for y in ys)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return FitResult(slope, max(min(r2, 1.0), 0.0), tuple(epss))


def box_dimension(
    fam: FamilySpec, n_lo: int = 4, n_hi: int = 10, cap: int = DEFAULT_CAP
) -> tuple[FitResult, list[ScaleCount]]:
    """Fit over the aligned scales eps = s^-n, n = n_lo..n_hi."""
    if n_hi - n_lo < 2:
        raise ValueError("need at least 3 scales")
    points = [boxes_at_scale(fam, Fraction(1, fam.s**n), cap=cap) for n in range(n_lo, n_hi + 1)]
    return fit_dimension(points), points
