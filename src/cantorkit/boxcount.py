"""Empirical box-counting dimension from exact mesh counts.

A fixed mesh of width eps = s^-n is anchored at the set's infimum, the
left end of phase 0's hull.  The cover is made of terminal cylinders, the
first on each path whose hull fits inside one mesh step, and is intersected
with the mesh exactly, in integers.  A cell counts when the cover meets its
interior or contains the cell's left endpoint; at these widths the cover
aligns with the mesh, and exactly self-similar sets produce the clean counts
(2^n boxes of width 3^-n for the classical Cantor set) with no boundary noise.

Subdividing only the cylinders still wider than eps gives the same cell set
as deepening every address uniformly: hull endpoints are attained by set
members, so each undersized piece touches exactly the cells its deepest
descendants touch.  The cover at a finer eps refines the one at a coarser
eps, so the counts at every scale come from one pass, by one of two
counters that count the same cells:

* `_type_counts`, when every digit map's m is a power of s: that is every
  kind but a mixed-basis Cantor series.  A cell's type is the set of
  terminal pieces that claim it, rescaled so the cell is [0, 1); it decides
  its s subcells' types, and there are finitely many types (the finite-type
  condition of Bandt & Graf, Proc. AMS 114, 1992, and Ngai & Wang, J. London
  Math. Soc. 63, 2001).  Each type, and each distinct piece, is split once
  and each level carries a count per type, so the cost stops growing with n
  once the types close (38 for Tilde(s=4)), where the walk grows like N(s^-n).
* `_cover_counts`, a walk of the cylinder tree, for a mixed basis: a map
  whose scale is no power of s puts pieces at offsets that need not repeat
  on the mesh, and there the types ran into the thousands, slower than the
  walk.  It carries each cylinder's integer frame, applies one digit map per
  child and finds the mesh cells of each scale by integer division.  It is
  also the type counter's test reference.

Each is refused past `--cap` by its own work: the walk by the cylinders
`box_walk` counts before it, the types by the work of their splits.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .cylinders import _local_hulls
from .families import DEFAULT_CAP, ROOT_FRAME, FamilySpec, _system_maps, box_walk, child_frames, type_work


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


Mesh = tuple[int, dict[int, tuple[int, int, int]], dict[int, list[tuple[int, int, int, int]]]]


def _mesh(fam: FamilySpec) -> Mesh:
    """M, phase -> (lo, hi, width) of the phase's local hull as numerators
    over M, and phase -> its system's maps (gn * M, sk, m, next_phase), MD's
    too: the one pass over hulls and maps that both counters read.  M is the
    least common denominator of every hull end: the lcm of each phase's
    share, D / gcd(lo, hi, D) of its solved ends (lo, hi, D)."""
    local = _local_hulls(fam)
    M = math.lcm(*(D // math.gcd(lo, hi, D) for lo, hi, D in local.values()))
    ends = {phase: (lo * M // D, hi * M // D, (hi - lo) * M // D) for phase, (lo, hi, D) in local.items()}
    maps = {p: [(gn * M, sk, m, nxt) for _, gn, sk, m, nxt in _system_maps(fam, p).values()] for p in ends}
    return M, ends, maps


def _cover_counts(fam: FamilySpec, ns: Sequence[int], cap: int, mesh: Mesh) -> list[int]:
    """Mesh cells touched at each width s^-n, n in the ascending list `ns`,
    from one walk of the cylinder tree.

    A node is terminal for scale i when it is the first on its path with
    hull width <= s^-ns[i].  Each node carries the index of the first scale
    still open on its path, so the walk descends only while the finest scale
    is open: it visits exactly the nodes of the finest scale's own walk,
    which contains every coarser one; `box_walk` counts them first (rule 1).
    """
    # a frame's hull ends, measured from the anchor, are (V + sign * local
    # end)/den - anchor; over d = M * den all are integers, and the mesh
    # index of x/d at width 1/q is one integer division, x * q // d
    M, ends, _ = mesh
    qs = [fam.s**n for n in ns]
    box_walk(fam, lambda den, phase: ends[phase][2] * qs[-1] > M * den, cap, f"to eps={fam.s}^-{ns[-1]}")
    anchor = ends[0][0]
    last = [-((-ends[0][2] * q) // M) - 1 for q in qs]  # ceil(width * q) cells
    cells: list[set[int]] = [set() for _ in qs]
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


#: a piece of a cell's cover, (T, R, sign, phase), all integers: the image of
#: the set at `phase` under x -> (T + sign * R * x * M) / unit, in
#: coordinates where the cell is [0, 1) and `unit` is fixed per family
Piece = tuple[int, int, int, int]


def _claims(piece: Piece, s: int, unit: int, ends, maps, room: int) -> tuple[dict[int, list[Piece]], int]:
    """Subcell c of [0, s), the cell rescaled by s, -> the terminal parts
    (width <= 1) of `piece` that claim it as `_cover_counts` does, and the
    work: one a part popped plus the maps it applies, stopped before a split
    past `room`.  A part claiming no subcell is dropped with all its
    descendants, which lie inside its hull."""
    found, work, stack = {}, 0, [(s * piece[0], s * piece[1], piece[2], piece[3])]
    while stack:
        T, R, sign, phase = stack.pop()
        work += 1
        lo, hi, width = ends[phase]
        a, b = (T + R * lo, T + R * hi) if sign > 0 else (T - R * hi, T - R * lo)
        k1 = a // unit
        k2 = max(k1, -(-b // unit) - 1)  # a right end on a mesh line claims nothing beyond it
        if k2 < 0 or k1 >= s:
            continue
        if R * width > unit:  # a map x -> (gn + sk*x)/m scales the part by 1/m
            if (work := work + len(maps[phase])) > room:
                break
            stack.extend((T + sign * (R // m) * gn, R // m, sign * sk, nxt) for gn, sk, m, nxt in maps[phase])
            continue
        for c in range(max(k1, 0), min(k2, s - 1) + 1):
            found.setdefault(c, []).append((T - c * unit, R, sign, phase))
    return found, work


def _subcell_types(pieces: frozenset, claims) -> list[frozenset]:
    """The types of a cell's nonempty subcells: its pieces' claims by subcell."""
    subcells: dict[int, list[Piece]] = {}  # s may be far too large for a list
    for piece in pieces:
        for c, parts in claims(piece).items():
            subcells.setdefault(c, []).extend(parts)
    return [frozenset(parts) for parts in subcells.values()]


def _type_counts(fam: FamilySpec, ns: Sequence[int], cap: int, mesh: Mesh) -> list[int]:
    """`_cover_counts` from a recursion over cell types, for a family whose
    every map's m is a power of s.

    A mesh cell's type is the set of terminal pieces that claim it, rescaled
    so that the cell is [0, 1); the type alone decides its subcells' type ids
    (`_subcell_types`), so each type and each distinct piece (`_claims`) is
    split once, and each level carries a count per id.  Since m is a power of
    s, a piece's scale is a power of s, bounded above by terminality and below
    by one split, and its offset a multiple of 1/unit in a bounded range:
    finitely many types.  `cap` bounds the pieces' work times unit's words.
    """
    M, ends, maps = mesh
    # every phase's hull has width <= 1 (s-adic and Cantor values lie in
    # [0, 1], nega-s-adic ones in [-s/(s+1), 1/(s+1)], Sminus' in [-1/s, 0]),
    # so with R the largest m the whole hull fits cell 0 at level 0, and a
    # piece wide enough to split has a scale every m divides
    R = max(m for ms in maps.values() for _, _, m, _ in ms)
    unit = M * R
    words, spent, found = unit.bit_length() // 64 + 1, 0, {}

    def claims(piece: Piece) -> dict[int, list[Piece]]:
        nonlocal spent
        if piece not in found:
            found[piece], work = _claims(piece, fam.s, unit, ends, maps, (cap - spent) // words)
            if (spent := spent + work * words) > cap:
                type_work(spent, cap, f"splitting cell types to eps={fam.s}^-{ns[-1]}")
        return found[piece]

    root = frozenset({(-R * ends[0][0], R, 1, 0)})
    ids, kids = {root: 0}, []  # kids[i]: the ids of type i's subcells' types
    counts, at = {0: 1}, [1]  # at[n]: the cells of level n
    for _ in range(ns[-1]):
        finer, types = {}, list(ids)
        for t, count in counts.items():
            if t == len(kids):  # ids follow the order types first occur in, the order they are split in
                kids.append([ids.setdefault(sub, len(ids)) for sub in _subcell_types(types[t], claims)])
            for k in kids[t]:
                finer[k] = finer.get(k, 0) + count
        counts = finer
        at.append(sum(counts.values()))
    return [at[n] for n in ns]


def fit_dimension(points: Sequence[ScaleCount]) -> FitResult:
    """Least-squares slope of log N against log(1/eps), summed as `statistics.linear_regression` sums."""
    if len(points) < 3:
        raise ValueError("need at least 3 scales")
    epss = [p.epsilon for p in points]
    if len(set(epss)) != len(epss):
        raise ValueError("degenerate scales: duplicated eps")
    if max(epss) / min(epss) < 100:
        raise ValueError("scales must span at least two decades of eps")
    # 1/eps overflows to inf once eps is subnormal, where -log(eps) stays finite
    xs = [math.log(1.0 / e) if 1.0 / e < math.inf else -math.log(e) for e in epss]
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
    _system_maps(fam, 0)  # a table past DEFAULT_CAP selectors or block digits is refused first
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
    mesh = _mesh(fam)  # every phase, each refused as the counters refuse it
    finite = all(fam.s ** round(math.log(m, fam.s)) == m for ms in mesh[2].values() for _, _, m, _ in ms)
    counts = (_type_counts if finite else _cover_counts)(fam, ns, cap, mesh)  # a mixed basis walks
    points = [ScaleCount(1 / fam.s**n, count) for n, count in zip(ns, counts)]
    return fit_dimension(points), points
