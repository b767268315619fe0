"""Exact cylinder geometry: interval formulas, a level oracle, gaps,
orderings and covering sums.

Closed-form intervals exist for the run-length families S/Su (any u), NSu
with u = 0, and Sminus; each cylinder is the image of the whole set under an
affine contraction, so its hull is the prefix value plus a signed rescale of
the whole-set hull.  Everything else here works from the digit maps of
`families.digit_map`: a cylinder's frame (value, scale, phase) maps the
local hull at its phase onto the cylinder's hull.  The local hulls of all
phases are the exact fixed point of one graph-directed system
(`solve_phase_hulls`), the same for one-phase kinds, MDper's gap phases and
a periodic Cantor series' levels.  Traversals carry frames and apply one map
per child.

The tail-extrema oracle never touches the closed forms.  It takes every
admissible digit continuation of an address out to a given rank, closes each
one with a periodic admissible tail (so every value it ranges over is an
actual member of the set), and returns the exact min/max.  Each level's
choices act as monotone affine maps on the levels below, so that min/max
follows from one interval step per level (the step `solve_phase_hulls`
iterates) instead of a walk over every continuation.  Containment of the
oracle interval in the formula interval, with Hausdorff distance below the
geometric tail bound, is the package's independent evidence for the
interval formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import FamilyConstraintError, UnsupportedFamilyError
from .families import (
    DEFAULT_CAP,
    FamilySpec,
    Frame,
    address_count,
    address_frame,
    as_address,
    child_frames,
    digit_maps,
)


@dataclass(frozen=True)
class IntervalR:
    """A closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: {self.lo} > {self.hi}")

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, other: "IntervalR") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def hausdorff(self, other: "IntervalR") -> Fraction:
        return max(abs(self.lo - other.lo), abs(self.hi - other.hi))


@dataclass(frozen=True)
class CylinderReport:
    """Summary of one cylinder: hull, diameter, child ratio, sibling layout."""

    address: tuple
    interval: IntervalR
    diameter: Fraction
    child_ratio: Fraction | None
    orientation: str | None


@dataclass(frozen=True)
class OracleResult:
    interval: IntervalR
    bound: Fraction
    leaves: int


# -- whole-set constants (run-length families) --------------------------------


def _su_bounds(s: int, u: int) -> tuple[Fraction, Fraction]:
    """inf/sup of the Su whole set; the branch structure follows the extremal
    digit tails (all-(s-1) runs for low u, the digit next to u for the sup)."""
    if u in (0, 1):
        inf0 = Fraction(u, s - 1) + Fraction(s - 1 - u, s ** (s - 1) - 1)
    else:
        inf0 = Fraction(1, s - 1)
    if u == 0:
        sup0 = Fraction(1, s - 1)
    elif u <= s - 2:
        sup0 = Fraction(u, s - 1) + Fraction(1, s ** (u + 1) - 1)
    else:
        sup0 = 1 - Fraction(1, s ** (s - 2) - 1)
    return inf0, sup0


def _nega0_bounds(s: int) -> tuple[Fraction, Fraction]:
    """inf/sup of the NSu(u=0) whole set: the sup is the all-2s tail
    2/(s^2-1); the inf starts with digit 1 and then rides the sup tail."""
    sup0 = Fraction(2, s * s - 1)
    inf0 = -Fraction(s * s + 1, s * (s * s - 1))
    return inf0, sup0


def _sminus_bounds(s: int) -> tuple[Fraction, Fraction]:
    inf0 = Fraction(-(s ** (s - 1)) + s - 1, s**s - 1)
    sup0 = Fraction(-s * s + s + 1, s**s - 1)
    return inf0, sup0


def sminus_diameter_constant(s: int) -> Fraction:
    """d(Sminus) = (s^(s-1) - s^2 + 2) / (s^s - 1), independently of the
    inf/sup constants."""
    return Fraction(s ** (s - 1) - s * s + 2, s**s - 1)


# -- closed-form cylinder intervals --------------------------------------------

_FORMULA_KINDS = ("S", "Su", "NSu", "Sminus")


def _has_closed_form(fam: FamilySpec) -> bool:
    return fam.kind in _FORMULA_KINDS and not (fam.kind == "NSu" and fam.u != 0)


def _require_formula_family(fam: FamilySpec) -> None:
    if not _has_closed_form(fam):
        raise UnsupportedFamilyError(
            f"no closed cylinder formula for {fam.label()}; use the oracle hull"
        )


def cylinder_interval(fam: FamilySpec, addr) -> IntervalR:
    """Exact [inf, sup] of a cylinder from the closed-form case analysis."""
    _require_formula_family(fam)
    addr = as_address(fam, addr)
    s = fam.s
    base = addr.base
    esum = sum(base)
    scale = Fraction(1, s**esum)
    if fam.kind in ("S", "Su"):
        u = fam.u
        tau = Fraction(0)
        ck = 0
        for c in base:
            ck += c
            tau += Fraction(c - u, s**ck)
        tau += Fraction(u, s - 1) * (1 - scale)
        inf0, sup0 = _su_bounds(s, u)
        return IntervalR(tau + inf0 * scale, tau + sup0 * scale)
    if fam.kind == "NSu":
        g = Fraction(0)
        ck = 0
        for c in base:
            ck += c
            g += Fraction((-1) ** ck * c, s**ck)
        inf0, sup0 = _nega0_bounds(s)
        if esum % 2 == 0:
            return IntervalR(g + inf0 * scale, g + sup0 * scale)
        return IntervalR(g - sup0 * scale, g - inf0 * scale)
    # Sminus
    sig = Fraction(0)
    ck = 0
    for i, c in enumerate(base, 1):
        ck += c
        sig += Fraction((-1) ** i * c, s**ck)
    inf0, sup0 = _sminus_bounds(s)
    if addr.rank % 2 == 0:
        return IntervalR(sig + inf0 * scale, sig + sup0 * scale)
    return IntervalR(sig - sup0 * scale, sig - inf0 * scale)


def cylinder_diameter(fam: FamilySpec, addr) -> Fraction:
    """Exact diameter; equals s^-(c_1+...+c_n) times the whole-set diameter."""
    if _has_closed_form(fam):
        return cylinder_interval(fam, addr).width
    return cylinder_hull(fam, addr).width


# -- exact hulls for arbitrary enumerable families ------------------------------

#: phase -> (the phase's digit maps as (g, k) pairs, the next phase)
PhaseMaps = Mapping[int, tuple[tuple[tuple[Fraction, Fraction], ...], int]]


@lru_cache(maxsize=256)
def _phase_maps(fam: FamilySpec) -> PhaseMaps:
    """The digit maps and the next phase of each phase reachable from 0.

    The one place that lists a family's phases: a power-basis Cantor series
    reads a new basis element at every level, so its phases never recur and
    it is refused here rather than walked forever."""
    if fam.kind == "Cantor" and fam.basis.kind == "power":
        raise UnsupportedFamilyError("a power-basis Cantor series has no finite phase set")
    system: dict = {}
    phase = 0
    while phase not in system:
        maps = digit_maps(fam, phase).values()
        nxt = next(iter(maps))[3]
        system[phase] = (tuple((g, k) for _, g, k, _ in maps), nxt)
        phase = nxt
    return MappingProxyType(system)


def _interval_step(maps, lo, hi) -> tuple[Fraction, Fraction, int, int]:
    """Hull of the images of [lo, hi] under the monotone maps x -> g + k*x,
    with the indices of the maps attaining its two ends."""
    new_lo, ilo = min((g + k * (lo if k > 0 else hi), i) for i, (g, k) in enumerate(maps))
    new_hi, ihi = max((g + k * (hi if k > 0 else lo), i) for i, (g, k) in enumerate(maps))
    return new_lo, new_hi, ilo, ihi


def _solve_chains(links: dict) -> dict:
    """Exact values of unknowns x_u = g + k * x_v, given as links u -> (v, g, k)
    with |k| < 1 around every cycle.

    Each unknown depends on exactly one other, so the links form a
    functional graph: every walk runs into a cycle, whose composed map has
    a unique fixed point, and the unknowns on the way back-substitute."""
    value: dict = {}
    for start in links:
        path, seen, node = [], set(), start
        while node not in value and node not in seen:
            seen.add(node)
            path.append(node)
            node = links[node][0]
        if node not in value:  # a new cycle, from `node` round to itself
            a, b = Fraction(0), Fraction(1)  # x_node = a + b * x_(current)
            for u in path[path.index(node) :]:
                _, g, k = links[u]
                a, b = a + b * g, b * k
            value[node] = a / (1 - b)
        for u in reversed(path):
            if u not in value:
                v, g, k = links[u]
                value[u] = g + k * value[v]
    return value


def solve_phase_hulls(system: PhaseMaps) -> dict[int, tuple[Fraction, Fraction]]:
    """Exact hull [lo, hi] of each phase's attractor in a graph-directed
    system of monotone contractions x -> g + k*x (Mauldin & Williams 1988).

    Iterates the per-phase interval step.  After each step, every hull end
    is taken to be the image of one end of the next phase's hull under the
    map that attained it, so the ends solve exactly as a functional graph
    (`_solve_chains`); the solution is returned once it is verified to be
    the true fixed point of the interval step.  As the iterates converge,
    the attaining maps become extremal at the true hull, which then solves
    the chain."""
    if not system or not all(maps for maps, _ in system.values()):
        raise ValueError("need at least one affine map per phase")
    kmax = max(abs(k) for maps, _ in system.values() for _, k in maps)
    if kmax >= 1:
        raise ValueError("affine maps must be contractions")
    bound = max(abs(g) for maps, _ in system.values() for g, _ in maps) / (1 - kmax) + 1
    lo, hi = dict.fromkeys(system, -bound), dict.fromkeys(system, bound)
    for _ in range(400):
        steps = {p: _interval_step(maps, lo[n], hi[n]) for p, (maps, n) in system.items()}
        lo = {p: st[0] for p, st in steps.items()}
        hi = {p: st[1] for p, st in steps.items()}
        # end 0 (lo) of phase p is g + k * (end 0 of the next phase if k > 0, else end 1)
        links = {}
        for p, (_, _, ilo, ihi) in steps.items():
            maps, n = system[p]
            (g, k), (g2, k2) = maps[ilo], maps[ihi]
            links[p, 0] = ((n, 0 if k > 0 else 1), g, k)
            links[p, 1] = ((n, 1 if k2 > 0 else 0), g2, k2)
        ends = _solve_chains(links)
        L = {p: ends[p, 0] for p in system}
        H = {p: ends[p, 1] for p in system}
        if all(
            _interval_step(maps, L[n], H[n])[:2] == (L[p], H[p]) and L[p] <= H[p]
            for p, (maps, n) in system.items()
        ):
            return {p: (L[p], H[p]) for p in system}
    raise RuntimeError("affine hull iteration found no exact fixed point")


def solve_affine_hull(maps: Sequence[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    """Exact hull [lo, hi] of the attractor of x -> g_i + k_i * x, |k_i| < 1:
    the one-phase case of `solve_phase_hulls`."""
    return solve_phase_hulls({0: (tuple((Fraction(g), Fraction(k)) for g, k in maps), 0)})[0]


@lru_cache(maxsize=256)
def _local_hulls(fam: FamilySpec) -> Mapping[int, tuple[Fraction, Fraction]]:
    """phase -> exact hull of the local tail-value set (family constant excluded)."""
    return MappingProxyType(solve_phase_hulls(_phase_maps(fam)))


def set_interval(fam: FamilySpec) -> IntervalR:
    """Exact hull [inf, sup] of the whole family."""
    if _has_closed_form(fam):
        return cylinder_interval(fam, ())
    if fam.kind == "MD":
        # sup -> 0 as the first gap grows; inf pairs the shortest gap with the
        # largest digit and the sup tail
        return IntervalR(Fraction(-(fam.s - 1), fam.s**3), Fraction(0))
    return cylinder_hull(fam, ())


def _frame_image(frame: Frame, lo: Fraction, hi: Fraction) -> IntervalR:
    """The image of [lo, hi] under the frame's map x -> value + scale * x."""
    value, scale, _ = frame
    a, b = value + scale * lo, value + scale * hi
    return IntervalR(a, b) if scale > 0 else IntervalR(b, a)


def cylinder_hull(fam: FamilySpec, addr) -> IntervalR:
    """Exact hull of any enumerable cylinder via the affine frame.

    For the closed-form families this coincides with `cylinder_interval`;
    it additionally covers NSu with u > 0, Blocks/Tilde, MDper and Cantor
    series over a periodic basis.
    """
    frame = address_frame(fam, addr)
    return _frame_image(frame, *_local_hulls(fam)[frame[2]])


# -- the level oracle -------------------------------------------------------------

def _level_minmax(levels, x0: Fraction) -> tuple[Fraction, Fraction]:
    """Exact min/max of f_1(f_2(...f_d(x0))) over every choice of f_j, a map
    x -> g + k*x from the list levels[j-1].

    Each level offers the same maps whatever was chosen above it, so one
    interval step per level, deepest first, gives the extremes exactly.
    """
    lo = hi = x0
    for maps in reversed(levels):
        lo, hi, _, _ = _interval_step(maps, lo, hi)
    return lo, hi


@lru_cache(maxsize=256)
def _oracle_local(fam: FamilySpec, depth: int, phase: int) -> tuple[Fraction, Fraction, Fraction]:
    """(min, max, shrink) of the local tail value over every continuation
    `depth` levels deep from `phase`.

    Each continuation is closed by taking every phase's first selector from
    then on (for MDper the digit 0, so nothing follows): a member of the
    set, the fixed point of the first selectors' cycle carried back to the
    phase the continuation ends at.  `shrink`, the largest product of |k|
    along a continuation, scales the local hull left out below it."""
    system = _phase_maps(fam)
    closing = _solve_chains({p: (n, *maps[0]) for p, (maps, n) in system.items()})
    levels, shrink = [], Fraction(1)
    for _ in range(depth):
        maps, phase = system[phase]
        levels.append(maps)
        shrink *= max(abs(k) for _, k in maps)
    return (*_level_minmax(levels, closing[phase]), shrink)


def _oracle_interval(fam: FamilySpec, frame: Frame, depth: int) -> tuple[IntervalR, Fraction]:
    """The oracle interval of the cylinder with this frame, and its tail
    bound: s/(s-1) bounds every local hull width, times the frame's |scale|
    and the continuation's shrink."""
    _, scale, phase = frame
    lo, hi, shrink = _oracle_local(fam, depth, phase)
    return _frame_image(frame, lo, hi), Fraction(fam.s, fam.s - 1) * abs(scale) * shrink


def tail_extrema_oracle(fam: FamilySpec, addr, depth: int) -> OracleResult:
    """Exact min/max over all admissible continuations of `addr` to rank `depth`.

    Every continuation is closed with a periodic admissible tail, so the
    returned interval sits inside the true cylinder hull; the rigorous bound
    guarantees the true hull lies within it inflated by `bound`.  `leaves` is
    the number of continuations the interval ranges over.
    """
    if depth < 1:
        raise ValueError("oracle depth must be >= 1")
    frame = address_frame(fam, addr)
    iv, bound = _oracle_interval(fam, frame, depth)
    leaves = prod(fam.branching(level, frame[2]) for level in range(1, depth + 1))
    return OracleResult(interval=iv, bound=bound, leaves=leaves)


# -- gaps, orderings, coverings ---------------------------------------------------


def gap_interval(fam: FamilySpec, addr, p: int) -> IntervalR | None:
    """The open interval strictly between sibling cylinders p and p+1.

    Returns None when the siblings touch or overlap (which the closed-form
    case analysis rules out; callers treat None as a finding).
    """
    _require_formula_family(fam)
    addr = as_address(fam, addr)
    left_digit, right_digit = p, p + 1
    for d in (left_digit, right_digit):
        try:
            as_address(fam, addr.base + (d,))
        except FamilyConstraintError:
            raise FamilyConstraintError(f"sibling digit {d} not admissible for {fam.label()}")
    a = cylinder_interval(fam, addr.base + (left_digit,))
    b = cylinder_interval(fam, addr.base + (right_digit,))
    first, second = (a, b) if a.lo <= b.lo else (b, a)
    if first.hi >= second.lo:
        return None
    return IntervalR(first.hi, second.lo)


@dataclass(frozen=True)
class OrderingEntry:
    p: int
    q: int
    predicted: str | None
    observed: str
    ok: bool


@dataclass(frozen=True)
class OrderingReport:
    address: tuple
    entries: tuple[OrderingEntry, ...]
    passed: bool


def _predicted_orientation(fam: FamilySpec, addr_base: tuple, p: int, q: int) -> str | None:
    s, u = fam.s, fam.u
    if fam.kind in ("S", "Su"):
        if u in (0, 1):
            return "right-to-left"
        if u >= s - 2:
            return "left-to-right"
        if q < u:
            return "left-to-right"
        if p > u:
            return "right-to-left"
        return None  # the pair straddling the excluded digit: compare directly
    if fam.kind == "NSu":
        return "right-to-left" if (sum(addr_base) + p) % 2 == 0 else "left-to-right"
    # Sminus: orientation set by the rank of the siblings
    rank = len(addr_base) + 1
    return "right-to-left" if rank % 2 == 0 else "left-to-right"


def _ordering_entries(
    fam: FamilySpec, addr_base: tuple, children: dict[int, IntervalR]
) -> tuple[OrderingEntry, ...]:
    """Observed against predicted layout of each adjacent sibling pair, given
    the children's intervals keyed by digit."""
    entries = []
    for p, q in zip(fam.run_digits, fam.run_digits[1:]):
        a, b = children[p], children[q]
        if a.hi < b.lo:
            observed = "left-to-right"
        elif b.hi < a.lo:
            observed = "right-to-left"
        else:
            observed = "overlap"
        predicted = _predicted_orientation(fam, addr_base, p, q)
        ok = observed != "overlap" and (predicted is None or predicted == observed)
        entries.append(OrderingEntry(p, q, predicted, observed, ok))
    return tuple(entries)


def ordering_check(fam: FamilySpec, addr) -> OrderingReport:
    """Verify the sibling layout under `addr` against the predicted cases."""
    _require_formula_family(fam)
    if fam.degenerate:
        raise FamilyConstraintError("degenerate family has no sibling pair")
    addr = as_address(fam, addr)
    children = {c: cylinder_interval(fam, addr.base + (c,)) for c in fam.run_digits}
    entries = _ordering_entries(fam, addr.base, children)
    return OrderingReport(addr.base, entries, all(e.ok for e in entries))


def covering_sums(fam: FamilySpec, depth: int, cap: int = DEFAULT_CAP) -> list[Fraction]:
    """Exact total length of the rank-d cylinder cover, for each d = 0..depth."""
    address_count(fam, depth, cap)
    # a cylinder's length is |scale| times its phase's local hull length, so
    # each rank needs only the total |scale| per phase, stepped one level at
    # a time through the digit maps
    hulls, system = _local_hulls(fam), _phase_maps(fam)
    mass = {0: Fraction(1)}
    sums = []
    for rank in range(depth + 1):
        total = Fraction(0)
        for phase, m in mass.items():
            lo, hi = hulls[phase]
            total += m * (hi - lo)
        sums.append(total)
        if rank < depth:
            step: dict[int, Fraction] = {}
            for phase, m in mass.items():
                maps, nxt = system[phase]
                step[nxt] = step.get(nxt, 0) + m * sum(abs(k) for _, k in maps)
            mass = step
    return sums


def covering_sum(fam: FamilySpec, depth: int, cap: int = DEFAULT_CAP) -> Fraction:
    """Exact total length of the rank-`depth` cylinder cover."""
    return covering_sums(fam, depth, cap)[-1]


def cylinder_report(fam: FamilySpec, addr, child: int | None = None) -> CylinderReport:
    addr = as_address(fam, addr)
    closed = _has_closed_form(fam)
    iv = cylinder_interval(fam, addr) if closed else cylinder_hull(fam, addr)
    ratio = None
    if child is not None:
        child_iv = cylinder_hull(fam, addr.base + (child,))
        ratio = child_iv.width / iv.width if iv.width else None
    orientation = None
    if closed and not fam.degenerate:
        report = ordering_check(fam, addr)
        seen = {e.observed for e in report.entries}
        orientation = seen.pop() if len(seen) == 1 else "mixed"
    return CylinderReport(addr.base, iv, iv.width, ratio, orientation)


# -- the cylinder property suite --------------------------------------------------


@dataclass(frozen=True)
class PropertyResult:
    name: str
    checked: int
    passed: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class VerificationReport:
    family: str
    results: tuple[PropertyResult, ...]
    passed: bool


def _fail(failures: list[str], addr, lhs, rhs, what: str):
    if len(failures) < 5:
        failures.append(f"addr={tuple(addr)}: {what}: {lhs!s} vs {rhs!s}")


def verify_family(
    fam: FamilySpec,
    depth: int = 4,
    oracle_depth: int = 10,
    cap: int = DEFAULT_CAP,
) -> VerificationReport:
    """Run the full cylinder property suite for one closed-form family.

    Checks, over all addresses of rank <= depth: oracle containment with the
    geometric tail bound, child nesting, the exact ratio law, nonempty
    sibling gaps, predicted orderings, the covering-sum decay law, and the
    Sminus diameter/endpoint consistency identity.  Addresses are walked
    depth-first, each child's frame one digit map from its parent's; the
    children's intervals of an address are computed once, shared by the
    checks that compare siblings, and passed down as the parents of the
    next rank.
    """
    _require_formula_family(fam)
    address_count(fam, depth, cap)
    s = fam.s
    digits = fam.run_digits
    oracle_f, nest_f, ratio_f, part_f, gap_f, ord_f = [], [], [], [], [], []
    n_addr = n_child = n_pair = 0
    stack = [((), address_frame(fam, ()), cylinder_interval(fam, ()))]
    while stack:
        base, frame, parent = stack.pop()
        oracle, bound = _oracle_interval(fam, frame, oracle_depth)
        n_addr += 1
        if not parent.contains(oracle):
            _fail(oracle_f, base, oracle, parent, "oracle escapes formula")
        elif parent.hausdorff(oracle) > bound:
            _fail(
                oracle_f,
                base,
                parent.hausdorff(oracle),
                bound,
                "Hausdorff distance above tail bound",
            )
        if len(base) == depth:
            continue

        # nesting + ratio law + partition
        children = {c: cylinder_interval(fam, base + (c,)) for c in digits}
        child_sum = Fraction(0)
        for c, child in children.items():
            n_child += 1
            if not parent.contains(child):
                _fail(nest_f, base + (c,), child, parent, "child escapes parent")
            if parent.width and child.width * s**c != parent.width:
                _fail(
                    ratio_f,
                    base + (c,),
                    child.width / parent.width,
                    Fraction(1, s**c),
                    "ratio law",
                )
            child_sum += child.width
        if parent.width and child_sum > parent.width:
            _fail(part_f, base, child_sum, parent.width, "children exceed parent length")

        # sibling gaps + orderings
        entries = _ordering_entries(fam, base, children)
        n_pair += len(entries)
        for e in entries:
            if e.observed == "overlap":
                a, b = children[e.p], children[e.q]
                lo, hi = (a, b) if a.lo <= b.lo else (b, a)
                _fail(gap_f, base, lo.hi, hi.lo, f"siblings {e.p},{e.q} touch or overlap")
        bad = next((e for e in entries if not e.ok), None)
        if bad is not None:
            _fail(
                ord_f,
                base,
                bad.observed,
                bad.predicted,
                f"pair ({bad.p},{bad.q}) orientation",
            )
        # reversed, so addresses come off the stack in lexicographic order
        for c, child_frame in reversed(list(child_frames(fam, frame))):
            stack.append((base + (c,), child_frame, children[c]))
    results = [
        PropertyResult("interval-vs-oracle", n_addr, not oracle_f, tuple(oracle_f)),
        PropertyResult("nesting", n_child, not nest_f, tuple(nest_f)),
        PropertyResult("ratio-law", n_child, not ratio_f, tuple(ratio_f)),
        PropertyResult("partition", n_child, not part_f, tuple(part_f)),
        PropertyResult("sibling-gaps", n_pair, not gap_f, tuple(gap_f)),
        PropertyResult("ordering", n_pair, not ord_f, tuple(ord_f)),
    ]

    # geometric covering-sum law, over the depths the cap lets through
    cov_f = []
    rho = sum(Fraction(1, s**a) for a in digits)
    cov_depth = min(depth + 2, 8)
    summed = next((d for d in range(cov_depth + 1) if len(digits) ** d > cap), cov_depth + 1)
    sums = covering_sums(fam, max(summed - 1, 0), cap=cap)
    for d, total in enumerate(sums[:summed]):
        if total != sums[0] * rho**d:
            _fail(cov_f, (d,), total, sums[0] * rho**d, "covering law")
    results.append(PropertyResult("covering-law", summed, not cov_f, tuple(cov_f)))

    # Sminus endpoint/diameter consistency
    if fam.kind == "Sminus":
        inf0, sup0 = _sminus_bounds(s)
        ok = sup0 - inf0 == sminus_diameter_constant(s)
        results.append(
            PropertyResult(
                "diameter-constants",
                1,
                ok,
                () if ok else (f"sup-inf={sup0 - inf0} vs {sminus_diameter_constant(s)}",),
            )
        )

    return VerificationReport(fam.label(), tuple(results), all(r.passed for r in results))
