"""Exact cylinder geometry: interval formulas, a level oracle, gaps,
orderings and covering sums.

Every hull the package reports comes from the digit maps of
`families.digit_maps`: a cylinder's integer frame (V, den, sign, phase) maps
the local hull at its phase onto the cylinder's hull.  The local hulls of
all phases are the exact fixed point of one graph-directed system
(`solve_phase_hulls`), the same for one-phase kinds, MDper's gap phases and
a periodic Cantor series' levels.  Traversals carry frames and apply one map
per child, so sibling gaps and layouts read one frame and one table.

Closed-form intervals exist for the run-length families S/Su (any u), NSu
with u = 0, and Sminus; each cylinder is the image of the whole set under an
affine contraction, so its hull is the prefix value plus a signed rescale of
the whole-set hull.  The prefix value is folded one run digit at a time, in
integers, from the formula alone.  The closed form is read only where it is
itself under test: `cylinder_interval`, the witness the frames are compared
against, and `verify_family`.

The tail-extrema oracle never touches the closed forms.  It takes every
admissible digit continuation of an address out to a given rank, closes each
one with a periodic admissible tail (so every value it ranges over is an
actual member of the set), and returns the exact min/max.  Each level's
choices act as monotone affine maps on the levels below, so that min/max
follows from one interval step per level (the step `solve_phase_hulls` takes
each round) instead of a walk over every continuation.  Containment of the
oracle interval in the formula interval, with Hausdorff distance below the
geometric tail bound, is the package's independent evidence for the interval
formulas.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import FamilyConstraintError, UnsupportedFamilyError
from .families import (
    DEFAULT_CAP,
    ROOT_FRAME,
    FamilySpec,
    Frame,
    _inadmissible,
    _rank_maps,
    _walk,
    address_frame,
    child_frames,
    denominator_digits,
    digit_maps,
    walk_size,
)


class _IntervalRFields(NamedTuple):
    lo: Fraction
    hi: Fraction


class IntervalR(_IntervalRFields):
    """A closed rational interval [lo, hi]."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: {lo} > {hi}")
        return super().__new__(cls, lo, hi)

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, other: "IntervalR") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def hausdorff(self, other: "IntervalR") -> Fraction:
        return max(abs(self.lo - other.lo), abs(self.hi - other.hi))


class CylinderReport(NamedTuple):
    """Summary of one cylinder: hull, diameter, child ratio, sibling layout."""

    address: tuple
    interval: IntervalR
    diameter: Fraction
    child_ratio: Fraction | None
    orientation: str | None


class OracleResult(NamedTuple):
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


#: a closed form after the prefix c_1..c_n: (T, E, n), where E is the digit
#: sum c_1 + ... + c_n and T the formula's prefix sum times s^E
ClosedState = tuple[int, int, int]

ROOT_STATE: ClosedState = (0, 0, 0)


def _closed_form(fam: FamilySpec) -> tuple[int, int, int, int]:
    """(Q, shift, lo0, hi0): numerators over one denominator Q of the
    constant u/(s-1) (S/Su; 0 otherwise) and of the whole-set inf and sup.

    Reads the whole-set constants afresh on every call; each walk calls it
    once, at its root."""
    s = fam.s
    if fam.kind in ("S", "Su"):
        inf0, sup0 = _su_bounds(s, fam.u)
        shift = Fraction(fam.u, s - 1)
    else:
        inf0, sup0 = _nega0_bounds(s) if fam.kind == "NSu" else _sminus_bounds(s)
        shift = Fraction(0)
    Q = lcm(inf0.denominator, sup0.denominator, shift.denominator)
    return Q, int(shift * Q), int(inf0 * Q), int(sup0 * Q)


def _closed_step(fam: FamilySpec, state: ClosedState, c: int) -> ClosedState:
    """The closed form's state one run digit c further down.

    S/Su sum (c_n - u) s^-E_n, NSu sum (-1)^E_n c_n s^-E_n and Sminus
    sum (-1)^n c_n s^-E_n, with E_n = c_1 + ... + c_n."""
    T, E, n = state
    E, n = E + c, n + 1
    if fam.kind == "NSu":
        term = -c if E % 2 else c
    elif fam.kind == "Sminus":
        term = -c if n % 2 else c
    else:
        term = c - fam.u
    return T * fam.s**c + term, E, n


def _closed_ends(fam: FamilySpec, form: tuple[int, int, int, int], state: ClosedState) -> tuple[int, int]:
    """Numerators over Q * s^E of the cylinder's [inf, sup]: the prefix sum
    plus s^-E times the whole-set hull, flipped for NSu at odd E and for
    Sminus at odd rank.  S/Su add u/(s-1) (1 - s^-E) for the u digits."""
    Q, shift, lo0, hi0 = form
    T, E, n = state
    at = T * Q + shift * (fam.s**E - 1)
    if (fam.kind == "NSu" and E % 2) or (fam.kind == "Sminus" and n % 2):
        return at - hi0, at - lo0
    return at + lo0, at + hi0


def _interval(lo: int, hi: int, den: int) -> IntervalR:
    return IntervalR(Fraction(lo, den), Fraction(hi, den))


def cylinder_interval(fam: FamilySpec, addr) -> IntervalR:
    """Exact [inf, sup] of a cylinder from the closed-form case analysis,
    folded one run digit at a time."""
    _require_formula_family(fam)
    state = ROOT_STATE
    for c, _ in zip(addr, _walk(fam, addr)):  # the walk refuses an inadmissible c; its maps go unread
        state = _closed_step(fam, state, c)
    form = _closed_form(fam)
    return _interval(*_closed_ends(fam, form, state), form[0] * fam.s ** state[1])


# -- exact hulls for arbitrary enumerable families ------------------------------

#: phase -> (the phase's digit maps as (g, k) pairs, the next phase)
PhaseMaps = Mapping[int, tuple[tuple[tuple[Fraction, Fraction], ...], int]]


@lru_cache(maxsize=256)
def _phase_maps(fam: FamilySpec) -> PhaseMaps:
    """The digit maps and the next phase of each phase reachable from 0:
    the one place that lists a family's phases.  A hull solve composes the
    maps round the whole cycle, so each phase walked is one step of the
    walk budget's rule 2 (`denominator_digits`)."""
    system: dict = {}
    phase, digits = 0, 0.0
    while phase not in system:
        maps = digit_maps(fam, phase).values()
        digits = denominator_digits(len(system) + 1, digits, max(m for *_, m, _ in maps), "phases")
        nxt = next(iter(maps))[4]
        system[phase] = (tuple((Fraction(gn, m), Fraction(sk, m)) for _, gn, sk, m, _ in maps), nxt)
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

    Policy iteration (Howard 1960) on the per-phase interval step.  A policy
    picks the map attaining each hull end, so the ends it implies solve
    exactly as a functional graph (`_solve_chains`).  The first policy
    attains one step at x = 0; each round steps once from the solution and
    returns it if the step gives it back (the step contracts, so its fixed
    point is unique), else adopts the maps the step attained.  It ends: with
    each hi written as -w, every end is a minimum over maps of g' + |k| * (an
    end of the next phase), so the step is monotone.  It can only lower a
    policy's solution, and the next policy's solution lies at or below that
    step: the solutions strictly decrease and no policy comes back."""
    if not system or not all(maps for maps, _ in system.values()):
        raise ValueError("need at least one affine map per phase")
    if max(abs(k) for maps, _ in system.values() for _, k in maps) >= 1:
        raise ValueError("affine maps must be contractions")
    ends = {(p, e): Fraction(0) for p in system for e in (0, 1)}  # end 0 is lo, end 1 hi
    while True:
        steps = {p: _interval_step(maps, ends[n, 0], ends[n, 1]) for p, (maps, n) in system.items()}
        hulls = {p: (ends[p, 0], ends[p, 1]) for p in system}
        if all(st[:2] == hulls[p] for p, st in steps.items()):
            return hulls
        # end e of phase p is g + k * (end e of the next phase if k > 0, else the other end)
        links = {}
        for p, (maps, n) in system.items():
            for e, i in enumerate(steps[p][2:]):
                g, k = maps[i]
                links[p, e] = ((n, e if k > 0 else 1 - e), g, k)
        ends = _solve_chains(links)


@lru_cache(maxsize=256)
def _local_hulls(fam: FamilySpec) -> Mapping[int, tuple[Fraction, Fraction]]:
    """phase -> exact hull of the set at that phase."""
    return MappingProxyType(solve_phase_hulls(_phase_maps(fam)))


def set_interval(fam: FamilySpec) -> IntervalR:
    """Exact hull [inf, sup] of the whole family."""
    if fam.kind == "MD":
        # sup -> 0 as the first gap grows; inf pairs the shortest gap with the
        # largest digit and the sup tail
        return IntervalR(Fraction(-(fam.s - 1), fam.s**3), Fraction(0))
    return cylinder_hull(fam, ())


def _frame_image(frame: Frame, lo: Fraction, hi: Fraction) -> IntervalR:
    """The image of [lo, hi] under the frame's map x -> (V + sign * x)/den."""
    V, den, sign, _ = frame
    if sign < 0:
        lo, hi = -hi, -lo
    return IntervalR((V + lo) / den, (V + hi) / den)


def cylinder_hull(fam: FamilySpec, addr) -> IntervalR:
    """Exact hull of any enumerable cylinder via the affine frame.

    For the closed-form families this coincides with `cylinder_interval`;
    it additionally covers NSu with u > 0, Blocks/Tilde, MDper and Cantor
    series.
    """
    return _frame_hull(fam, address_frame(fam, addr))


def _frame_hull(fam: FamilySpec, frame: Frame) -> IntervalR:
    """The hull of the cylinder at `frame`: its phase's local hull, imaged."""
    return _frame_image(frame, *_local_hulls(fam)[frame[3]])


def _child_hulls(fam: FamilySpec, frame: Frame, wanted: tuple = ()) -> dict[object, IntervalR]:
    """selector -> hull of each child of the cylinder at `frame`, from one
    table read, in selector order; refuses a `wanted` non-child."""
    hulls = {sel: _frame_hull(fam, child) for sel, child in child_frames(fam, frame)}
    for sel in wanted:
        if sel not in hulls:
            raise _inadmissible(fam, sel)
    return hulls


# -- the level oracle -------------------------------------------------------------


def _tail_bound(fam: FamilySpec, shrink: Fraction) -> Fraction:
    """Tail bound of an oracle interval at frame denominator 1: s/(s-1)
    bounds every local hull width, times the continuation's shrink."""
    return Fraction(fam.s, fam.s - 1) * shrink


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
    """(min, max, shrink) of the value in the set at `phase` over every
    continuation `depth` levels deep from it.

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
    _, den, _, phase = frame
    lo, hi, shrink = _oracle_local(fam, depth, phase)
    leaves = prod(map(len, _rank_maps(fam, depth, phase)))
    return OracleResult(_frame_image(frame, lo, hi), _tail_bound(fam, shrink) / den, leaves)


# -- gaps, orderings, coverings ---------------------------------------------------


def gap_interval(fam: FamilySpec, addr, p: int) -> IntervalR | None:
    """The open interval strictly between sibling cylinders p and p+1.

    Returns None when the siblings touch or overlap, as siblings may in a
    block family; callers treat None as a finding.
    """
    children = _child_hulls(fam, address_frame(fam, addr), (p, p + 1))
    first, second = sorted((children[p], children[p + 1]))
    return IntervalR(first.hi, second.lo) if first.hi < second.lo else None


class OrderingEntry(NamedTuple):
    p: int
    q: int
    predicted: str | None
    observed: str
    ok: bool


class OrderingReport(NamedTuple):
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


def _ordering_entries(fam: FamilySpec, addr_base: tuple, children: dict) -> tuple[OrderingEntry, ...]:
    """Observed against predicted layout of each adjacent sibling pair, given
    the children's (lo, hi) ends keyed by digit in digit order, all in one
    number system."""
    entries = []
    digits = list(children)
    for p, q in zip(digits, digits[1:]):
        (a_lo, a_hi), (b_lo, b_hi) = children[p], children[q]
        if a_hi < b_lo:
            observed = "left-to-right"
        elif b_hi < a_lo:
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
    base = tuple(addr)
    entries = _ordering_entries(fam, base, _child_hulls(fam, address_frame(fam, base)))
    return OrderingReport(base, entries, all(e.ok for e in entries))


def covering_sums(fam: FamilySpec, depth: int) -> list[Fraction]:
    """Exact total length of the rank-d cylinder cover, for each d = 0..depth.

    A cylinder's length is |scale| times its phase's local hull length, and
    every phase has one successor, so a rank's cylinders share one phase and
    one mass, their total |scale|.  Counts no addresses.  Each rank is one
    step of the walk budget's rule 2, as each phase of `_phase_maps` is, and
    every rank passes it before any hull is solved."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    system = _phase_maps(fam)
    ranks, digits = [(0, Fraction(1))], 0.0  # each rank's (phase, mass)
    for rank in range(1, depth + 1):
        maps, phase = system[ranks[-1][0]]
        digits = denominator_digits(rank, digits, max(k.denominator for _, k in maps), "ranks", "; lower --depth")
        ranks.append((phase, ranks[-1][1] * sum(abs(k) for _, k in maps)))
    hulls = _local_hulls(fam)
    return [mass * (hulls[p][1] - hulls[p][0]) for p, mass in ranks]


def cylinder_report(fam: FamilySpec, addr, child: int | None = None) -> CylinderReport:
    addr = tuple(addr)
    frame = address_frame(fam, addr)
    iv = _frame_hull(fam, frame)
    ordered = _has_closed_form(fam) and not fam.degenerate
    wanted = () if child is None else (child,)
    children = _child_hulls(fam, frame, wanted) if wanted or ordered else {}
    ratio = children[child].width / iv.width if wanted and iv.width else None
    orientation = None
    if ordered:
        seen = {e.observed for e in _ordering_entries(fam, addr, children)}
        orientation = seen.pop() if len(seen) == 1 else "mixed"
    return CylinderReport(addr, iv, iv.width, ratio, orientation)


# -- the cylinder property suite --------------------------------------------------


class PropertyResult(NamedTuple):
    name: str
    checked: int
    passed: bool
    failures: tuple[str, ...]


class VerificationReport(NamedTuple):
    family: str
    results: tuple[PropertyResult, ...]
    passed: bool


def _fail(failures: list[str], addr, lhs, rhs, what: str):
    if len(failures) < 5:
        failures.append(f"addr={tuple(addr)}: {what}: {lhs!s} vs {rhs!s}")


#: levels the oracle looks past the deepest rank `verify_family` walks
ORACLE_EXTRA_DEPTH = 6


def verify_family(fam: FamilySpec, depth: int = 4, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Run the cylinder property suite for one closed-form family.

    Refused first by the walk budget (`covering_sums` to depth, `walk_size`).
    Checks, over all addresses of rank <= depth: oracle containment with the
    geometric tail bound (the oracle at depth + ORACLE_EXTRA_DEPTH), child
    nesting, nonempty sibling gaps, predicted orderings, the covering-sum
    decay law against the run digits' sum of s^-c, and the Sminus
    diameter/endpoint consistency identity.  Addresses are walked
    depth-first.  Each node carries its closed-form state and ends and its
    integer frame, and each child is one closed-form step and one digit map
    from its parent, so every check compares integers; a `Fraction` is
    built only for the text of a failure.
    """
    _require_formula_family(fam)
    sums = covering_sums(fam, max(depth, min(depth + 2, 8)))[: min(depth + 2, 8) + 1]
    walk_size(fam, depth, cap)
    s = fam.s
    digits = digit_maps(fam, 0)  # the run digits, in order
    oracle_f, nest_f, gap_f, ord_f = [], [], [], []
    n_addr = n_child = n_pair = 0
    # formula ends are numerators over Q * s^E, E the digit sum; oracle ends
    # and tail bounds are numerators over M * den, den the frame's
    form = _closed_form(fam)
    Q = form[0]
    lo, hi = _closed_ends(fam, form, ROOT_STATE)
    if lo > hi:  # refuse empty whole-set bounds as `cylinder_interval` does
        _interval(lo, hi, Q)
    local = {}
    for phase in _phase_maps(fam):
        olo, ohi, shrink = _oracle_local(fam, depth + ORACLE_EXTRA_DEPTH, phase)
        local[phase] = (olo, ohi, _tail_bound(fam, shrink))
    M = lcm(*(x.denominator for ends in local.values() for x in ends))
    oracle = {phase: tuple(int(x * M) for x in ends) for phase, ends in local.items()}
    c_top = max(digits)
    top = s**c_top
    stack = [((), ROOT_FRAME, ROOT_STATE, lo, hi)]
    while stack:
        base, frame, state, lo, hi = stack.pop()
        V, den, sign, phase = frame
        fd, od = Q * s ** state[1], M * den
        olo, ohi, bound = oracle[phase]
        olo, ohi = (V * M + olo, V * M + ohi) if sign > 0 else (V * M - ohi, V * M - olo)
        n_addr += 1
        # both intervals over fd * od
        if not (lo * od <= olo * fd and ohi * fd <= hi * od):
            _fail(oracle_f, base, _interval(olo, ohi, od), _interval(lo, hi, fd), "oracle escapes formula")
        else:
            dist = max(olo * fd - lo * od, hi * od - ohi * fd)
            if dist > bound * fd:
                _fail(
                    oracle_f,
                    base,
                    Fraction(dist, fd * od),
                    Fraction(bound, od),
                    "Hausdorff distance above tail bound",
                )
        if len(base) == depth:
            continue

        # nesting: child c's ends sit over s^c times the parent's denominator
        kids, children = [], {}
        for c, child_frame in child_frames(fam, frame):
            child_state = _closed_step(fam, state, c)
            c_lo, c_hi = _closed_ends(fam, form, child_state)
            sc = s**c
            n_child += 1
            if not (lo * sc <= c_lo and c_hi <= hi * sc):
                child, parent = _interval(c_lo, c_hi, fd * sc), _interval(lo, hi, fd)
                _fail(nest_f, base + (c,), child, parent, "child escapes parent")
            # siblings over one denominator, fd * s^c_top
            up = s ** (c_top - c)
            children[c] = (c_lo * up, c_hi * up)
            kids.append((base + (c,), child_frame, child_state, c_lo, c_hi))

        # sibling gaps + orderings
        entries = _ordering_entries(fam, base, children)
        n_pair += len(entries)
        for e in entries:
            if e.observed == "overlap":
                a, b = children[e.p], children[e.q]
                first, second = (a, b) if a[0] <= b[0] else (b, a)
                what = f"siblings {e.p},{e.q} touch or overlap"
                _fail(gap_f, base, Fraction(first[1], fd * top), Fraction(second[0], fd * top), what)
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
        stack.extend(reversed(kids))
    results = [
        PropertyResult("interval-vs-oracle", n_addr, not oracle_f, tuple(oracle_f)),
        PropertyResult("nesting", n_child, not nest_f, tuple(nest_f)),
        PropertyResult("sibling-gaps", n_pair, not gap_f, tuple(gap_f)),
        PropertyResult("ordering", n_pair, not ord_f, tuple(ord_f)),
    ]

    # geometric covering-sum law
    cov_f = []
    rho = sum(Fraction(1, s**a) for a in digits)
    for d, total in enumerate(sums):
        if total != sums[0] * rho**d:
            _fail(cov_f, (d,), total, sums[0] * rho**d, "covering law")
    results.append(PropertyResult("covering-law", len(sums), not cov_f, tuple(cov_f)))

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
