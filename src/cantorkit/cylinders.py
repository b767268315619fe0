"""Exact cylinder geometry: interval formulas, a level oracle, gaps,
orderings and covering sums.

Every hull the package reports comes from the digit maps of
`families.digit_maps`: a cylinder's integer frame (V, den, sign, phase) maps
the local hull at its phase onto the cylinder's hull.  The local hulls of
all phases are the exact fixed point of one graph-directed system
(`solve_phase_hulls`), the same for one-phase kinds, MDper's gap phases and
a periodic Cantor series' levels.  That solve and the level oracle step
integer numerators, and the solve returns each phase's two ends as integer
numerators over one denominator, unreduced.  The hull ends stay integers
from there to `cover`'s and `boxcount`'s printed rows, which build no
`Fraction`; a public function builds one per value it returns.  The
covering sums are each rank's integer mass times its phase's hull width,
reduced once per phase by gcd(hi - lo, D) and once per rank;
`verify_family`'s covering law reads the masses alone, as the width
cancels, so a passing verify solves no hull.  Traversals carry
frames and apply one map per child, so sibling gaps and layouts read one
frame and one table.

Closed-form intervals exist for the run-length families S/Su (any u), NSu
with u = 0, and Sminus, which are one signed series
x = u/(s-1) + sum sigma_n (c_n - u) s^-E_n, E_n = c_1 + ... + c_n, and
differ only in the sign sigma_n that `_sign` states once.  Each cylinder is
the image of the whole set under an affine contraction, so its hull is the
prefix value plus the whole-set hull rescaled by s^-E and that sign.  The
prefix value is folded one run digit at a time, in integers, from the
formula alone.  The closed form is read only where it is itself under
test: `cylinder_interval`, the witness the frames are compared against,
and `verify_family`.

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
from math import gcd, lcm, prod
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
    _system_maps,
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


def _has_closed_form(fam: FamilySpec) -> bool:
    return fam.kind in ("S", "Su", "Sminus") or (fam.kind == "NSu" and fam.u == 0)


def _require_formula_family(fam: FamilySpec) -> None:
    if not _has_closed_form(fam):
        raise UnsupportedFamilyError(
            f"no closed cylinder formula for {fam.label()}; use the oracle hull"
        )


def _sign(fam: FamilySpec, E: int, n: int) -> int:
    """The sign of the closed form's n-th term, E = c_1 + ... + c_n: (-1)^E
    for NSu, (-1)^n for Sminus, 1 for S/Su.  The terms after it sum to the
    whole set's terms times s^-E and this sign."""
    return -1 if (fam.kind == "NSu" and E % 2) or (fam.kind == "Sminus" and n % 2) else 1


#: a closed form after the prefix c_1..c_n: (T, E, n), where E is the digit
#: sum c_1 + ... + c_n and T the formula's prefix sum times s^E
ClosedState = tuple[int, int, int]

ROOT_STATE: ClosedState = (0, 0, 0)


def _closed_form(fam: FamilySpec) -> tuple[int, int, int, int]:
    """(Q, shift, lo0, hi0): numerators over one denominator Q of the
    series' constant u/(s-1) (0 where u = 0, as for NSu and Sminus) and of
    the whole-set inf and sup.

    Reads the whole-set constants afresh on every call; each walk calls it
    once, at its root."""
    s, u = fam.s, fam.u or 0
    if fam.kind in ("S", "Su"):
        inf0, sup0 = _su_bounds(s, u)
    else:
        inf0, sup0 = _nega0_bounds(s) if fam.kind == "NSu" else _sminus_bounds(s)
    shift = Fraction(u, s - 1)
    Q = lcm(inf0.denominator, sup0.denominator, shift.denominator)
    return Q, int(shift * Q), int(inf0 * Q), int(sup0 * Q)


def _closed_step(fam: FamilySpec, state: ClosedState, c: int) -> ClosedState:
    """The closed form's state one run digit c further down: the series
    u/(s-1) + sum sigma_n (c_n - u) s^-E_n, E_n = c_1 + ... + c_n, gains the
    term sigma (c - u), its sign from `_sign`."""
    T, E, n = state
    E, n = E + c, n + 1
    return T * fam.s**c + _sign(fam, E, n) * (c - (fam.u or 0)), E, n


def _closed_ends(fam: FamilySpec, form: tuple[int, int, int, int], state: ClosedState) -> tuple[int, int]:
    """Numerators over Q * s^E of the cylinder's [inf, sup]: the prefix sum,
    plus u/(s-1) (1 - s^-E) for the u digits, plus s^-E times the whole-set
    hull, flipped where the last term's sign is -1."""
    Q, shift, lo0, hi0 = form
    T, E, n = state
    at = T * Q + shift * (fam.s**E - 1)
    if _sign(fam, E, n) < 0:
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

#: phase -> (M, its digit maps x -> (G + K*x)/M as integer (G, K), M their lcm, the next phase)
PhaseMaps = Mapping[int, tuple[int, tuple[tuple[int, int], ...], int]]


@lru_cache(maxsize=256)
def _phase_maps(fam: FamilySpec) -> PhaseMaps:
    """The system's digit maps (`_system_maps`) and next phase of each phase
    reachable from 0: the one place that lists a family's phases.  A hull
    solve composes the maps round the whole cycle, so each phase walked is
    one step of the walk budget's rule 2 (`denominator_digits`)."""
    system: dict = {}
    phase, digits = 0, 0.0
    while phase not in system:
        maps = _system_maps(fam, phase).values()
        digits = denominator_digits(len(system) + 1, digits, max(m for *_, m, _ in maps), "phases")
        nxt = next(iter(maps))[4]
        M = lcm(*(m for *_, m, _ in maps))
        system[phase] = (M, tuple((gn * (M // m), sk * (M // m)) for _, gn, sk, m, _ in maps), nxt)
        phase = nxt
    return MappingProxyType(system)


def _interval_step(maps, lo: int, hi: int, D: int) -> tuple[int, int, int, int]:
    """Hull of the images of [lo/D, hi/D] under the monotone maps
    x -> (G + K*x)/M, given as (G, K) pairs: its two ends as numerators over
    M*D, with the indices of the maps attaining them."""
    if not maps:
        raise ValueError("need at least one affine map")
    new_lo = new_hi = None
    for i, (G, K) in enumerate(maps):
        G *= D
        a, b = (G + K * lo, G + K * hi) if K > 0 else (G + K * hi, G + K * lo)
        if new_lo is None or a < new_lo:  # a tie keeps the first index, as min over (value, i)
            new_lo, ilo = a, i
        if new_hi is None or b >= new_hi:  # and the last, as max over (value, i)
            new_hi, ihi = b, i
    return new_lo, new_hi, ilo, ihi


def _solve_chains(links: dict) -> dict:
    """Exact values (numerator, denominator > 0) of unknowns x_u = (G + K * x_v)/M,
    given as links u -> (v, G, K, M) with |K| < M.

    Each unknown depends on exactly one other, so the links form a
    functional graph: every walk runs into a cycle, whose composed map
    x -> (a + b*x)/c has the unique fixed point a/(c - b), and the unknowns
    on the way back-substitute.  Composed from any node round the cycle,
    the map has the same b and c, so every node of the cycle is over c - b,
    and a step back round it divides by M exactly."""
    value: dict = {}
    for start in links:
        path, seen, node = [], set(), start
        while node not in value and node not in seen:
            seen.add(node)
            path.append(node)
            node = links[node][0]
        if node not in value:  # a new cycle, from `node` round to itself
            cycle = path[path.index(node) :]
            a, b, c = 0, 1, 1  # x_node = (a + b * x_(current)) / c
            for u in cycle:
                _, G, K, M = links[u]
                a, b, c = a * M + b * G, b * K, c * M
            value[node] = (a, c - b)
            for u in reversed(cycle[1:]):
                v, G, K, M = links[u]
                value[u] = ((G * (c - b) + K * value[v][0]) // M, c - b)
        for u in reversed(path):
            if u not in value:
                v, G, K, M = links[u]
                p, q = value[v]
                value[u] = (G * q + K * p, M * q)
    return value


def solve_phase_hulls(system: PhaseMaps) -> dict[int, tuple[int, int, int]]:
    """Exact hull [lo/D, hi/D] of each phase's attractor, as integers (lo, hi,
    D), in a graph-directed system of monotone contractions x -> (G + K*x)/M
    (Mauldin & Williams 1988).

    Policy iteration (Howard 1960) on the per-phase interval step.  A policy
    picks the map attaining each hull end, so the ends it implies solve
    exactly as a functional graph (`_solve_chains`).  The first round steps
    from every end at 0; each round returns the ends if each end the step
    gives is the policy's (the step contracts, so its fixed point is
    unique), else adopts the maps the step attained and solves them.  It
    ends: with each hi written as -w, every end is a minimum over maps of
    g' + |k| * (an end of the next phase), so the step is monotone.  It can
    only lower a policy's solution, and the next policy's solution lies at
    or below that step: the solutions strictly decrease and no policy comes
    back.

    In integers throughout, and unreduced: a phase's two ends are over their
    chain denominator, which both share when they lie on one cycle (c - b),
    else over the product of the two.  Reducing them is left to the reader
    of each value, once: a hull's width with gcd(hi - lo, D), a mesh's share
    of the denominator with gcd(lo, hi, D)."""
    if not system or not all(maps for _, maps, _ in system.values()):
        raise ValueError("need at least one affine map per phase")
    if any(abs(K) >= M for M, maps, _ in system.values() for _, K in maps):
        raise ValueError("affine maps must be contractions")
    # end 0 is lo, end 1 hi; end e of phase p is (G + K * (end f of the next phase)) / M
    links = {(p, e): ((n, e), 0, 0, 1) for p, (_, _, n) in system.items() for e in (0, 1)}
    value = dict.fromkeys(links, (0, 1))  # the solution of that first policy, every end 0
    while True:
        hulls = {}
        for p in system:  # both ends over one denominator: their shared one, else the product
            (lo, d_lo), (hi, d_hi) = value[p, 0], value[p, 1]
            hulls[p] = (lo, hi, d_lo) if d_lo == d_hi else (lo * d_hi, hi * d_lo, d_lo * d_hi)
        policy, stable = {}, True
        for p, (M, maps, n) in system.items():
            lo, hi, D = hulls[n]
            step = _interval_step(maps, lo, hi, D)
            for e in (0, 1):
                (_, f), G, K, _ = links[p, e]
                stable = stable and step[e] == G * D + K * (hi if f else lo)
                G, K = maps[step[2 + e]]
                policy[p, e] = ((n, e if K > 0 else 1 - e), G, K, M)
        if stable:
            return hulls
        links = policy
        value = _solve_chains(links)


@lru_cache(maxsize=256)
def _local_hulls(fam: FamilySpec) -> Mapping[int, tuple[int, int, int]]:
    """phase -> exact hull (lo, hi, D) of the set at that phase, its ends
    the integer numerators lo and hi over D (`solve_phase_hulls`)."""
    return MappingProxyType(solve_phase_hulls(_phase_maps(fam)))


def set_interval(fam: FamilySpec) -> IntervalR:
    """Exact hull [inf, sup] of the whole family: the root cylinder's."""
    return cylinder_hull(fam, ())


def cylinder_hull(fam: FamilySpec, addr) -> IntervalR:
    """Exact hull of any enumerable cylinder via the affine frame.

    For the closed-form families this coincides with `cylinder_interval`;
    it additionally covers NSu with u > 0, Blocks/Tilde, MDper, MD and
    Cantor series.
    """
    return _interval(*_frame_ends(fam, address_frame(fam, addr)))


def _frame_ends(fam: FamilySpec, frame: Frame) -> tuple[int, int, int]:
    """The hull of the cylinder at `frame`, its phase's local hull under the
    frame's map x -> (V + sign * x)/den, as numerators (lo, hi) over one
    denominator d: (lo, hi, d)."""
    V, den, sign, phase = frame
    lo, hi, D = _local_hulls(fam)[phase]
    if sign < 0:
        lo, hi = -hi, -lo
    return V * D + lo, V * D + hi, den * D


def _child_hulls(fam: FamilySpec, frame: Frame, wanted: tuple = ()) -> dict[object, IntervalR]:
    """selector -> hull of each child of the cylinder at `frame`, from one
    table read, in selector order; refuses a `wanted` non-child."""
    hulls = {sel: _interval(*_frame_ends(fam, child)) for sel, child in child_frames(fam, frame)}
    for sel in wanted:
        if sel not in hulls:
            raise _inadmissible(fam, sel)
    return hulls


# -- the level oracle -------------------------------------------------------------


def _level_minmax(levels, x: int, D: int) -> tuple[int, int, int]:
    """Exact min/max of f_1(f_2(...f_d(x/D))) over every choice of f_j, a map
    x -> (G + K*x)/M from levels[j-1] = (M, ((G, K), ...)), as numerators
    over the D' returned with them, D times every level's M.  Each level
    offers the same maps whatever was chosen above it, so one interval step
    per level, deepest first, gives the extremes exactly."""
    lo = hi = x
    for M, maps in reversed(levels):
        lo, hi, _, _ = _interval_step(maps, lo, hi, D)
        D *= M
    return lo, hi, D


@lru_cache(maxsize=256)
def _oracle_local(fam: FamilySpec, depth: int, phase: int) -> tuple[int, int, int, int]:
    """(min, max, shrink, D) of the value in the set at `phase` over every
    continuation `depth` levels deep from it: the three as integer
    numerators over one denominator D.

    Each continuation is closed by taking every phase's first selector from
    then on (for MDper the digit 0, so nothing follows): a member of the
    set, the fixed point of the first selectors' cycle carried back to the
    phase the continuation ends at.  `shrink`, the largest product of |k|
    along a continuation, scales the local hull left out below it, whose
    width s/(s-1) bounds: their product is the oracle's tail bound."""
    system = _phase_maps(fam)
    closing = _solve_chains({p: (n, *maps[0], M) for p, (M, maps, n) in system.items()})
    levels, shrink = [], 1
    for _ in range(depth):
        M, maps, phase = system[phase]
        levels.append((M, maps))
        shrink *= max(abs(K) for _, K in maps)
    lo, hi, D = _level_minmax(levels, *closing[phase])
    return lo, hi, shrink * closing[phase][1], D


def tail_extrema_oracle(fam: FamilySpec, addr, depth: int) -> OracleResult:
    """Exact min/max over all admissible continuations of `addr` to rank `depth`.

    Every continuation is closed with a periodic admissible tail, so the
    returned interval sits inside the true cylinder hull; the rigorous bound
    guarantees the true hull lies within it inflated by `bound`.  `leaves` is
    the number of continuations the interval ranges over.
    """
    if depth < 1:
        raise ValueError("oracle depth must be >= 1")
    V, den, sign, phase = address_frame(fam, addr)
    leaves = prod(map(len, _rank_maps(fam, depth, phase)))  # refuses MD, whose ranks have no end
    lo, hi, shrink, D = _oracle_local(fam, depth, phase)
    lo, hi = (V * D + lo, V * D + hi) if sign > 0 else (V * D - hi, V * D - lo)
    bound = Fraction(fam.s * shrink, (fam.s - 1) * D * den)
    return OracleResult(_interval(lo, hi, den * D), bound, leaves)


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


_LAYOUTS = ("left-to-right", "right-to-left")


def _predicted_orientation(fam: FamilySpec, addr_base: tuple, p: int, q: int) -> str | None:
    """S/Su's layout of siblings p < q by u (NSu and Sminus as u = 0),
    reversed where the siblings' closed-form sign is -1."""
    s, u = fam.s, fam.u or 0
    if u <= 1:
        rtl = True
    elif u >= s - 2 or q < u:
        rtl = False
    elif p > u:
        rtl = True
    else:
        return None  # the pair straddling the excluded digit: compare directly
    return _LAYOUTS[rtl != (_sign(fam, sum(addr_base) + p, len(addr_base) + 1) < 0)]


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


def _rank_masses(fam: FamilySpec, depth: int) -> list[tuple[int, int, int]]:
    """Each rank d = 0..depth's (phase, mass numerator, denominator): every
    phase has one successor, so a rank's cylinders share one phase, and its
    mass is their total |scale|.  Counts no addresses.  Each rank is one
    step of the walk budget's rule 2, as each phase of `_phase_maps` is."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    digit_maps(fam, 0)  # refuses MD: a rank of its (gap, digit) addresses never ends
    system = _phase_maps(fam)
    ranks, digits = [(0, 1, 1)], 0.0
    for rank in range(1, depth + 1):
        phase, num, den = ranks[-1]
        M, maps, nxt = system[phase]  # the lcm of powers of one radix: the largest m
        digits = denominator_digits(rank, digits, M, "ranks", "; lower --depth")
        ranks.append((nxt, num * sum(abs(K) for _, K in maps), den * M))
    return ranks


def _covering_sums(fam: FamilySpec, depth: int) -> list[tuple[int, int]]:
    """Exact total length of the rank-d cylinder cover, for each d = 0..depth,
    as a reduced (numerator, denominator): each rank's mass (`_rank_masses`)
    times its phase's local hull width.  Every rank passes the walk budget's
    rule 2 before any hull is solved.  Each phase's width is reduced once,
    by gcd(hi - lo, D), and each rank's product once."""
    ranks = _rank_masses(fam, depth)
    hulls, widths, sums = _local_hulls(fam), {}, []
    for p, num, den in ranks:
        if p not in widths:
            lo, hi, D = hulls[p]
            g = gcd(hi - lo, D)
            widths[p] = ((hi - lo) // g, D // g)
        num, den = num * widths[p][0], den * widths[p][1]
        g = gcd(num, den)
        sums.append((num // g, den // g))
    return sums


def covering_sums(fam: FamilySpec, depth: int) -> list[Fraction]:
    """Exact total length of the rank-d cylinder cover, for each d = 0..depth
    (`_covering_sums`, one `Fraction` per rank)."""
    return [Fraction(num, den) for num, den in _covering_sums(fam, depth)]


def cylinder_report(fam: FamilySpec, addr, child: int | None = None) -> CylinderReport:
    addr = tuple(addr)
    frame = address_frame(fam, addr)
    lo, hi, d = _frame_ends(fam, frame)
    iv, width = _interval(lo, hi, d), Fraction(hi - lo, d)
    ordered = _has_closed_form(fam) and not fam.degenerate
    wanted = () if child is None else (child,)
    children = _child_hulls(fam, frame, wanted) if wanted or ordered else {}
    ratio = children[child].width / width if wanted and width else None
    orientation = None
    if ordered:
        seen = {e.observed for e in _ordering_entries(fam, addr, children)}
        orientation = seen.pop() if len(seen) == 1 else "mixed"
    return CylinderReport(addr, iv, width, ratio, orientation)


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

    Refused first by the walk budget (`_rank_masses` to depth, as `cover`
    refuses it, then `walk_size`), so past `cap` addresses even though the
    walk computes few of them.  Checks, over all addresses of rank <= depth:
    oracle containment with the geometric tail bound (the oracle at depth +
    ORACLE_EXTRA_DEPTH), child nesting, nonempty sibling gaps, predicted
    orderings, the covering-sum decay law against the run digits' sum of
    s^-c, and the Sminus diameter/endpoint consistency identity.

    The covering law compares rank d's total length with rank 0's times
    rho^d, rho = R / s^c_top, R the sum of s^(c_top - c) over the run digits
    c.  Every rank is at phase 0, whose hull width cancels, so each rank's
    integer mass is cross-multiplied against R^d and no hull is solved; only
    a failing rank builds the totals (`covering_sums`), for its text.

    Addresses are walked depth-first.  Each node carries its closed-form
    state and ends and its integer frame, and each child is one closed-form
    step and one digit map from its parent, so every check compares
    integers; a `Fraction` is built only for the text of a failure.

    Each cylinder is an affine image of the set, so a subtree's checks
    depend only on the node's memo key: its rank (the subtree's height), its
    phase, its frame's sign (which flips the observed layouts), the closed
    form's sign `_sign` (its hull's flip and its predicted layouts) and its
    closed form read through its frame: the scale den/(Q s^E) and the
    node's two ends, each exact, which fix the closed form's map up to the
    flip.  The true maps keep this map the same from node to node, and a
    map with a wrong scale moves it, so no wrong subtree is merged.  The
    closed form's sign is fixed by the rest of the key wherever the frame
    has the closed form's scale (den = s^E): the relative inf den*lo - V is
    then T - V + inf0 under sign 1 and T - V - sup0 under sign -1, T and V
    integers, and inf0 + sup0 lies strictly between -1 and 0 for NSu and
    Sminus (S and Su have sign 1 throughout).  A frame of another scale has
    no such argument, so the key keeps the sign.  The key of a subtree whose
    walk fails no check is stored; a later node with that key is not
    descended.  A subtree that fails a check is never stored, so
    every failure is found where and in the order the full walk finds it.
    The counts are the tree's, not the walk's: every address is an oracle
    check, every address but the root a nesting check, and every inner
    node's children less one a sibling pair, which sum to the rank-`depth`
    leaves less one.
    """
    _require_formula_family(fam)
    n_cov = min(depth + 2, 8)  # the deepest rank of the covering law
    masses = _rank_masses(fam, max(depth, n_cov))[: n_cov + 1]
    n_addr = walk_size(fam, depth, cap)
    n_pair = prod(map(len, _rank_maps(fam, depth))) - 1  # each inner node's children less one
    s = fam.s
    digits = digit_maps(fam, 0)  # the run digits, in order
    oracle_f, nest_f, gap_f, ord_f = [], [], [], []
    n_bad = 0

    def fail(failures, *args):  # counts every failure, recorded or not
        nonlocal n_bad
        n_bad += 1
        _fail(failures, *args)

    # formula ends are numerators over Q * s^E, E the digit sum; a phase's
    # oracle ends and shrink are numerators over its oracle denominator D
    # times den, den the frame's; the tail bound is s/(s-1) times the shrink
    form = _closed_form(fam)
    Q = form[0]
    lo, hi = _closed_ends(fam, form, ROOT_STATE)
    if lo > hi:  # refuse empty whole-set bounds as `cylinder_interval` does
        _interval(lo, hi, Q)
    oracle = {phase: _oracle_local(fam, depth + ORACLE_EXTRA_DEPTH, phase) for phase in _phase_maps(fam)}
    c_top = max(digits)
    top = s**c_top
    memo = set()  # the memo keys of subtrees that failed nothing
    stack = [((), ROOT_FRAME, ROOT_STATE, lo, hi)]
    while stack:
        item = stack.pop()
        if len(item) == 2:  # a subtree is done: (its key, the failures before it)
            key, before = item
            if before == n_bad:
                memo.add(key)
            continue
        base, frame, state, lo, hi = item
        V, den, sign, phase = frame
        fd = Q * s ** state[1]
        # the scale den/fd and the ends read through the frame, over one reduced denominator
        rel_lo, rel_hi = den * lo - V * fd, den * hi - V * fd
        g = gcd(den, rel_lo, rel_hi, fd)
        key = (len(base), phase, sign, _sign(fam, *state[1:]), den // g, rel_lo // g, rel_hi // g, fd // g)
        if key in memo:
            continue
        stack.append((key, n_bad))
        olo, ohi, shrink, D = oracle[phase]
        olo, ohi = (V * D + olo, V * D + ohi) if sign > 0 else (V * D - ohi, V * D - olo)
        od = D * den
        # both intervals over fd * od
        if not (lo * od <= olo * fd and ohi * fd <= hi * od):
            fail(oracle_f, base, _interval(olo, ohi, od), _interval(lo, hi, fd), "oracle escapes formula")
        else:
            dist = max(olo * fd - lo * od, hi * od - ohi * fd)
            if dist * (s - 1) > s * shrink * fd:
                bound = Fraction(s * shrink, (s - 1) * od)
                fail(oracle_f, base, Fraction(dist, fd * od), bound, "Hausdorff distance above tail bound")
        if len(base) == depth:
            continue

        # nesting: child c's ends sit over s^c times the parent's denominator
        kids, children = [], {}
        for c, child_frame in child_frames(fam, frame):
            child_state = _closed_step(fam, state, c)
            c_lo, c_hi = _closed_ends(fam, form, child_state)
            sc = s**c
            if not (lo * sc <= c_lo and c_hi <= hi * sc):
                child, parent = _interval(c_lo, c_hi, fd * sc), _interval(lo, hi, fd)
                fail(nest_f, base + (c,), child, parent, "child escapes parent")
            # siblings over one denominator, fd * s^c_top
            up = s ** (c_top - c)
            children[c] = (c_lo * up, c_hi * up)
            kids.append((base + (c,), child_frame, child_state, c_lo, c_hi))

        # sibling gaps + orderings
        entries = _ordering_entries(fam, base, children)
        for e in entries:
            if e.observed == "overlap":
                a, b = children[e.p], children[e.q]
                first, second = (a, b) if a[0] <= b[0] else (b, a)
                what = f"siblings {e.p},{e.q} touch or overlap"
                fail(gap_f, base, Fraction(first[1], fd * top), Fraction(second[0], fd * top), what)
        bad = next((e for e in entries if not e.ok), None)
        if bad is not None:
            fail(ord_f, base, bad.observed, bad.predicted, f"pair ({bad.p},{bad.q}) orientation")
        # reversed, so addresses come off the stack in lexicographic order
        stack.extend(reversed(kids))
    results = [
        PropertyResult("interval-vs-oracle", n_addr, not oracle_f, tuple(oracle_f)),
        PropertyResult("nesting", n_addr - 1, not nest_f, tuple(nest_f)),
        PropertyResult("sibling-gaps", n_pair, not gap_f, tuple(gap_f)),
        PropertyResult("ordering", n_pair, not ord_f, tuple(ord_f)),
    ]

    # geometric covering-sum law: every rank shares phase 0's hull width,
    # which cancels, so rank d's mass must be rho^d, rho = R / s^c_top
    cov_f = []
    R = sum(s ** (c_top - c) for c in digits)
    bad = [d for d, (_, num, den) in enumerate(masses) if num * top**d != R**d * den]
    if bad:  # a failing rank's text compares totals; a degenerate family's are all 0 and pass
        sums, rho = covering_sums(fam, n_cov), Fraction(R, top)
        for d in bad:
            if sums[d] != sums[0] * rho**d:
                _fail(cov_f, (d,), sums[d], sums[0] * rho**d, "covering law")
    results.append(PropertyResult("covering-law", len(masses), not cov_f, tuple(cov_f)))

    # Sminus endpoint/diameter consistency
    if fam.kind == "Sminus":
        inf0, sup0 = _sminus_bounds(s)
        ok = sup0 - inf0 == sminus_diameter_constant(s)
        fails = () if ok else (f"sup-inf={sup0 - inf0} vs {sminus_diameter_constant(s)}",)
        results.append(PropertyResult("diameter-constants", 1, ok, fails))

    return VerificationReport(fam.label(), tuple(results), all(r.passed for r in results))
