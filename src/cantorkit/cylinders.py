"""Exact cylinder geometry: interval formulas, a level oracle, gaps,
orderings and covering sums.

Closed-form intervals exist for the run-length families S/Su (any u), NSu
with u = 0, and Sminus; each cylinder is the image of the whole set under an
affine contraction, so its hull is the prefix value plus a signed rescale of
the whole-set hull.  Everything else here works from the digit maps of
`families.digit_map`: a cylinder's frame (value, scale, phase) maps the
local hull at its phase onto the cylinder's hull, and that local hull is
the fixed point of the phase's maps (`solve_affine_hull`; MDper's phases
have their own closed form).  Traversals carry frames and apply one map per
child.

The tail-extrema oracle never touches the closed forms.  It takes every
admissible digit continuation of an address out to a given rank, closes each
one with a periodic admissible tail (so every value it ranges over is an
actual member of the set), and returns the exact min/max.  Each level's
choices act as monotone affine maps on the levels below, so that min/max
follows from one interval step per level (the step `solve_affine_hull`
iterates) instead of a walk over every continuation.  Containment of the
oracle interval in the formula interval, with Hausdorff distance below the
geometric tail bound, is the package's independent evidence for the
interval formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from typing import Sequence

from .errors import FamilyConstraintError, UnsupportedFamilyError
from .families import (
    BLOCK_KINDS,
    DEFAULT_CAP,
    FamilySpec,
    Frame,
    address_count,
    address_frame,
    as_address,
    child_frames,
    digit_maps,
    family_blocks,
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


def solve_affine_hull(maps: Sequence[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    """Exact hull [lo, hi] of the attractor of x -> g_i + k_i * x, |k_i| < 1.

    Iterates the interval map until the extremal selectors stabilise, then
    solves the resulting 2x2 linear system exactly and verifies it is the
    true fixed point.
    """
    maps = [(Fraction(g), Fraction(k)) for g, k in maps]
    if not maps:
        raise ValueError("need at least one affine map")
    kmax = max(abs(k) for _, k in maps)
    if kmax >= 1:
        raise ValueError("affine maps must be contractions")
    bound = max(abs(g) for g, _ in maps) / (1 - kmax) + 1
    lo, hi = -bound, bound
    prev_sel = None
    stable = 0
    for _ in range(400):
        lo, hi, ilo, ihi = _interval_step(maps, lo, hi)
        sel = (ilo, ihi)
        stable = stable + 1 if sel == prev_sel else 0
        prev_sel = sel
        if stable < 3:
            continue
        g1, k1 = maps[ilo]
        g2, k2 = maps[ihi]
        if k1 > 0 and k2 > 0:
            L, H = g1 / (1 - k1), g2 / (1 - k2)
        elif k1 > 0:
            L = g1 / (1 - k1)
            H = g2 + k2 * L
        elif k2 > 0:
            H = g2 / (1 - k2)
            L = g1 + k1 * H
        else:
            L = (g1 + k1 * g2) / (1 - k1 * k2)
            H = g2 + k2 * L
        ok_lo = L == min(g + (k * L if k > 0 else k * H) for g, k in maps)
        ok_hi = H == max(g + (k * H if k > 0 else k * L) for g, k in maps)
        if ok_lo and ok_hi and L <= H:
            return L, H
    raise RuntimeError("affine hull iteration did not stabilise")


def _interval_step(maps, lo, hi) -> tuple[Fraction, Fraction, int, int]:
    """Hull of the images of [lo, hi] under the monotone maps x -> g + k*x,
    with the indices of the maps attaining its two ends."""
    new_lo, ilo = min((g + k * (lo if k > 0 else hi), i) for i, (g, k) in enumerate(maps))
    new_hi, ihi = max((g + k * (hi if k > 0 else lo), i) for i, (g, k) in enumerate(maps))
    return new_lo, new_hi, ilo, ihi


def _local_maps(fam: FamilySpec, phase: int = 0) -> list[tuple[Fraction, Fraction]]:
    return [(g, k) for _, g, k, _ in digit_maps(fam, phase).values()]


def _mdper_hulls(s: int, period: tuple[int, ...]) -> list[IntervalR]:
    """Per-phase hulls of the MDper local tail values.

    Phase p sees gaps period[p], period[p+1], ... cyclically; one level maps
    (inf, sup) -> (-(s-1)q - q*sup, -q*inf) with q = s^-gap.  The cycle of
    those swap-affine maps has a unique fixed point, solved exactly.
    """
    t = len(period)

    def level_map(gap):
        q = Fraction(1, s**gap)
        # matrix rows act on the column (inf, sup); translation column last
        return ((Fraction(0), -q, -(s - 1) * q), (-q, Fraction(0), Fraction(0)))

    def compose(m_outer, m_inner):
        (a, b, e), (c, d, f) = m_outer
        (a2, b2, e2), (c2, d2, f2) = m_inner
        return (
            (a * a2 + b * c2, a * b2 + b * d2, a * e2 + b * f2 + e),
            (c * a2 + d * c2, c * b2 + d * d2, c * e2 + d * f2 + f),
        )

    total = ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0)))
    for p in range(t):
        total = compose(total, level_map(period[p]))
    # fixed point of x = A x + b
    (a, b, e), (c, d, f) = total
    det = (1 - a) * (1 - d) - b * c
    inf0 = (e * (1 - d) + b * f) / det
    sup0 = (f * (1 - a) + c * e) / det
    hulls = [None] * t
    hulls[0] = IntervalR(inf0, sup0)
    for p in range(t - 1, 0, -1):
        nxt = hulls[(p + 1) % t]
        (a, b, e), (c, d, f) = level_map(period[p])
        hulls[p] = IntervalR(a * nxt.lo + b * nxt.hi + e, c * nxt.lo + d * nxt.hi + f)
    return hulls


@lru_cache(maxsize=256)
def _local_hull(fam: FamilySpec, phase: int) -> tuple[Fraction, Fraction]:
    """Exact hull of the local tail-value set (family constant excluded)."""
    if fam.kind == "MDper":
        iv = _mdper_hulls(fam.s, fam.period)[phase]
        return iv.lo, iv.hi
    return solve_affine_hull(_local_maps(fam))


def set_interval(fam: FamilySpec) -> IntervalR:
    """Exact hull [inf, sup] of the whole family."""
    if _has_closed_form(fam):
        return cylinder_interval(fam, ())
    if fam.kind == "MD":
        # sup -> 0 as the first gap grows; inf pairs the shortest gap with the
        # largest digit and the sup tail
        return IntervalR(Fraction(-(fam.s - 1), fam.s**3), Fraction(0))
    if fam.kind == "Cantor":
        return _cantor_interval(fam)
    return cylinder_hull(fam, ())


def _cantor_interval(fam: FamilySpec) -> IntervalR:
    if fam.basis.kind == "power":
        raise UnsupportedFamilyError("no closed hull for power bases")
    p, q = len(fam.basis.values), len(fam.level_sets)
    span = p * q // gcd(p, q)
    lo = hi = Fraction(0)
    denom = 1
    for j in range(1, span + 1):
        I = fam.level_sets[(j - 1) % q]
        denom *= fam.basis.d(j)
        lo += Fraction(I[0], denom)
        hi += Fraction(I[-1], denom)
    closure = Fraction(denom, denom - 1)
    return IntervalR(lo * closure, hi * closure)


def _frame_image(frame: Frame, lo: Fraction, hi: Fraction) -> IntervalR:
    """The image of [lo, hi] under the frame's map x -> value + scale * x."""
    value, scale, _ = frame
    a, b = value + scale * lo, value + scale * hi
    return IntervalR(a, b) if scale > 0 else IntervalR(b, a)


def cylinder_hull(fam: FamilySpec, addr) -> IntervalR:
    """Exact hull of any enumerable cylinder via the affine frame.

    For the closed-form families this coincides with `cylinder_interval`;
    it additionally covers NSu with u > 0, Blocks/Tilde and MDper.
    """
    frame = address_frame(fam, addr)
    return _frame_image(frame, *_local_hull(fam, frame[2]))


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
def _oracle_local(fam: FamilySpec, depth: int, phase: int) -> tuple[Fraction, Fraction]:
    """Exact min/max of the local tail value over every continuation `depth`
    levels deep from `phase`, each closed by repeating the first selector of
    the phase it ends at (for MDper the digit 0, admissible at every phase),
    so every value is that of a member of the set."""
    levels = []
    for _ in range(depth):
        levels.append(_local_maps(fam, phase))
        phase = next(iter(digit_maps(fam, phase).values()))[3]
    g, k = _local_maps(fam, phase)[0]
    return _level_minmax(levels, g / (1 - k))


def _oracle_interval(fam: FamilySpec, frame: Frame, depth: int) -> tuple[IntervalR, Fraction]:
    """The oracle interval of the cylinder with this frame, and its tail bound."""
    _, scale, phase = frame
    iv = _frame_image(frame, *_oracle_local(fam, depth, phase))
    return iv, _oracle_bound(fam, scale, depth, phase)


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


def _oracle_bound(fam: FamilySpec, prefix_scale: Fraction, depth: int, phase: int) -> Fraction:
    s = fam.s
    if fam.kind in ("S", "Su", "NSu", "Sminus"):
        tail_exp = depth  # every continuation digit adds at least 1
    elif fam.kind in BLOCK_KINDS:
        tail_exp = depth * min(len(b) for b in family_blocks(fam))
    else:  # MDper: the next `depth` gaps are known exactly
        t = len(fam.period)
        tail_exp = sum(fam.period[(phase + j) % t] for j in range(depth))
    return Fraction(s, s - 1) * abs(prefix_scale) / s**tail_exp


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
    mass = {0: Fraction(1)}
    sums = []
    for rank in range(depth + 1):
        total = Fraction(0)
        for phase, m in mass.items():
            lo, hi = _local_hull(fam, phase)
            total += m * (hi - lo)
        sums.append(total)
        if rank < depth:
            step: dict[int, Fraction] = {}
            for phase, m in mass.items():
                for _, _, k, nxt in digit_maps(fam, phase).values():
                    step[nxt] = step.get(nxt, 0) + m * abs(k)
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
