"""The integer `verify_family` walk against the Fraction walk it replaced.

The reference below is that walk: it re-sums each closed-form prefix in
`Fraction`s, folds `Fraction` frames through `digit_maps`, reads the
`Fraction` reference oracle (`fraction_kernels.oracle_local`), and builds an
`IntervalR` at every node.  `verify_family` merges each repeated
failure-free subtree by its memo key (rank, phase, frame sign, closed-form
sign, closed form relative to the frame) and descends only the first.
Both must return equal reports, counts and failure strings included, on
correct whole-set constants and on sabotaged constants, digit maps and
closed forms, which the suite must catch the same way: a map with a wrong
scale or a closed form shifted in one parity class must split the classes
the memo would otherwise merge.

The closed form's per-kind statement (`ref_closed_form`, `ref_closed_step`,
`ref_closed_ends`, `ref_predicted_orientation`: a sign chain per kind) is
kept as the reference for the one signed series `cylinders` states.
"""

import time
from fractions import Fraction
from math import lcm

import pytest

import cantorkit.cylinders as cyl
import cantorkit.families as families
from cantorkit import (
    CapExceededError,
    IntervalR,
    cylinder_interval,
    enumerate_addresses,
    parse_family,
    tail_extrema_oracle,
    verify_family,
)
from cantorkit.cli import main
from cantorkit.families import digit_maps, walk_size
from conftest import clear_caches
from fraction_kernels import fraction_system, oracle_local
from test_cli import _digit_2_scale_off


def ref_cylinder_interval(fam, base):
    s = fam.s
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
        inf0, sup0 = cyl._su_bounds(s, u)
        return IntervalR(tau + inf0 * scale, tau + sup0 * scale)
    if fam.kind == "NSu":
        g = Fraction(0)
        ck = 0
        for c in base:
            ck += c
            g += Fraction((-1) ** ck * c, s**ck)
        inf0, sup0 = cyl._nega0_bounds(s)
        if esum % 2 == 0:
            return IntervalR(g + inf0 * scale, g + sup0 * scale)
        return IntervalR(g - sup0 * scale, g - inf0 * scale)
    sig = Fraction(0)
    ck = 0
    for i, c in enumerate(base, 1):
        ck += c
        sig += Fraction((-1) ** i * c, s**ck)
    inf0, sup0 = cyl._sminus_bounds(s)
    if len(base) % 2 == 0:
        return IntervalR(sig + inf0 * scale, sig + sup0 * scale)
    return IntervalR(sig - sup0 * scale, sig - inf0 * scale)


def ref_closed_form(fam):
    s = fam.s
    if fam.kind in ("S", "Su"):
        inf0, sup0 = cyl._su_bounds(s, fam.u)
        shift = Fraction(fam.u, s - 1)
    else:
        inf0, sup0 = cyl._nega0_bounds(s) if fam.kind == "NSu" else cyl._sminus_bounds(s)
        shift = Fraction(0)
    Q = lcm(inf0.denominator, sup0.denominator, shift.denominator)
    return Q, int(shift * Q), int(inf0 * Q), int(sup0 * Q)


def ref_closed_step(fam, state, c):
    T, E, n = state
    E, n = E + c, n + 1
    if fam.kind == "NSu":
        term = -c if E % 2 else c
    elif fam.kind == "Sminus":
        term = -c if n % 2 else c
    else:
        term = c - fam.u
    return T * fam.s**c + term, E, n


def ref_closed_ends(fam, form, state):
    Q, shift, lo0, hi0 = form
    T, E, n = state
    at = T * Q + shift * (fam.s**E - 1)
    if (fam.kind == "NSu" and E % 2) or (fam.kind == "Sminus" and n % 2):
        return at - hi0, at - lo0
    return at + lo0, at + hi0


def ref_predicted_orientation(fam, addr_base, p, q):
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
        return None
    if fam.kind == "NSu":
        return "right-to-left" if (sum(addr_base) + p) % 2 == 0 else "left-to-right"
    rank = len(addr_base) + 1
    return "right-to-left" if rank % 2 == 0 else "left-to-right"


def ref_child_frames(fam, frame):
    value, scale, phase = frame
    for sel, (_, gn, sk, m, nxt) in digit_maps(fam, phase).items():
        g, k = Fraction(gn, m), Fraction(sk, m)
        yield sel, (value + scale * g, scale * k, nxt)


def ref_oracle_interval(fam, frame, local):
    value, scale, phase = frame
    lo, hi, shrink = local[phase]
    a, b = value + scale * lo, value + scale * hi
    iv = IntervalR(a, b) if scale > 0 else IntervalR(b, a)
    return iv, Fraction(fam.s, fam.s - 1) * abs(scale) * shrink


def ref_verify_family(fam, depth, cap=10**6):
    cyl.covering_sums(fam, depth)  # the ranks x digits rule, as `cover --depth` applies it
    walk_size(fam, depth, cap)
    s = fam.s
    digits = tuple(digit_maps(fam, 0))
    _fail = cyl._fail
    oracle_f, nest_f, gap_f, ord_f = [], [], [], []
    n_addr = n_child = n_pair = 0
    system = fraction_system(cyl._phase_maps(fam))
    local = {p: oracle_local(system, depth + cyl.ORACLE_EXTRA_DEPTH, p) for p in system}
    stack = [((), (Fraction(0), Fraction(1), 0), ref_cylinder_interval(fam, ()))]
    while stack:
        base, frame, parent = stack.pop()
        oracle, bound = ref_oracle_interval(fam, frame, local)
        n_addr += 1
        if not parent.contains(oracle):
            _fail(oracle_f, base, oracle, parent, "oracle escapes formula")
        elif parent.hausdorff(oracle) > bound:
            _fail(oracle_f, base, parent.hausdorff(oracle), bound, "Hausdorff distance above tail bound")
        if len(base) == depth:
            continue
        children = {c: ref_cylinder_interval(fam, base + (c,)) for c in digits}
        for c, child in children.items():
            n_child += 1
            if not parent.contains(child):
                _fail(nest_f, base + (c,), child, parent, "child escapes parent")
        entries = cyl._ordering_entries(fam, base, {c: (iv.lo, iv.hi) for c, iv in children.items()})
        n_pair += len(entries)
        for e in entries:
            if e.observed == "overlap":
                a, b = children[e.p], children[e.q]
                lo, hi = (a, b) if a.lo <= b.lo else (b, a)
                _fail(gap_f, base, lo.hi, hi.lo, f"siblings {e.p},{e.q} touch or overlap")
        bad = next((e for e in entries if not e.ok), None)
        if bad is not None:
            _fail(ord_f, base, bad.observed, bad.predicted, f"pair ({bad.p},{bad.q}) orientation")
        for c, child_frame in reversed(list(ref_child_frames(fam, frame))):
            stack.append((base + (c,), child_frame, children[c]))
    results = [
        cyl.PropertyResult("interval-vs-oracle", n_addr, not oracle_f, tuple(oracle_f)),
        cyl.PropertyResult("nesting", n_child, not nest_f, tuple(nest_f)),
        cyl.PropertyResult("sibling-gaps", n_pair, not gap_f, tuple(gap_f)),
        cyl.PropertyResult("ordering", n_pair, not ord_f, tuple(ord_f)),
    ]
    cov_f = []
    rho = sum(Fraction(1, s**a) for a in digits)
    sums = cyl.covering_sums(fam, min(depth + 2, 8))
    for d, total in enumerate(sums):
        if total != sums[0] * rho**d:
            _fail(cov_f, (d,), total, sums[0] * rho**d, "covering law")
    results.append(cyl.PropertyResult("covering-law", len(sums), not cov_f, tuple(cov_f)))
    if fam.kind == "Sminus":
        inf0, sup0 = cyl._sminus_bounds(s)
        ok = sup0 - inf0 == cyl.sminus_diameter_constant(s)
        fails = () if ok else (f"sup-inf={sup0 - inf0} vs {cyl.sminus_diameter_constant(s)}",)
        results.append(cyl.PropertyResult("diameter-constants", 1, ok, fails))
    return cyl.VerificationReport(fam.label(), tuple(results), all(r.passed for r in results))


#: the closed-form families of each whole-set constant function
FAMILIES = {
    "_su_bounds": [f"S(s={s})" for s in range(3, 7)] + [f"Su(s={s},u={u})" for s in (4, 5) for u in range(s)],
    "_nega0_bounds": [f"NSu(s={s},u=0)" for s in range(3, 7)],
    "_sminus_bounds": [f"Sminus(s={s})" for s in range(3, 7)],
}


def _assert_walks_agree(texts):
    for text in texts:
        fam = parse_family(text)
        for rank in range(3):
            for addr in enumerate_addresses(fam, rank):
                want = ref_cylinder_interval(fam, addr)
                assert cylinder_interval(fam, addr) == want, (text, addr)
        for depth in range(6):
            got = verify_family(fam, depth=depth)
            assert got == ref_verify_family(fam, depth), (text, depth)


@pytest.mark.parametrize("bounds", sorted(FAMILIES))
def test_integer_walk_equals_fraction_walk(bounds):
    _assert_walks_agree(FAMILIES[bounds])


@pytest.mark.parametrize("s", range(3, 11))
def test_signed_series_equals_the_per_kind_closed_forms(s):
    # state for state, end for end and prediction for prediction, on every
    # address to rank 2 and every adjacent digit pair under it
    texts = [f"S(s={s})", f"NSu(s={s},u=0)", f"Sminus(s={s})"] + [f"Su(s={s},u={u})" for u in range(s)]
    for text in texts:
        fam = parse_family(text)
        form = cyl._closed_form(fam)
        assert form == ref_closed_form(fam), text
        digits = list(digit_maps(fam, 0))
        for rank in range(3):
            for addr in enumerate_addresses(fam, rank):
                state = want = cyl.ROOT_STATE
                for c in addr:
                    state, want = cyl._closed_step(fam, state, c), ref_closed_step(fam, want, c)
                    assert state == want, (text, addr)
                assert cyl._closed_ends(fam, form, state) == ref_closed_ends(fam, form, state), (text, addr)
                for p, q in zip(digits, digits[1:]):
                    want = ref_predicted_orientation(fam, addr, p, q)
                    assert cyl._predicted_orientation(fam, addr, p, q) == want, (text, addr, p)


# "narrow" raises the inf: the oracle escapes the formula and children their
# parents.  "wide" widens the hull s times its width on each side: Hausdorff
# distances exceed the tail bound, and siblings overlap and lose their order.
@pytest.mark.parametrize("how", ("narrow", "wide"))
@pytest.mark.parametrize("bounds", sorted(FAMILIES))
def test_integer_walk_equals_fraction_walk_on_sabotaged_bounds(monkeypatch, bounds, how):
    true_bounds = getattr(cyl, bounds)

    def sabotaged(s, *u):
        inf0, sup0 = true_bounds(s, *u)
        if how == "narrow":
            return inf0 + (sup0 - inf0) / s**2, sup0
        return inf0 - s * (sup0 - inf0), sup0 + s * (sup0 - inf0)

    monkeypatch.setattr(cyl, bounds, sabotaged)
    fam = parse_family(FAMILIES[bounds][0])
    assert not verify_family(fam, depth=2).passed
    _assert_walks_agree(FAMILIES[bounds])


@pytest.mark.parametrize("bounds", sorted(FAMILIES))
def test_hausdorff_threshold_is_the_tail_bound(monkeypatch, bounds):
    # lower the inf by the root's tail bound: at every node the distance then
    # exceeds the node's bound, by less than that bound
    fam = parse_family(FAMILIES[bounds][0])
    true_bounds = getattr(cyl, bounds)
    bound = tail_extrema_oracle(fam, (), 3 + cyl.ORACLE_EXTRA_DEPTH).bound

    def sabotaged(s, *u):
        inf0, sup0 = true_bounds(s, *u)
        return inf0 - bound, sup0

    monkeypatch.setattr(cyl, bounds, sabotaged)
    got = verify_family(fam, depth=3)
    assert got == ref_verify_family(fam, 3)
    oracle = got.results[0]
    assert oracle.name == "interval-vs-oracle" and len(oracle.failures) == 5
    assert all("Hausdorff distance above tail bound" in f for f in oracle.failures)


@pytest.mark.parametrize("bounds", sorted(FAMILIES))
def test_hausdorff_threshold_is_no_lower_than_the_tail_bound(monkeypatch, bounds):
    # lower the inf by half the root's tail bound: the oracle's own distance
    # plus that half stays within each node's bound, so nothing fails, where
    # a threshold a factor s too low fails
    fam = parse_family(FAMILIES[bounds][0])
    true_bounds = getattr(cyl, bounds)
    bound = tail_extrema_oracle(fam, (), 3 + cyl.ORACLE_EXTRA_DEPTH).bound

    def sabotaged(s, *u):
        inf0, sup0 = true_bounds(s, *u)
        return inf0 - bound / 2, sup0

    monkeypatch.setattr(cyl, bounds, sabotaged)
    got = verify_family(fam, depth=3)
    assert got == ref_verify_family(fam, 3)
    assert got.results[0].name == "interval-vs-oracle" and got.results[0].passed


def test_stretched_closed_forms_fail_nesting_and_the_oracle(monkeypatch):
    # a closed form that is not self-similar: every rank-2 interval stretched
    # to four times its width escapes its parent and strays from the oracle
    true_ends = cyl._closed_ends

    def stretched(fam, form, state):
        lo, hi = true_ends(fam, form, state)
        return (lo, hi + 3 * (hi - lo)) if state[2] == 2 else (lo, hi)

    monkeypatch.setattr(cyl, "_closed_ends", stretched)
    rep = verify_family(parse_family("S(s=3)"), depth=2)
    failures = {r.name: r.failures for r in rep.results if not r.passed}
    assert set(failures) == {"interval-vs-oracle", "nesting"}
    assert failures["nesting"][0] == "addr=(1, 1): child escapes parent: [17/36, 7/12] vs [5/12, 1/2]"
    assert failures["interval-vs-oracle"][0] == "addr=(1, 1): Hausdorff distance above tail bound: 1/12 vs 1/39366"


# one rank past the digit rule, past the cap by a whole rank or by one cylinder, and at the cap
@pytest.mark.parametrize(
    "text, depth, cap, refused",
    [
        ("Su(s=3,u=1)", 912, 10**6, True),
        ("S(s=4)", 689, 10**6, True),
        ("S(s=3)", 19, 10**6, True),
        ("S(s=3)", 5, 62, True),
        ("S(s=3)", 5, 63, False),
    ],
)
def test_reference_refuses_what_verify_refuses(text, depth, cap, refused):
    fam = parse_family(text)
    outcomes = []
    for walk in (verify_family, ref_verify_family):
        try:
            outcomes.append(walk(fam, depth, cap))
        except CapExceededError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0], str) == refused


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty table caches before and after a test that sabotages the maps
    (requesting monkeypatch, so they are emptied before it is undone)."""
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("text", ["S(s=4)", "S(s=3)"])
def test_memo_key_splits_subtrees_of_a_wrong_scale(monkeypatch, fresh_tables, text):
    # run digit 2, the block 0 2, maps by 1/(s^2 + 1): the frames drift from
    # the closed form by a different affine map at every node, so the key's
    # scale and ends must keep each node's subtree apart
    true_map = families._block_map

    def block_map(runs, base, nxt, flip=1):
        block, gn, sk, m, nxt = true_map(runs, base, nxt, flip)
        return block, gn, sk, m + (block == (0, 2)), nxt

    monkeypatch.setattr(families, "_block_map", block_map)
    fam = parse_family(text)
    assert not verify_family(fam, 2).passed
    for depth in range(1, 6):
        assert verify_family(fam, depth) == ref_verify_family(fam, depth), (text, depth)


def _no_hull_solve(system):
    raise AssertionError("a passing verify solves no hull")


@pytest.mark.parametrize("text", ["S(s=3)", "Su(s=5,u=2)", "NSu(s=4,u=0)", "Sminus(s=4)"])
def test_a_passing_verify_solves_no_hull(monkeypatch, fresh_tables, text):
    # every rank is at phase 0, whose hull width cancels from the covering
    # law: the ranks' integer masses decide it
    monkeypatch.setattr(cyl, "solve_phase_hulls", _no_hull_solve)
    rep = verify_family(parse_family(text), depth=6)
    assert rep.passed and rep.results[4] == cyl.PropertyResult("covering-law", 9, True, ())


def test_a_failing_covering_law_is_worded_from_the_totals(monkeypatch, fresh_tables):
    # the masses find the failing ranks; their text compares the totals,
    # the hull width and all, as the reference's Fraction law does
    _digit_2_scale_off(monkeypatch)
    fam = parse_family("S(s=3)")
    got = verify_family(fam, 2)
    assert got == ref_verify_family(fam, 2)
    law = got.results[4]
    assert law.name == "covering-law" and len(law.failures) == 4
    assert law.failures[0] == "addr=(1,): covering law: 13/108 vs 10/81"


def test_a_degenerate_covering_law_passes_at_any_scale(monkeypatch, fresh_tables):
    # Su(s=3,u=2) is one point: with its one digit map's scale off, its
    # masses leave rho^d, but every total is 0 and the law holds
    true_map = families._block_map

    def block_map(runs, base, nxt, flip=1):
        block, gn, sk, m, nxt = true_map(runs, base, nxt, flip)
        return block, gn, sk, m + 1, nxt

    monkeypatch.setattr(families, "_block_map", block_map)
    fam = parse_family("Su(s=3,u=2)")
    got = verify_family(fam, 2)
    assert got == ref_verify_family(fam, 2)
    assert got.results[4] == cyl.PropertyResult("covering-law", 5, True, ())


# the closed form shifted up by a fifth of its width at odd digit sum (NSu's
# flips) or at odd rank (Sminus's): each parity class of nodes is its own
@pytest.mark.parametrize(
    "text, odd_walk, odd_ref",
    [
        ("NSu(s=4,u=0)", lambda state: state[1] % 2, lambda base: sum(base) % 2),
        ("Sminus(s=4)", lambda state: state[2] % 2, lambda base: len(base) % 2),
    ],
)
def test_memo_key_keeps_the_parity_classes(monkeypatch, text, odd_walk, odd_ref):
    true_ends, true_ref = cyl._closed_ends, ref_cylinder_interval

    def ends(fam, form, state):
        lo, hi = true_ends(fam, form, state)
        assert (hi - lo) % 5 == 0  # so both walks shift by the same rational
        shift = (hi - lo) // 5 if odd_walk(state) else 0
        return lo + shift, hi + shift

    def ref(fam, base):
        iv = true_ref(fam, base)
        shift = iv.width / 5 if odd_ref(base) else 0
        return IntervalR(iv.lo + shift, iv.hi + shift)

    monkeypatch.setattr(cyl, "_closed_ends", ends)
    monkeypatch.setitem(globals(), "ref_cylinder_interval", ref)
    fam = parse_family(text)
    for depth in range(6):
        got = verify_family(fam, depth)
        assert got == ref_verify_family(fam, depth), (text, depth)
    assert {r.name for r in got.results if not r.passed} == {"interval-vs-oracle", "nesting"}


def test_deep_verify_merges_repeated_subtrees(capsys):
    # 2^19 - 1 addresses, each still counted; the full walk took seconds
    start = time.perf_counter()
    code = main(["verify", "S(s=3)", "--depth", "18"])
    assert time.perf_counter() - start < 0.5
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] interval-vs-oracle   524287 checks" in out


def test_verify_walks_a_chain_to_the_digit_rule():
    # one child a rank, 912 ranks deep on the walk's own stack, not Python's:
    # the deepest rank rule 2 lets through (`test_reference_refuses_what_verify_refuses`)
    assert main(["verify", "Su(s=3,u=1)", "--depth", "911"]) == 0
