"""The integer `verify_family` walk against the Fraction walk it replaced.

The reference below is that walk: it re-sums each closed-form prefix in
`Fraction`s, folds `Fraction` frames through `digit_maps`, and builds an
`IntervalR` per node.  Both must return equal reports, failure strings
included, on correct whole-set constants and on sabotaged ones, which the
suite must catch the same way.
"""

from fractions import Fraction

import pytest

import cantorkit.cylinders as cyl
from cantorkit import (
    CapExceededError,
    IntervalR,
    cylinder_interval,
    enumerate_addresses,
    parse_family,
    tail_extrema_oracle,
    verify_family,
)
from cantorkit.families import digit_maps, walk_size


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


def ref_child_frames(fam, frame):
    value, scale, phase = frame
    for sel, (_, gn, sk, m, nxt) in digit_maps(fam, phase).items():
        g, k = Fraction(gn, m), Fraction(sk, m)
        yield sel, (value + scale * g, scale * k, nxt)


def ref_oracle_interval(fam, frame, depth):
    value, scale, phase = frame
    lo, hi, shrink = cyl._oracle_local(fam, depth, phase)
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
    stack = [((), (Fraction(0), Fraction(1), 0), ref_cylinder_interval(fam, ()))]
    while stack:
        base, frame, parent = stack.pop()
        oracle, bound = ref_oracle_interval(fam, frame, depth + cyl.ORACLE_EXTRA_DEPTH)
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
