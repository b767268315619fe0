import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import (
    CapExceededError,
    FamilyConstraintError,
    FamilySpec,
    IntervalR,
    UnsupportedFamilyError,
    covering_sums,
    cylinder_hull,
    cylinder_interval,
    cylinder_report,
    enumerate_addresses,
    gap_interval,
    ordering_check,
    parse_family,
    set_interval,
    sminus_diameter_constant,
    tail_extrema_oracle,
    verify_family,
)
from cantorkit.cli import main
from cantorkit.cylinders import _local_hulls, _phase_maps, solve_phase_hulls
from cantorkit.families import _block_map, digit_maps
from fraction_kernels import fraction_hulls, fraction_system, integer_system, interval_step, over_lcm
from fraction_kernels import solve_phase_hulls as ref_solve_phase_hulls

S3 = parse_family("S(s=3)")
SM3 = parse_family("Sminus(s=3)")
N30 = parse_family("NSu(s=3,u=0)")


def test_interval_basics():
    iv = IntervalR(F(1, 4), F(1, 2))
    assert iv.width == F(1, 4)
    assert iv.contains(IntervalR(F(1, 3), F(2, 5)))
    assert iv.hausdorff(IntervalR(F(1, 4), F(1, 2))) == 0
    with pytest.raises(ValueError):
        IntervalR(F(1, 2), F(1, 4))


def test_su_cylinder_formulas():
    assert cylinder_interval(S3, ()) == IntervalR(F(1, 4), F(1, 2))
    assert cylinder_interval(S3, (1,)) == IntervalR(F(5, 12), F(1, 2))
    # u = s-1 case: sup of the whole set is 1 - 1/(s^(s-2)-1)
    su43 = parse_family("Su(s=4,u=3)")
    assert cylinder_interval(su43, ()).hi == 1 - F(1, 4**2 - 1)
    assert cylinder_interval(su43, ()).lo == F(1, 3)


def test_sminus_cylinder_formulas():
    assert cylinder_interval(SM3, ()) == IntervalR(F(-7, 26), F(-5, 26))
    assert cylinder_hull(SM3, (2, 1)).width == F(1, 351)
    # rank parity flips the interval around the alternating fixed part
    assert cylinder_interval(SM3, (1,)) == IntervalR(F(-7, 26), F(-19, 78))


def test_nega0_cylinder_formulas():
    # whole set: sup from the all-2s tail, inf from digit 1 riding that tail
    assert cylinder_interval(N30, ()) == IntervalR(F(-5, 12), F(1, 4))
    assert cylinder_interval(N30, (1,)) == IntervalR(F(-5, 12), F(-7, 36))
    # even digit sum keeps the orientation: the fixed part of (2) is +2/9
    assert cylinder_interval(N30, (2,)) == IntervalR(F(19, 108), F(1, 4))


def test_unsupported_formula_families():
    with pytest.raises(UnsupportedFamilyError):
        cylinder_interval(parse_family("NSu(s=4,u=1)"), ())
    with pytest.raises(UnsupportedFamilyError):
        cylinder_interval(parse_family("Tilde(s=4)"), ())


def test_ratio_law_and_diameter_scaling():
    for fam in (S3, SM3, N30, parse_family("Su(s=5,u=2)")):
        whole = cylinder_interval(fam, ()).width
        for addr in enumerate_addresses(fam, 2):
            diam = cylinder_hull(fam, addr).width
            assert diam == whole / fam.s ** sum(addr)
        digits = tuple(digit_maps(fam, 0))
        parent = digits[-1]
        for c in digits:
            assert cylinder_hull(fam, (parent, c)).width * fam.s**c == cylinder_hull(fam, (parent,)).width


def test_hull_matches_formula_on_closed_form_families():
    for fam in (S3, SM3, N30, parse_family("Su(s=4,u=3)")):
        for rank in range(3):
            for addr in enumerate_addresses(fam, rank):
                assert cylinder_hull(fam, addr) == cylinder_interval(fam, addr)


def test_oracle_whole_set_s3():
    o = tail_extrema_oracle(S3, (), 12)
    assert o.leaves == 2**12
    assert o.interval.hi == F(1, 2)  # the all-1s member is the sup, hit exactly
    assert 0 <= o.interval.lo - F(1, 4) <= o.bound
    assert cylinder_interval(S3, ()).contains(o.interval)


def test_oracle_beyond_enumeration_cap():
    # 4^12 continuations: more than DEFAULT_CAP, exact all the same
    fam = parse_family("S(s=5)")
    o = tail_extrema_oracle(fam, (), 12)
    iv = cylinder_interval(fam, ())
    assert o.leaves == 4**12
    assert iv.contains(o.interval)
    assert iv.hausdorff(o.interval) <= o.bound


def test_oracle_whole_set_sminus():
    o = tail_extrema_oracle(SM3, (), 12)
    iv = cylinder_interval(SM3, ())
    assert iv.contains(o.interval)
    assert iv.hausdorff(o.interval) <= o.bound


def test_oracle_degenerate_singleton():
    fam = parse_family("Su(s=3,u=1)")
    o = tail_extrema_oracle(fam, (), 9)
    assert o.interval.lo == o.interval.hi == F(5, 8)


def test_oracle_containment_sweep():
    for text in ("S(s=4)", "Su(s=5,u=2)", "NSu(s=4,u=0)", "NSu(s=4,u=2)", "Sminus(s=4)"):
        fam = parse_family(text)
        for rank in range(3):
            for addr in enumerate_addresses(fam, rank):
                o = tail_extrema_oracle(fam, addr, 6)
                iv = cylinder_hull(fam, addr)
                assert iv.contains(o.interval), (text, addr)
                assert iv.hausdorff(o.interval) <= o.bound, (text, addr)


def test_oracle_block_and_gap_families():
    for text, depth in (
        ("Tilde(s=4)", 5),
        ("Blocks(s=3,B=[0;2])", 10),
        ("MDper(s=3,m=[3,5])", 5),
        ("Cantor(d=[4,5],I=[{0,3},{1,2,4}])", 6),
    ):
        fam = parse_family(text)
        for rank in range(2):
            for addr in enumerate_addresses(fam, rank):
                o = tail_extrema_oracle(fam, addr, depth)
                iv = cylinder_hull(fam, addr)
                assert iv.contains(o.interval), (text, addr)
                assert iv.hausdorff(o.interval) <= o.bound, (text, addr)


def test_oracle_rejects_md():
    with pytest.raises(UnsupportedFamilyError):
        tail_extrema_oracle(parse_family("MD(s=3)"), (), 4)


def test_affine_hull_solver():
    # classical Cantor set: maps x/3 and (2+x)/3 fix [0, 1]
    maps = ((F(0), F(1, 3)), (F(2, 3), F(1, 3)))
    assert fraction_hulls(solve_phase_hulls(integer_system({0: (maps, 0)}))) == {0: (F(0), F(1))}
    with pytest.raises(ValueError):
        solve_phase_hulls(integer_system({0: ((), 0)}))
    with pytest.raises(ValueError):
        solve_phase_hulls(integer_system({0: (((F(1), F(2)),), 0)}))


@st.composite
def affine_systems(draw):
    """1-4 phases of 1-5 maps x -> g + k*x, g a small rational and k = +-1/m,
    each phase with any next phase."""
    n = draw(st.integers(1, 4))
    g = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
    k = st.builds(F, st.sampled_from((-1, 1)), st.integers(2, 9))
    maps = st.lists(st.tuples(g, k), min_size=1, max_size=5).map(tuple)
    return {p: (draw(maps), draw(st.integers(0, n - 1))) for p in range(n)}


@settings(max_examples=200, deadline=None)
@given(affine_systems())
def test_phase_hulls_are_the_fixed_point_of_the_interval_step(system):
    # the step contracts (lo, -hi), so its fixed point is unique: the hull
    hulls = fraction_hulls(solve_phase_hulls(integer_system(system)))
    assert hulls.keys() == system.keys()
    for p, (maps, n) in system.items():
        lo, hi = hulls[p]
        assert lo <= hi and interval_step(maps, *hulls[n])[:2] == (lo, hi)


# a gap of 4999 digits: maps with 1,505-digit denominators at s = 2 and
# 2,386-digit ones at s = 3, each hull end reduced from its own chain value
@pytest.mark.parametrize("family", ["MDper(s=2,m=[4999])", "MDper(s=3,m=[4999,3])"])
def test_big_denominator_hulls_match_the_reference(family):
    fam = parse_family(family)
    assert fraction_hulls(_local_hulls(fam)) == ref_solve_phase_hulls(fraction_system(_phase_maps(fam)))


def md_digit_maps(s):
    """MD(s) as a two-phase digit-map system in base -s: phase 0 writes 0 0,
    phase 1 writes 0 0 or a 0 0 (a = 1..s-1), and both go to phase 1.  A
    chunk 0^(m-1) a, m odd >= 3, is (0 0)^k a with k >= 1, so the closure of
    MD's digit sequences is 0 0 (0 0 | a 0 0)^omega."""
    runs = {0: [((0, 2),)], 1: [((0, 2),)] + [((a, 1), (0, 2)) for a in range(1, s)]}
    return {p: [_block_map(r, -s, 1) for r in blocks] for p, blocks in runs.items()}


@pytest.mark.parametrize("s", range(2, 12))
def test_md_hard_coded_hull_is_its_digit_map_systems_hull(s):
    # `set_interval` writes MD's hull by hand; the system's solved hull is an
    # independent witness of it: [-1/8, 0] at s = 2, ..., [-10/1331, 0] at s = 11
    system = {p: (*over_lcm([(gn, sk, m) for _, gn, sk, m, _ in maps]), 1) for p, maps in md_digit_maps(s).items()}
    lo, hi = fraction_hulls(solve_phase_hulls(system))[0]
    assert IntervalR(lo, hi) == set_interval(parse_family(f"MD(s={s})"))


@pytest.mark.parametrize("L", [399, 2000])
def test_near_tied_maps_solve_exactly(capsys, L):
    # blocks 1 and 1^(L-1) 0: the maps x -> (1 + x)/2 and x -> (2^L - 2 + x)/2^L,
    # whose images of the inf differ by about 2^-(L+1)
    family = f"Blocks(s=2,B=[1;{'1 ' * (L - 1)}0])"
    assert fraction_hulls(solve_phase_hulls(_phase_maps(parse_family(family)))) == {0: (1 - F(1, 2**L - 1), F(1))}
    for argv in (["cylinder", family], ["cover", family, "--depth", "3"], ["boxcount", family]):
        start = time.perf_counter()
        assert main(argv) == 0, capsys.readouterr().err
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p, refused", [(30, False), (40, True)])
def test_hull_solves_are_refused_past_phases_times_digits(p, refused):
    # p basis values 3 + j mod 5 and p + 1 level sets: p(p + 1) phases, each
    # phase's denominator of about 0.84 decimal digits by bit length
    basis, sets = tuple(3 + j % 5 for j in range(p)), tuple((0, 1 + j % 2) for j in range(p + 1))
    fam = FamilySpec("Cantor", 7, basis=basis, level_sets=sets)
    if refused:  # 1,640 phases: refused at phase 1,090, where phases x digits passes 10^6
        with pytest.raises(CapExceededError, match="1090[+] phases"):
            cylinder_hull(fam, ())
    else:  # 930 phases: about 7.3e5
        assert IntervalR(F(0), F(1)).contains(cylinder_hull(fam, ()))


def test_set_interval_special_families():
    assert set_interval(parse_family("Blocks(s=3,B=[0;2])")) == IntervalR(F(0), F(1))
    md = set_interval(parse_family("MD(s=3)"))
    assert md == IntervalR(F(-2, 27), F(0))
    per = set_interval(parse_family("MDper(s=3,m=[3])"))
    assert per == IntervalR(F(-27, 364), F(1, 364))
    cantor = set_interval(parse_family("Cantor(d=[3],I=[{0,2}])"))
    assert cantor == IntervalR(F(0), F(1))
    # min and max digits every level, summed over one two-level cycle and closed
    # geometrically: (0/4 + 1/20) * 20/19 and (3/4 + 4/20) * 20/19
    cantor = set_interval(parse_family("Cantor(d=[4,5],I=[{0,3},{1,2,4}])"))
    assert cantor == IntervalR(F(1, 19), F(1))


def test_gap_intervals():
    gap = gap_interval(S3, (), 1)
    assert gap == IntervalR(F(5, 18), F(5, 12))
    assert gap.lo == cylinder_interval(S3, (2,)).hi
    assert gap.hi == cylinder_interval(S3, (1,)).lo
    # even prefix-plus-digit sum puts sibling p right of p+1
    gap = gap_interval(N30, (1,), 1)
    assert gap.lo == cylinder_interval(N30, (1, 2)).hi
    assert gap.hi == cylinder_interval(N30, (1, 1)).lo
    with pytest.raises(FamilyConstraintError):
        gap_interval(parse_family("Su(s=3,u=1)"), (), 1)
    with pytest.raises(FamilyConstraintError):
        gap_interval(parse_family("Su(s=5,u=2)"), (), 1)  # sibling 2 excluded
    # every enumerable family: the gap's ends are the facing ends of the two
    # siblings' hulls
    for text, addr, p in [
        ("Tilde(s=4)", (2,), 0),
        ("Blocks(s=3,B=[0 2;1])", (0, 1), 0),
        ("MDper(s=3,m=[3,5])", (2,), 1),
        ("Cantor(d=[4,5],I=[{0,3},{1,2,4}])", (3,), 1),
        ("NSu(s=4,u=1)", (2, 3), 2),
    ]:
        fam = parse_family(text)
        a, b = cylinder_hull(fam, addr + (p,)), cylinder_hull(fam, addr + (p + 1,))
        first, second = (a, b) if a.lo <= b.lo else (b, a)
        assert gap_interval(fam, addr, p) == IntervalR(first.hi, second.lo), text
    # the blocks 0 and 0 1 start cylinders [0, 1/8] and [1/9, 11/72], which overlap
    assert gap_interval(parse_family("Blocks(s=3,B=[0;0 1;1 0])"), (), 0) is None


def test_ordering_cases():
    rep = ordering_check(S3, ())
    assert rep.passed and rep.entries[0].observed == "right-to-left"
    # middle-u split: pairs below u run left-to-right, above u right-to-left
    rep = ordering_check(parse_family("Su(s=6,u=3)"), ())
    by_pair = {(e.p, e.q): e for e in rep.entries}
    assert by_pair[(1, 2)].observed == "left-to-right"
    assert by_pair[(4, 5)].observed == "right-to-left"
    assert by_pair[(2, 4)].predicted is None
    assert rep.passed
    # Sminus orientation alternates with the rank of the siblings
    assert ordering_check(SM3, ()).entries[0].observed == "left-to-right"
    assert ordering_check(SM3, (1,)).entries[0].observed == "right-to-left"
    assert ordering_check(SM3, (2, 2)).entries[0].observed == "left-to-right"
    # NSu pair orientation from the parity of prefix sum + p
    rep = ordering_check(N30, (1,))
    assert rep.passed and rep.entries[0].observed == "right-to-left"
    with pytest.raises(FamilyConstraintError):
        ordering_check(parse_family("Su(s=3,u=2)"), ())


def test_su_orientation_families_sweep():
    for s in (4, 5, 6):
        for u in range(s):
            fam = parse_family(f"Su(s={s},u={u})")
            if fam.degenerate:
                continue
            for addr in [(), (next(iter(digit_maps(fam, 0))),)]:
                assert ordering_check(fam, addr).passed, (s, u, addr)


@pytest.mark.parametrize("text", ("S(s=4)", *(f"Su(s=5,u={u})" for u in range(5)), "NSu(s=4,u=0)", "Sminus(s=4)"))
def test_every_sibling_layout_is_predicted(text):
    # the paper's layout cases name every adjacent pair but the one straddling
    # Su(s=5,u=2)'s excluded digit, and each named layout is the observed one
    fam = parse_family(text)
    for addr in [()] + [(c,) for c in digit_maps(fam, 0)]:
        for e in ordering_check(fam, addr).entries:
            unpredicted = text == "Su(s=5,u=2)" and (e.p, e.q) == (1, 3)
            assert e.predicted == (None if unpredicted else e.observed), (text, addr, e)


def test_covering_sums():
    cantor = parse_family("Blocks(s=3,B=[0;2])")
    assert covering_sums(cantor, 7) == [F(2, 3) ** n for n in range(8)]
    assert covering_sums(S3, 8) == [F(1, 4) * F(4, 9) ** n for n in range(9)]
    assert covering_sums(SM3, 0) == [sminus_diameter_constant(3)]


@pytest.mark.parametrize(
    "text",
    (
        "S(s=3)",
        "Su(s=5,u=2)",
        "NSu(s=4,u=1)",
        "Sminus(s=4)",
        "Tilde(s=3)",
        "Blocks(s=3,B=[0 2;1])",
        "MDper(s=3,m=[3,5])",
        "Cantor(d=[4,5],I=[{0,3},{1,2,4}])",
    ),
)
def test_covering_sums_match_enumerated_hulls(text):
    # reference: the hull widths of every enumerated rank-d cylinder; odd and
    # even depths end MDper's and the Cantor series' addresses in each of
    # their two phases
    fam = parse_family(text)
    depth = 4
    reference = [sum(cylinder_hull(fam, a).width for a in enumerate_addresses(fam, d)) for d in range(depth + 1)]
    assert covering_sums(fam, depth) == reference


def test_covering_sums_count_no_addresses():
    # 2^20 rank-20 addresses, above the enumeration cap, none of them built
    assert covering_sums(S3, 20) == [F(1, 4) * F(4, 9) ** d for d in range(21)]
    with pytest.raises(ValueError):
        covering_sums(S3, -1)


def test_covering_sums_refuse_ranks_times_denominator_digits_past_the_cap():
    # each rank of S(s=4) adds the 7 bits of its largest denominator 4^3, and
    # r ranks of r * 7 * log10(2) digits pass 10^6 from r = 689 on
    s4 = parse_family("S(s=4)")
    assert len(covering_sums(s4, 688)) == 689
    with pytest.raises(CapExceededError, match=r"^689\+ ranks"):
        covering_sums(s4, 689)
    # the rule reads denominators, not the sums: these are all 1
    whole = parse_family("Blocks(s=2,B=[0;1])")
    assert covering_sums(whole, 20) == [1] * 21
    with pytest.raises(CapExceededError, match=r"^1289\+ ranks"):
        covering_sums(whole, 10**9)


def test_sminus_diameter_constant_identity():
    for s in range(3, 7):
        iv = cylinder_interval(parse_family(f"Sminus(s={s})"), ())
        assert iv.width == sminus_diameter_constant(s)


def test_cylinder_report():
    rep = cylinder_report(S3, (1,), child=1)
    assert rep.interval == IntervalR(F(5, 12), F(1, 2))
    assert rep.child_ratio == F(1, 3)
    assert rep.orientation == "right-to-left"
    rep = cylinder_report(parse_family("Su(s=6,u=3)"), ())
    assert rep.orientation == "mixed"


def test_verify_family_passes():
    for text in ("S(s=3)", "Su(s=4,u=2)", "NSu(s=3,u=0)", "Sminus(s=3)"):
        rep = verify_family(parse_family(text), depth=3)
        assert rep.passed, [(r.name, r.failures) for r in rep.results if not r.passed]


def test_verify_counts_covering_depths_summed():
    # depths 0..4, though 4^4 = 256 addresses at depth 4 pass the cap: the
    # cap bounds the walk to depth 2 (16 addresses), not the covering sums
    rep = verify_family(parse_family("S(s=5)"), depth=2, cap=100)
    cov = next(r for r in rep.results if r.name == "covering-law")
    assert rep.passed and cov.checked == 5


def test_verify_rejects_nonformula_families():
    with pytest.raises(UnsupportedFamilyError):
        verify_family(parse_family("Tilde(s=4)"), depth=2)
