from fractions import Fraction as F

import pytest

from cantorkit import (
    CantorBasis,
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
from cantorkit.cylinders import solve_phase_hulls
from cantorkit.families import level_choices

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
        digits = level_choices(fam, 1)
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
    # a power basis d_n = 2^n never repeats a phase: refused, not walked forever
    power = FamilySpec("Cantor", 2, basis=CantorBasis.power(2), level_sets=((0, 1),))
    with pytest.raises(UnsupportedFamilyError):
        cylinder_hull(power, (1,))
    with pytest.raises(UnsupportedFamilyError):
        tail_extrema_oracle(power, (), 4)


def test_affine_hull_solver():
    # classical Cantor set: maps x/3 and (2+x)/3 fix [0, 1]
    maps = ((F(0), F(1, 3)), (F(2, 3), F(1, 3)))
    assert solve_phase_hulls({0: (maps, 0)}) == {0: (F(0), F(1))}
    with pytest.raises(ValueError):
        solve_phase_hulls({0: ((), 0)})
    with pytest.raises(ValueError):
        solve_phase_hulls({0: (((F(1), F(2)),), 0)})


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
            for addr in [(), (level_choices(fam, 1)[0],)]:
                assert ordering_check(fam, addr).passed, (s, u, addr)


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


def test_covering_sums_keep_the_address_cap():
    with pytest.raises(CapExceededError):
        covering_sums(S3, 5, cap=2**5 - 1)
    assert len(covering_sums(S3, 5, cap=2**5)) == 6


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
        rep = verify_family(parse_family(text), depth=3, oracle_depth=8)
        assert rep.passed, [(r.name, r.failures) for r in rep.results if not r.passed]


def test_verify_counts_covering_depths_summed():
    # the cap admits depths 0..3 (4^3 = 64 <= 100 < 4^4) of the 0..4 planned
    rep = verify_family(parse_family("S(s=5)"), depth=2, oracle_depth=3, cap=100)
    cov = next(r for r in rep.results if r.name == "covering-law")
    assert rep.passed and cov.checked == 4


def test_verify_rejects_nonformula_families():
    with pytest.raises(UnsupportedFamilyError):
        verify_family(parse_family("Tilde(s=4)"), depth=2, oracle_depth=4)
