from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import (
    CantorBasis,
    CapExceededError,
    FamilyConstraintError,
    FamilyParseError,
    FamilySpec,
    blocks_of_family,
    enumerate_addresses,
    eval_family_point,
    eval_sadic,
    expand_address,
    membership_prefix,
    parse_family,
)
from cantorkit.radix import eval_negasadic


def test_grammar_round_trip():
    for text in (
        "S(s=3)",
        "Su(s=5,u=2)",
        "NSu(s=5,u=2)",
        "Sminus(s=3)",
        "Tilde(s=4)",
        "MD(s=2)",
        "MDper(s=3,m=[3,5])",
        "Blocks(s=3,B=[0 2;1])",
        "Cantor(d=[3],I=[{0,2}])",
    ):
        fam = parse_family(text)
        assert parse_family(fam.label()) == fam


@st.composite
def specs(draw):
    """A valid spec of any kind, its lists drawn unsorted and with repeats."""
    kind = draw(st.sampled_from(("S", "Su", "NSu", "Sminus", "Tilde", "MD", "MDper", "Blocks", "Cantor")))
    if kind == "Cantor":
        values = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))
        constant = len(values) == 1 and draw(st.booleans())
        basis = CantorBasis.constant(values[0]) if constant else CantorBasis.periodic(values)
        digits = st.lists(st.integers(0, min(values) - 1), min_size=1, max_size=4)
        return FamilySpec(kind, max(values), basis=basis, level_sets=draw(st.lists(digits, min_size=1, max_size=3)))
    s = draw(st.integers(2 if kind in ("MD", "MDper", "Blocks") else 3, 12))
    if kind in ("Su", "NSu"):
        return FamilySpec(kind, s, u=draw(st.integers(0, s - 1)))
    if kind == "MDper":
        return FamilySpec(kind, s, period=draw(st.lists(st.sampled_from((3, 5, 7, 9)), min_size=1, max_size=4)))
    if kind == "Blocks":
        block = st.lists(st.integers(0, s - 1), min_size=1, max_size=4).map(tuple)
        return FamilySpec(kind, s, blocks=draw(st.lists(block, min_size=1, max_size=5, unique=True)))
    return FamilySpec(kind, s)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(specs())
def test_label_parses_back_to_an_equal_spec(fam):
    assert parse_family(fam.label()) == fam


def test_grammar_errors():
    for bad in (
        "Nope(s=3)",
        "S(s=2)",  # s > 2 required
        "Su(s=4)",  # missing u
        "Su(s=4,u=7)",
        "MDper(s=3,m=[2])",  # even gap
        "MDper(s=3,m=[1])",  # below 3
        "MD(s=1)",
        "Blocks(s=3,B=[])",
        "Blocks(s=3,B=[5])",
        "S(s=3,u=1)",  # stray parameter
        "S(3)",
        "Cantor(d=[3],I=[{0,x}])",  # a digit that is no integer
        "Cantor(d=[],I=[{0}])",  # an empty basis
        "Cantor(d=[1],I=[{0}])",  # basis elements must be >= 2
        "Blocks(s=3,B=[0;])",  # an empty block
        "Blocks(s=3,B=0 1)",  # no brackets
        "Cantor(d=[3],I=[])",  # no digit set
        "Cantor(d=[3],I=[{}])",  # an empty digit set
        "Cantor(d=[3],I=[{0},1])",  # a digit set without braces
        "MDper(s=3,m=[x])",
        "Su(s=5,u=x)",
        "S(s=3,d=[3])",  # stray key
        "Cantor(s=3,d=[3],I=[{0}])",  # a Cantor series' s is max(d), never given
        # a missing key, for each kind
        "S()",
        "Su(s=5)",
        "NSu(u=2)",
        "Sminus()",
        "Tilde()",
        "MD()",
        "MDper(s=3)",
        "MDper(m=[3])",
        "Blocks(s=3)",
        "Blocks(B=[0])",
        "Cantor(d=[3])",
        "Cantor(I=[{0}])",
    ):
        with pytest.raises(FamilyParseError):
            parse_family(bad)


def test_blocks_of_run_families():
    bs = blocks_of_family(parse_family("S(s=3)"))
    assert bs.blocks == ((1,), (0, 2))
    assert bs.counts() == {1: 1, 2: 1}
    singleton = blocks_of_family(parse_family("Su(s=3,u=1)"))
    assert singleton.blocks == ((1, 2),)
    assert singleton.degenerate
    sm = blocks_of_family(parse_family("Sminus(s=4)"))
    assert sm.blocks == ((1,), (0, 2), (0, 0, 3))


def test_blocks_su_lengths():
    # lengths are {1..s-1} minus u (u != 0), all of {1..s-1} for u = 0
    for s in range(3, 8):
        for u in range(s):
            bs = blocks_of_family(parse_family(f"Su(s={s},u={u})"))
            assert bs.size == s - 1 - (1 if u else 0)
            lengths = sorted(len(b) for b in bs.blocks)
            expect = [k for k in range(1, s) if u == 0 or k != u]
            assert lengths == expect


def test_tilde_block_count():
    for s in range(3, 13):
        bs = blocks_of_family(parse_family(f"Tilde(s={s})"))
        assert bs.size == s * s - 3 * s + 3
    bs4 = blocks_of_family(parse_family("Tilde(s=4)"))
    assert bs4.counts() == {1: 1, 2: 3, 3: 3}
    # refused once the blocks built so far pass the digit cap, before the table is complete
    for s in (127, 3000):
        with pytest.raises(CapExceededError):
            blocks_of_family(parse_family(f"Tilde(s={s})"))


def test_md_analytic_and_mdper_blocks():
    md = blocks_of_family(parse_family("MD(s=4)"))
    assert md.analytic == "odd-zero-runs" and md.blocks is None
    per = blocks_of_family(parse_family("MDper(s=3,m=[3,5])"))
    assert per.size == 3**2
    assert all(len(b) == 8 for b in per.blocks)
    assert (0,) * 8 in per.blocks  # the all-zero pattern is admissible


def test_enumerate_addresses():
    S3 = parse_family("S(s=3)")
    assert enumerate_addresses(S3, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert enumerate_addresses(parse_family("Su(s=5,u=2)"), 1) == [
        (1,),
        (3,),
        (4,),
    ]
    assert enumerate_addresses(S3, 0) == [()]
    for s, u, depth in ((5, 2, 3), (4, 0, 4)):
        fam = parse_family(f"Su(s={s},u={u})")
        n = len(enumerate_addresses(fam, depth))
        assert n == (s - 2) ** depth if u else (s - 1) ** depth
    with pytest.raises(CapExceededError):
        enumerate_addresses(S3, 30, cap=1000)


def test_membership_prefix():
    S3 = parse_family("S(s=3)")
    assert membership_prefix(S3, (0, 2, 1))
    assert not membership_prefix(S3, (2,))
    assert membership_prefix(parse_family("Tilde(s=4)"), (1, 2))
    md = parse_family("MD(s=3)")
    assert membership_prefix(md, (0, 0, 2, 0, 0, 1))
    assert membership_prefix(md, (0, 0, 0, 0))  # extendable zero run
    assert not membership_prefix(md, (0, 1))  # gap 2 is even
    per = parse_family("MDper(s=3,m=[3])")
    assert membership_prefix(per, (0, 0, 2, 0, 0, 0))
    assert not membership_prefix(per, (1,))


def test_every_enumerated_address_is_a_member_prefix():
    for text, depth in (("S(s=3)", 3), ("Su(s=5,u=2)", 2), ("Tilde(s=4)", 2), ("MDper(s=3,m=[3])", 2)):
        fam = parse_family(text)
        for addr in enumerate_addresses(fam, depth):
            assert membership_prefix(fam, expand_address(fam, addr))


def test_expand_address():
    assert expand_address(parse_family("S(s=3)"), (2, 1)).digits == (0, 2, 1)
    assert expand_address(parse_family("Su(s=5,u=2)"), (3, 1)).digits == (2, 2, 3, 1)
    assert expand_address(parse_family("MD(s=3)"), ((3, 2), (3, 1))).digits == (0, 0, 2, 0, 0, 1)
    assert expand_address(parse_family("MDper(s=3,m=[3])"), (2, 1)).digits == (0, 0, 2, 0, 0, 1)


def test_eval_family_point_values():
    assert eval_family_point(parse_family("NSu(s=3,u=0)"), (1, 1, 1)) == F(-7, 27)
    # sign-pattern comparison: the index-alternating and exponent-alternating
    # series disagree on the same prefix
    assert eval_family_point(parse_family("Sminus(s=3)"), (2, 1)) == F(-5, 27)
    assert eval_family_point(parse_family("NSu(s=3,u=0)"), (2, 1)) == F(5, 27)
    S3 = parse_family("S(s=3)")
    assert eval_family_point(S3, (), tail=(2,)) == F(1, 4)
    assert eval_family_point(S3, (), tail=(1,)) == F(1, 2)
    md = parse_family("MD(s=3)")
    assert eval_family_point(md, ((3, 2), (3, 1))) == F(-2, 27) + F(1, 729)


def test_su_value_matches_digit_expansion():
    # family value = s-adic value of the expanded prefix + the u-run tail term
    for s, u in ((3, 0), (5, 2), (4, 3)):
        fam = parse_family(f"Su(s={s},u={u})")
        for addr in enumerate_addresses(fam, 2):
            esum = sum(addr)
            lhs = eval_family_point(fam, addr)
            rhs = eval_sadic(expand_address(fam, addr)) + F(u, s - 1) / s**esum
            assert lhs == rhs, (s, u, addr)


def test_nsu_value_matches_digit_expansion():
    for s, u in ((3, 0), (4, 1)):
        fam = parse_family(f"NSu(s={s},u={u})")
        for addr in enumerate_addresses(fam, 2):
            esum = sum(addr)
            lhs = eval_family_point(fam, addr)
            tail = F(u * (-1) ** (esum + 1), (s + 1) * s**esum)
            rhs = eval_negasadic(expand_address(fam, addr)) + tail
            assert lhs == rhs, (s, u, addr)


def test_mdper_value_is_negas_cantor():
    from cantorkit import eval_negas_cantor

    fam = parse_family("MDper(s=3,m=[3,5])")
    eps = (2, 0, 1, 2)
    assert eval_family_point(fam, eps) == eval_negas_cantor(eps, (3, 5, 3, 5), 3)


def test_family_constraint_errors():
    with pytest.raises(FamilyConstraintError):
        eval_family_point(parse_family("S(s=3)"), (0,))
    with pytest.raises(FamilyConstraintError):
        eval_family_point(parse_family("Su(s=5,u=2)"), (2,))
    with pytest.raises(FamilyConstraintError):
        eval_family_point(parse_family("MD(s=3)"), ((2, 1),))
    with pytest.raises(FamilyConstraintError):
        eval_family_point(parse_family("MD(s=3)"), ((3, 0),))
    with pytest.raises(FamilyConstraintError):
        eval_family_point(parse_family("MDper(s=3,m=[3,5])"), (), tail=(1,))  # partial period


def test_degenerate_flags():
    assert parse_family("Su(s=3,u=1)").degenerate
    assert parse_family("Su(s=3,u=2)").degenerate
    assert not parse_family("Su(s=4,u=1)").degenerate
    assert not parse_family("MDper(s=2,m=[3])").degenerate


def test_cantor_restrict_family():
    fam = parse_family("Cantor(d=[3],I=[{0,2}])")
    assert enumerate_addresses(fam, 2) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert eval_family_point(fam, (2, 0, 2)) == F(2, 3) + F(2, 27)
    with pytest.raises(FamilyConstraintError):
        eval_family_point(fam, (1,))
    mixed = parse_family("Cantor(d=[2,3],I=[{0,1},{0,2}])")
    assert eval_family_point(mixed, (1, 2)) == F(1, 2) + F(2, 6)


def test_s_and_su0_coincide():
    a, b = parse_family("S(s=4)"), parse_family("Su(s=4,u=0)")
    assert blocks_of_family(a).blocks == blocks_of_family(b).blocks
    assert eval_family_point(a, (2, 3)) == eval_family_point(b, (2, 3))
