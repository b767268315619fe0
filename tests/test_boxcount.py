import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cantorkit.boxcount as bc
from cantorkit import (
    CapExceededError,
    ScaleCount,
    box_dimension,
    cylinder_hull,
    eval_family_point,
    family_dimension,
    fit_dimension,
    md_closed_form,
    parse_family,
    set_interval,
)
from cantorkit.boxcount import _cover_counts, _mesh, _type_counts
from cantorkit.families import FamilySpec, address_frame, box_walk, child_frames, digit_maps

LOG32 = math.log(2) / math.log(3)


def test_cantor_counts_are_powers_of_two():
    # the middle-thirds set as a block language and as a Cantor series
    for text in ("Blocks(s=3,B=[0;2])", "Cantor(d=[3],I=[{0,2}])"):
        fam = parse_family(text)
        for n in range(4, 11):
            assert _cover_counts(fam, [n], 10**6, _mesh(fam))[0] == 2**n, text


def test_full_alphabet_fills_every_box():
    fam = parse_family("Blocks(s=3,B=[0;1;2])")
    for n in range(2, 6):
        assert _cover_counts(fam, [n], 10**6, _mesh(fam))[0] == 3**n


def test_degenerate_singleton_counts_one_box():
    # one selector per level, or one block, or one digit: a hull of width 0
    for text in ("Su(s=3,u=1)", "Blocks(s=2,B=[0 1])", "Cantor(d=[3],I=[{1}])"):
        fam = parse_family(text)
        for n in (2, 5, 9):
            assert _cover_counts(fam, [n], 10**6, _mesh(fam))[0] == 1, text


def test_counts_nonincreasing_in_eps():
    fam = parse_family("S(s=3)")
    counts = [_cover_counts(fam, [n], 10**6, _mesh(fam))[0] for n in range(3, 10)]
    assert counts == sorted(counts)


def test_collinear_fit_recovers_cantor_dimension():
    points = [ScaleCount(3.0**-n, 2**n) for n in range(4, 11)]
    fit = fit_dimension(points)
    assert abs(fit.slope - LOG32) <= 1e-9
    assert fit.r2 == 1.0


def test_constant_counts_fit_zero():
    points = [ScaleCount(3.0**-n, 7) for n in range(4, 11)]
    fit = fit_dimension(points)
    assert fit.slope == 0.0 and fit.r2 == 1.0


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_dimension([ScaleCount(0.1, 2), ScaleCount(0.01, 4)])
    with pytest.raises(ValueError):
        fit_dimension([ScaleCount(0.5, 2), ScaleCount(0.25, 3), ScaleCount(0.125, 4)])
    with pytest.raises(ValueError):
        fit_dimension([ScaleCount(0.1, 2)] * 3)
    with pytest.raises(ValueError):
        ScaleCount(0.0, 3)
    with pytest.raises(ValueError):
        ScaleCount(0.5, 0)


@pytest.mark.parametrize(
    "text",
    (
        # representative slice of the s in {3,4,5} families, including the
        # configurations with the largest observed slope gaps
        "Blocks(s=3,B=[0;2])",
        "S(s=3)",
        "S(s=5)",
        "Sminus(s=3)",
        "NSu(s=3,u=0)",
        "Su(s=4,u=1)",
        "NSu(s=5,u=2)",
        "Tilde(s=4)",
    ),
)
def test_box_dimension_tracks_solver(text):
    fam = parse_family(text)
    fit, points = box_dimension(fam, 4, 10)
    alpha = family_dimension(fam).alpha
    assert abs(fit.slope - alpha) <= 0.02, (text, fit.slope, alpha)
    assert len(points) == 7


def test_mdper_box_dimension():
    # base 2 needs a wider n-range to span two decades of eps
    fam = parse_family("MDper(s=2,m=[3])")
    fit, _ = box_dimension(fam, 4, 12)
    assert abs(fit.slope - 1 / 3) <= 0.02


ONE_WALK_FAMILIES = (
    "Tilde(s=3)",
    "S(s=3)",
    "Su(s=5,u=2)",
    "NSu(s=4,u=1)",
    "Sminus(s=3)",
    "Blocks(s=3,B=[0 2;1])",
    "MDper(s=3,m=[3,5])",
)


# a one-basis Cantor series counts by cell types, a mixed basis by the walk
@pytest.mark.parametrize(
    "text", ONE_WALK_FAMILIES + ("Cantor(d=[3],I=[{0,2},{1}])", "Cantor(d=[4,5],I=[{0,3},{1,2,4}])")
)
def test_one_walk_matches_one_scale_counts(text):
    fam = parse_family(text)
    _, points = box_dimension(fam, 1, 6)
    assert [p.count for p in points] == [_cover_counts(fam, [n], 10**6, _mesh(fam))[0] for n in range(1, 7)]


@pytest.mark.parametrize("text", ONE_WALK_FAMILIES)
def test_one_walk_takes_any_descending_widths(text):
    fam = parse_family(text)
    ns = [0, 2, 3, 3, 5, 6]  # not contiguous, with a repeat
    assert _cover_counts(fam, ns, 10**6, _mesh(fam)) == [_cover_counts(fam, [n], 10**6, _mesh(fam))[0] for n in ns]


def _hull_count(fam, eps, min_rank=0):
    """Reference: mesh cells touched by the hulls of the one-scale walk at
    eps, each hull from `cylinder_hull` in Fractions; a cylinder splits while
    its hull is wider than eps or its rank is below `min_rank`."""
    whole = set_interval(fam)
    last = math.ceil(whole.width / eps) - 1
    cells, stack = set(), [()]
    while stack:
        addr = stack.pop()
        hull = cylinder_hull(fam, addr)
        if hull.width > eps or len(addr) < min_rank:
            stack.extend(addr + (c,) for c in digit_maps(fam, address_frame(fam, addr)[3]))
            continue
        k1 = min(math.floor((hull.lo - whole.lo) / eps), last)
        k2 = math.ceil((hull.hi - whole.lo) / eps) - 1  # a right end on a mesh line claims nothing beyond
        cells.update(range(k1, min(max(k2, k1), last) + 1))
    return len(cells)


# NSu, Sminus and MDper have digit maps that reverse orientation
@pytest.mark.parametrize("text", ONE_WALK_FAMILIES + ("Cantor(d=[4,5],I=[{0,3},{1,2,4}])",))
def test_integer_walk_matches_hull_reference(text):
    fam = parse_family(text)
    ns = (0, 1, 2, 3, 4)
    assert [_cover_counts(fam, [n], 10**6, _mesh(fam))[0] for n in ns] == [_hull_count(fam, F(1, fam.s**n)) for n in ns]


@pytest.mark.parametrize("text", ("S(s=3)", "NSu(s=4,u=1)", "MDper(s=3,m=[3,5])"))
def test_adaptive_cover_matches_uniform_depth(text):
    # hull ends are set members, so forcing every cylinder down to a minimum
    # rank touches the same cells as splitting only those wider than eps
    fam = parse_family(text)
    for n in (1, 2, 3, 4):
        count = _cover_counts(fam, [n], 10**6, _mesh(fam))[0]
        assert [_hull_count(fam, F(1, fam.s**n), min_rank) for min_rank in (0, 2, 4)] == [count] * 3, (text, n)


def _md_hull_count(fam, eps):
    """Reference for MD: mesh cells touched by the hulls of MD's own (gap,
    digit) cylinders, each from `cylinder_hull` in Fractions, claimed as
    `_hull_count` claims them.  A cylinder wider than eps has a child for
    every odd gap: the children of gaps G, G + 2, ... lie on one side of its
    zero-tail point P, the farthest (gap G, digit s - 1) within
    (s - 1) s^-G of it, and they converge on P.  So the hull of P and that
    child is the one piece of all of them; the gaps are walked from 3 until
    it claims one cell, which the children near P claim."""
    whole, s = set_interval(fam), fam.s
    last = math.ceil(whole.width / eps) - 1

    def claim(lo, hi):
        k1 = min(math.floor((lo - whole.lo) / eps), last)
        k2 = math.ceil((hi - whole.lo) / eps) - 1  # a right end on a mesh line claims nothing beyond
        return set(range(k1, min(max(k2, k1), last) + 1))

    cells, stack = set(), [()]
    while stack:
        addr = stack.pop()
        hull = cylinder_hull(fam, addr)
        if hull.width <= eps:
            cells |= claim(hull.lo, hull.hi)
            continue
        point, gap = eval_family_point(fam, addr), 3
        while True:
            far = cylinder_hull(fam, addr + ((gap, s - 1),))
            rest = claim(min(point, far.lo), max(point, far.hi))
            if len(rest) == 1:
                break
            stack.extend(addr + ((gap, a),) for a in range(1, s))
            gap += 2
        cells |= rest
    return len(cells)


@pytest.mark.parametrize("s, n_hi", [(2, 16), (3, 10), (4, 8), (7, 6), (11, 5)])
def test_md_counts_equal_its_gap_digit_cylinders(s, n_hi):
    # the type counter reads MD's one-phase system; the reference walks the
    # paper's (gap, digit) cylinders, infinitely many under each
    fam = FamilySpec("MD", s)
    ns = range(n_hi + 1)
    assert _type_counts(fam, ns, 10**6, _mesh(fam)) == [_md_hull_count(fam, F(1, s**n)) for n in ns]


def test_md_box_dimension_is_its_cubic():
    # at eps down to 3^-40 the fitted slope is within 1e-5 of the cube root's
    fit, _ = box_dimension(FamilySpec("MD", 3), 4, 40)
    assert abs(fit.slope - md_closed_form(3).alpha) <= 1e-5


def _walk_size(fam, eps):
    """Nodes of the one-scale walk at eps, where a node splits while its hull
    is wider than eps; counted by address with a stack no deeper than the tree."""
    total, stack = 0, [()]
    while stack:
        addr = stack.pop()
        total += 1
        if cylinder_hull(fam, addr).width > eps:
            stack.extend(addr + (c,) for c in digit_maps(fam, address_frame(fam, addr)[3]))
    return total


def _type_charge(monkeypatch, fam, n_lo, n_hi):
    """The charge of one count by cell types: each distinct piece's split
    work, as `_claims` reports it, times the machine words of its `unit`."""
    charges, true_claims = [], bc._claims

    def recorded(piece, s, unit, ends, maps, room):
        found, work = true_claims(piece, s, unit, ends, maps, room)
        charges.append(work * (unit.bit_length() // 64 + 1))
        return found, work

    with monkeypatch.context() as patch:
        patch.setattr(bc, "_claims", recorded)
        box_dimension(fam, n_lo, n_hi)
    return sum(charges)


#: the work of counting by cell types to eps = s^-7, pinned: S(s=20)'s unit
#: takes three machine words, the others' one
TYPE_CHARGES = {
    "S(s=3)": 17,
    "Blocks(s=3,B=[0;2])": 5,
    "Blocks(s=3,B=[0 2;1])": 17,
    "MDper(s=3,m=[3,5])": 13,
    "S(s=20)": 2550,
}


# a count by cell types is refused by its own work, and the mixed basis by
# the cylinders its walk visits; the middle-thirds set has hulls exactly
# s^-n wide, so ties with eps occur
@pytest.mark.parametrize("text", tuple(TYPE_CHARGES) + ("Cantor(d=[4,5],I=[{0,3},{1,2,4}])",))
def test_cap_bounds_the_finest_walk(monkeypatch, text):
    fam = parse_family(text)
    if text in TYPE_CHARGES:
        charge = TYPE_CHARGES[text]
        assert _type_charge(monkeypatch, fam, 2, 7) == charge
    else:
        charge = _walk_size(fam, F(1, fam.s**7))
    with pytest.raises(CapExceededError, match="; lower --scales or raise --cap$"):
        box_dimension(fam, 2, 7, cap=charge - 1)
    box_dimension(fam, 2, 7, cap=charge)


def test_each_distinct_piece_is_split_once(monkeypatch):
    # Tilde(s=4)'s 38 types hold 80 pieces, only 20 of them distinct
    fam = parse_family("Tilde(s=4)")
    split, types, true_claims, true_types = [], [], bc._claims, bc._subcell_types

    def counted(piece, *args):
        split.append(piece)
        return true_claims(piece, *args)

    def typed(pieces, claims):
        types.append(len(pieces))
        return true_types(pieces, claims)

    monkeypatch.setattr(bc, "_claims", counted)
    monkeypatch.setattr(bc, "_subcell_types", typed)
    box_dimension(fam)
    assert (len(types), sum(types)) == (38, 80)
    assert len(split) == len(set(split)) == 20


# every kind with a map table: NSu with u = 0 and u > 0, a block list with a
# block that is a prefix of another, two gap phases, a two-phase Cantor series
@pytest.mark.parametrize(
    "text",
    (
        "S(s=3)",
        "Su(s=5,u=2)",
        "NSu(s=4,u=0)",
        "NSu(s=4,u=1)",
        "Sminus(s=3)",
        "Tilde(s=4)",
        "Blocks(s=3,B=[0;0 2;1])",
        "MDper(s=3,m=[3,5])",
        "Cantor(d=[4,5],I=[{0,3},{1,2,4}])",
    ),
)
def test_predicted_box_walk_is_the_walked_one(monkeypatch, text):
    fam = parse_family(text)
    for n in (1, 3, 4):
        predicted, walked = [], 1

        def recorded(*args):
            predicted.append(box_walk(*args))
            return predicted[-1]

        def counted(fam, frame):
            nonlocal walked
            for child in child_frames(fam, frame):
                walked += 1
                yield child

        with monkeypatch.context() as patch:
            patch.setattr(bc, "box_walk", recorded)
            patch.setattr(bc, "child_frames", counted)
            _cover_counts(fam, [n], 10**6, _mesh(fam))
        assert predicted == [walked] == [_walk_size(fam, F(1, fam.s**n))], (text, n)


def test_negative_scale_exponent_rejected():
    with pytest.raises(ValueError):
        box_dimension(parse_family("S(s=3)"), -3, 2)


def _refused(*args):
    raise AssertionError("the other counter ran")


@pytest.mark.parametrize(
    "text, counter, other",
    [
        ("Cantor(d=[4,5],I=[{0,3},{1,2,4}])", "_cover_counts", "_type_counts"),
        ("Cantor(d=[2,4],I=[{0,1}])", "_cover_counts", "_type_counts"),  # 2 is no power of s = 4
        ("Cantor(d=[3],I=[{0,2},{1}])", "_type_counts", "_cover_counts"),
        ("MDper(s=3,m=[3,5])", "_type_counts", "_cover_counts"),
    ],
)
def test_the_maps_choose_the_counter(monkeypatch, text, counter, other):
    # the type recursion takes every family whose maps' m are powers of s; a
    # mixed basis never enters it
    fam = parse_family(text)
    expected = getattr(bc, counter)(fam, range(1, 7), 10**6, _mesh(fam))
    monkeypatch.setattr(bc, other, _refused)
    assert [p.count for p in box_dimension(fam, 1, 6)[1]] == expected


@st.composite
def finite_type_families(draw):
    """A family of any kind whose maps' m are powers of s: NSu with u = 0 and
    u > 0, block lists that overlap or parse two ways, several gaps, a
    one-basis Cantor series with several level sets, and one-point sets."""
    kind = draw(st.sampled_from(("S", "Su", "NSu", "Sminus", "Tilde", "Blocks", "MDper", "Cantor", "point")))
    if kind in ("Su", "NSu"):
        s = draw(st.integers(3, 7))
        return FamilySpec(kind, s, u=draw(st.integers(0, s - 1)))
    if kind in ("S", "Sminus"):
        return FamilySpec(kind, draw(st.integers(3, 8)))
    if kind == "Tilde":
        return FamilySpec(kind, draw(st.integers(3, 6)))
    s = draw(st.integers(2, 4))
    if kind == "MDper":
        return FamilySpec(kind, s, period=tuple(draw(st.lists(st.sampled_from((3, 5, 7)), min_size=1, max_size=3))))
    digit_sets = st.lists(st.integers(0, s - 1), min_size=1, max_size=s, unique=True)
    if kind == "Cantor":
        level_sets = draw(st.lists(digit_sets, min_size=1, max_size=3))
        return FamilySpec(kind, s, basis=(s,), level_sets=tuple(map(tuple, level_sets)))
    block = st.lists(st.integers(0, s - 1), min_size=1, max_size=3).map(tuple)
    if kind == "point":  # one block, or one digit at every level
        if draw(st.booleans()):
            return FamilySpec("Blocks", s, blocks=(draw(block),))
        one = (draw(st.integers(0, s - 1)),)
        return FamilySpec("Cantor", s, basis=(s,), level_sets=(one,) * draw(st.integers(1, 3)))
    return FamilySpec(kind, s, blocks=tuple(draw(st.lists(block, min_size=1, max_size=4, unique=True))))


@settings(max_examples=300, deadline=None)
@given(finite_type_families())
@example(parse_family("Blocks(s=3,B=[1;2;1 2])"))  # 1 2 parses two ways
@example(parse_family("Blocks(s=2,B=[0;0 1;1 0])"))  # so does 0 1 0
def test_type_counts_equal_the_walk(fam):
    ns = range(0, 7 if fam.s < 6 else 5)
    assert _type_counts(fam, ns, 10**6, _mesh(fam)) == _cover_counts(fam, ns, 10**6, _mesh(fam)), fam.label()
