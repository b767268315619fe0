import math
from fractions import Fraction as F

import pytest

import cantorkit.boxcount as bc
from cantorkit import (
    CapExceededError,
    ScaleCount,
    box_dimension,
    cylinder_hull,
    family_dimension,
    fit_dimension,
    parse_family,
    set_interval,
)
from cantorkit.boxcount import _cover_counts
from cantorkit.families import address_frame, box_walk, child_frames, digit_maps

LOG32 = math.log(2) / math.log(3)


def test_cantor_counts_are_powers_of_two():
    # the middle-thirds set as a block language and as a Cantor series
    for text in ("Blocks(s=3,B=[0;2])", "Cantor(d=[3],I=[{0,2}])"):
        fam = parse_family(text)
        for n in range(4, 11):
            assert _cover_counts(fam, [n], 10**6)[0] == 2**n, text


def test_full_alphabet_fills_every_box():
    fam = parse_family("Blocks(s=3,B=[0;1;2])")
    for n in range(2, 6):
        assert _cover_counts(fam, [n], 10**6)[0] == 3**n


def test_degenerate_singleton_counts_one_box():
    # one selector per level, or one block, or one digit: a hull of width 0
    for text in ("Su(s=3,u=1)", "Blocks(s=2,B=[0 1])", "Cantor(d=[3],I=[{1}])"):
        fam = parse_family(text)
        for n in (2, 5, 9):
            assert _cover_counts(fam, [n], 10**6)[0] == 1, text


def test_counts_nonincreasing_in_eps():
    fam = parse_family("S(s=3)")
    counts = [_cover_counts(fam, [n], 10**6)[0] for n in range(3, 10)]
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


@pytest.mark.parametrize("text", ONE_WALK_FAMILIES)
def test_one_walk_matches_one_scale_counts(text):
    fam = parse_family(text)
    _, points = box_dimension(fam, 1, 6)
    assert [p.count for p in points] == [_cover_counts(fam, [n], 10**6)[0] for n in range(1, 7)]


@pytest.mark.parametrize("text", ONE_WALK_FAMILIES)
def test_one_walk_takes_any_descending_widths(text):
    fam = parse_family(text)
    ns = [0, 2, 3, 3, 5, 6]  # not contiguous, with a repeat
    assert _cover_counts(fam, ns, 10**6) == [_cover_counts(fam, [n], 10**6)[0] for n in ns]


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
    assert [_cover_counts(fam, [n], 10**6)[0] for n in ns] == [_hull_count(fam, F(1, fam.s**n)) for n in ns]


@pytest.mark.parametrize("text", ("S(s=3)", "NSu(s=4,u=1)", "MDper(s=3,m=[3,5])"))
def test_adaptive_cover_matches_uniform_depth(text):
    # hull ends are set members, so forcing every cylinder down to a minimum
    # rank touches the same cells as splitting only those wider than eps
    fam = parse_family(text)
    for n in (1, 2, 3, 4):
        count = _cover_counts(fam, [n], 10**6)[0]
        assert [_hull_count(fam, F(1, fam.s**n), min_rank) for min_rank in (0, 2, 4)] == [count] * 3, (text, n)


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


# the middle-thirds set has hulls exactly s^-n wide, so ties with eps occur
@pytest.mark.parametrize("text", ("S(s=3)", "Blocks(s=3,B=[0;2])", "Blocks(s=3,B=[0 2;1])", "MDper(s=3,m=[3,5])"))
def test_cap_bounds_the_finest_walk(text):
    fam = parse_family(text)
    visited = _walk_size(fam, F(1, fam.s**7))
    with pytest.raises(CapExceededError):
        box_dimension(fam, 2, 7, cap=visited - 1)
    box_dimension(fam, 2, 7, cap=visited)


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
            _cover_counts(fam, [n], 10**6)
        assert predicted == [walked] == [_walk_size(fam, F(1, fam.s**n))], (text, n)


def test_negative_scale_exponent_rejected():
    with pytest.raises(ValueError):
        box_dimension(parse_family("S(s=3)"), -3, 2)
