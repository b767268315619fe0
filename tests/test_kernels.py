"""The oracle's level recursion against a brute-force walk over every leaf,
and the integer kernels against their `Fraction` references."""

import random
from fractions import Fraction as F
from itertools import product
from math import lcm, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorkit.cylinders as cyl
from cantorkit import FamilySpec, cylinder_hull, parse_family, tail_extrema_oracle
from cantorkit.cylinders import _level_minmax, _oracle_local
from cantorkit.families import _rank_maps, address_frame, digit_maps, family_blocks
from cantorkit.radix import DigitString, eval_cantor, eval_negas_cantor, eval_negasadic, eval_sadic
from fraction_kernels import (
    fraction_hulls,
    fraction_system,
    integer_maps,
    interval_step,
    oracle_local,
    over_lcm,
    solve_phase_hulls,
)


def _eval_tree(levels, x0):
    """Reference: every leaf f_1(f_2(...f_d(x0))), f_j = (g, k) from levels[j-1]."""
    leaves = []

    def walk(lvl, offset, scale):
        if lvl == len(levels):
            leaves.append(offset + scale * x0)
            return
        for g, k in levels[lvl]:
            walk(lvl + 1, offset + scale * g, scale * k)

    walk(0, F(0), F(1))
    return min(leaves), max(leaves)


def _minmax(levels, x0):
    """The integer `_level_minmax` of `Fraction` levels and start, back in `Fraction`s."""
    lo, hi, D = _level_minmax([integer_maps(maps) for maps in levels], x0.numerator, x0.denominator)
    return F(lo, D), F(hi, D)


def _random_levels(rng, s, depth, exp_parity):
    """Per-level digit maps: k = sign * s^-e, g = sum of coef * s^-off, off <= e;
    the sign is (-1)^e under `exp_parity` and +1 otherwise."""
    levels = []
    for _ in range(depth):
        choices = []
        for _ in range(rng.randint(1, 3)):
            e = rng.randint(1, 3)
            g = sum(
                (F(rng.randint(-(s - 1), s - 1), s ** rng.randint(1, e)) for _ in range(rng.randint(0, 2))),
                F(0),
            )
            choices.append((g, F((-1) ** e if exp_parity else 1, s**e)))
        levels.append(choices)
    return levels


# the recursion and the brute-force walk are the two implementations compared
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("exp_parity", (False, True))
def test_backends_match_reference(seed, exp_parity):
    rng = random.Random(seed)
    s = rng.randint(2, 5)
    levels = _random_levels(rng, s, rng.randint(1, 4), exp_parity)
    x0 = F(rng.randint(-4, 4), rng.randint(1, 9))
    assert _minmax(levels, x0) == _eval_tree(levels, x0), seed


def _local_value(fam, phase, sels):
    """Value, in the set at `phase`, of a continuation closed by taking the
    first selector of every level from then on, from the radix evaluators
    and the paper's digit blocks."""
    s, u = fam.s, fam.u or 0
    if fam.kind == "Cantor":
        # levels phase+1, phase+2, ...; after the continuation the first
        # digits repeat with the period of the basis and the level sets
        n, span = len(sels), lcm(len(fam.basis), len(fam.level_sets))
        ds = [fam.basis[(phase + j - 1) % len(fam.basis)] for j in range(1, n + span + 1)]
        first = [fam.level_sets[(phase + j - 1) % len(fam.level_sets)][0] for j in range(n + 1, n + span + 1)]
        cycle = prod(ds[n:])
        tail = eval_cantor(first, ds[n:]) * F(cycle, cycle - 1)
        return eval_cantor(sels, ds) + tail / prod(ds[:n])
    if fam.kind in ("S", "Su", "NSu"):
        digits = DigitString(s, tuple(d for a in sels for d in (u,) * (a - 1) + (a,)))
        a0 = next(iter(digit_maps(fam, 0)))
        tail = (u,) * (a0 - 1) + (a0,)
        return (eval_negasadic if fam.kind == "NSu" else eval_sadic)(digits, tail)
    if fam.kind == "Sminus":
        # sum (-1)^n a_n s^-(a_1+...+a_n), then the tail a0 a0 ... summed geometrically
        head = eval_negas_cantor(sels, sels, s)
        a0 = next(iter(digit_maps(fam, 0)))
        return head + F((-1) ** (len(sels) + 1) * a0, s ** sum(sels) * (s**a0 + 1))
    if fam.kind == "MDper":
        # the closing digit is 0: nothing after the continuation
        gaps = fam.period[phase:] + fam.period[:phase]
        return eval_negas_cantor(sels, gaps * len(sels), s)
    blocks = family_blocks(fam)
    return eval_sadic(DigitString(s, tuple(d for i in sels for d in blocks[i])), blocks[0])


@pytest.mark.parametrize(
    "text,depth,phase",
    [
        ("S(s=4)", 6, 0),
        ("Su(s=5,u=2)", 5, 0),
        ("NSu(s=4,u=0)", 5, 0),
        ("NSu(s=5,u=2)", 5, 0),
        ("Sminus(s=4)", 4, 0),
        ("Sminus(s=4)", 5, 0),
        ("Tilde(s=4)", 3, 0),
        ("Blocks(s=3,B=[0 2;1])", 6, 0),
        ("MDper(s=3,m=[3,5])", 5, 0),
        ("MDper(s=3,m=[3,5])", 5, 1),
        # the first digits of the two phases differ, so closing with one
        # level's first map would leave the set
        *(("Cantor(d=[4,5],I=[{0,3},{1,2,4}])", 5, phase) for phase in range(2)),
        *(("Cantor(d=[5,5,3],I=[{0,1},{0,2},{0,1},{0,1}])", 4, phase) for phase in range(12)),
    ],
)
def test_family_trees_match_reference(text, depth, phase):
    fam = parse_family(text)
    pools = list(_rank_maps(fam, depth, phase))
    values = [_local_value(fam, phase, sels) for sels in product(*pools)]
    lo, hi, _, D = _oracle_local(fam, depth, phase)
    assert (F(lo, D), F(hi, D)) == (min(values), max(values))


@st.composite
def oracle_cases(draw):
    """A random Su, Blocks, MDper or periodic Cantor family, an address of
    rank <= 2 in it and an oracle depth <= 3."""
    kind = draw(st.sampled_from(("Su", "Blocks", "MDper", "Cantor")))
    if kind == "Su":
        s = draw(st.integers(3, 6))
        fam = FamilySpec(kind, s, u=draw(st.integers(0, s - 1)))
    elif kind == "Blocks":
        s = draw(st.integers(2, 4))
        block = st.lists(st.integers(0, s - 1), min_size=1, max_size=3).map(tuple)
        blocks = draw(st.lists(block, min_size=1, max_size=4, unique=True))
        if draw(st.booleans()) and blocks[0] + blocks[-1] not in blocks:
            blocks.append(blocks[0] + blocks[-1])  # ambiguous: some strings parse two ways
        fam = FamilySpec(kind, s, blocks=tuple(blocks))
    elif kind == "MDper":
        period = draw(st.lists(st.sampled_from((3, 5, 7)), min_size=1, max_size=3))
        fam = FamilySpec(kind, draw(st.integers(2, 4)), period=tuple(period))
    else:
        values = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
        digits = st.lists(st.integers(0, min(values) - 1), min_size=1, max_size=3)
        sets = tuple(map(tuple, draw(st.lists(digits, min_size=1, max_size=3))))
        fam = FamilySpec(kind, max(values), basis=tuple(values), level_sets=sets)
    rank = draw(st.integers(0, 2))
    addr = tuple(draw(st.sampled_from(list(maps))) for maps in _rank_maps(fam, rank))
    return fam, addr, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_random_family_oracles(case):
    # the oracle's ends are the extreme brute-force leaves, each evaluated by
    # the radix evaluators, and lie inside the hull within the tail bound
    fam, addr, depth = case
    oracle = tail_extrema_oracle(fam, addr, depth)
    pools = list(_rank_maps(fam, depth, address_frame(fam, addr)[3]))
    leaves = [_local_value(fam, 0, addr + sels) for sels in product(*pools)]
    assert (oracle.interval.lo, oracle.interval.hi) == (min(leaves), max(leaves))
    assert oracle.leaves == len(leaves)
    hull = cylinder_hull(fam, addr)
    assert hull.contains(oracle.interval)
    assert hull.hausdorff(oracle.interval) <= oracle.bound


@st.composite
def integer_systems(draw):
    """1-4 phases of 1-5 maps x -> (gn + kn*x)/m, |kn| < m <= 72 and
    |gn| <= 9m, each phase with any next phase: every contraction with
    |g| <= 9 and g, k over one m <= 72, k = 0 included, so every map
    `test_cylinders.affine_systems` draws (g over 1-9, k = +-1/(2-9))."""
    n = draw(st.integers(1, 4))

    def over(m):
        return st.tuples(st.integers(-9 * m, 9 * m), st.integers(1 - m, m - 1), st.just(m))

    maps = st.lists(st.integers(1, 72).flatmap(over), min_size=1, max_size=5)
    return {p: (*over_lcm(draw(maps)), draw(st.integers(0, n - 1))) for p in range(n)}


@settings(max_examples=200, deadline=None)
@given(integer_systems(), st.integers(0, 5), st.data())
def test_integer_kernels_equal_the_references(system, depth, data):
    # the hull solve, and the oracle below a drawn phase, over the drawn
    # system in place of a family's (the oracle read past its cache)
    ref = fraction_system(system)
    assert fraction_hulls(cyl.solve_phase_hulls(system)) == solve_phase_hulls(ref)
    phase = data.draw(st.sampled_from(sorted(system)))
    with mock.patch.object(cyl, "_phase_maps", lambda fam: system):
        lo, hi, shrink, D = _oracle_local.__wrapped__(None, depth, phase)
    assert (F(lo, D), F(hi, D), F(shrink, D)) == oracle_local(ref, depth, phase)


def test_interval_step_breaks_ties_as_min_and_max_do():
    # the first map attaining the low end and the last attaining the high
    # end, as min and max over (value, index) pick them: here maps of
    # either sign tie at both ends, in either order
    assert cyl._interval_step(((0, 2), (4, -2)), 1, 3, 2) == (2, 6, 0, 1)
    assert cyl._interval_step(((4, -2), (0, 2)), 1, 3, 2) == (2, 6, 0, 1)
    # every list of up to 3 maps x -> (G + K*x)/3 with |G| <= 1, |K| <= 2
    pairs = [(G, K) for G in range(-1, 2) for K in range(-2, 3)]
    for n in (1, 2, 3):
        for maps in product(pairs, repeat=n):
            for lo, hi, D in ((0, 0, 1), (1, 3, 2), (-2, 1, 3)):
                lo_n, hi_n, ilo, ihi = cyl._interval_step(maps, lo, hi, D)
                want = interval_step([(F(G, 3), F(K, 3)) for G, K in maps], F(lo, D), F(hi, D))
                assert (F(lo_n, 3 * D), F(hi_n, 3 * D), ilo, ihi) == want, (maps, lo, hi, D)
    with pytest.raises(ValueError):
        cyl._interval_step((), 0, 1, 1)


def test_parity_sign_hand_case():
    # one nega-3-adic level: digit 1 at position 1 or digit 2 at position 2,
    # values -1/3 and +2/9
    levels = [[(F(-1, 3), F(-1, 3)), (F(2, 9), F(1, 9))]]
    assert _minmax(levels, F(0)) == (F(-1, 3), F(2, 9))


def test_exact_at_exponent_160():
    levels = [[(F(1, 7**40), F(1, 7**40))]] * 4  # single path, exponent 160
    want = sum(F(1, 7 ** (40 * k)) for k in range(1, 5))
    assert _minmax(levels, F(0)) == (want, want)
    assert _eval_tree(levels, F(0)) == (want, want)


def test_leaf_count_and_validation():
    assert tail_extrema_oracle(parse_family("Tilde(s=4)"), (), 3).leaves == 7**3
    assert tail_extrema_oracle(parse_family("MDper(s=3,m=[3,5])"), (1,), 4).leaves == 3**4
    with pytest.raises(ValueError):
        _minmax([[]], F(0))
    with pytest.raises(ValueError):
        tail_extrema_oracle(parse_family("S(s=3)"), (), 0)
