"""The oracle's level recursion against a brute-force walk over every leaf."""

import random
from fractions import Fraction as F
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import FamilySpec, cylinder_hull, parse_family, tail_extrema_oracle
from cantorkit.cylinders import _level_minmax, _oracle_local
from cantorkit.families import _rank_maps, address_frame, digit_maps, family_blocks
from cantorkit.radix import DigitString, eval_cantor, eval_negas_cantor, eval_negasadic, eval_sadic


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
    assert _level_minmax(levels, x0) == _eval_tree(levels, x0), seed


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
    assert _oracle_local(fam, depth, phase)[:2] == (min(values), max(values))


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


def test_parity_sign_hand_case():
    # one nega-3-adic level: digit 1 at position 1 or digit 2 at position 2,
    # values -1/3 and +2/9
    levels = [[(F(-1, 3), F(-1, 3)), (F(2, 9), F(1, 9))]]
    assert _level_minmax(levels, F(0)) == (F(-1, 3), F(2, 9))


def test_exact_at_exponent_160():
    levels = [[(F(1, 7**40), F(1, 7**40))]] * 4  # single path, exponent 160
    want = sum(F(1, 7 ** (40 * k)) for k in range(1, 5))
    assert _level_minmax(levels, F(0)) == (want, want)
    assert _eval_tree(levels, F(0)) == (want, want)


def test_leaf_count_and_validation():
    assert tail_extrema_oracle(parse_family("Tilde(s=4)"), (), 3).leaves == 7**3
    assert tail_extrema_oracle(parse_family("MDper(s=3,m=[3,5])"), (1,), 4).leaves == 3**4
    with pytest.raises(ValueError):
        _level_minmax([[]], F(0))
    with pytest.raises(ValueError):
        tail_extrema_oracle(parse_family("S(s=3)"), (), 0)
