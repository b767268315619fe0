"""The oracle's level recursion against a brute-force walk over every leaf."""

import random
from fractions import Fraction as F

import pytest

from cantorkit import parse_family, tail_extrema_oracle
from cantorkit.cylinders import _level_minmax, _oracle_levels


def _eval_tree(s, levels, exp_parity, tnum, tden):
    """Reference: enumerate leaves recursively with Fraction arithmetic."""
    best = []

    def walk(lvl, e, val):
        if lvl == len(levels):
            tail = F(tnum, tden) / s**e
            if exp_parity and e % 2 == 1:
                tail = -tail
            best.append(val + tail)
            return
        for exp_inc, terms in levels[lvl]:
            v = val
            for coef, off in terms:
                term = F(coef, s ** (e + off))
                if exp_parity and (e + off) % 2 == 1:
                    term = -term
                v += term
            walk(lvl + 1, e + exp_inc, v)

    walk(0, 0, F(0))
    return min(best), max(best)


def _random_levels(rng, s, depth):
    levels = []
    for _ in range(depth):
        choices = []
        for _ in range(rng.randint(1, 3)):
            exp_inc = rng.randint(1, 3)
            terms = tuple(
                (rng.randint(-(s - 1), s - 1), rng.randint(1, exp_inc))
                for _ in range(rng.randint(0, 2))
            )
            choices.append((exp_inc, terms))
        levels.append(choices)
    return levels


# the recursion and the brute-force walk are the two implementations compared
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("exp_parity", (False, True))
def test_backends_match_reference(seed, exp_parity):
    rng = random.Random(seed)
    s = rng.randint(2, 5)
    levels = _random_levels(rng, s, rng.randint(1, 4))
    tnum, tden = rng.randint(-4, 4), rng.randint(1, 9)
    want = _eval_tree(s, levels, exp_parity, tnum, tden)
    assert _level_minmax(s, levels, exp_parity, F(tnum, tden)) == want, seed


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
    ],
)
def test_family_trees_match_reference(text, depth, phase):
    fam = parse_family(text)
    levels, parity, tnum, tden = _oracle_levels(fam, depth, phase)
    want = _eval_tree(fam.s, levels, parity, tnum, tden)
    assert _level_minmax(fam.s, levels, parity, F(tnum, tden)) == want


def test_parity_sign_hand_case():
    # one level, digit 1 or 2 with coef = digit: values -1/3 and +2/9
    levels = [[(1, ((1, 1),)), (2, ((2, 2),))]]
    assert _level_minmax(3, levels, True, F(0)) == (F(-1, 3), F(2, 9))


def test_exact_at_exponent_160():
    levels = [[(40, ((1, 40),))]] * 4  # single path, exponent 160
    want = sum(F(1, 7 ** (40 * k)) for k in range(1, 5))
    assert _level_minmax(7, levels, False, F(0)) == (want, want)
    assert _eval_tree(7, levels, False, 0, 1) == (want, want)


def test_leaf_count_and_validation():
    assert tail_extrema_oracle(parse_family("Tilde(s=4)"), (), 3).leaves == 7**3
    assert tail_extrema_oracle(parse_family("MDper(s=3,m=[3,5])"), (1,), 4).leaves == 3**4
    with pytest.raises(ValueError):
        _level_minmax(3, [[]], False, F(0))
    with pytest.raises(ValueError):
        tail_extrema_oracle(parse_family("S(s=3)"), (), 0)
