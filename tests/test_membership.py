"""`membership_prefix` against the rules it replaced.

The reference below is the old code: MDper's gap-position rule (nonzero
digits only at the gap positions m_1 + ... + m_n) and a dynamic program over
every parse of the family's block list, plus a Cantor series' per-level
rule (digit j lies in I_((j-1) mod #I)).  The code under test is one
dynamic program over (position, phase) through the digit maps.  Digit
strings are drawn from the family's own expansions, with some digits changed
and some cut short, and at random; both draws favour 0, the digit the zero
runs and gaps are made of.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import FamilySpec, expand_address, membership_prefix, parse_family
from cantorkit.families import _rank_maps, family_blocks


def ref_membership_prefix(fam, seq):
    if fam.kind == "Cantor":
        return all(d in fam.level_sets[j % len(fam.level_sets)] for j, d in enumerate(seq))
    if fam.kind == "MDper":
        positions, k, i = set(), 0, 0
        while k < len(seq):
            k += fam.period[i % len(fam.period)]
            positions.add(k)
            i += 1
        return all(d == 0 or j in positions for j, d in enumerate(seq, 1))
    blocks = family_blocks(fam)
    n = len(seq)
    reachable = [True] + [False] * n
    for pos in range(n):
        if not reachable[pos]:
            continue
        for b in blocks:
            tail = seq[pos : pos + len(b)]
            if tail == b[: len(tail)]:
                if pos + len(b) <= n:
                    reachable[pos + len(b)] = True
                else:
                    return True
    return reachable[n]


@st.composite
def families(draw):
    kind = draw(st.sampled_from(("S", "Su", "NSu", "Sminus", "Tilde", "MDper", "Blocks", "Cantor")))
    if kind in ("Su", "NSu"):
        s = draw(st.integers(3, 6))
        return FamilySpec(kind, s, u=draw(st.integers(0, s - 1)))
    if kind in ("S", "Sminus", "Tilde"):
        return FamilySpec(kind, draw(st.integers(3, 5)))
    if kind == "Cantor":  # digits below every basis value, so any pairing of levels is aligned
        basis = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
        level = st.sets(st.integers(0, min(basis) - 1), min_size=1).map(tuple)
        level_sets = tuple(draw(st.lists(level, min_size=1, max_size=4)))
        return FamilySpec(kind, max(basis), basis=tuple(basis), level_sets=level_sets)
    s = draw(st.integers(2, 4))
    if kind == "MDper":
        return FamilySpec(kind, s, period=tuple(draw(st.lists(st.sampled_from((3, 5, 7)), min_size=1, max_size=3))))
    # overlapping blocks make ambiguous lists, with several parses of one string
    block = st.lists(st.integers(0, s - 1), min_size=1, max_size=3).map(tuple)
    return FamilySpec(kind, s, blocks=tuple(draw(st.lists(block, min_size=1, max_size=4, unique=True))))


@st.composite
def cases(draw):
    fam = draw(families())
    digit = st.one_of(st.just(0), st.integers(0, fam.s - 1))
    if draw(st.booleans()):
        seq = draw(st.lists(digit, max_size=12))
    else:
        addr = [draw(st.sampled_from(list(maps))) for maps in _rank_maps(fam, draw(st.integers(0, 5)))]
        seq = addr if fam.kind == "Cantor" else list(expand_address(fam, addr).digits)  # a Cantor selector is its digit
        for _ in range(draw(st.integers(0, 2)) if seq else 0):
            seq[draw(st.integers(0, len(seq) - 1))] = draw(digit)
        if draw(st.booleans()):
            seq = seq[: draw(st.integers(0, len(seq)))]
    return fam, tuple(seq)


@settings(max_examples=600, deadline=None)
@given(cases())
def test_membership_prefix_matches_the_replaced_rules(case):
    fam, seq = case
    assert membership_prefix(fam, seq) == ref_membership_prefix(fam, seq)


@pytest.mark.parametrize(
    "text", ["Cantor(d=[3],I=[{0,2}])", "Cantor(d=[2,3],I=[{0,1},{0,2}])", "Cantor(d=[3,5,4],I=[{1},{0,2}])"]
)
def test_cantor_membership_is_the_per_level_rule_on_every_short_string(text):
    fam = parse_family(text)
    for n in range(6):
        for seq in product(range(fam.s), repeat=n):
            assert membership_prefix(fam, seq) == ref_membership_prefix(fam, seq), seq
