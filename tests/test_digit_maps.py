"""The digit-map table pinned by independent evaluators.

A family point computed by folding the affine maps must equal the radix value
of the digit string the same selectors write, closed by the tail's digits
repeated forever (for a Cantor series, `eval_cantor` of the digits and one
pass of the tail, closed geometrically); it must lie in its cylinder's hull;
and the digit string must be a member prefix.  Every map must have the
integer form x -> (gn + sk*x)/m that the walks step with, be its block's
value read in the kind's radix (MD's too, made by `_walk`), and every table
the size `_kind` counts from the spec.
"""

from fractions import Fraction
from itertools import groupby
from math import lcm, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import (
    FamilySpec,
    IntervalR,
    covering_sums,
    cylinder_hull,
    cylinder_interval,
    eval_cantor,
    eval_family_point,
    eval_negas_cantor,
    eval_negasadic,
    eval_sadic,
    expand_address,
    membership_prefix,
    set_interval,
)
from cantorkit.cylinders import _has_closed_form
from cantorkit.cylinders import _local_hulls, _phase_maps
from cantorkit.families import ROOT_FRAME, _block_map, _kind, _rank_maps, _system_maps, _walk
from cantorkit.families import address_frame, digit_maps
from fraction_kernels import fraction_hulls, fraction_system
from fraction_kernels import solve_phase_hulls as ref_solve_phase_hulls


@st.composite
def families(draw):
    kind = draw(st.sampled_from(("S", "Su", "NSu", "Sminus", "Tilde", "Blocks", "MDper", "Cantor")))
    if kind in ("Su", "NSu"):
        s = draw(st.integers(3, 6))
        return FamilySpec(kind, s, u=draw(st.integers(0, s - 1)))
    if kind in ("S", "Sminus"):
        return FamilySpec(kind, draw(st.integers(3, 6)))
    if kind == "Tilde":
        return FamilySpec(kind, draw(st.integers(3, 5)))
    if kind == "Cantor":
        values = draw(st.lists(st.integers(2, 5), min_size=1, max_size=2))
        digits = st.lists(st.integers(0, min(values) - 1), min_size=1, max_size=3)
        sets = draw(st.lists(digits, min_size=1, max_size=2))
        return FamilySpec(kind, max(values), basis=tuple(values), level_sets=tuple(map(tuple, sets)))
    s = draw(st.integers(2, 4))
    if kind == "MDper":
        period = draw(st.lists(st.sampled_from((3, 5, 7)), min_size=1, max_size=3))
        return FamilySpec(kind, s, period=tuple(period))
    block = st.lists(st.integers(0, s - 1), min_size=1, max_size=3).map(tuple)
    return FamilySpec(kind, s, blocks=tuple(draw(st.lists(block, min_size=1, max_size=4, unique=True))))


@st.composite
def cases(draw):
    fam = draw(families())
    n = draw(st.integers(0, 4))
    # a tail must return to the phase it starts at: whole MDper gap periods,
    # whole cycles of a Cantor series' basis and level sets
    if fam.kind == "MDper":
        unit = len(fam.period)
    elif fam.kind == "Cantor":
        unit = lcm(len(fam.basis), len(fam.level_sets))
    else:
        unit = 1
    size = unit * draw(st.integers(1, 3 if unit == 1 else 2))
    sels = tuple(draw(st.sampled_from(list(maps))) for maps in _rank_maps(fam, n + size))
    return fam, sels[:n], sels[n:]


@settings(max_examples=200, deadline=None)
@given(cases())
def test_maps_agree_with_digit_strings_and_hulls(case):
    fam, addr, tail = case
    point = eval_family_point(fam, addr, tail)
    hull = cylinder_hull(fam, addr)
    assert hull.lo <= point <= hull.hi
    if fam.kind == "Cantor":
        head, once = eval_cantor(addr, fam.basis), eval_cantor(addr + tail, fam.basis)
        cycle = prod(fam.basis[(j - 1) % len(fam.basis)] for j in range(len(addr) + 1, len(addr) + len(tail) + 1))
        assert point == head + (once - head) * Fraction(cycle, cycle - 1)
        return
    prefix = expand_address(fam, addr).digits
    if fam.kind != "Sminus":  # Sminus signs follow the run index, not the digit position
        tail_digits = expand_address(fam, addr + tail).digits[len(prefix):]
        radix = eval_negasadic if fam.kind in ("NSu", "MDper") else eval_sadic
        assert point == radix(expand_address(fam, addr), tail_digits)
    if _has_closed_form(fam):
        assert cylinder_interval(fam, addr) == hull
    assert membership_prefix(fam, prefix)


def _zero_tail_value(fam, addr):
    """The radix value of the digits `addr` writes, followed by no more."""
    if fam.kind == "Cantor":
        return eval_cantor(addr, fam.basis)
    if fam.kind == "Sminus":  # sum (-1)^n a_n s^-(a_1+...+a_n)
        return eval_negas_cantor(addr, addr, fam.s)
    radix = eval_negasadic if fam.kind in ("NSu", "MDper") else eval_sadic
    return radix(expand_address(fam, addr))


def _radix(fam, phase):
    """(base, flip): the kind's blocks at `phase` are read in `base`, and
    Sminus negates each run's value."""
    if fam.kind == "Cantor":
        return fam.basis[phase % len(fam.basis)], 1
    return (-fam.s if fam.kind in ("NSu", "MDper", "MD") else fam.s), (-1 if fam.kind == "Sminus" else 1)


def _assert_block_read_in_radix(fam, phase, dmap):
    """The map is x -> flip * (v + base^-n * x), v the value of its block
    of n digits read in the kind's base, and `_block_map` of the block's runs."""
    block, gn, sk, m, nxt = dmap
    base, flip = _radix(fam, phase)
    value = sum(d * Fraction(1, base) ** i for i, d in enumerate(block, 1))
    assert (Fraction(gn, m), Fraction(sk, m)) == (flip * value, flip * Fraction(1, base) ** len(block))
    runs = tuple((d, len(list(same))) for d, same in groupby(block))
    assert _block_map(runs, base, nxt, flip) == dmap


@settings(max_examples=200, deadline=None)
@given(cases())
def test_maps_have_integer_form_and_fold_to_radix_values(case):
    fam, addr, _ = case
    phase, seen = 0, set()
    while phase not in seen:  # every phase reachable from 0
        seen.add(phase)
        table = digit_maps(fam, phase)
        for dmap in table.values():
            _, gn, sk, m, nxt = dmap
            assert all(type(x) is int for x in (gn, sk, m)) and m >= 2 and sk in (1, -1)
            _assert_block_read_in_radix(fam, phase, dmap)
        # the sizes the cap guards count before making the table
        assert _kind(fam, phase)[:2] == (len(table), sum(len(block) for block, *_ in table.values()))
        # so the box counter's whole hull fits one cell at level 0
        lo, hi = fraction_hulls(_local_hulls(fam))[phase]
        assert hi - lo <= 1
        phase = nxt
    V, den, sign, _ = address_frame(fam, addr)
    assert Fraction(V, den) == _zero_tail_value(fam, addr)
    if fam.u is not None:  # with no tail, S/Su/NSu points close with u repeated forever
        radix = eval_negasadic if fam.kind == "NSu" else eval_sadic
        assert eval_family_point(fam, addr) == radix(expand_address(fam, addr), (fam.u,))
    if fam.kind == "Cantor":
        assert den == prod(fam.basis[(j - 1) % len(fam.basis)] for j in range(1, len(addr) + 1))
        # read with base -d_j, the same levels fold to the alternating series
        V, den, sign = 0, 1, 1
        for j, e in enumerate(addr):
            _, gn, sk, m, _ = _block_map(((e, 1),), -fam.basis[j % len(fam.basis)], 0)
            V, den, sign = V * m + sign * gn, den * m, sign * sk
        assert Fraction(V, den) == eval_cantor(addr, fam.basis, alternating=True)
    else:
        assert den == fam.s ** len(expand_address(fam, addr).digits)


md_selectors = st.tuples(st.sampled_from((3, 5, 7, 9)), st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.lists(md_selectors, max_size=4))
def test_md_maps_are_blocks_read_in_base_minus_s(s, sels):
    fam = FamilySpec("MD", s)
    sels = [(gap, 1 + (eps - 1) % (s - 1)) for gap, eps in sels]
    for dmap in _walk(fam, sels):
        _assert_block_read_in_radix(fam, 0, dmap)
    assert set_interval(fam).width <= 1
    V, den, _, _ = address_frame(fam, sels)
    assert Fraction(V, den) == eval_family_point(fam, sels) == eval_negasadic(expand_address(fam, sels))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.lists(st.tuples(st.integers(1, 6), st.integers(1, 8)), max_size=5))
def test_an_md_address_is_a_word_of_its_table(s, pairs):
    # (m, a) is (m-3)/2 copies of `0 0` then `0 0 a`: folded through MD's
    # one table, that word reaches the frame `_walk`'s (gap, digit) map
    # reaches and writes the same digits
    fam = FamilySpec("MD", s)
    addr = [(2 * k + 1, 1 + (eps - 1) % (s - 1)) for k, eps in pairs]
    word = [sel for gap, a in addr for sel in [0] * ((gap - 3) // 2) + [a]]
    table = _system_maps(fam, 0)
    V, den, sign, phase = ROOT_FRAME
    for sel in word:
        _, gn, sk, m, phase = table[sel]
        V, den, sign = V * m + sign * gn, den * m, sign * sk
    assert address_frame(fam, addr) == (V, den, sign, phase)
    assert expand_address(fam, addr).digits == tuple(d for sel in word for d in table[sel][0])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), *(st.lists(md_selectors, min_size=k, max_size=3) for k in (0, 0, 1)))
def test_md_hulls_contain_every_continuation(s, addr, more, tail):
    # an MD address folds its (gap, digit) pairs to a frame over MD's whole
    # set, whose hull its one-phase system gives: each point past the
    # address, cut short or closed by a periodic tail, lies in that hull,
    # and the hull is the whole set's [-(s-1)/s^3, 0] shrunk by s^-(its gaps)
    fam = FamilySpec("MD", s)
    addr, more, tail = ([(gap, 1 + (eps - 1) % (s - 1)) for gap, eps in sels] for sels in (addr, more, tail))
    hull = cylinder_hull(fam, addr)
    for point in (eval_family_point(fam, addr + more), eval_family_point(fam, addr + more, tail)):
        assert hull.lo <= point <= hull.hi
    assert hull.width == Fraction(s - 1, s**3) / s ** sum(gap for gap, _ in addr)
    assert membership_prefix(fam, expand_address(fam, addr + more + tail).digits)


@settings(max_examples=200, deadline=None)
@given(cases(), st.integers(0, 6))
def test_hulls_and_covering_sums_equal_the_fraction_solve(case, depth):
    # every value the integer hull ends reach, rebuilt from the `Fraction`
    # reference solve: the whole set's hull, a cylinder's, and each rank's
    # cover, its mass the product of sum |k| along the phase cycle
    fam, addr, _ = case
    system = fraction_system(_phase_maps(fam))
    hulls = ref_solve_phase_hulls(system)
    assert set_interval(fam) == IntervalR(*hulls[0])
    V, den, sign, phase = address_frame(fam, addr)
    assert cylinder_hull(fam, addr) == IntervalR(*sorted((V + sign * x) / den for x in hulls[phase]))
    sums, mass, phase = [], Fraction(1), 0
    for _ in range(depth + 1):
        lo, hi = hulls[phase]
        sums.append(mass * (hi - lo))
        maps, phase = system[phase]
        mass *= sum(abs(k) for _, k in maps)
    assert covering_sums(fam, depth) == sums
