import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import (
    FamilySpec,
    OutOfRangeError,
    UnsupportedFamilyError,
    block_dimension,
    cantor_series_dim_estimate,
    dimension,
    family_dimension,
    md_closed_form,
    parse_family,
    periodic_dimension,
)
from cantorkit.dimension import CANTOR_TERMS, _periodic_prefix
from cantorkit.families import block_histogram, digit_maps, family_blocks
from test_boxcount import finite_type_families
from test_cylinders import md_digit_maps

LOG32 = math.log(2) / math.log(3)


def _alpha_bisect(s, hist, iters=120):
    """Independent oracle: bisect the defining equation in alpha itself."""

    def f(a):
        return sum(n * s ** (-k * a) for k, n in hist.items()) - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_block_dimension_examples():
    r = block_dimension(3, {1: 2})
    assert abs(r.alpha - LOG32) <= 1e-10
    r = block_dimension(3, {1: 3})
    assert abs(r.alpha - 1.0) <= 1e-12
    # t + t^2 = 1 in t = 2^-alpha: the golden-ratio quadratic
    r = block_dimension(2, {1: 1, 2: 1})
    assert abs(r.alpha - math.log((1 + math.sqrt(5)) / 2) / math.log(2)) <= 1e-12
    assert r.note == "solved sum_k N_k t^k = 1 with t = s^-alpha; N = {1: 1, 2: 1}"
    assert block_dimension(2, {2: 1, 1: 1}) == r  # the histogram's order is immaterial
    golden = math.log((1 + math.sqrt(5)) / 2) / math.log(3)
    r = block_dimension(3, block_histogram(family_blocks(parse_family("S(s=3)"))))
    assert abs(r.alpha - golden) <= 1e-12
    single = block_dimension(3, {2: 1})
    assert single.alpha == 0.0 and single.degenerate
    with pytest.raises(ValueError):
        block_dimension(3, {})


def test_family_dimension_s4_tribonacci():
    r = family_dimension(parse_family("S(s=4)"))
    assert abs(r.alpha - _alpha_bisect(4, {1: 1, 2: 1, 3: 1})) <= 1e-10
    t = 4**-r.alpha
    assert abs(t + t**2 + t**3 - 1) <= 1e-12


def test_family_dimension_su52_equation():
    r = family_dimension(parse_family("Su(s=5,u=2)"))
    t = 5**-r.alpha
    assert abs(t + t**3 + t**4 - 1) <= 1e-12  # lengths {1, 3, 4}


def test_sminus_shares_the_s_equation():
    a = family_dimension(parse_family("Sminus(s=3)"))
    b = family_dimension(parse_family("S(s=3)"))
    assert abs(a.alpha - b.alpha) <= 1e-15


def test_cross_theorem_equality():
    for s in range(3, 9):
        for u in range(s):
            a = family_dimension(parse_family(f"Su(s={s},u={u})"))
            b = family_dimension(parse_family(f"NSu(s={s},u={u})"))
            assert abs(a.alpha - b.alpha) <= 1e-12
            assert a.residual <= 1e-10 and b.residual <= 1e-10


def test_two_path_equality_against_alpha_space_bisection():
    for text in ("S(s=5)", "Su(s=6,u=3)", "Tilde(s=5)", "Sminus(s=4)"):
        fam = parse_family(text)
        r = family_dimension(fam)
        hist = block_histogram(family_blocks(fam))
        assert abs(r.alpha - _alpha_bisect(fam.s, hist)) <= 1e-12, text


@settings(max_examples=200, deadline=None)
@given(finite_type_families())
def test_the_digit_maps_give_the_block_histogram(fam):
    # `dim` reads the block lengths off the digit maps of phase 0; every kind
    # it solves by its block equation has one phase, whose maps write the blocks
    if fam.kind not in ("Cantor", "MDper"):
        maps = digit_maps(fam, 0)
        assert block_histogram(b for b, *_ in maps.values()) == block_histogram(family_blocks(fam)), fam.label()


def test_degenerate_family_flagged():
    for text in ("Su(s=3,u=1)", "Cantor(d=[3],I=[{1}])"):
        r = family_dimension(parse_family(text))
        assert r.alpha == 0.0 and r.degenerate, text


def test_md_closed_form():
    plastic = 1.324717957244746  # real root of x^3 - x = 1
    r = md_closed_form(2)
    assert abs(r.alpha - math.log2(plastic)) <= 1e-12
    assert abs(r.alpha - r.cross_check) <= 1e-10
    r3 = md_closed_form(3)
    x = 3**r3.alpha
    assert abs(x**3 - x - 2) <= 1e-10  # cube root oracle: x^3 - x = s - 1
    for s in range(2, 17):
        r = md_closed_form(s)
        assert abs(r.alpha - r.cross_check) <= 1e-10
    assert md_closed_form(7).alpha == math.log(2) / math.log(7)  # 2^3 - 2 = 6
    assert family_dimension(parse_family("MD(s=2)")).method == "closed-cubic"
    # MD's block language has no finite histogram: only md_closed_form solves it
    with pytest.raises(ValueError, match="md_closed_form"):
        block_dimension(2, {})
    with pytest.raises(UnsupportedFamilyError, match="unbounded branching"):
        family_blocks(parse_family("MD(s=2)"))


def test_md_cubic_is_its_digit_map_systems_block_equation():
    # phase 1's blocks 0 0 and a 0 0 form a prefix code (the first digit tells
    # them apart), so t^2 + (s-1) t^3 = 1, MD's cubic, gives the dimension: a
    # bisection that shares no code with the cube-root formula
    for s in range(2, 40):
        blocks = [block for block, *_ in md_digit_maps(s)[1]]
        assert not any(b != c and c[: len(b)] == b for b in blocks for c in blocks)
        hist = block_histogram(blocks)
        assert hist == {2: 1, 3: s - 1}
        alpha, closed = block_dimension(s, hist).alpha, md_closed_form(s)
        assert closed.bracket[0] <= alpha <= closed.bracket[1], s
        assert abs(alpha - closed.alpha) <= 2e-12, s


def test_periodic_dimension():
    assert periodic_dimension((3,)).alpha == 1 / 3
    assert periodic_dimension((3, 5)).alpha == 0.25
    r1 = periodic_dimension((1,))
    assert r1.alpha == 1.0 and not r1.degenerate  # every digit allowed: the whole interval, not a point
    with pytest.raises(OutOfRangeError):
        periodic_dimension((4,))
    assert family_dimension(parse_family("MDper(s=5,m=[3,5])")).alpha == 0.25


def test_periodic_moran_cross_check():
    # s^t period blocks of length m_1 + ... + m_t: the block root is t/sum(m)
    for s in (2, 3, 5):
        for m in ((3,), (3, 5)):
            fam = parse_family(f"MDper(s={s},m=[{','.join(map(str, m))}])")
            r = block_dimension(s, block_histogram(family_blocks(fam)))
            assert abs(r.alpha - len(m) / sum(m)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 6),
    st.sets(st.integers(1, 5), min_size=2, max_size=4),
    st.integers(1, 5),
)
def test_block_monotonicity(s, lengths, extra):
    # adding one more block never decreases the dimension
    hist = {k: 1 for k in lengths}
    before = block_dimension(s, hist)
    hist[extra] = hist.get(extra, 0) + 1
    total = sum(n * F(1, s) ** k for k, n in hist.items())
    if total > 1:
        return  # overcounting block sets are rejected by design
    after = block_dimension(s, hist)
    assert after.alpha >= before.alpha - 1e-12


def test_block_dims_stay_in_unit_interval():
    for text in ("S(s=8)", "Tilde(s=9)", "Su(s=7,u=3)", "MDper(s=7,m=[3])"):
        r = family_dimension(parse_family(text))
        assert 0.0 <= r.alpha <= 1.0


def test_cantor_series_estimate():
    r = cantor_series_dim_estimate(FamilySpec("Cantor", 3, basis=(3,), level_sets=[(0, 2)]))
    assert abs(r.alpha - LOG32) <= 1e-12
    assert r.method == "liminf-estimate" and r.iterations == 100_000
    assert r.note == "min of r_n over the last 10000 of 100000 terms"
    r = cantor_series_dim_estimate(FamilySpec("Cantor", 4, basis=(4,), level_sets=[(2,)]))
    assert r.alpha == 0.0
    with pytest.raises(ValueError):
        FamilySpec("Cantor", 3, basis=(3,), level_sets=[(0, 5)])
    with pytest.raises(ValueError):
        FamilySpec("Cantor", 3, basis=(3,), level_sets=[()])
    with pytest.raises(UnsupportedFamilyError, match="S is not a Cantor series"):
        cantor_series_dim_estimate(parse_family("S(s=3)"))


def test_cantor_series_alignment_checks_a_whole_lcm_cycle():
    # level 12 pairs I_2 = {0,4} with d_12 = d_3 = 3; 2 * max(p, q) = 10 levels miss it
    basis, sets = (5, 5, 3), [(0, 1), (0, 4), (0, 1), (0, 1), (0, 1)]
    with pytest.raises(ValueError, match="digit 4 of I_2 >= d_3 = 3"):
        FamilySpec("Cantor", 5, basis=basis, level_sets=sets)
    with pytest.raises(ValueError, match="digit 4 of I_2 >= d_3 = 3"):
        parse_family("Cantor(d=[5,5,3],I=[{0,1},{0,4},{0,1},{0,1},{0,1}])")


def _kahan_estimate(basis, level_sets, n_max):
    """Reference: r_n by a Kahan-compensated running sum over every n <= n_max.

    Returns the min and max of r_n over the last tenth of the terms."""
    log_sizes = [math.log(len(set(I))) for I in level_sets]
    num = num_c = den = den_c = 0.0
    ratios = []
    for n in range(1, n_max + 1):
        ld = math.log(basis[(n - 1) % len(basis)])
        y = log_sizes[(n - 1) % len(log_sizes)] - num_c
        t = num + y
        num_c = (t - num) - y
        num = t
        y = ld - den_c
        t = den + y
        den_c = (t - den) - y
        den = t
        ratios.append(num / den)
    tail = ratios[-(n_max // 10) :]
    return min(tail), max(tail)


QUERY_CANTOR = (
    "Cantor(d=[3],I=[{0,2}])",
    "Cantor(d=[4,5],I=[{0,3},{1,2,4}])",
    "Cantor(d=[3,4,5],I=[{0,2},{1,3},{0,4}])",
    "Cantor(d=[2,3],I=[{0,1},{0,2}])",
    "Cantor(d=[5],I=[{0,2,4}])",
    "Cantor(d=[6],I=[{1,4}])",
    "Cantor(d=[2,3,5],I=[{0,1},{1}])",  # coprime lengths: a cycle of 6 levels
    "Cantor(d=[4,6],I=[{0,3},{1,2,5},{0},{2}])",  # gcd 2: I_odd meet d_1 only
)


@pytest.mark.parametrize(
    "fam",
    [pytest.param(parse_family(t), id=t) for t in QUERY_CANTOR]
    + [pytest.param(FamilySpec("Cantor", 7, basis=(7,), level_sets=[(0, 3), (1, 2, 5), (6,)]), id="d=7")],
)
def test_cantor_series_estimate_matches_kahan_loop(fam):
    r = cantor_series_dim_estimate(fam)
    got = (r.alpha, r.bracket[1])
    for new, ref in zip(got, _kahan_estimate(fam.basis, fam.level_sets, CANTOR_TERMS)):
        assert abs(new - ref) <= 4 * math.ulp(ref)
        assert f"{new:.12g}" == f"{ref:.12g}"


def _full_window_estimate(fam):
    """Reference: min and max of r_n over every n of the window, one scan."""
    sum_log_sizes = _periodic_prefix([math.log(len(I)) for I in fam.level_sets])
    sum_log_d = _periodic_prefix([math.log(v) for v in fam.basis])
    n, window = CANTOR_TERMS, CANTOR_TERMS // 10
    ratios = [sum_log_sizes(j) / sum_log_d(j) for j in range(n - window + 1, n + 1)]
    return min(ratios), max(ratios)


@st.composite
def aligned_cantor_specs(draw):
    """A Cantor spec of 1-12 basis values and 1-12 level sets, the two lengths
    drawn apart (coprime or sharing a factor).  I_i meets d_k exactly when
    i = k mod gcd, so its digits stay below that residue class's least value."""
    basis = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=12)))
    q = draw(st.integers(1, 12))
    g = math.gcd(len(basis), q)
    sets = [draw(st.lists(st.integers(0, min(basis[i % g :: g]) - 1), min_size=1, max_size=4)) for i in range(q)]
    return FamilySpec("Cantor", max(basis), basis=basis, level_sets=sets)


@settings(max_examples=200, deadline=None)
@given(aligned_cantor_specs())
def test_two_periods_give_the_whole_window_estimate(fam):
    r = cantor_series_dim_estimate(fam)
    lo, hi = _full_window_estimate(fam)
    for got, ref in zip((r.alpha, *r.bracket), (lo, lo, hi)):
        assert abs(got - ref) <= 4 * math.ulp(ref)


#: lcm(71, 73) = 5183 levels: two periods cover the window of 10,000
WIDE_CANTOR = FamilySpec(
    "Cantor", 10, basis=[2 + 5 * j % 9 for j in range(71)], level_sets=[(0, 1)[: 1 + (j % 3 > 0)] for j in range(73)]
)


def test_a_period_past_half_the_window_reads_the_whole_window():
    r = cantor_series_dim_estimate(WIDE_CANTOR)
    lo, hi = _full_window_estimate(WIDE_CANTOR)
    assert (r.alpha, r.bracket) == (lo, (lo, hi))


@pytest.mark.parametrize("fam", [parse_family(QUERY_CANTOR[6]), WIDE_CANTOR], ids=["lcm 6", "lcm 5183"])
def test_the_estimate_reads_at_most_two_periods_of_the_window(monkeypatch, fam):
    reads = []

    def counted(cycle):
        prefix = _periodic_prefix(cycle)
        return lambda n: reads.append(n) or prefix(n)

    monkeypatch.setattr(dimension, "_periodic_prefix", counted)
    cantor_series_dim_estimate(fam)
    period = math.lcm(len(fam.basis), len(fam.level_sets))
    assert len(reads) == 2 * min(2 * period, CANTOR_TERMS // 10)  # both sums, once per r_n


@pytest.mark.parametrize("text", QUERY_CANTOR)
def test_cantor_series_estimate_near_periodic_limit(text):
    # over one lcm cycle of C levels the ratio is exactly L = A_C / B_C, and
    # r_n - L = (a_r - L b_r) / B_n with r = n mod C and a, b the within-cycle
    # prefix sums of log|I_j| and log d_j
    fam = parse_family(text)
    values, sets = fam.basis, fam.level_sets
    cycle = math.lcm(len(values), len(sets))
    a = [math.fsum(math.log(len(sets[j % len(sets)])) for j in range(r)) for r in range(cycle + 1)]
    b = [math.fsum(math.log(values[j % len(values)]) for j in range(r)) for r in range(cycle + 1)]
    limit = a[cycle] / b[cycle]
    spread = max(abs(a[r] - limit * b[r]) for r in range(cycle))
    first = CANTOR_TERMS - CANTOR_TERMS // 10 + 1
    prefix_d = math.fsum(math.log(values[j % len(values)]) for j in range(first))
    assert abs(cantor_series_dim_estimate(fam).alpha - limit) <= spread / prefix_d + 4 * math.ulp(limit)


@pytest.mark.parametrize("seed, period", [(1, 1), (2, 2), (3, 7), (4, 250), (5, 10**4 + 1)])
def test_periodic_prefix_equals_a_fsum_per_prefix(seed, period):
    rng = random.Random(seed)
    for cycle in (
        [math.log(rng.randint(1, 60)) for _ in range(period)],  # the logs the estimate sums
        [rng.uniform(0, 2) * 10.0 ** rng.randint(-12, 12) for _ in range(period)],  # wide magnitudes
    ):
        prefix = _periodic_prefix(cycle)
        # one fsum per prefix is O(P^2): the long cycle checks every 10th prefix and its last 50
        rs = range(period + 1) if period < 1000 else sorted({*range(0, period + 1, 10), *range(period - 50, period + 1)})
        assert [prefix(r) for r in rs] == [math.fsum(cycle[:r]) for r in rs]
        # past the first period, whole cycles add the rounded cycle sum
        r = period // 2
        assert prefix(3 * period + r) == 3 * math.fsum(cycle) + math.fsum(cycle[:r])


def test_family_dimension_of_cantor_is_the_liminf_estimate():
    fam = parse_family("Cantor(d=[3],I=[{0,2}])")
    assert family_dimension(fam) == cantor_series_dim_estimate(fam)
