import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorkit import (
    BlockSet,
    CantorBasis,
    OutOfRangeError,
    block_dimension,
    blocks_of_family,
    cantor_series_dim_estimate,
    family_dimension,
    md_closed_form,
    parse_family,
    periodic_dimension,
)

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
    r = block_dimension(3, BlockSet(((0,), (2,)), ((1, 2),)))
    assert abs(r.alpha - LOG32) <= 1e-10
    r = block_dimension(3, BlockSet(((0,), (1,), (2,)), ((1, 3),)))
    assert abs(r.alpha - 1.0) <= 1e-12
    # t + t^2 = 1 in t = 2^-alpha: the golden-ratio quadratic
    r = block_dimension(2, BlockSet(((1,), (0, 1)), ((1, 1), (2, 1))))
    assert abs(r.alpha - math.log((1 + math.sqrt(5)) / 2) / math.log(2)) <= 1e-12
    golden = math.log((1 + math.sqrt(5)) / 2) / math.log(3)
    r = block_dimension(3, blocks_of_family(parse_family("S(s=3)")))
    assert abs(r.alpha - golden) <= 1e-12
    with pytest.raises(ValueError):
        block_dimension(3, BlockSet((), ()))


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
        hist = blocks_of_family(fam).counts()
        assert abs(r.alpha - _alpha_bisect(fam.s, hist)) <= 1e-12, text


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
    assert family_dimension(parse_family("MD(s=2)")).method == "closed-cubic"
    # MD's block language has no finite histogram: only md_closed_form solves it
    with pytest.raises(ValueError, match="md_closed_form"):
        block_dimension(2, blocks_of_family(parse_family("MD(s=2)")))


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
            r = block_dimension(s, blocks_of_family(fam))
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
    before = block_dimension(s, BlockSet(None, tuple(sorted(hist.items())), analytic=None))
    hist[extra] = hist.get(extra, 0) + 1
    total = sum(n * F(1, s) ** k for k, n in hist.items())
    if total > 1:
        return  # overcounting block sets are rejected by design
    after = block_dimension(s, BlockSet(None, tuple(sorted(hist.items())), analytic=None))
    assert after.alpha >= before.alpha - 1e-12


def test_block_dims_stay_in_unit_interval():
    for text in ("S(s=8)", "Tilde(s=9)", "Su(s=7,u=3)", "MDper(s=7,m=[3])"):
        r = family_dimension(parse_family(text))
        assert 0.0 <= r.alpha <= 1.0


def test_cantor_series_estimate():
    est = cantor_series_dim_estimate(CantorBasis.constant(3), [(0, 2)], 2000)
    assert abs(est.proxy - LOG32) <= 1e-12
    assert not est.side_condition_slow
    est = cantor_series_dim_estimate(CantorBasis.constant(4), [(2,)], 500)
    assert est.proxy == 0.0
    est = cantor_series_dim_estimate(CantorBasis.power(2), [(0, 1)], 3000)
    assert est.proxy <= 2 / (3000 * 0.9 + 1) + 1e-9
    r = est.to_dimension_result()
    assert r.method == "liminf-estimate" and r.iterations == 3000
    assert r.note == "min of r_n over the last 300 of 3000 terms"
    assert est.terms == 3000 and len(est.ratios) == est.window == 300
    with pytest.raises(ValueError):
        cantor_series_dim_estimate(CantorBasis.constant(3), [(0, 5)], 100)
    with pytest.raises(ValueError):
        cantor_series_dim_estimate(CantorBasis.constant(3), [()], 100)


@pytest.mark.parametrize("window", [0, -5])
def test_cantor_series_estimate_refuses_empty_window(window):
    with pytest.raises(ValueError, match="window must be >= 1"):
        cantor_series_dim_estimate(CantorBasis.constant(3), [(0, 2)], 50, window=window)


def test_cantor_series_alignment_checks_a_whole_lcm_cycle():
    # level 12 pairs I_2 = {0,4} with d_12 = 3; 2 * max(p, q) = 10 levels miss it
    basis, sets = CantorBasis.periodic([5, 5, 3]), [(0, 1), (0, 4), (0, 1), (0, 1), (0, 1)]
    with pytest.raises(ValueError, match="digit 4 >= d_12 = 3"):
        cantor_series_dim_estimate(basis, sets, 100)
    with pytest.raises(ValueError, match="digit 4 >= d_12 = 3"):
        parse_family("Cantor(d=[5,5,3],I=[{0,1},{0,4},{0,1},{0,1},{0,1}])")


def _kahan_estimate(basis, level_sets, n_max):
    """Reference: r_n by a Kahan-compensated running sum over every n <= n_max.

    Returns (min and max of r_n over the default window, side condition)."""
    log_sizes = [math.log(len(set(I))) for I in level_sets]
    num = num_c = den = den_c = 0.0
    ratios = []
    for n in range(1, n_max + 1):
        ld = basis.log_d(n)
        y = log_sizes[(n - 1) % len(log_sizes)] - num_c
        t = num + y
        num_c = (t - num) - y
        num = t
        y = ld - den_c
        t = den + y
        den_c = (t - den) - y
        den = t
        ratios.append(num / den)
    tail = ratios[-min(max(100, n_max // 10), n_max) :]
    return min(tail), max(tail), ld / den


QUERY_CANTOR = (
    "Cantor(d=[3],I=[{0,2}])",
    "Cantor(d=[4,5],I=[{0,3},{1,2,4}])",
    "Cantor(d=[3,4,5],I=[{0,2},{1,3},{0,4}])",
    "Cantor(d=[2,3],I=[{0,1},{0,2}])",
    "Cantor(d=[5],I=[{0,2,4}])",
    "Cantor(d=[6],I=[{1,4}])",
)


@pytest.mark.parametrize(
    "basis, level_sets, n_max",
    [
        pytest.param(parse_family(t).basis, parse_family(t).level_sets, 100_000, id=t)
        for t in QUERY_CANTOR
    ]
    + [
        pytest.param(CantorBasis.constant(7), [(0, 3), (1, 2, 5), (6,)], 100_000, id="d=7"),
        pytest.param(CantorBasis.power(2), [(0, 1)], 3000, id="d=2^n"),
        pytest.param(CantorBasis.power(3), [(0, 2), (1,)], 10_000, id="d=3^n"),
    ],
)
def test_cantor_series_estimate_matches_kahan_loop(basis, level_sets, n_max):
    est = cantor_series_dim_estimate(basis, level_sets, n_max)
    got = (est.proxy, max(est.ratios), est.side_condition_last)
    for new, ref in zip(got, _kahan_estimate(basis, level_sets, n_max)):
        assert abs(new - ref) <= 4 * math.ulp(ref)
        assert f"{new:.12g}" == f"{ref:.12g}"


@pytest.mark.parametrize("text", QUERY_CANTOR)
def test_cantor_series_estimate_near_periodic_limit(text):
    # over one lcm cycle of C levels the ratio is exactly L = A_C / B_C, and
    # r_n - L = (a_r - L b_r) / B_n with r = n mod C and a, b the within-cycle
    # prefix sums of log|I_j| and log d_j
    fam = parse_family(text)
    values, sets = fam.basis.values, fam.level_sets
    cycle = math.lcm(len(values), len(sets))
    a = [math.fsum(math.log(len(sets[j % len(sets)])) for j in range(r)) for r in range(cycle + 1)]
    b = [math.fsum(math.log(values[j % len(values)]) for j in range(r)) for r in range(cycle + 1)]
    limit = a[cycle] / b[cycle]
    spread = max(abs(a[r] - limit * b[r]) for r in range(cycle))
    n_max = 100_000
    est = cantor_series_dim_estimate(fam.basis, sets, n_max)
    first = n_max - est.window + 1
    prefix_d = math.fsum(math.log(values[j % len(values)]) for j in range(first))
    assert abs(est.proxy - limit) <= spread / prefix_d + 4 * math.ulp(limit)


def test_family_dimension_of_cantor_is_the_liminf_estimate():
    fam = parse_family("Cantor(d=[3],I=[{0,2}])")
    est = cantor_series_dim_estimate(fam.basis, fam.level_sets, 100_000)
    assert family_dimension(fam) == est.to_dimension_result()
