"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Each test prints a single pass line (visible under ``pytest -s`` or in the
captured output of a failing run); tolerances and runtime budgets are pinned
here and nowhere else.
"""

import math
import time
from fractions import Fraction as F

from cantorkit import (
    block_dimension,
    box_dimension,
    cantor_series_dim_estimate,
    covering_sums,
    cylinder_interval,
    family_dimension,
    md_closed_form,
    parse_family,
    periodic_dimension,
    sminus_diameter_constant,
    verify_family,
)
from cantorkit.families import block_histogram, family_blocks

LOG32 = math.log(2) / math.log(3)
PLASTIC = 1.324717957244746  # real root of x^3 - x = 1


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_c01_cantor_dimension():
    t0 = time.perf_counter()
    r = family_dimension(parse_family("Blocks(s=3,B=[0;2])"))
    dt = time.perf_counter() - t0
    delta = abs(r.alpha - 0.630929753571)
    _report("C1 cantor log3(2)", delta <= 1e-10 and dt < 0.1, f"delta={delta:.2e} time={dt:.3f}s")


def test_c02_md_closed_form_vs_cubic():
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(2, 17):
        r = md_closed_form(s)
        worst = max(worst, abs(r.alpha - r.cross_check))
    dt = time.perf_counter() - t0
    delta2 = abs(md_closed_form(2).alpha - math.log2(PLASTIC))
    _report(
        "C2 md closed form",
        worst <= 1e-10 and delta2 <= 1e-6 and dt < 0.1,
        f"worst={worst:.2e} plastic-delta={delta2:.2e} time={dt:.3f}s",
    )


def test_c03_cross_theorem_equality():
    worst_pair = 0.0
    worst_resid = 0.0
    for s in range(3, 9):
        for u in range(s):
            a = family_dimension(parse_family(f"Su(s={s},u={u})"))
            b = family_dimension(parse_family(f"NSu(s={s},u={u})"))
            worst_pair = max(worst_pair, abs(a.alpha - b.alpha))
            worst_resid = max(worst_resid, a.residual, b.residual)
    deg = family_dimension(parse_family("Su(s=3,u=1)"))
    ok = worst_pair <= 1e-12 and worst_resid <= 1e-10 and deg.degenerate and deg.alpha == 0.0
    _report(
        "C3 Su == NSu dimensions",
        ok,
        f"pair={worst_pair:.2e} resid={worst_resid:.2e} degenerate(3,1)={deg.degenerate}",
    )


def test_c04_tilde_block_count():
    bad = [
        s
        for s in range(4, 13)
        if len(family_blocks(parse_family(f"Tilde(s={s})"))) != s * s - 3 * s + 3
    ]
    _report("C4 tilde block count s^2-3s+3", not bad, f"bad={bad}")


def test_c05_cylinder_property_suite():
    configs = (
        [f"S(s={s})" for s in (3, 4, 5)]
        + [f"Su(s=4,u={u})" for u in range(4)]
        + [f"Su(s=5,u={u})" for u in range(5)]
        + ["NSu(s=3,u=0)", "NSu(s=4,u=0)", "Sminus(s=3)", "Sminus(s=4)"]
    )
    t0 = time.perf_counter()
    failures = []
    for text in configs:
        rep = verify_family(parse_family(text), depth=4, cap=2_000_000)
        if not rep.passed:
            failures.append((text, [r.name for r in rep.results if not r.passed]))
    dt = time.perf_counter() - t0
    _report(
        "C5 cylinder property suite",
        not failures and dt < 60,
        f"{len(configs)} families in {dt:.1f}s failures={failures}",
    )


def test_c06_sminus_consistency():
    bad = []
    for s in range(3, 7):
        iv = cylinder_interval(parse_family(f"Sminus(s={s})"), ())
        if iv.hi - iv.lo != sminus_diameter_constant(s):
            bad.append(s)
    _report("C6 sminus endpoint/diameter identity", not bad, f"bad={bad}")


def test_c07_covering_sum_decay():
    fam = parse_family("S(s=3)")
    d0 = cylinder_interval(fam, ()).width
    sums = covering_sums(fam, 10)
    bad = [n for n, total in enumerate(sums) if total != d0 * F(4, 9) ** n]
    _report("C7 covering sums d(S)*(4/9)^n", not bad, f"bad={bad}")


def test_c08_periodic_corollary():
    ok = periodic_dimension((3,)).alpha == 1 / 3 and periodic_dimension((3, 5)).alpha == 0.25
    worst = 0.0
    for s in (2, 3, 5):
        for m in ((3,), (3, 5)):
            fam = parse_family(f"MDper(s={s},m=[{','.join(map(str, m))}])")
            r = block_dimension(s, block_histogram(family_blocks(fam)))
            worst = max(worst, abs(r.alpha - len(m) / sum(m)))
    _report("C8 periodic gap formula", ok and worst <= 1e-12, f"block-delta={worst:.2e}")


def test_c09_cantor_series_estimates():
    t0 = time.perf_counter()
    r = cantor_series_dim_estimate(parse_family("Cantor(d=[3],I=[{0,2}])"))
    dt = time.perf_counter() - t0
    delta = abs(r.alpha - LOG32)
    _report("C9 cantor-series liminf proxy", delta <= 1e-12 and dt < 1.0, f"const-delta={delta:.2e} time={dt:.2f}s")


def test_c10_boxcount_cross_check():
    t0 = time.perf_counter()
    gaps = {}
    for text in ("Blocks(s=3,B=[0;2])", "S(s=3)", "Sminus(s=3)"):
        fam = parse_family(text)
        fit, _ = box_dimension(fam, 4, 10)
        gaps[text] = abs(fit.slope - family_dimension(fam).alpha)
    dt = time.perf_counter() - t0
    worst = max(gaps.values())
    _report(
        "C10 box-count vs solver",
        worst <= 0.02 and dt < 30,
        f"worst-gap={worst:.4f} time={dt:.1f}s",
    )
