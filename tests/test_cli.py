import ast
import builtins
import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from typing import get_type_hints

import pytest

import cantorkit
import cantorkit.cylinders as cyl
import cantorkit.families as families
from cantorkit import CantorkitError, CapExceededError, parse_family
from cantorkit.cli import _COMMANDS, _UsageError, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dim_json_is_deterministic(capsys):
    code1, out1 = run(capsys, "dim", "S(s=3)")
    code2, out2 = run(capsys, "dim", "S(s=3)")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert list(payload)[:7] == [
        "family",
        "alpha",
        "method",
        "residual",
        "bracket",
        "iterations",
        "degenerate",
    ]
    assert abs(payload["alpha"] - 0.4380178794859) <= 1e-10
    assert payload["method"] == "block-root"
    assert payload["residual"] <= 1e-10


@pytest.mark.parametrize("s", [2, 10**5, 10**8, 10**13, 10**38, 10**45, 10**200])
def test_dim_md_has_cross_check(capsys, s):
    # the closed form's second cube root cancels as s grows, to below 0 at 10^13,
    # and from about 10^38 on the root t = s^-alpha is below 1e-13
    start = time.perf_counter()
    code, out = run(capsys, "dim", f"MD(s={s})")
    assert time.perf_counter() - start < 0.5
    payload = json.loads(out)
    lo, hi = payload["bracket"]
    assert code == 0 and payload["method"] == "closed-cubic" and lo <= payload["alpha"] <= hi
    assert abs(payload["alpha"] - payload["cross_check"]) <= 1e-11 and hi - lo < 1e-9


def test_dim_degenerate_flag(capsys):
    _, out = run(capsys, "dim", "Su(s=3,u=1)")
    payload = json.loads(out)
    assert payload["degenerate"] is True and payload["alpha"] == 0


def test_dim_cantor_family(capsys):
    code, out = run(capsys, "dim", "Cantor(d=[3],I=[{0,2}])")
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "liminf-estimate"
    assert abs(payload["alpha"] - 0.6309297535714) <= 1e-10


def test_verify_exit_zero(capsys):
    code, out = run(capsys, "verify", "Sminus(s=3)", "--depth", "4")
    assert code == 0
    assert "all properties hold" in out
    assert "[pass] interval-vs-oracle" in out
    # its oracle ranges over 6^8 continuations, above the enumeration cap
    assert main(["verify", "S(s=7)", "--depth", "2"]) == 0


def test_verify_json_format(capsys):
    code, out = run(capsys, "verify", "S(s=3)", "--depth", "3", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True
    names = [p["name"] for p in payload["properties"]]
    assert names == ["interval-vs-oracle", "nesting", "sibling-gaps", "ordering", "covering-law"]


def test_eval_and_rationals(capsys):
    _, out = run(capsys, "eval", "Sminus(s=3)", "--alphas", "2,1")
    payload = json.loads(out)
    assert payload["value"] == "-5/27"
    assert payload["digits"] == "0 2 1"


def test_eval_with_tail(capsys):
    _, out = run(capsys, "eval", "S(s=3)", "--alphas", "", "--tail", "2")
    assert json.loads(out)["value"] == "1/4"
    # levels read d = 2, 3, 2, 3, ... and I = {0,1}, {0,2}, ...: after the
    # digit 1 the tail 2,1 repeats from level 2, closed geometrically
    cantor = "Cantor(d=[2,3],I=[{0,1},{0,2}])"
    code, out = run(capsys, "eval", cantor, "--alphas", "1", "--tail", "2,1")
    assert code == 0
    once = Fraction(2, 2 * 3) + Fraction(1, 2 * 3 * 2)
    value = Fraction(1, 2) + once * Fraction(6, 5)
    assert json.loads(out)["value"] == f"{value.numerator}/{value.denominator}"
    # a tail must return to its starting phase, with each digit admissible at its level
    for tail in ("2", "1,2", "1"):
        assert main(["eval", cantor, "--alphas", "1", "--tail", tail]) == 1
    assert "must return to the phase it starts at (1); it ends at 0" in capsys.readouterr().err


def test_cylinder_report(capsys):
    _, out = run(capsys, "cylinder", "S(s=3)", "--addr", "1", "--child", "1")
    payload = json.loads(out)
    assert payload["interval"] == {"lo": "5/12", "hi": "1/2"}
    assert payload["child_ratio"] == "1/3"
    assert payload["orientation"] == "right-to-left"


def test_cover_table(capsys):
    _, out = run(capsys, "cover", "S(s=3)", "--depth", "3")
    lines = out.strip().splitlines()
    assert lines[0] == "depth,exact,float"
    assert lines[1].startswith("0,1/4,")
    assert lines[3].startswith("2,4/81,")
    # 2^20 addresses at depth 20, none of them built
    code, out = run(capsys, "cover", "S(s=3)", "--depth", "20")
    assert code == 0 and out.splitlines()[-1].startswith(f"20,{Fraction(1, 4) * Fraction(4, 9) ** 20},")


@pytest.mark.parametrize(
    "family, rank",
    # MDper's gap phase has a denominator of 150,515 digits, whose hull is never solved
    [("S(s=4)", 689), ("Su(s=3,u=1)", 912), ("Blocks(s=2,B=[0;1])", 1289), ("MDper(s=2,m=[499999])", 3)],
)
def test_cover_refuses_deep_ranks_fast(capsys, family, rank):
    start = time.perf_counter()
    assert main(["cover", family, "--depth", str(10**9)]) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {rank}+ ranks of ")


def test_enumerate(capsys):
    _, out = run(capsys, "enumerate", "Su(s=5,u=2)", "--depth", "1")
    assert out.strip().splitlines() == ["1", "3", "4"]
    code, out = run(capsys, "enumerate", "Su(s=5,u=2)", "--depth", "2", "--format", "json")
    addresses = [[p, q] for p in (1, 3, 4) for q in (1, 3, 4)]
    assert code == 0 and json.loads(out) == {"family": "Su(s=5,u=2)", "depth": 2, "addresses": addresses}


def test_boxcount_csv(capsys):
    # the middle-thirds set as a block language and as a Cantor series
    for family in ("Blocks(s=3,B=[0;2])", "Cantor(d=[3],I=[{0,2}])"):
        code, out = run(capsys, "boxcount", family, "--scales", "4:10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eps,count"
        assert lines[1].endswith(",16")
        gap = float(next(l for l in lines if l.startswith("# gap,")).split(",")[1])
        assert gap <= 0.02


@pytest.mark.parametrize("family", ("Blocks(s=2,B=[0;1 0])", "MDper(s=2,m=[3])"))
def test_boxcount_default_scales_span_two_decades_at_base_two(capsys, family):
    # 4:10 spans 2^6 = 64 < 100 at s = 2, so the default reaches 4:11
    code, out = run(capsys, "boxcount", family)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "eps,count" and rows[9].startswith("# slope,")
    assert [float(r.split(",")[0]) for r in rows[1:9]] == [2.0**-n for n in range(4, 12)]


def test_blocks_output(capsys):
    _, out = run(capsys, "blocks", "Tilde(s=4)")
    payload = json.loads(out)
    assert payload["count"] == 7
    assert payload["histogram"] == {"1": 1, "2": 3, "3": 3}
    assert main(["blocks", "Tilde(s=3000)"]) == 1


MDPER_BLOCKS = [f"0 0 {a} 0 0 0 0 {b}" for a in range(3) for b in range(3)]  # gap 3, then gap 5
BLOCKS_PAYLOADS = [
    # infinitely many blocks 0^(k-1) a: a tag, no list
    ("MD(s=4)", '"count":0,"degenerate":false,"analytic":"odd-zero-runs","histogram":{},"blocks":null'),
    ("MDper(s=3,m=[3,5])", '"count":9,"degenerate":false,"analytic":null,"histogram":{"8":9},"blocks":'
     + json.dumps(MDPER_BLOCKS, separators=(",", ":"))),
    ("Su(s=3,u=1)", '"count":1,"degenerate":true,"analytic":null,"histogram":{"2":1},"blocks":["1 2"]'),
]


@pytest.mark.parametrize("family, payload", BLOCKS_PAYLOADS, ids=[family for family, _ in BLOCKS_PAYLOADS])
def test_blocks_payloads_are_pinned(capsys, family, payload):
    code, out = run(capsys, "blocks", family)
    assert code == 0 and out == f'{{"family":"{family}",{payload}}}\n'


def test_blocks_refuses_a_cantor_series(capsys):
    assert main(["blocks", "Cantor(d=[3],I=[{0,2}])"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: Cantor families restrict digits per level, not blocks\n"


def _cantor_cycle(p, q):
    """A Cantor series of p basis values and q level sets: lcm(p, q) phases."""
    d = ",".join(str(3 + j % 5) for j in range(p))
    sets = ",".join(f"{{0,{1 + j % 2}}}" for j in range(q))
    return f"Cantor(d=[{d}],I=[{sets}])"


def test_a_long_phase_cycle_is_refused_before_its_hulls_are_solved(capsys):
    long_cycle = _cantor_cycle(200, 201)  # 40,200 phases
    start = time.perf_counter()
    assert main(["cylinder", long_cycle, "--addr", "1,2"]) == 1
    assert time.perf_counter() - start < 1
    assert "above the cap" in capsys.readouterr().err
    # dim and eval read no hulls
    assert main(["dim", long_cycle]) == 0
    assert main(["eval", long_cycle, "--alphas", "1,2,1"]) == 0
    assert main(["cylinder", _cantor_cycle(20, 21), "--addr", "1,2"]) == 0  # 420 phases


def test_convert_round_trip(capsys):
    code, out = run(
        capsys, "convert", "--base", "3", "--digits", "0,2", "--target", "negasadic",
        "--length", "8",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["within_bound"] is True
    assert payload["value"] == "2/9"


def test_verify_failure_reports_address_and_rationals(capsys, monkeypatch):
    # sabotage the whole-set constants: the suite must fail with exit 2 and
    # name a concrete address plus the two conflicting exact values
    import cantorkit.cylinders as cyl

    monkeypatch.setattr(cyl, "_nega0_bounds", lambda s: (Fraction(-1, 3), Fraction(1, 5)))
    cyl._local_hulls.cache_clear()
    cyl._oracle_local.cache_clear()
    code, out = run(capsys, "verify", "NSu(s=3,u=0)", "--depth", "2")
    assert code == 2
    assert "FAIL" in out and "addr=" in out and "/" in out
    cyl._local_hulls.cache_clear()
    cyl._oracle_local.cache_clear()


def _bounds_moved(lo_by, hi_by):
    """Move S/Su's whole-set inf and sup by these multiples of the hull width."""

    def sabotage(monkeypatch):
        true_bounds = cyl._su_bounds

        def bounds(s, u):
            inf0, sup0 = true_bounds(s, u)
            return inf0 + lo_by * (sup0 - inf0), sup0 + hi_by * (sup0 - inf0)

        monkeypatch.setattr(cyl, "_su_bounds", bounds)

    return sabotage


def _digit_2_scale_off(monkeypatch):
    # run digit 2 of S(s=3), the block 0 2, maps by 1/10, not 3^-2
    true_map = families._block_map

    def block_map(runs, base, nxt, flip=1):
        block, gn, sk, m, nxt = true_map(runs, base, nxt, flip)
        return block, gn, sk, m + (block == (0, 2)), nxt

    monkeypatch.setattr(families, "_block_map", block_map)


def _diameter_off(monkeypatch):
    true_diameter = cyl.sminus_diameter_constant
    monkeypatch.setattr(cyl, "sminus_diameter_constant", lambda s: true_diameter(s) + Fraction(1, s))


def _orientations_swapped(monkeypatch):
    swap = {"left-to-right": "right-to-left", "right-to-left": "left-to-right", None: None}
    true_orientation = cyl._predicted_orientation
    monkeypatch.setattr(cyl, "_predicted_orientation", lambda *args: swap[true_orientation(*args)])


#: (family, sabotage, the rows it is a case for, the other rows it fails):
#: one failing case for every row
SABOTAGES = [
    ("S(s=3)", _bounds_moved(Fraction(1, 9), 0), {"interval-vs-oracle", "nesting"}, set()),
    ("S(s=3)", _bounds_moved(-3, 3), {"sibling-gaps", "ordering"}, {"interval-vs-oracle"}),
    ("S(s=3)", _orientations_swapped, {"ordering"}, set()),
    ("S(s=3)", _digit_2_scale_off, {"covering-law"}, {"interval-vs-oracle"}),
    ("Sminus(s=3)", _diameter_off, {"diameter-constants"}, set()),
]


def _clear_caches():
    for cache in (cyl._local_hulls, cyl._oracle_local, cyl._phase_maps, families.digit_maps):
        cache.cache_clear()


@pytest.mark.parametrize("text, sabotage, rows, also", SABOTAGES, ids=[", ".join(sorted(r)) for *_, r, _ in SABOTAGES])
def test_every_verify_row_can_fail(capsys, monkeypatch, text, sabotage, rows, also):
    sabotage(monkeypatch)
    _clear_caches()
    try:
        code, out = run(capsys, "verify", text, "--depth", "2", "--format", "json")
    finally:
        monkeypatch.undo()
        _clear_caches()
    failing = {p["name"] for p in json.loads(out)["properties"] if not p["passed"]}
    assert code == 2 and failing == rows | also, failing


def test_verify_refuses_empty_whole_set_bounds(capsys, monkeypatch):
    # S's inf and sup swapped: the closed form's root interval is empty
    _bounds_moved(1, -1)(monkeypatch)
    assert main(["verify", "S(s=3)", "--depth", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: empty interval: ")


def test_verify_prints_only_rows_that_can_fail(capsys):
    printed = set()
    for text in ("S(s=3)", "Su(s=4,u=2)", "NSu(s=3,u=0)", "Sminus(s=3)"):
        code, out = run(capsys, "verify", text, "--depth", "2", "--format", "json")
        assert code == 0
        printed |= {p["name"] for p in json.loads(out)["properties"]}
    assert printed == set().union(*(rows for _, _, rows, _ in SABOTAGES))


def test_back_to_back_commands_carry_nothing_over(capsys):
    runs = [
        ("verify", "S(s=3)", "--depth", "2", "--format", "json"),
        ("cover", "S(s=3)", "--depth", "3"),
        ("dim", "S(s=3)", "--format", "csv"),
        ("verify", "S(s=3)"),
        ("boxcount", "S(s=3)", "--cap", "100"),
        ("eval", "S(s=3)", "--alphas", "2,1"),
    ]
    first = [run(capsys, *argv) for argv in runs]
    again = [run(capsys, *argv) for argv in reversed(runs)][::-1]
    assert first == again
    # no value given in one call carries over into the next
    assert [code for code, _ in first] == [0, 0, 0, 0, 1, 0]
    assert first[3][1].startswith("verify S(s=3) (depth 8, oracle depth 14)")
    assert first[1][1].count("\n") == 5 and first[2][1].startswith("family,alpha")


def test_the_cli_never_loads_argparse():
    # -S: no site-packages .pth file pre-imports a module the package would not load;
    # the records need no dataclasses or inspect, the box-count fit no statistics,
    # and the command line is read without argparse, so gettext and locale stay out too
    src = os.path.dirname(os.path.dirname(cantorkit.__file__))
    script = (
        "import sys\n"
        "heavy = {'argparse', 'gettext', 'locale', 'dataclasses', 'inspect', 'statistics'}\n"
        "import cantorkit.cli\n"
        "print(sorted(heavy & set(sys.modules)))\n"
        "cantorkit.cli.main(['dim', 'S(s=3)'])\n"
        "print(sorted(heavy & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr, len(lines)) == (0, "", 3)
    assert lines[0] == lines[2] == "[]" and json.loads(lines[1])["family"] == "S(s=3)"


DIM_JSON = (
    '{"family":"S(s=3)","alpha":0.438017879486,"method":"block-root","residual":1.97619698383e-14,'
    '"bracket":[0.438017879486,0.438017879486],"iterations":45,"degenerate":false,'
    '"note":"solved sum_k N_k t^k = 1 with t = s^-alpha; N = {1: 1, 2: 1}"}\n'
)
DIM_CSV = "family,alpha,method,residual,degenerate\nS(s=3),0.438017879486,block-root,1.97619698383e-14,False\n"
COVER_2 = "depth,exact,float\n0,1/4,0.25\n1,1/9,0.111111111111\n2,4/81,0.0493827160494\n"
COMMANDS = "'dim', 'blocks', 'eval', 'cylinder', 'verify', 'cover', 'boxcount', 'enumerate', 'convert'"

#: (argv, exit code, stdout, last stderr line), as the argparse parser this one
#: replaced gave them; for -h the stdout column is the usage line, which
#: argparse wrapped at the terminal width and this parser prints on one line
ARGV_RECORDS = [
    (("-h",), 0, "usage: cantorkit [-h] {dim,blocks,eval,cylinder,verify,cover,boxcount,enumerate,convert} ...", ""),
    (("dim", "-h"), 0, "usage: cantorkit dim [-h] [--format {json,csv,text}] [--out OUT] family", ""),
    (("eval", "-h"), 0, "usage: cantorkit eval [-h] [--out OUT] --alphas ALPHAS [--tail TAIL] family", ""),
    (("convert", "-h"), 0, "usage: cantorkit convert [-h] [--out OUT] --base BASE --digits DIGITS "
     "[--source {sadic,negasadic}] --target {sadic,negasadic} [--length LENGTH]", ""),
    ((), 1, "", "error: the following arguments are required: command"),
    (("bogus",), 1, "", f"error: argument command: invalid choice: 'bogus' (choose from {COMMANDS})"),
    (("dim",), 1, "", "error: the following arguments are required: family"),
    (("verify", "S(s=3)", "--cap", "0"), 1, "", "error: argument --cap: must be an integer >= 1, got '0'"),
    (("verify", "S(s=3)", "--format", "csv"), 1, "",
     "error: argument --format: invalid choice: 'csv' (choose from 'text', 'json')"),
    (("boxcount", "S(s=3)", "--scales", "x:4"), 1, "",
     "error: argument --scales: must be n_lo:n_hi with integers >= 0, got 'x:4'"),
    (("convert", "--base", "3"), 1, "", "error: the following arguments are required: --digits, --target"),
    (("cover", "S(s=3)", "--dep", "2"), 0, COVER_2, ""),
    (("cover", "S(s=3)", "--d", "2"), 0, COVER_2, ""),
    (("cover", "S(s=3)", "--depth=2"), 0, COVER_2, ""),
    (("dim", "--", "S(s=3)"), 0, DIM_JSON, ""),
    (("--", "dim", "S(s=3)"), 1, "", f"error: argument command: invalid choice: '--' (choose from {COMMANDS})"),
    (("--", "dim"), 1, "", f"error: argument command: invalid choice: '--' (choose from {COMMANDS})"),
    (("cylinder", "S(s=3)", "--addr", "1", "--child", "x"), 1, "", "error: argument --child: invalid int value: 'x'"),
    (("dim", "S(s=3)", "--depth", "3"), 1, "", "error: unrecognized arguments: --depth 3"),
    (("dim", "S(s=3)", "extra"), 1, "", "error: unrecognized arguments: extra"),
    (("dim", "--format", "csv", "S(s=3)"), 0, DIM_CSV, ""),
    (("dim", "S(s=3)", "--format", "text", "--format", "csv"), 0, DIM_CSV, ""),
    (("dim", "S(s=3)", "--fo=csv"), 0, DIM_CSV, ""),
    (("verify", "S(s=3)", "--depth"), 1, "", "error: argument --depth: expected one argument"),
]


@pytest.mark.parametrize("argv, code, stdout, error", ARGV_RECORDS, ids=[" ".join(r[0]) or "-" for r in ARGV_RECORDS])
def test_the_parser_reads_a_command_line_as_argparse_did(capsys, argv, code, stdout, error):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    if "-h" in argv:
        assert captured.out.startswith(stdout + "\n\n")
    else:
        assert captured.out == stdout
    assert captured.err.splitlines()[-1:] == ([error] if error else [])
    if error:  # a usage error follows the usage line of the command it names
        named = argv[0] if argv and argv[0] in _COMMANDS else None
        assert captured.err.startswith("usage: cantorkit " + (f"{named} [-h] " if named else "[-h] {"))
        assert captured.err.count("\n") == 2


def test_help_names_every_command_and_option(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    for name, (_, summary, *_) in _COMMANDS.items():
        assert f"\n  {name}  " in out and summary in out, name
    for name, (_, _, shared, formats, own) in _COMMANDS.items():
        assert main([name, "-h"]) == 0
        usage, _, body = capsys.readouterr().out.partition("\n")
        assert usage.startswith(f"usage: cantorkit {name} [-h] ")
        flags = [f"--{key}" for key in shared if key != "family"] + ["--format"] * bool(formats) + ["--out"]
        for flag in flags + [flag for flag, _ in own]:
            assert f"{flag} " in usage and f"\n  {flag} " in body, (name, flag)
        if formats:
            assert "{" + ",".join(formats) + "}" in usage
        assert usage.endswith(" family") == ("family" in shared)
        assert "\n  -h, --help " in body
        # every row has help text, on its own line or wrapped to the next one
        rows = body.splitlines()
        named = [(row, after) for row, after in zip(rows, rows[1:] + [""]) if row.startswith(("  -", "  family"))]
        assert len(named) == 1 + len(flags) + len(own) + ("family" in shared)
        for row, after in named:
            text = row[2:].partition("  ")[2] or (after[24:] if after.startswith(" " * 24) else "")
            assert text.strip(), (name, row)


@pytest.mark.parametrize("argv", [("cover", "S(s=3)", "--depth", "3"), ("--help",)])
def test_the_module_entry_point_runs_main(capsys, argv):
    src = os.path.dirname(os.path.dirname(cantorkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "cantorkit", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert code == 0 and captured.out


def test_dim_text_and_csv_formats(capsys):
    code, out = run(capsys, "dim", "S(s=3)", "--format", "text")
    assert code == 0 and out.startswith("family: S(s=3)")
    code, out = run(capsys, "dim", "S(s=3)", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "family,alpha,method,residual,degenerate"


def test_usage_errors_exit_one(capsys):
    assert main(["dim", "Nope(s=3)"]) == 1
    assert main(["dim", "S(s=2)"]) == 1
    assert main(["bogus"]) == 1
    assert main([]) == 1
    # out-of-range conversion is a domain error, not a crash
    assert main(["convert", "--base", "3", "--digits", "1,0,2", "--target", "negasadic"]) == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "dim.json"
    code = main(["dim", "S(s=3)", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["family"] == "S(s=3)"


@pytest.mark.parametrize("where", ("dir", "missing/dir/x.csv"))
def test_unwritable_out_is_an_error_not_a_traceback(tmp_path, capsys, where):
    (tmp_path / "dir").mkdir()
    target = tmp_path / where
    assert main(["dim", "S(s=3)", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write --out {target}: ")
    assert "Traceback" not in captured.err and captured.out == ""


BAD_INT = "invalid literal for int() with base 10: 'x'"


@pytest.mark.parametrize(
    "argv, error",
    [
        (("eval", "S(s=3)", "--alphas", "x"), f"bad integer in --alphas: {BAD_INT}"),
        (("eval", "S(s=3)", "--alphas", "1,x"), f"bad integer in --alphas: {BAD_INT}"),
        (("eval", "MD(s=2)", "--alphas", "3"), "MD selectors are gap:digit pairs, got '3'"),
        (("cylinder", "S(s=3)", "--addr", "1,x"), f"bad integer in --addr: {BAD_INT}"),
        (("convert", "--base", "3", "--digits", "0,x", "--target", "negasadic"), f"bad integer in --digits: {BAD_INT}"),
        (("boxcount", "S(s=3)", "--scales", "5:4"), "need at least 3 scales"),
        (("convert", "--base", "3", "--digits", "0,2", "--target", "negasadic", "--length", "-1"),
         "need at least one digit"),
        (("enumerate", "S(s=3)", "--depth", "-1"), "argument --depth: must be an integer >= 0, got '-1'"),
        (("boxcount", "S(s=3)", "--scales=-3:2"), "argument --scales: must be n_lo:n_hi with integers >= 0, got '-3:2'"),
        (("enumerate", "S(s=3)", "--depth", "0", "--cap", "-1"), "argument --cap: must be an integer >= 1, got '-1'"),
        (("enumerate", "S(s=3)", "--depth", "0", "--cap", "0"), "argument --cap: must be an integer >= 1, got '0'"),
        (("boxcount", "S(s=3)", "--cap", "0"), "argument --cap: must be an integer >= 1, got '0'"),
        (("verify", "S(s=3)", "--cap", "1.5"), "argument --cap: must be an integer >= 1, got '1.5'"),
        (("dim", f"MD(s={2 * 10**308})"), f"MD base {2 * 10**308} is past the float range"),
        # a superscript is a digit to str.isdigit but not to int
        (("verify", "S(s=3)", "--depth", "\u00b2"), "argument --depth: must be an integer >= 0, got '\u00b2'"),
        (("boxcount", "S(s=3)", "--scales", "\u00b2:7"),
         "argument --scales: must be n_lo:n_hi with integers >= 0, got '\u00b2:7'"),
        (("--x", "dim", "S(s=3)"), "unrecognized arguments: --x"),  # an option before the command
        (("dim", "S(s=3)", "--=x"), "ambiguous option: --=x could match --help, --format, --out"),
        (("dim", "-h=x"), "argument -h/--help: ignored explicit argument 'x'"),
    ],
)
def test_bad_input_is_an_error_not_a_traceback(capsys, argv, error):
    assert main(list(argv)) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: {error}" and "Traceback" not in err


def _raises(node, scope):
    """(scope, raise) of every raise statement under `node`, scoped by its
    innermost function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield scope, child
        yield from _raises(child, child.name if isinstance(child, ast.FunctionDef) else scope)


def test_the_package_raises_only_what_main_reports():
    # `main` turns ValueError, CantorkitError and its own usage error into
    # exit 1; anything else would end in a traceback
    found = set()
    for path in Path(cantorkit.__file__).parent.glob("*.py"):
        for scope, node in _raises(ast.parse(path.read_text()), "<module>"):
            name = (node.exc.func if isinstance(node.exc, ast.Call) else node.exc).id
            cls = getattr(builtins, name, None) or getattr(import_module(f"cantorkit.{path.stem}"), name)
            if not isinstance(cls, type):  # a helper that builds the exception
                cls = get_type_hints(cls)["return"]
            if not issubclass(cls, (ValueError, CantorkitError, _UsageError)):
                found.add((path.stem, scope, cls.__name__))
    assert found == {
        ("cli", "_jdump", "TypeError"),
        ("radix", "__setattr__", "AttributeError"),
        ("radix", "__delattr__", "AttributeError"),
        ("cli", "<module>", "SystemExit"),
        ("__main__", "<module>", "SystemExit"),
    }


@pytest.mark.parametrize("command", ("verify", "cover"))
def test_negative_depth_rejected(capsys, command):
    assert main([command, "S(s=3)", "--depth", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --depth" in captured.err


@pytest.mark.parametrize("scales", ("-3:2", "x:4", "4"))
def test_malformed_scales_rejected(capsys, scales):
    assert main(["boxcount", "S(s=3)", f"--scales={scales}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --scales" in captured.err


@pytest.mark.parametrize(
    "scales, error",
    [
        ("20:22", "scales must span at least two decades of eps"),
        # s^-n_hi rounds to float 0.0
        ("700:702", "--scales n_hi = 702 makes eps = 3^-702 round to float 0; lower n_hi"),
        ("100000:100002", "--scales n_hi = 100002 makes eps = 3^-100002 round to float 0; lower n_hi"),
        ("4:700", "--scales n_hi = 700 makes eps = 3^-700 round to float 0; lower n_hi"),
    ],
)
def test_boxcount_checks_scales_before_walking(capsys, scales, error):
    start = time.perf_counter()
    assert main(["boxcount", "S(s=3)", "--scales", scales]) == 1
    assert time.perf_counter() - start < 0.2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


#: options a subcommand's handler does not read, and formats it does not print
UNREAD_OPTIONS = [
    ("dim", "S(s=3)", "--depth", "3"),
    ("dim", "S(s=3)", "--cap", "5"),
    ("blocks", "S(s=3)", "--depth", "3"),
    ("blocks", "S(s=3)", "--cap", "5"),
    ("blocks", "S(s=3)", "--format", "csv"),
    ("eval", "S(s=3)", "--alphas", "2,1", "--depth", "3"),
    ("eval", "S(s=3)", "--alphas", "2,1", "--cap", "5"),
    ("eval", "S(s=3)", "--alphas", "2,1", "--format", "text"),
    ("cylinder", "S(s=3)", "--addr", "1", "--depth", "3"),
    ("cylinder", "S(s=3)", "--addr", "1", "--cap", "5"),
    ("cylinder", "S(s=3)", "--addr", "1", "--format", "csv"),
    ("cover", "S(s=3)", "--depth", "2", "--format", "json"),
    ("cover", "S(s=3)", "--cap", "5"),
    ("boxcount", "S(s=3)", "--depth", "3"),
    ("boxcount", "S(s=3)", "--format", "json"),
    ("convert", "--base", "3", "--digits", "0,2", "--target", "negasadic", "--format", "csv"),
    ("verify", "S(s=3)", "--depth", "1", "--format", "csv"),
    ("enumerate", "S(s=3)", "--depth", "1", "--format", "csv"),
]


@pytest.mark.parametrize("argv", UNREAD_OPTIONS)
def test_options_a_command_does_not_read_are_refused(capsys, argv):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    # the command itself runs without the option
    assert main(list(argv[:-2])) == 0


def test_run_block_tables_are_capped(capsys):
    # S(s) writes about s^2/2 block digits: S(s=2000) passes DEFAULT_CAP
    assert main(["dim", "S(s=2000)"]) == 1
    assert "above the cap" in capsys.readouterr().err
    code, out = run(capsys, "dim", "S(s=1000)")
    note = "solved sum_k N_k t^k = 1 with t = s^-alpha; N = " + str(dict.fromkeys(range(1, 1000), 1))
    assert code == 0 and out == (
        '{"family":"S(s=1000)","alpha":0.100343331888,"method":"block-root",'
        '"residual":1.13686837722e-13,"bracket":[0.100343331888,0.100343331888],'
        f'"iterations":45,"degenerate":false,"note":{json.dumps(note)}}}\n'
    )


@pytest.mark.parametrize(
    "family", ["S(s=1000000000)", "Su(s=1000000000,u=5)", "Tilde(s=10000000000)", f"MDper(s={10**200},m=[3])"]
)
@pytest.mark.parametrize(
    "argv",
    [("dim",), ("blocks",), ("cylinder",), ("cover",), ("eval", "--alphas", "1"), ("enumerate", "--depth", "0")],
)
def test_huge_run_alphabets_are_refused_before_they_are_built(capsys, family, argv):
    start = time.perf_counter()
    assert main([argv[0], family, *argv[1:]]) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {family} has over 1000000 selectors, above the cap\n"


@pytest.mark.parametrize(
    "family, value", [("Su(s=1000000000,u=5)", "5/999999999"), ("NSu(s=1000000000,u=5)", "-5/1000000001")]
)
def test_an_empty_address_evaluates_without_a_selector_table(capsys, family, value):
    # the point closes with u written forever in the kind's radix, which lists no selector
    code, out = run(capsys, "eval", family, "--alphas", "")
    assert code == 0 and json.loads(out)["value"] == value


@pytest.mark.parametrize(
    "family, error",
    [
        (f"S(s={10**52})", f"S(s={10**52}) has over 1000000 selectors, above the cap"),
        (f"MDper(s={10**200},m=[3])", f"MDper(s={10**200},m=[3]) has over 1000000 selectors, above the cap"),
        # two selectors, but eps = s^-10 at the default --scales rounds to float 0
        (f"Blocks(s={10**52},B=[0;1])", f"--scales n_hi = 10 makes eps = {10**52}^-10 round to float 0; lower n_hi"),
    ],
    ids=("S", "MDper", "Blocks"),
)
def test_boxcount_refuses_huge_bases_before_walking(capsys, family, error):
    start = time.perf_counter()
    assert main(["boxcount", family]) == 1
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


def test_boxcount_runs_a_huge_base_at_short_scales(capsys):
    code, out = run(capsys, "boxcount", f"Blocks(s={10**52},B=[0;1])", "--scales", "0:2")
    assert code == 0 and out.splitlines()[:4] == ["eps,count", "1,1", "1e-52,2", "1e-104,4"]


@pytest.mark.parametrize("family, depth", [("S(s=1415)", "0"), ("Tilde(s=200)", "1")])
def test_enumerate_refuses_the_block_tables_eval_refuses(capsys, family, depth):
    # the table's digits are counted from s, so no block is made before the refusal
    error = f"error: {family} blocks hold over 1000000 digits, above the cap\n"
    for argv in (("eval", family, "--alphas", "1"), ("enumerate", family, "--depth", depth), ("boxcount", family)):
        start = time.perf_counter()
        assert main(list(argv)) == 1
        assert time.perf_counter() - start < 0.1, argv
        assert capsys.readouterr() == ("", error), argv


def test_dim_reads_no_table_of_a_periodic_gap_family(capsys):
    # only `degenerate` reads its selectors, counted from the spec, so no table is built
    with pytest.raises(CapExceededError, match="blocks hold over 1000000 digits"):
        families.digit_maps(parse_family("MDper(s=100000,m=[11])"), 0)
    code, out = run(capsys, "dim", "MDper(s=100000,m=[11])")
    assert code == 0 and out == (
        '{"family":"MDper(s=100000,m=[11])","alpha":0.0909090909091,"method":"periodic","residual":0,'
        '"bracket":[0.0909090909091,0.0909090909091],"iterations":0,"degenerate":false,"note":"exact 1/11"}\n'
    )


def test_md_gaps_are_capped(capsys):
    # a gap of 4,000,001 would write a 4,000,000-digit block
    start = time.perf_counter()
    assert main(["eval", "MD(s=2)", "--alphas", "4000001:1"]) == 1
    assert time.perf_counter() - start < 0.5
    assert "above the cap" in capsys.readouterr().err


@pytest.fixture
def int_str_limit():
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


def test_convert_length_fits_int_string_limit(capsys, int_str_limit):
    # at base 3 the printed denominators pass 4300 digits from length 9013 on
    int_str_limit(4300)
    argv = ["convert", "--base", "3", "--digits", "0,2", "--target", "negasadic", "--length"]
    code, out = run(capsys, *argv, "9000")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
        "acf4fef6364549320bab4fdc1eb86f06a9c45937011a0e9be3580472b123f3ed"
    )
    for length in ("9100", "100000", "1" + "0" * 400):  # the last is past any float
        start = time.perf_counter()
        assert main(argv + [length]) == 1
        assert time.perf_counter() - start < 0.5
        assert "sys.get_int_max_str_digits()" in capsys.readouterr().err
    int_str_limit(0)  # no limit: nothing is refused
    assert main(argv + ["9100"]) == 0


def test_md_eval_fits_int_string_limit(capsys, int_str_limit):
    # the denominator is 2^(sum of gaps): 4300 digits at gap 14283, more from 14285
    int_str_limit(4300)
    code, out = run(capsys, "eval", "MD(s=2)", "--alphas", "14283:1")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
        "a15f934e5e43426903524fd205f682beb179c7229aa6892057d641ea6dc51a76"
    )
    for alphas in ("14285:1", "999999:1", "7001:1,7285:1"):
        start = time.perf_counter()
        assert main(["eval", "MD(s=2)", "--alphas", alphas]) == 1
        assert time.perf_counter() - start < 0.1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "sys.get_int_max_str_digits()" in captured.err
    # the --tail gaps count too
    assert main(["eval", "MD(s=2)", "--alphas", "7001:1", "--tail", "7285:1"]) == 1
    assert "sys.get_int_max_str_digits()" in capsys.readouterr().err
    int_str_limit(0)  # no limit: nothing is refused
    assert main(["eval", "MD(s=2)", "--alphas", "14285:1"]) == 0
    capsys.readouterr()


def test_eval_and_cylinder_fit_int_string_limit(capsys, int_str_limit):
    # at a limit of 4300 an integer of the value or the interval passes it
    # one selector after the longest list that prints
    int_str_limit(4300)
    cases = [
        (("eval", "S(s=3)", "--alphas"), ["2"], 4506, "the value of --alphas with 4507 selectors",
         "7f95e7b24e6ed9da72ce848118ea63af4021457f4c61e55bde7bae2f9286a965"),
        (("eval", "S(s=3)", "--alphas", "", "--tail"), ["1"], 4506,
         "the value of --alphas with 0 selectors and --tail with 4507 selectors",
         "823b8945c29a9b2c95f485964731b2df8f51a2b7741053e4f494a5dff03f52f4"),
        (("cylinder", "S(s=3)", "--addr"), ["2"], 4505, "the cylinder of --addr with 4506 selectors",
         "642d09341cf7f713cdd1edda7206862ba6e214c8b2bbb605e2276ca09767e881"),
        (("cylinder", "Tilde(s=4)", "--addr"), ["2"], 3569, "the cylinder of --addr with 3570 selectors",
         "e92e72a880505735e02e10708b8ec60fc5a8f99a007c87bd7b7dca8d6a1e089b"),
    ]
    for head, first, fits, refusal, digest in cases:
        selectors = first + ["2"] * (fits - 1)
        code, out = run(capsys, *head, ",".join(selectors))
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
        assert main([*head, ",".join(selectors + ["2"])]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {refusal} has an integer of over 4300 digits, above sys.get_int_max_str_digits()\n"
        )
    int_str_limit(0)  # no limit: nothing is refused
    assert main(["eval", "S(s=3)", "--alphas", ",".join(["2"] * 4507)]) == 0
    assert main(["cylinder", "S(s=3)", "--addr", ",".join(["2"] * 4506)]) == 0
    capsys.readouterr()


def test_cover_fits_int_string_limit(capsys, int_str_limit):
    # S(s=30)'s sums pass 4300 digits at depth 101, well before the rank cap
    int_str_limit(4300)
    assert main(["cover", "S(s=30)", "--depth", "100"]) == 0
    capsys.readouterr()
    assert main(["cover", "S(s=30)", "--depth", "101"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: the covering sums to --depth 101 have an integer of over 4300 digits,"
        " above sys.get_int_max_str_digits()\n"
    )


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("cantorkit ")]
    assert len(examples) == 13
    for argv in examples:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()


def test_a_closed_pipe_ends_quietly():
    # 19683 lines of 18 bytes: more than a pipe holds, so the write meets the
    # closed reader
    src = os.path.dirname(os.path.dirname(cantorkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "cantorkit", "enumerate", "S(s=4)", "--depth", "9"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"1 1 1 1 1 1 1 1 1\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_boxcount_refuses_md_as_cover_and_enumerate_do(capsys):
    for command in ("boxcount", "cover", "enumerate"):
        assert main([command, "MD(s=2)"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: MD has unbounded branching\n"


#: one family of each kind
EVERY_KIND = (
    "S(s=3)",
    "Su(s=5,u=2)",
    "NSu(s=4,u=1)",
    "Sminus(s=3)",
    "Tilde(s=4)",
    "MD(s=2)",
    "MDper(s=3,m=[3,5])",
    "Blocks(s=3,B=[0 2;1])",
    "Cantor(d=[3],I=[{0,2}])",
)

#: the runs that exit 1 at default flags; every other run exits 0
REFUSED_AT_DEFAULTS = {
    ("blocks", "Cantor(d=[3],I=[{0,2}])"),  # per-level digits, no blocks
    ("cylinder", "MD(s=2)"),  # unbounded branching: no local hull
    # no closed cylinder formula
    ("verify", "NSu(s=4,u=1)"),
    ("verify", "Tilde(s=4)"),
    ("verify", "MD(s=2)"),
    ("verify", "MDper(s=3,m=[3,5])"),
    ("verify", "Blocks(s=3,B=[0 2;1])"),
    ("verify", "Cantor(d=[3],I=[{0,2}])"),
    ("cover", "MD(s=2)"),
    ("enumerate", "Tilde(s=4)"),
    ("enumerate", "MD(s=2)"),
    ("boxcount", "MD(s=2)"),
}


def test_default_flags_on_every_kind(capsys):
    start = time.perf_counter()
    codes = {}
    for command in ("dim", "blocks", "cylinder", "verify", "cover", "boxcount", "enumerate"):
        for family in EVERY_KIND:
            codes[command, family] = main([command, family])
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err, (command, family)
            if codes[command, family]:
                assert captured.out == "" and captured.err.startswith("error: "), (command, family)
    assert time.perf_counter() - start < 5
    assert len(codes) == 63
    assert {run for run, code in codes.items() if code} == REFUSED_AT_DEFAULTS
    assert set(codes.values()) == {0, 1}


@pytest.mark.parametrize("family", EVERY_KIND + ("Cantor(d=[4,5],I=[{0,3},{1,2,4}])",))
def test_dim_csv_rows_have_five_fields(capsys, family):
    code, out = run(capsys, "dim", family, "--format", "csv")
    header, row = csv.reader(out.splitlines())
    assert code == 0 and len(header) == len(row) == 5
    assert parse_family(row[0]) == parse_family(family)
