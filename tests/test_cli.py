import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import cantorkit
from cantorkit.cli import _COMMANDS, _command_parser, build_parser, main
from cantorkit.errors import CantorkitError


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


def test_dim_md_has_cross_check(capsys):
    code, out = run(capsys, "dim", "MD(s=2)")
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "closed-cubic"
    assert abs(payload["alpha"] - payload["cross_check"]) <= 1e-10


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
    names = {p["name"] for p in payload["properties"]}
    assert {"interval-vs-oracle", "ratio-law", "sibling-gaps", "ordering"} <= names


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


def test_enumerate(capsys):
    _, out = run(capsys, "enumerate", "Su(s=5,u=2)", "--depth", "1")
    assert out.strip().splitlines() == ["1", "3", "4"]


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


def test_blocks_output(capsys):
    _, out = run(capsys, "blocks", "Tilde(s=4)")
    payload = json.loads(out)
    assert payload["count"] == 7
    assert payload["histogram"] == {"1": 1, "2": 3, "3": 3}
    assert main(["blocks", "Tilde(s=3000)"]) == 1


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


def test_back_to_back_commands_share_one_parser(capsys):
    assert build_parser() is build_parser()
    for name in _COMMANDS:
        assert _command_parser(name) is _command_parser(name)
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


#: one run of each command
EVERY_COMMAND = (
    ("dim", "S(s=3)"),
    ("blocks", "S(s=3)"),
    ("eval", "S(s=3)", "--alphas", "2,1"),
    ("cylinder", "S(s=3)", "--addr", "1"),
    ("verify", "S(s=3)", "--depth", "2"),
    ("cover", "S(s=3)", "--depth", "2"),
    ("boxcount", "S(s=3)", "--scales", "2:7"),
    ("enumerate", "S(s=3)", "--depth", "1"),
    ("convert", "--base", "3", "--digits", "0,2", "--target", "negasadic"),
)


def test_a_command_builds_only_its_own_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert [argv[0] for argv in EVERY_COMMAND] == list(_COMMANDS)
    tree = ["cantorkit"] + [f"cantorkit {name}" for name in _COMMANDS]
    for argv, parsers in [(argv, [f"cantorkit {argv[0]}"]) for argv in EVERY_COMMAND] + [
        (["-h"], tree),
        ([], tree),
        (["bogus"], tree),
    ]:
        build_parser.cache_clear()
        _command_parser.cache_clear()
        built.clear()
        assert main(list(argv)) == (1 if argv in ([], ["bogus"]) else 0)
        assert built == parsers, argv
    capsys.readouterr()


def test_importing_the_cli_builds_no_parser():
    # -S: no site-packages .pth file pre-imports a module the package would not load;
    # the records need no dataclasses or inspect, the box-count fit no statistics
    src = os.path.dirname(os.path.dirname(cantorkit.__file__))
    script = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import cantorkit.cli\n"
        "print(len(built), sorted({'dataclasses', 'inspect', 'statistics'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")


def run_full_tree(argv) -> int:
    """Parse `argv` with the whole `build_parser()` tree and run its handler."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (CantorkitError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


#: unrecognized arguments: the one case where a command's own parser prints
#: its own usage line, not the top-level one
UNRECOGNIZED = [("dim", "S(s=3)", "--depth", "3"), ("dim", "S(s=3)", "extra")]


@pytest.mark.parametrize(
    "argv",
    [
        ("-h",),
        ("dim", "-h"),
        ("eval", "-h"),
        ("convert", "-h"),
        (),
        ("bogus",),
        ("dim",),
        ("verify", "S(s=3)", "--cap", "0"),
        ("verify", "S(s=3)", "--format", "csv"),
        ("boxcount", "S(s=3)", "--scales", "x:4"),
        ("convert", "--base", "3"),
        ("cover", "S(s=3)", "--dep", "2"),
        ("cover", "S(s=3)", "--depth=2"),
        ("dim", "--", "S(s=3)"),
        ("--", "dim", "S(s=3)"),
        ("--", "dim"),
        ("cylinder", "S(s=3)", "--addr", "1", "--child", "x"),
        *UNRECOGNIZED,
    ],
)
def test_a_command_parser_parses_like_the_full_tree(capsys, argv):
    code = main(list(argv))
    own = capsys.readouterr()
    assert code == run_full_tree(list(argv))
    tree = capsys.readouterr()
    assert own.out == tree.out
    if argv in UNRECOGNIZED:
        assert own.err.startswith(f"usage: cantorkit {argv[0]} [-h] ")
        assert tree.err.startswith("usage: cantorkit [-h]")
        assert own.err[own.err.index("\nerror: ") :] == tree.err[tree.err.index("\nerror: ") :]
    else:
        assert own.err == tree.err


@pytest.mark.parametrize("argv", [("cover", "S(s=3)", "--depth", "3"), ("--help",)])
def test_the_module_entry_point_runs_main(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
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


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "S(s=3)", "--alphas", "x"),
        ("eval", "S(s=3)", "--alphas", "1,x"),
        ("eval", "MD(s=2)", "--alphas", "3"),
        ("cylinder", "S(s=3)", "--addr", "1,x"),
        ("convert", "--base", "3", "--digits", "0,x", "--target", "negasadic"),
        ("boxcount", "S(s=3)", "--scales", "5:4"),
        ("convert", "--base", "3", "--digits", "0,2", "--target", "negasadic", "--length", "-1"),
        ("enumerate", "S(s=3)", "--depth", "-1"),
        ("boxcount", "S(s=3)", "--scales=-3:2"),
        ("enumerate", "S(s=3)", "--depth", "0", "--cap", "-1"),
        ("cover", "S(s=3)", "--depth", "0", "--cap", "0"),
        ("boxcount", "S(s=3)", "--cap", "0"),
        ("verify", "S(s=3)", "--cap", "1.5"),
    ],
)
def test_bad_input_is_an_error_not_a_traceback(capsys, argv):
    assert main(list(argv)) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


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
    ("cover", "Tilde(s=4)"),  # 7^8 addresses at depth 8, above the cap
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
