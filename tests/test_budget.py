"""The walk budget: each walk's size is counted before it starts, exactly,
and only the budget and the table guards refuse anything at a cap."""

import ast
import time
from pathlib import Path

import pytest

import cantorkit
from cantorkit import CapExceededError, enumerate_addresses, parse_family, verify_family
from cantorkit.cli import main
from cantorkit.cylinders import _has_closed_form
from cantorkit.families import walk_size
from conftest import clear_caches

#: every kind with a map table, NSu with u = 0 and u > 0, a block list with a
#: block that is a prefix of another, two gap phases, a two-phase Cantor series
KINDS = (
    "S(s=3)",
    "Su(s=5,u=2)",
    "NSu(s=4,u=0)",
    "NSu(s=4,u=1)",
    "Sminus(s=3)",
    "Tilde(s=4)",
    "Blocks(s=3,B=[0;0 2;1])",
    "MDper(s=3,m=[3,5])",
    "Cantor(d=[4,5],I=[{0,3},{1,2,4}])",
)


@pytest.mark.parametrize("text", KINDS)
def test_predicted_rank_walks_are_the_walked_ones(text):
    fam = parse_family(text)
    for depth in range(5):
        predicted = walk_size(fam, depth)
        assert predicted == sum(len(enumerate_addresses(fam, r)) for r in range(depth + 1)), (text, depth)
        if _has_closed_form(fam):  # the kinds `verify` walks
            report = verify_family(fam, depth)
            assert report.results[0].name == "interval-vs-oracle"
            assert report.results[0].checked == predicted, (text, depth)
            checked = {r.name: r.checked for r in report.results}
            assert checked["nesting"] == predicted - 1, (text, depth)
            pairs = len(enumerate_addresses(fam, depth)) - 1  # each inner node's children less one
            assert checked["sibling-gaps"] == checked["ordering"] == pairs, (text, depth)


def test_rank_walks_are_refused_one_cylinder_past_the_cap():
    s3 = parse_family("S(s=3)")
    assert walk_size(s3, 18) == 2**19 - 1
    with pytest.raises(CapExceededError, match=r"^1048575\+ cylinders in ranks 0\.\.19: above the cap 1000000"):
        walk_size(s3, 19)
    assert walk_size(s3, 5, cap=63) == 63
    with pytest.raises(CapExceededError, match=r"^63\+ cylinders in ranks 0\.\.5: above the cap 62"):
        walk_size(s3, 5, cap=62)


@pytest.mark.parametrize(
    "argv, says",
    [
        (("verify", "Su(s=3,u=1)", "--depth", "3000"), "912+ ranks of 1098 denominator digits"),
        (("verify", "Su(s=3,u=1)", "--depth", "100000", "--cap", "5"), "; lower --depth"),
        (("enumerate", "Su(s=3,u=1)", "--depth", "1000000"), "1000001+ cylinders in ranks 0..1000000"),
        (("enumerate", "S(s=3)", "--depth", "19"), "above the cap 1000000; lower --depth or raise --cap"),
        (
            ("boxcount", "Tilde(s=10)", "--cap", "1000"),
            "1002+ word steps splitting cell types to eps=10^-10: above the cap 1000; lower --scales",
        ),
    ],
)
def test_walks_past_the_budget_are_refused_before_they_start(capsys, argv, says):
    start = time.perf_counter()
    assert main(list(argv)) == 1
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and says in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("boxcount", "S(s=3)", "--scales", "4:40"),  # 5 types; the walk would visit 1346268+ cylinders
        ("boxcount", "S(s=3)", "--scales", "4:600"),
        ("boxcount", "Tilde(s=7)"),  # 330 types split; 1031525+ cylinders
        ("boxcount", "S(s=1000)"),  # 99 types, some of about 1,000 pieces, on integers of about 20,000 bits
        ("boxcount", "S(s=1000)", "--scales", "0:3"),
    ],
)
def test_box_counts_are_budgeted_by_their_own_work(capsys, argv):
    # a count by cell types is admitted by the work of splitting its types,
    # not by the cylinders a walk to the finest scale would visit
    clear_caches()  # the hull solve is part of the time
    start = time.perf_counter()
    code = main(list(argv))
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.startswith("eps,count\n") and captured.err == ""
    else:
        assert argv[1] == "S(s=1000)" and code == 1 and captured.out == ""
        assert "--scales" in captured.err and "--cap" in captured.err


def test_verify_runs_to_the_last_rank_the_digit_rule_admits(capsys):
    assert main(["verify", "Su(s=3,u=1)", "--depth", "911"]) == 0
    assert capsys.readouterr().out.endswith("RESULT: all properties hold\n")


def _cap_raisers() -> set[tuple[str, str]]:
    """(module, function) of every function under the package that raises
    CapExceededError itself."""
    found = set()
    for path in Path(cantorkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for raised in ast.walk(node):
                    exc = getattr(raised, "exc", None) if isinstance(raised, ast.Raise) else None
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    if isinstance(exc, ast.Name) and exc.id == "CapExceededError":
                        found.add((path.stem, node.name))
    return found


def test_only_the_budget_and_the_table_guards_raise_at_a_cap():
    # a walk that grew its own size rule would show here
    assert _cap_raisers() == {
        ("families", "walk_size"),
        ("families", "box_walk"),
        ("families", "type_work"),
        ("families", "denominator_digits"),
        ("families", "_system_maps"),
        ("families", "_md_pair"),
    }
