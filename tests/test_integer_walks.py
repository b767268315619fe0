"""The cylinder walks build no `Fraction` per node.

`verify_family` and the box-count walk step on integer frames and integer
closed forms and build `Fraction`s only for their per-walk constants, per
depth or per scale results, and failure text.  Counting every `Fraction`
construction pins that down without timing anything: the count must not
grow with the number of nodes a walk visits.  The box counts' type
recursion is pinned the same way: past the level where its types close,
neither its types nor its `Fraction`s grow with the finest scale.  So are
the phase system's kernels, which step integer numerators: the hull solve
builds no `Fraction`, the oracle none at any depth, and the covering sums
one per rank.  The `cover` and `boxcount` commands build none at all, on a
family of every kind: the hull ends stay integers from the solve to the
printed row.  So are the radix conversions: an evaluation builds one
`Fraction`, in every series, and `convert` builds as many at any length.
"""

from fractions import Fraction

import pytest

import cantorkit.boxcount as bc
import cantorkit.cylinders as cyl
import cantorkit.families as families
from cantorkit import (
    DigitString,
    box_dimension,
    covering_sums,
    eval_cantor,
    eval_negas_cantor,
    eval_negasadic,
    eval_sadic,
    parse_family,
    verify_family,
)
from cantorkit.cli import main
from conftest import clear_caches


def _fractions_built(monkeypatch, run) -> int:
    """`Fraction`s constructed by run(), from cold caches."""
    clear_caches()
    count = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        run()
    return count


def test_verify_builds_no_fraction_per_node(monkeypatch):
    fam = parse_family("S(s=3)")
    # 2 run digits: 31 addresses at depth 4, 2047 at depth 10; the oracle
    # and the covering law step integers at any depth, so only the
    # per-walk constants are Fractions
    shallow = _fractions_built(monkeypatch, lambda: verify_family(fam, depth=4))
    deep = _fractions_built(monkeypatch, lambda: verify_family(fam, depth=10))
    assert deep == shallow, (shallow, deep)


def test_box_count_builds_no_fraction_per_node(monkeypatch):
    fam = parse_family("Tilde(s=3)")
    visits = []

    def box(n_hi):
        nodes = 1

        def counted_children(fam, frame):
            nonlocal nodes
            for child in families.child_frames(fam, frame):
                nodes += 1
                yield child

        with monkeypatch.context() as patch:
            patch.setattr(bc, "child_frames", counted_children)
            built = _fractions_built(monkeypatch, lambda: bc._cover_counts(fam, range(2, n_hi + 1), 10**6, bc._mesh(fam)))
        visits.append(nodes)
        return built

    coarse, fine = box(7), box(9)
    assert fine - coarse < (visits[1] - visits[0]) // 10, (coarse, fine, visits)


def test_box_types_stop_growing_with_the_finest_scale(monkeypatch):
    # Tilde(s=3)'s cell types all appear by level 7: two finer scales split
    # no new type and build no new Fraction
    fam = parse_family("Tilde(s=3)")
    split = []

    def box(n_hi):
        types = 0

        def counted_split(*args):
            nonlocal types
            types += 1
            return true_split(*args)

        with monkeypatch.context() as patch:
            patch.setattr(bc, "_subcell_types", counted_split)
            built = _fractions_built(monkeypatch, lambda: box_dimension(fam, 2, n_hi))
        split.append(types)
        return built

    true_split = bc._subcell_types
    assert box(9) == box(7) and split[0] == split[1] > 0, split


def test_covering_sums_build_one_fraction_per_rank(monkeypatch):
    fam = parse_family("S(s=3)")
    shallow = _fractions_built(monkeypatch, lambda: covering_sums(fam, 10))
    deep = _fractions_built(monkeypatch, lambda: covering_sums(fam, 40))
    assert deep - shallow <= (40 - 10) + 2, (shallow, deep)


ORACLE_FAMILIES = ["S(s=3)", "Tilde(s=4)", "MDper(s=3,m=[3,5])", "Cantor(d=[3,4,5],I=[{0,2},{1,3},{0,4}])"]


@pytest.mark.parametrize("text", ORACLE_FAMILIES)
def test_oracle_builds_no_fraction_per_level(monkeypatch, text):
    fam = parse_family(text)
    shallow = _fractions_built(monkeypatch, lambda: cyl._oracle_local(fam, 6, 0))
    deep = _fractions_built(monkeypatch, lambda: cyl._oracle_local(fam, 30, 0))
    assert deep <= shallow, (shallow, deep)


@pytest.mark.parametrize("text", ["MDper(s=5,m=[3,3,7])", "Cantor(d=[3,4,5],I=[{0,2},{1,3},{0,4}])"])
def test_hull_solve_builds_no_fraction(monkeypatch, text):
    fam = parse_family(text)
    assert len(cyl._phase_maps(fam)) > 1
    assert _fractions_built(monkeypatch, lambda: cyl._local_hulls(fam)) == 0


#: a family of every kind but MD, whose cover is refused, and NSu at u = 0 and u > 0
EVERY_KIND = [
    "S(s=4)",
    "Su(s=5,u=2)",
    "NSu(s=4,u=0)",
    "NSu(s=5,u=2)",
    "Sminus(s=4)",
    "Tilde(s=4)",
    "Blocks(s=3,B=[0 2;1])",
    "MDper(s=3,m=[3,5])",
    "Cantor(d=[3,4,5],I=[{0,2},{1,3},{0,4}])",
]


@pytest.mark.parametrize("command", ["cover", "boxcount"])
@pytest.mark.parametrize("text", EVERY_KIND)
def test_cover_and_boxcount_build_no_fraction(monkeypatch, capsys, command, text):
    # the hull ends stay integers from the solve to the printed row, and
    # boxcount's solver column (a Cantor series' estimate included) builds none
    argv = [command, text] + ["--depth", "6"] * (command == "cover")
    codes = []
    assert _fractions_built(monkeypatch, lambda: codes.append(main(argv))) == 0
    assert codes == [0], capsys.readouterr().err


def test_md_box_count_builds_no_fraction(monkeypatch, capsys):
    # MD's box counts read its one-phase system, as every other kind's do
    codes = []
    assert _fractions_built(monkeypatch, lambda: codes.append(main(["boxcount", "MD(s=3)"]))) == 0
    assert codes == [0], capsys.readouterr().err


def test_clear_caches_empties_every_table():
    verify_family(parse_family("S(s=3)"), depth=2)
    families.family_blocks(parse_family("Tilde(s=3)"))
    caches = (cyl._local_hulls, cyl._oracle_local, cyl._phase_maps, families._system_maps, families.family_blocks)
    assert all(cache.cache_info().currsize for cache in caches)
    clear_caches()
    assert not any(cache.cache_info().currsize for cache in caches)


_FIFTY = tuple(range(7)) * 7 + (3,)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: eval_sadic(DigitString(7, _FIFTY)),
        lambda: eval_negasadic(DigitString(7, _FIFTY), (1, 6, 2)),  # 2 at the term-by-term tail
        lambda: eval_cantor(tuple(e % 3 for e in _FIFTY), (3, 4, 5), alternating=True),  # 126 term by term
        lambda: eval_negas_cantor(_FIFTY, tuple(range(1, 51)), 7),  # 101 term by term
    ],
    ids=["sadic", "negasadic-tail", "alternating-cantor", "negas-cantor"],
)
def test_eval_sadic_builds_one_fraction(monkeypatch, evaluate):
    assert len(_FIFTY) == 50
    assert _fractions_built(monkeypatch, evaluate) == 1


def test_convert_builds_no_fraction_per_digit(monkeypatch, capsys):
    def convert(length):
        return lambda: main(["convert", "--base", "3", "--digits", "0,2", "--target", "negasadic", "--length", length])

    short = _fractions_built(monkeypatch, convert("8"))
    long = _fractions_built(monkeypatch, convert("200"))
    capsys.readouterr()
    assert long <= short, (short, long)
