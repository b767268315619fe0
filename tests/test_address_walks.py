"""An address is walked once.

Every function that reads an address folds its selectors through
`families._walk`, one `digit_maps` lookup per selector, and enumeration lists
addresses from `level_choices` without walking any.  The sibling checks and
the `cylinder` report walk their base address once and read its children's
frames from one more table.  Counting the lookups through a patched
`digit_maps` pins that down without timing anything.
"""

import pytest

import cantorkit.families as families
from cantorkit import (
    cylinder_report,
    enumerate_addresses,
    eval_family_point,
    expand_address,
    gap_interval,
    ordering_check,
    parse_family,
)
from cantorkit.families import address_frame


def _lookups(monkeypatch, run) -> int:
    """`digit_maps` calls made by run(); the table cache stays warm."""
    count = 0
    tables = families.digit_maps

    def counting(fam, phase):
        nonlocal count
        count += 1
        return tables(fam, phase)

    with monkeypatch.context() as patch:
        patch.setattr(families, "digit_maps", counting)
        run()
    return count


@pytest.mark.parametrize(
    "text, addr",
    [
        ("Blocks(s=3,B=[0 2;1])", (0, 1, 1, 0, 1, 0)),
        ("S(s=4)", (3, 1, 2, 2)),
        ("MDper(s=3,m=[3,5])", (2, 0, 1)),
        ("Cantor(d=[4,5],I=[{0,3},{1,2,4}])", (3, 4, 0, 2, 3)),
    ],
)
def test_one_lookup_per_selector(monkeypatch, text, addr):
    fam = parse_family(text)
    runs = [lambda: address_frame(fam, addr), lambda: eval_family_point(fam, addr)]
    if fam.kind != "Cantor":
        runs.append(lambda: expand_address(fam, addr))
    for run in runs:
        assert _lookups(monkeypatch, run) == len(addr), text


@pytest.mark.parametrize("text", ["Blocks(s=3,B=[0 2;1])", "Tilde(s=3)", "MDper(s=3,m=[3,5])"])
def test_enumeration_walks_no_address(monkeypatch, text):
    fam = parse_family(text)
    addrs = []
    assert _lookups(monkeypatch, lambda: addrs.extend(enumerate_addresses(fam, 4))) == 0
    assert addrs and all(len(a) == 4 for a in addrs)


def test_sibling_checks_walk_their_base_once(monkeypatch):
    fam, addr = parse_family("S(s=5)"), (1, 2, 3, 4, 1, 2)
    # the base, then the children's table: every sibling hull comes from it
    for run in (
        lambda: ordering_check(fam, addr),
        lambda: gap_interval(fam, addr, 1),
        lambda: cylinder_report(fam, addr, child=1),
    ):
        assert _lookups(monkeypatch, run) == len(addr) + 1
