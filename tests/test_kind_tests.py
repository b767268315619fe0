"""A ratchet on the lines that test a family's kind: each kind is meant to be
described once, by its digit runs, so a new parallel `fam.kind == ...` chain
fails here and its count is raised in review or the chain is folded away."""

import re
from pathlib import Path

import cantorkit

#: `kind ==`, `kind !=`, `kind in` and `kind not in`, each followed by a space
KIND_TEST = re.compile(r"\bkind (==|!=|in|not in)\s")

#: the most kind-test lines each module may hold; any other module none
CEILINGS = {"families.py": 14, "cylinders.py": 5, "dimension.py": 4, "cli.py": 3}


def kind_test_lines(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if KIND_TEST.search(line))


def test_no_module_adds_a_kind_test():
    src = Path(cantorkit.__file__).parent
    counts = {path.name: kind_test_lines(path) for path in sorted(src.glob("*.py"))}
    over = {name: n for name, n in counts.items() if n > CEILINGS.get(name, 0)}
    assert not over, f"kind-test lines above the ceiling {CEILINGS}: {over}"


def test_the_pattern_reads_every_form_of_a_kind_test():
    lines = ['fam.kind == "S"', 'fam.kind != "MD"', 'fam.kind in ("S", "Su")', "fam.kind not in KINDS"]
    assert all(KIND_TEST.search(line) for line in lines)
    assert not any(KIND_TEST.search(line) for line in ("kind = fam.kind", "kindred == 1", "_kind(fam, phase)"))
