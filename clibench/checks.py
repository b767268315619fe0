"""Output checks: every op's stdout against the output recorded at the seed.

Exact results (rationals, counts, integers, strings) must match exactly.
Floats, which the CLI prints with 12 significant digits, must match within
FLOAT_TOL.  `verify` must exit 0 with every property passing; its check
counts are not compared, since they report the suite's own bookkeeping.
"""

from __future__ import annotations

import json

FLOAT_TOL = 1e-9


def _float_close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def _same_json(got, want) -> bool:
    # json.loads reads "1" as int and "0.5" as float; a float field that
    # prints as an integer is compared by value like any other float
    if isinstance(got, bool) or isinstance(want, bool):
        return got is want
    if isinstance(got, float) or isinstance(want, float):
        return isinstance(got, (int, float)) and isinstance(want, (int, float)) and _float_close(got, want)
    if isinstance(want, dict):
        return isinstance(got, dict) and list(got) == list(want) and all(_same_json(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same_json, got, want))
    return type(got) is type(want) and got == want


def _same_row(got: str, want: str, float_columns: set[int]) -> bool:
    g, w = got.split(","), want.split(",")
    if len(g) != len(w):
        return False
    for i, (gi, wi) in enumerate(zip(g, w)):
        if gi == wi:
            continue
        if i not in float_columns:
            return False
        try:
            if not _float_close(float(gi), float(wi)):
                return False
        except ValueError:
            return False
    return True


def _same_csv(got: str, want: str, float_columns) -> bool:
    """Row-by-row compare; `float_columns(row)` names the float columns of a row."""
    got_rows, want_rows = got.strip().splitlines(), want.strip().splitlines()
    return len(got_rows) == len(want_rows) and all(
        _same_row(g, w, float_columns(w)) for g, w in zip(got_rows, want_rows)
    )


def check_output(command: str, exit_code: int, stdout: str, expected_stdout: str | None) -> str | None:
    """None when the op's result is right, else the reason it is not."""
    if exit_code != 0:
        return f"exit {exit_code}"
    if command == "verify":
        if "RESULT: all properties hold" not in stdout or "[FAIL]" in stdout:
            return "verify reports a failing property"
        return None
    if expected_stdout is None:
        return "no recorded output to compare"
    if command == "cover":  # depth,exact,float
        ok = _same_csv(stdout, expected_stdout, lambda row: {2})
    elif command == "boxcount":
        # "eps,count" rows hold a float and an exact count; "# name,value"
        # rows hold floats (slope, r2, solver alpha, gap)
        ok = _same_csv(stdout, expected_stdout, lambda row: {1} if row.startswith("#") else {0})
    elif command == "enumerate":
        ok = stdout == expected_stdout
    else:
        try:
            ok = _same_json(json.loads(stdout), json.loads(expected_stdout))
        except json.JSONDecodeError:
            ok = False
    return None if ok else "output differs from the recorded result"


def boxcount_boxes(stdout: str) -> int:
    """Sum of N(eps) over the scales of a `boxcount` CSV."""
    rows = stdout.strip().splitlines()[1:]
    return sum(int(r.split(",")[1]) for r in rows if not r.startswith("#"))
