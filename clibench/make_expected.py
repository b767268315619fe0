#!/usr/bin/env python3
"""Record every op's output at the current commit into expected.json.

    python3 clibench/make_expected.py

Run it only at a commit whose results are known to be right: the benchmark
checks every later commit against these outputs.  `seconds` is the op's
compute time here, which sets its timeout.
"""

import json
import sys

from run import EXPECTED, child_command, launch
from workloads import all_ops


def main() -> int:
    expected = {}
    for op in all_ops():
        record, err = launch(child_command(list(op.argv), False), 600)
        if record is None:
            sys.stderr.write(f"error: {op.key}: {err}\n")
            return 1
        expected[op.key] = {
            "exit": record["exit"],
            "stdout": record["stdout"],
            "seconds": round(record["compute_s"], 3),
        }
        print(f"{record['compute_s']:8.3f}s exit {record['exit']}  {op.key}")
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
