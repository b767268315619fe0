"""Every benchmark op, replayed in-process against its recorded output.

`clibench/expected.json` records each op's exit code and stdout.  Every op
but `verify` must print exactly that, byte for byte, with the same exit
code.  A `verify` op is judged as the benchmark judges it
(`clibench/checks.check_output`: exit 0 and every property passing), since
its check counts are the suite's own bookkeeping.
"""

import importlib.util
import json
import shlex
from pathlib import Path

import pytest

from cantorkit.cli import main

CLIBENCH = Path(__file__).resolve().parent.parent / "clibench"
EXPECTED = json.loads((CLIBENCH / "expected.json").read_text())


def _load_checks():
    spec = importlib.util.spec_from_file_location("clibench_checks", CLIBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()


@pytest.mark.parametrize("key", list(EXPECTED))
def test_op_prints_its_recorded_output(capsys, key):
    argv = shlex.split(key)
    code = main(argv)
    out = capsys.readouterr().out
    want = EXPECTED[key]
    if argv[0] == "verify":
        assert checks.check_output("verify", code, out, want["stdout"]) is None, out
    else:
        assert (code, out) == (want["exit"], want["stdout"])
