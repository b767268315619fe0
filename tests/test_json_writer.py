"""The CLI's JSON writer, pinned to the `json.dumps` writer it replaced.

`cli._jdump` dispatches on each value's exact type and escapes strings with
the C escaper `json.dumps` uses.  `reference_jdump` is the earlier writer,
one `json.dumps` call per string and `isinstance` tests; both must give the
same text on every payload of the types the CLI writes.
"""

import json
import math
import shlex
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorkit.cli as cli
from cantorkit.cli import _jdump, main


def reference_jdump(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, float):
        return f"{obj:.12g}"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{reference_jdump(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_jdump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialise {type(obj)}")


# every code point, lone surrogates and control characters included
_text = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, categories=None, exclude_categories=()))
_scalars = st.one_of(
    _text,
    st.integers(),
    st.integers(-(2**12000), 2**12000),  # up to about 3,600 digits, under the int-to-str limit
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308)),
    st.fractions(),
)
_payloads = st.recursive(
    _scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(st.one_of(_text, st.integers()), kids, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_payloads)
def test_writer_equals_the_reference(payload):
    assert _jdump(payload) == reference_jdump(payload)


@pytest.mark.parametrize("payload", [{1, 2}, object(), [1, {"a": frozenset()}], {"a": (1, object())}])
def test_writer_refuses_other_types(payload):
    with pytest.raises(TypeError):
        _jdump(payload)
    with pytest.raises(TypeError):
        reference_jdump(payload)


_EXACT = {str, int, float, bool, type(None), Fraction, dict, list, tuple}


@pytest.mark.parametrize(
    "command",
    [
        'dim "S(s=3)"',
        'dim "MD(s=3)"',
        'dim "Cantor(d=[3],I=[{0,2}])"',
        'dim "MDper(s=3,m=[3,5])"',
        'dim "Blocks(s=2,B=[1])"',
        'blocks "Tilde(s=4)"',
        'blocks "MD(s=3)"',
        'eval "MD(s=3)" --alphas 3:2,3:1 --tail 5:1',
        'eval "Cantor(d=[3],I=[{0,2}])" --alphas 2,0,2',
        'eval "Su(s=5,u=2)" --alphas 3 --tail 1,4',
        'cylinder "S(s=3)" --addr 1 --child 1',
        'cylinder "MDper(s=3,m=[3,5])" --addr 2,0',
        'verify "S(s=3)" --depth 2 --format json',
        'enumerate "S(s=3)" --depth 2 --format json',
        "convert --base 3 --digits 0,2 --target negasadic",
        "convert --base 6 --digits 0,5,1,3 --source negasadic --target sadic --length 12",
    ],
)
def test_every_cli_payload_holds_exact_types(monkeypatch, capsys, command):
    seen = set()
    write = cli._jdump

    def recording(obj):
        seen.add(type(obj))
        return write(obj)

    monkeypatch.setattr(cli, "_jdump", recording)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out.startswith("{")
    assert seen <= _EXACT, seen - _EXACT
