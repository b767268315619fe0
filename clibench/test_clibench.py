"""Tests for the benchmark's own logic.

    python3 -m pytest clibench -q
"""

import json
import sys
import types

import pytest

import run
from checks import boxcount_boxes, check_output
from tracer import Tracer, summarize
from workloads import BOXCOUNT, COVER, VERIFY, Op, tree_size


def test_self_time_on_a_nested_call_tree():
    # a[0,10] -> b[1,4] -> c[2,3];  a -> b[5,9] -> b[6,8] (recursion)
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b", 6.0, 8.0, 3),
    ]
    stats = summarize(spans)["functions"]
    assert stats["a"] == [1, 10 - 3 - 4, 10]
    assert stats["c"] == [1, 1, 1]
    # b: (3 - 1) + (4 - 2) + 2 self; total counts the outermost b spans only
    assert stats["b"] == [3, 6, 3 + 4]


def test_hulls_in_boxes_need_a_box_ancestor():
    spans = [
        ("boxcount.boxes_at_scale", 0.0, 5.0, -1),
        ("families.address_frame", 0.5, 0.6, 0),
        ("cylinders.cylinder_hull", 1.0, 2.0, 0),
        ("cylinders.cylinder_hull", 6.0, 7.0, -1),
    ]
    assert summarize(spans)["hulls_in_boxes"] == 1


def test_tracer_records_spans_through_a_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans() == [("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]


def test_install_rebinds_every_public_binding_and_reports_absent(monkeypatch):
    def address_frame(fam, addr):
        return ("frame", addr)

    def cylinder_hull(fam, addr):
        return fam_mod.address_frame(fam, addr)

    pkg = types.ModuleType("fakekit")
    fam_mod = types.ModuleType("fakekit.families")
    cyl = types.ModuleType("fakekit.cylinders")
    fam_mod.address_frame = address_frame
    cyl.address_frame = address_frame  # as `from .families import address_frame`
    cyl._private_alias = address_frame
    cyl.cylinder_hull = cylinder_hull
    pkg.address_frame = address_frame
    for mod in (pkg, fam_mod, cyl):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer()
    tracer.install("fakekit")
    assert cyl.address_frame is not address_frame
    assert pkg.address_frame is fam_mod.address_frame is cyl.address_frame
    assert cyl._private_alias is address_frame
    assert cyl.cylinder_hull(None, (1,)) == ("frame", (1,))
    assert [s[0] for s in tracer.spans()] == ["cylinders.cylinder_hull", "families.address_frame"]
    assert "kernels.local_extrema" in tracer.absent
    assert "families.address_frame" not in tracer.absent


def test_work_units():
    assert VERIFY[0].argv == ("verify", "S(s=3)") and VERIFY[0].units == 511
    assert COVER[0].argv == ("cover", "S(s=4)", "--depth", "10") and COVER[0].units == 88_573
    assert tree_size(3, 0) == 1
    assert all(op.units is None for op in BOXCOUNT)
    csv = "eps,count\n0.1,3\n0.01,9\n# slope,0.5\n# r2,1\n"
    assert boxcount_boxes(csv) == 12


def test_checks_compare_exact_values_exactly_and_floats_within_tolerance():
    want = "depth,exact,float\n0,1/4,0.25\n1,1/9,0.111111111111\n"
    assert check_output("cover", 0, want.replace("0.111111111111", "0.1111111111111"), want) is None
    assert check_output("cover", 0, want.replace("1/9", "1/8"), want) is not None
    assert check_output("cover", 0, want.replace("0.25", "0.2501"), want) is not None
    box = "eps,count\n0.1,3\n# slope,0.630929753572\n"
    assert check_output("boxcount", 0, box.replace("3\n", "4\n"), box) is not None
    assert check_output("boxcount", 0, box.replace("753572", "753571"), box) is None
    dim = json.dumps({"alpha": 0.5, "method": "block-root", "iterations": 40})
    assert check_output("dim", 0, dim.replace("40", "41"), dim) is not None
    assert check_output("dim", 0, dim.replace("0.5", "0.5000000000001"), dim) is None
    assert check_output("verify", 0, "[pass] x\nRESULT: all properties hold\n", None) is None
    assert check_output("verify", 2, "[FAIL] x\nRESULT: FAILURES FOUND\n", None) == "exit 2"
    assert check_output("eval", 1, "", "{}") == "exit 1"


def _fake_child(exit_code=0, stdout="", sleep=0.0):
    record = {
        "exit": exit_code,
        "compute_s": 0.25,
        "loop_s": run.REF_LOOP_S,
        "setup_s": 0.1,
        "setup_loop_s": run.REF_LOOP_S,
        "rss_mb": 20.0,
        "stdout": stdout,
        "stderr": "boom",
    }
    code = f"import json, time; time.sleep({sleep}); print(json.dumps({record!r}))"
    return [sys.executable, "-c", code]


def test_each_failure_counts_once():
    op = Op(("enumerate", "S(s=3)", "--depth", "1"))
    expected = {op.key: {"stdout": "1\n2\n"}}
    outcomes = [
        run.run_op(op, expected, False, 10, cmd=_fake_child(stdout="1\n2\n")),
        run.run_op(op, expected, False, 10, cmd=_fake_child(exit_code=1)),
        run.run_op(op, expected, False, 0.5, cmd=_fake_child(sleep=30)),
        run.run_op(op, expected, False, 10, cmd=_fake_child(stdout="1\n3\n")),
    ]
    failures = [o.failure for o in outcomes]
    assert failures[0] is None
    assert failures[1].startswith("exit 1")
    assert failures[2] == "timeout"
    assert failures[3] == "output differs from the recorded result"
    assert [o.wrong for o in outcomes] == [False, False, False, True]
    assert [o.units for o in outcomes] == [1, 0, 0, 0]
    # the timed-out op counts with the time it took; the others with their own
    assert outcomes[2].compute_s == pytest.approx(0.5, abs=0.4)
    assert run.work_per_s(outcomes) == pytest.approx((1 / 4) / 0.25)
