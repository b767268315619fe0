#!/usr/bin/env python3
"""End-to-end benchmark of the cantorkit CLI, one fresh process per op.

    python3 clibench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each op is one `cantorkit` command run by
`child.py` in a new interpreter against this checkout's `src/` (no install),
so module caches start cold as they do for a user.  One child runs at a time:
a closed loop with one client.  A run repeats whole passes over the
workload's ops, in an order drawn from the seed, while the next pass still
fits in `--seconds`.  Every op's output is checked against the output
recorded at the seed (`expected.json`).

Times are in calibrated seconds: seconds of a core that runs the child's
reference loop in REF_LOOP_S.  On a shared host a core's speed drifts by tens
of percent within seconds, and the child samples that speed while each op
runs (see `child.py`).  The raw figures are printed alongside.

`--trace 0` reports the end-to-end metrics:

* `work_per_s` (units/s): work units of ops that exited 0 and passed their
  check, over the in-process compute seconds (time inside `cli.main`) of all
  attempted ops, failed ones included, each op at its median over the passes;
* `setup_s` (s): median time from launching a child until `cantorkit.cli` is
  imported, over every op and set-up probe of the run;
* `peak_rss_mb` (MiB): the largest max-RSS of any child;
* `ok_ratio`: ops that passed over ops attempted.  An op fails on a non-zero
  exit, a timeout or an output mismatch.

`--trace 1` reports per-layer metrics instead: each pass runs untraced and
then traced, and the traced children record spans around the public
functions of each cantorkit module (see `tracer.py`).  Layer values are per
traced pass.  `trace.overhead` compares the two halves' `work_per_s`.

`--workload all` runs every workload in turn.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  `correct` is
false when an op returned a wrong result (a mismatched output, a failing
verification or a crash); a refusal (exit 1) or a timeout is a failure but
not a wrong result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import boxcount_boxes, check_output
from tracer import COUNTS, TRACED
from workloads import WORKLOADS, Op, workload_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"

#: the reference loop's time on a quiet core of an x86-64 cloud VM running
#: CPython 3.11; only ratios between runs matter
REF_LOOP_S = 130e-6
#: a timed-out op is killed after this multiple of its seed time, at least
#: MIN_TIMEOUT_S, so an unbounded enumeration cannot hang a run
TIMEOUT_FACTOR = 10
MIN_TIMEOUT_S = 10.0
#: no op may run past this point of a run; the process must exit by 180 s
HARD_LIMIT_S = 150.0
#: set-up-only launches per pass, so every workload has enough set-up samples
PROBES_PER_PASS = 4

END_TO_END_UNITS = {"work_per_s": "units/s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}


class GuardError(RuntimeError):
    """The benchmark cannot run against this checkout's code."""


@dataclass
class Outcome:
    op: Op
    #: compute seconds as measured, and the factor that calibrates them
    raw_compute_s: float
    speed: float = 1.0
    setup_s: float | None = None
    rss_mb: float | None = None
    failure: str | None = None
    wrong: bool = False
    units: int = 0
    record: dict | None = None

    @property
    def compute_s(self) -> float:
        return self.raw_compute_s * self.speed


def child_command(argv: list[str] | None, trace: bool) -> list[str]:
    return [sys.executable, str(CHILD), str(SRC), "1" if trace else "0", json.dumps(argv)]


def launch(cmd: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run one child; its record (None on timeout or a missing record) and stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env["CLIBENCH_LAUNCH"] = repr(time.perf_counter())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timeout"
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        record = None
    return record, err if record is None else ""


def calibrated_setup_s(record: dict) -> float:
    return record["setup_s"] * REF_LOOP_S / record["setup_loop_s"]


def run_op(op: Op, expected: dict, trace: bool, timeout: float, cmd: list[str] | None = None) -> Outcome:
    """Launch `op` in a child and classify the result; `cmd` replaces the child."""
    start = time.perf_counter()
    record, err = launch(cmd or child_command(list(op.argv), trace), timeout)
    if record is None:
        failure = "timeout" if err == "timeout" else f"child failed: {err.strip()[-300:]}"
        return Outcome(op, time.perf_counter() - start, failure=failure)
    want = expected.get(op.key, {})
    failure = check_output(op.argv[0], record["exit"], record["stdout"], want.get("stdout"))
    units = 0
    if failure is None:
        units = boxcount_boxes(record["stdout"]) if op.units is None else op.units
    elif record["exit"] != 0:
        failure += f": {record['stderr'].strip()[-300:]}"
    return Outcome(
        op,
        record["compute_s"],
        REF_LOOP_S / record["loop_s"],
        calibrated_setup_s(record),
        record["rss_mb"],
        failure,
        wrong=failure is not None and record["exit"] != 1,
        units=units,
        record=record,
    )


def probe() -> dict:
    """Set up without running an op; raises GuardError when the code under test is wrong."""
    record, err = launch(child_command(None, False), 60)
    if record is None:
        raise GuardError(f"cannot import cantorkit from {SRC}: {err.strip()[-500:]}")
    return record


def op_timeout(op: Op, expected: dict) -> float:
    seed_s = expected.get(op.key, {}).get("seconds", MIN_TIMEOUT_S)
    return max(MIN_TIMEOUT_S, TIMEOUT_FACTOR * seed_s)


def work_per_s(outcomes: list[Outcome], raw: bool = False) -> float:
    """Work units of passing ops over compute seconds of all ops, for one typical pass.

    Each op counts with its median compute time over the run's passes, and
    its units in proportion to the share of its runs that passed.
    """
    by_op: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_op.setdefault(o.op.key, []).append(o)
    units = sum(sum(o.units for o in runs) / len(runs) for runs in by_op.values())
    compute = sum(
        statistics.median(o.raw_compute_s if raw else o.compute_s for o in runs) for runs in by_op.values()
    )
    return units / compute if compute else 0.0


@dataclass
class WorkloadRun:
    name: str
    passes: int
    untraced: list[Outcome]
    traced: list[Outcome]
    #: (calibrated, raw) set-up seconds and max-RSS of the set-up probes
    probes: list[tuple[float, float, float]]

    @property
    def ops(self) -> list[Outcome]:
        return self.untraced + self.traced


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict) -> WorkloadRun:
    rng = random.Random(seed)
    ops = workload_ops(name, rng)
    # untimed: compiles bytecode once, so later set-ups measure what users pay
    probe()
    start = time.perf_counter()
    hard_stop = start + HARD_LIMIT_S
    run = WorkloadRun(name, 0, [], [], [])
    while True:
        order = rng.sample(ops, len(ops))
        for traced in (False, True) if trace else (False,):
            for op in order:
                left = hard_stop - time.perf_counter()
                if left <= 0:
                    break
                outcome = run_op(op, expected, traced, min(op_timeout(op, expected), left))
                (run.traced if traced else run.untraced).append(outcome)
        for _ in range(0 if trace else PROBES_PER_PASS):
            record = probe()
            run.probes.append((calibrated_setup_s(record), record["setup_s"], record["rss_mb"]))
        run.passes += 1
        now = time.perf_counter()
        per_pass = (now - start) / run.passes
        if now + per_pass > start + seconds or now >= hard_stop:
            return run


def end_to_end(run: WorkloadRun) -> dict:
    """Metric -> (value, sample count, raw value or None)."""
    ops = run.untraced
    launched = [o for o in ops if o.record is not None]
    setups = [o.setup_s for o in launched] + [p[0] for p in run.probes]
    raw_setups = [o.record["setup_s"] for o in launched] + [p[1] for p in run.probes]
    rss = [o.rss_mb for o in launched] + [p[2] for p in run.probes]
    return {
        "work_per_s": (work_per_s(ops), len(ops), work_per_s(ops, raw=True)),
        "setup_s": (statistics.median(setups), len(setups), statistics.median(raw_setups)),
        "peak_rss_mb": (max(rss), len(rss), None),
        "ok_ratio": (sum(o.failure is None for o in ops) / len(ops), len(ops), None),
    }


def per_layer(run: WorkloadRun) -> tuple[dict, list[str], dict]:
    """Per-traced-pass layer metrics, the absent functions, and each ratio's base."""
    calls, self_s, total_s, counts = {}, {}, {}, {}
    hulls_in_boxes = 0
    absent: set[str] = set()
    for o in run.traced:
        rec = o.record or {}
        for fn, (n, s, t) in rec.get("trace", {}).get("functions", {}).items():
            calls[fn] = calls.get(fn, 0) + n
            self_s[fn] = self_s.get(fn, 0.0) + s * o.speed
            total_s[fn] = total_s.get(fn, 0.0) + t * o.speed
        hulls_in_boxes += rec.get("trace", {}).get("hulls_in_boxes", 0)
        for k, v in rec.get("counts", {}).items():
            counts[k] = counts.get(k, 0) + v
        absent.update(rec.get("absent", ()))
    k = max(run.passes, 1)
    metrics = {}
    for fn in TRACED:
        metrics[f"{fn}.calls"] = (calls.get(fn, 0) / k, "count")
        metrics[f"{fn}.self_s"] = (self_s.get(fn, 0.0) / k, "s")
        metrics[f"{fn}.total_s"] = (total_s.get(fn, 0.0) / k, "s")
    for fn, what in COUNTS.items():
        metrics[f"{fn}.{what}"] = (counts.get(f"{fn}.{what}", 0) / k, "count")

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    oracle = calls.get("cylinders.tail_extrema_oracle", 0)
    kernel = calls.get("kernels.local_extrema", 0)
    boxes = counts.get("boxcount.boxes_at_scale.boxes", 0)
    frames = calls.get("families.address_frame", 0)
    untraced_wps = work_per_s(run.untraced)
    ratios = {
        "cylinders.oracle_reuse": (1 - ratio(kernel, oracle) if oracle else 0.0, f"{oracle / k:g} tail_extrema_oracle calls"),
        "boxcount.hulls_per_box": (ratio(hulls_in_boxes, boxes), f"{boxes / k:g} boxes"),
        "families.blocks_per_frame": (ratio(calls.get("families.family_blocks", 0), frames), f"{frames / k:g} address_frame calls"),
        "trace.overhead": (1 - ratio(work_per_s(run.traced), untraced_wps), f"untraced work_per_s {untraced_wps:.6g}"),
    }
    for name, (value, _) in ratios.items():
        metrics[name] = (value, "ratio")
    return metrics, sorted(absent), {name: base for name, (_, base) in ratios.items()}


def git_rev() -> str | None:
    # a checkout without .git may sit inside another repository
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def report(run: WorkloadRun, trace: bool) -> dict:
    """Print the run's human-readable lines; return its JSON metrics."""
    w = run.name
    failures: dict[str, str] = {}
    for o in run.ops:
        if o.failure is not None:
            failures.setdefault(o.op.key, o.failure)
    failed = sum(o.failure is not None for o in run.untraced)
    print(f"# {w}: {run.passes} passes, {len(run.untraced)} ops, {failed} failed, fail_ratio {failed}/{len(run.untraced)}")
    for key, why in failures.items():
        print(f"#   FAIL {key}: {why}")
    times: dict[str, list[Outcome]] = {}
    for o in run.untraced:
        times.setdefault(o.op.key, []).append(o)
    for key, runs in times.items():
        med = statistics.median(o.compute_s for o in runs)
        raw = statistics.median(o.raw_compute_s for o in runs)
        print(f"#   op {key}: n={len(runs)} compute median {med:.4f} s (raw {raw:.4f} s)")
    out = {}
    if not trace:
        for name, (value, n, raw) in end_to_end(run).items():
            unit = END_TO_END_UNITS[name]
            extra = "" if raw is None else f"  (raw {raw:.6g})"
            print(f"{w:<9} {name:<12} {value:>14.6g} {unit:<8} n={n}{extra}")
            out[name] = {"value": value, "unit": unit}
        return out
    metrics, absent, bases = per_layer(run)
    for name, (value, unit) in metrics.items():
        base = f"  (base: {bases[name]})" if name in bases else ""
        print(f"{w:<9} {name:<48} {value:>14.6g} {unit}{base}")
        out[name] = {"value": value, "unit": unit}
    for name in absent:
        print(f"{w:<9} {name:<48} absent")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info = probe()
        expected = json.loads(EXPECTED.read_text())
    except (GuardError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(
        f"# cantorkit {info['cantorkit']} rev={git_rev()} python={info['python']} "
        f"backend={info['backend']} host={platform.machine()} nproc={os.cpu_count()}"
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), expected)
        except GuardError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in report(run, bool(args.trace)).items():
            metrics[prefix + key] = value
        attempted += len(run.ops)
        failed += sum(o.failure is not None for o in run.ops)
        correct = correct and not any(o.wrong for o in run.ops)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
