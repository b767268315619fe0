"""Run one cantorkit CLI command in this fresh process and report on it.

    CLIBENCH_LAUNCH=<t> PYTHONPATH=<src> python3 child.py SRC TRACE ARGV_JSON

`CLIBENCH_LAUNCH` is the parent's `time.perf_counter()` just before it
started this process.  On Linux that clock is CLOCK_MONOTONIC, which every
process shares, so `ready - launch` is the set-up time: interpreter start
plus importing `cantorkit.cli`.  ARGV_JSON is the CLI argument list, or
`null` to only set up (a probe).  TRACE is 1 to trace the layers.

The speed of a core on a shared host drifts by tens of percent within
seconds.  So the child also times a fixed pure-Python reference loop: right
after set-up, every SAMPLE_EVERY_S while the op runs (from a SIGALRM
handler, in this thread, so it runs on the op's core), and after the op.
The median loop time lets the parent express set-up and compute time in
seconds of a core of fixed speed.  The loop time spent inside the op is
subtracted from its compute time.

The CLI's stdout and stderr are captured; the last stdout line of this
process is one JSON record.  Exit code 3 means the code under test is not the
tree at SRC.
"""

import os
import sys
import time

REF_LOOP_N = 2000
EDGE_LOOPS = 20
SAMPLE_EVERY_S = 0.02


def reference_loop() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(REF_LOOP_N):
        x += i * i % 7
    return time.perf_counter() - start


def main() -> int:
    from cantorkit import cli

    ready = time.perf_counter()
    setup_s = ready - float(os.environ["CLIBENCH_LAUNCH"])

    import contextlib
    import io
    import json
    import resource
    import signal
    import statistics
    import traceback

    import cantorkit

    src, trace, argv = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    where = os.path.realpath(cantorkit.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        sys.stderr.write(f"cantorkit imported from {where}, not from {src}\n")
        return 3
    loops = [reference_loop() for _ in range(EDGE_LOOPS)]
    record = {
        "setup_s": setup_s,
        "setup_loop_s": statistics.median(loops),
        "cantorkit": where,
        "backend": getattr(cantorkit, "BACKEND", None),
        "python": sys.version.split()[0],
    }
    if argv is not None:
        tracer = None
        if trace:
            from tracer import Tracer, summarize

            tracer = Tracer()
            tracer.install("cantorkit")
        in_op: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: in_op.append(reference_loop()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed op; keep its traceback
                traceback.print_exc()
                code = "crash"
            compute_s = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        loops += in_op + [reference_loop() for _ in range(EDGE_LOOPS)]
        record.update(
            exit=code,
            compute_s=compute_s - sum(in_op),
            loop_s=statistics.median(loops),
            stdout=out.getvalue(),
            stderr=err.getvalue()[-2000:],
        )
        if tracer is not None:
            record["trace"] = summarize(tracer.spans())
            record["counts"] = dict(tracer.counts)
            record["absent"] = tracer.absent
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
