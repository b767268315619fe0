"""Outside-in layer trace of one cantorkit process.

`Tracer.install` wraps the public functions named in LAYERS and rebinds every
public module attribute that holds one of them.  `from .families import
address_frame` gives `cylinders`, `boxcount`, `cli` and the package its own
binding, so patching only the defining module would miss every cross-module
call.  Private names (`_oracle_levels`, `_LOCAL_CACHE`, ...) are never read
or rebound.  A listed function that no longer exists is reported as absent.

Each call records a span (name, start, end, parent index) in memory, in call
order.  `summarize` turns the spans into calls, self time and total time per
function after the op has finished, outside its timed region.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

#: layer (cantorkit module) -> public functions traced in it
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "families": (
        "address_frame",
        "family_blocks",
        "enumerate_addresses",
        "as_address",
        "level_choices",
        "parse_family",
    ),
    "cylinders": (
        "cylinder_interval",
        "cylinder_hull",
        "tail_extrema_oracle",
        "covering_sum",
        "verify_family",
        "solve_affine_hull",
        "gap_interval",
        "ordering_check",
    ),
    "kernels": ("local_extrema",),
    "boxcount": ("boxes_at_scale", "fit_dimension"),
    "dimension": (
        "family_dimension",
        "block_dimension",
        "md_closed_form",
        "cantor_series_dim_estimate",
    ),
    "radix": ("eval_cantor", "digits_from_rational", "eval_sadic", "eval_negasadic"),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

#: work counts taken at a traced function's boundary: span name -> count name
COUNTS = {
    "cylinders.tail_extrema_oracle": "leaves",
    "kernels.local_extrema": "leaves",
    "families.enumerate_addresses": "addresses",
    "boxcount.boxes_at_scale": "boxes",
    "dimension.block_dimension": "iterations",
}

#: hull solves are also counted when made inside a box count
HULL, BOXES = "cylinders.cylinder_hull", "boxcount.boxes_at_scale"


def _counters(kernels) -> dict:
    """Span name -> f(args, kwargs, result) giving the call's work count."""
    out = {
        "cylinders.tail_extrema_oracle": lambda a, k, r: r.leaves,
        "families.enumerate_addresses": lambda a, k, r: len(r),
        "boxcount.boxes_at_scale": lambda a, k, r: r.count,
        "dimension.block_dimension": lambda a, k, r: r.iterations,
    }
    leaf_count = getattr(kernels, "leaf_count", None)
    if leaf_count is not None:
        out["kernels.local_extrema"] = lambda a, k, r: leaf_count(a[1] if len(a) > 1 else k["levels"])
    return out


class Tracer:
    """Spans live in flat arrays, which the garbage collector never scans, so
    a few hundred thousand of them do not slow the traced program."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def spans(self):
        """(name, start, end, parent index) per span, in call order."""
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents)]

    def wrap(self, name: str, fn, count=None):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, clock, counts = self.stack, self.clock, self.counts
        count_name = f"{name}.{COUNTS[name]}" if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counts[count_name] += count(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "cantorkit") -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        counters = _counters(sys.modules.get(f"{package}.kernels"))
        for layer, fns in LAYERS.items():
            mod = sys.modules.get(f"{package}.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                fn = getattr(mod, fn_name, None)
                if not callable(fn):
                    self.absent.append(name)
                    continue
                traced = self.wrap(name, fn, counters.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn and not attr.startswith("_"):
                            setattr(m, attr, traced)


def summarize(spans) -> dict:
    """Per-span-name calls, self time and total time, and the HULL calls made
    inside a BOXES span.

    Spans are in call order, so a parent precedes its children.  Self time is
    a span's duration minus its direct children's durations.  Total time
    counts only the outermost span of a name, so recursion is not counted
    twice.
    """
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    hulls_in_boxes = 0
    open_names: Counter = Counter()
    stack: list[int] = []
    for i, (name, start, end, parent) in enumerate(spans):
        while stack and stack[-1] != parent:
            open_names[spans[stack.pop()][0]] -= 1
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start - child_time[i]
        if not open_names[name]:
            entry[2] += end - start
        if name == HULL and open_names[BOXES]:
            hulls_in_boxes += 1
        stack.append(i)
        open_names[name] += 1
    return {"functions": dict(stats), "hulls_in_boxes": hulls_in_boxes}
