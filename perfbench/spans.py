"""In-memory spans for the benchmark's traced run, and the per-layer metrics.

The tracer wraps the public functions one binpaths module calls in
another, so a traced run records a span at each layer boundary without
editing the package.  The benchmark itself opens a root span around every
engine call it makes; a wrapped call made while no other wrapped call is
open on its thread takes that root as its parent, even on a pool thread.

Spans stay in a list until the run ends.  Nothing is patched outside
``Tracer.installed()``, so the timed run never pays for tracing.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from binpaths import exact, mc


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # 0 for a root span
    thread: int
    run: int
    items: int  # rows, paths or draws the call handled
    extra: int  # bytes returned, nonzero payoff rows, or strata/ranks of a root


def _rows(out):
    return int(out.shape[0]), 0


def _rows_and_nbytes(out):
    return int(out.shape[0]), int(out.nbytes)


def _rows_and_nonzero(out):
    return int(out.shape[0]), int(np.count_nonzero(out))


def _nothing(out):
    return 0, 0


# (module, attribute, span name, what the span records about the call)
WRAPPED = (
    (exact, "codes_to_bits", "paths.codes_to_bits", _rows_and_nbytes),
    (exact, "payoff_batch", "payoffs.payoff_batch", _rows_and_nonzero),
    (mc, "payoff_batch", "payoffs.payoff_batch", _rows_and_nonzero),
    (mc, "block_probability", "paths.block_probability", _nothing),
    (mc, "allocate_strata", "mc.allocate_strata", _nothing),
    (mc, "mc_stream", "mc.mc_stream", _nothing),
    (mc, "sample_bits", "mc.sample_bits", _rows),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, parent, start, end, items, extra) -> None:
        self._stack().pop()
        self.spans.append(
            Span(sid, name, start, end, parent, threading.get_ident(), self.run, items, extra)
        )

    @contextmanager
    def root(self, name: str, items: int = 0, extra: int = 0):
        """Span around one call the benchmark makes into the package."""
        sid, parent = self._open()
        outer = self._root
        self._root = sid
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._root = outer
            self._close(sid, name, parent, start, end, items, extra)

    def _wrap(self, fn, name, measure):
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._stack().pop()
                raise
            end = time.perf_counter_ns()
            self._close(sid, name, parent, start, end, *measure(out))
            return out

        return wrapper

    @contextmanager
    def installed(self, run: int):
        """Patch the wrapped functions for one traced pass, then restore them."""
        self.run = run
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in WRAPPED]
        try:
            for (module, attr, name, measure), (_, _, fn) in zip(WRAPPED, saved):
                setattr(module, attr, self._wrap(fn, name, measure))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def covered_ns(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 for a layer that never ran."""
    return num / den if den else 0.0


def layer_metrics(spans, passes: int, cpu_count: int) -> dict:
    """Per-layer metrics from the spans of `passes` identical traced passes.

    Counts are per pass, so they repeat exactly between runs.  Times are
    totals over all spans of a kind divided by the work they handled.
    """
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total_ns(name):
        return sum(s.end_ns - s.start_ns for s in named(name))

    def total_items(name):
        return sum(s.items for s in named(name))

    def self_ns(root):
        kids = [(max(c.start_ns, root.start_ns), min(c.end_ns, root.end_ns))
                for c in children.get(root.id, [])]
        return (root.end_ns - root.start_ns) - covered_ns(k for k in kids if k[1] > k[0])

    exact_roots = named("exact.value_exact_parallel")
    mc_roots = [s for name, group in by_name.items() if name.startswith("mc.estimate_")
                for s in group]
    busy = 0
    capacity = 0
    for root in exact_roots:
        threads = min(root.extra, cpu_count)
        if threads < 2:
            continue
        per_thread = {}
        for c in children.get(root.id, []):
            per_thread.setdefault(c.thread, []).append((c.start_ns, c.end_ns))
        busy += sum(covered_ns(v) for v in per_thread.values())
        capacity += threads * (root.end_ns - root.start_ns)

    payoff_rows = total_items("payoffs.payoff_batch")
    return {
        "paths.codes_to_bits_calls": len(named("paths.codes_to_bits")) / passes,
        "paths.codes_to_bits_ns_per_path": _ratio(
            total_ns("paths.codes_to_bits"), total_items("paths.codes_to_bits")),
        "paths.codes_to_bits_bytes_per_path": _ratio(
            sum(s.extra for s in named("paths.codes_to_bits")),
            total_items("paths.codes_to_bits")),
        "paths.block_probability_calls": len(named("paths.block_probability")) / passes,
        "paths.block_probability_us_per_call": _ratio(
            total_ns("paths.block_probability") / 1e3, len(named("paths.block_probability"))),
        "mc.allocate_strata_ms": total_ns("mc.allocate_strata") / 1e6 / passes,
        "mc.mc_stream_calls": len(named("mc.mc_stream")) / passes,
        "mc.mc_stream_us_per_call": _ratio(
            total_ns("mc.mc_stream") / 1e3, len(named("mc.mc_stream"))),
        "mc.self_us_per_stratum": _ratio(
            sum(self_ns(r) for r in mc_roots) / 1e3, sum(r.extra for r in mc_roots)),
        "mc.sample_bits_ns_per_draw": _ratio(
            total_ns("mc.sample_bits"), total_items("mc.sample_bits")),
        "payoffs.payoff_batch_calls": len(named("payoffs.payoff_batch")) / passes,
        "payoffs.payoff_batch_ns_per_row": _ratio(
            total_ns("payoffs.payoff_batch"), payoff_rows),
        "payoffs.nonzero_share": _ratio(
            sum(s.extra for s in named("payoffs.payoff_batch")), payoff_rows),
        "exact.self_ns_per_path": _ratio(
            sum(self_ns(r) for r in exact_roots), sum(r.items for r in exact_roots)),
        "exact.pool_busy_share": _ratio(busy, capacity),
        "exact.leaf_formula_us": _ratio(
            total_ns("exact.value_leaf_formula") / 1e3, len(named("exact.value_leaf_formula"))),
        "model.derive_crr_us": _ratio(
            total_ns("model.derive_crr") / 1e3, len(named("model.derive_crr"))),
    }
