"""Span recorder that wraps labelsim's public functions from outside.

Every public function bound in a layer module's namespace is replaced by
a wrapper at that binding, so a call is recorded under the name the
caller resolved: ``correlate.apply_filters`` and ``heuristics.apply_filters``
are separate bindings of one function and both are wrapped, and each
call passes through exactly one of them.  Spans are named after the
defining module and function (``heuristics.apply_filters``), so the two
bindings sum into one row.  Nothing is hard-coded about which functions
exist: a function a later change removes is simply never recorded.

Spans (name, start, end, parent, thread) stay in memory and are written
once, when the traced process ends.  A span opened on a worker thread
with nothing open on that thread takes the innermost span open on the
main thread as its parent; for the scoring pool that is the enclosing
``compute_metric_scores``.  Time a pool thread spends waiting for the
interpreter lock counts in its spans, so self times summed over threads
can exceed the wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable

PACKAGE = "labelsim"
LAYERS = ("cli", "corpus", "textmetrics", "embmetrics", "sentiment",
          "heuristics", "stats", "correlate")


def _count_rows(corpus, counters, args, kwargs):
    counters["corpus.rows"] = counters.get("corpus.rows", 0) \
        + len(corpus.pairs) + len(corpus.annotations)


def _count_flags(reports, counters, args, kwargs):
    # Every call evaluates the same annotators; the last call's counts stand.
    for h in range(1, 6):
        counters[f"heuristics.flagged.{h}"] = sum(
            1 for rep in reports.values() if any(int(f) == h for f in rep.flags))


def _count_qualifying(pairs, counters, args, kwargs):
    counters["heuristics.qualifying_pairs"] = len(pairs)


def _count_cells(report, counters, args, kwargs):
    counters["correlate.cells"] = counters.get("correlate.cells", 0) \
        + len(report.baseline) + sum(len(row.cells) for row in report.subsets)


def _count_transport(result, counters, args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    n, m = problem.costs.shape
    counters["embmetrics.solve_transport.problems"] = \
        counters.get("embmetrics.solve_transport.problems", 0) + 1
    counters["embmetrics.solve_transport.types_sum"] = \
        counters.get("embmetrics.solve_transport.types_sum", 0) + (n + m) / 2
    counters["embmetrics.solve_transport.pivots"] = \
        counters.get("embmetrics.solve_transport.pivots", 0) + result.iterations


def _note_jobs(result, counters, args, kwargs):
    if "jobs" in kwargs:
        counters["correlate.compute_metric_scores.jobs"] = kwargs["jobs"]


# Counts read off a call's result, with the counters each hook feeds; a
# wrapped function that is never called reports them as 0.  A hook that
# no longer fits the code (a renamed field, say) leaves its counters out
# instead of failing the run.
HOOKS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "corpus.load_corpus": (_count_rows, ("corpus.rows",)),
    "heuristics.compute_flag_reports": (
        _count_flags, tuple(f"heuristics.flagged.{h}" for h in range(1, 6))),
    "heuristics.sentiment_qualifying_pairs": (
        _count_qualifying, ("heuristics.qualifying_pairs",)),
    "correlate.correlation_report": (_count_cells, ("correlate.cells",)),
    "embmetrics.solve_transport": (
        _count_transport, ("embmetrics.solve_transport.problems",
                           "embmetrics.solve_transport.types_sum",
                           "embmetrics.solve_transport.pivots")),
    "correlate.compute_metric_scores": (_note_jobs, ()),
}


class Recorder:
    """Collects spans and hook counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []     # (id, name, start, end, parent, thread)
        self.counters: dict[str, float] = {}
        self.hook_errors: dict[str, str] = {}
        # next() on itertools.count runs in C under the GIL, so ids stay
        # unique across pool threads without a lock.
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name_idx: int, hook):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            else:
                main = recorder._main_stack
                parent = main[-1] if main and stack is not main else -1
            sid = next(recorder._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((sid, name_idx, start, end, parent,
                                       threading.get_ident()))
            if hook is not None:
                try:
                    hook(result, recorder.counters, args, kwargs)
                except Exception as exc:  # keep the traced run going
                    recorder.hook_errors[recorder.names[name_idx]] = repr(exc)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every public function bound in each layer module."""
        index: dict[str, int] = {}
        wrapped = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                home_layer = home.split(".")[-1]
                if home_layer not in LAYERS:
                    continue
                name = f"{home_layer}.{obj.__name__}"
                if name not in index:
                    index[name] = len(self.names)
                    self.names.append(name)
                hook, fed = HOOKS.get(name, (None, ()))
                for counter in fed:
                    self.counters.setdefault(counter, 0)
                setattr(module, attr, self.wrap(obj, index[name], hook))
                wrapped.append(f"{layer}.{attr}")
        return wrapped

    def dump(self, path: Path, **extra) -> None:
        threads: dict[int, int] = {}
        rows = []
        for sid, name_idx, start, end, parent, thread in self.spans:
            tid = threads.setdefault(thread, len(threads))
            rows.append([sid, name_idx, start, end, parent, tid])
        doc = dict(extra, names=self.names, spans=rows,
                   counters=self.counters, hook_errors=self.hook_errors)
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def summarize(doc: dict) -> dict[str, float]:
    """Per-function ``calls`` and ``self_s`` from a dumped span file.

    Self time is a span's duration minus the part of it that its child
    spans cover; children on pool threads can overlap each other, so the
    covered part is the union of their intervals, not the sum.
    """
    names = doc["names"]
    by_id = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, name_idx, start, end, parent, _ in doc["spans"]:
        by_id[sid] = (name_idx, start, end)
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))

    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for sid, (name_idx, start, end) in by_id.items():
        covered, reach = 0.0, start
        for kid_start, kid_end in sorted(children.get(sid, ())):
            kid_end = min(kid_end, end)
            if kid_end > reach:
                covered += kid_end - max(kid_start, reach)
                reach = kid_end
        name = names[name_idx]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - covered
    return out
