"""Thread-aware span tracer, wrapped around levyid's public functions from
outside the package.

Each wrapped call records a span (layer, function, start, end, parent) plus
the work it was handed: rows drawn, or bootstrap cells resampled. Every
thread keeps its own span stack; sample_ensemble's chunk function is wrapped
so that spans opened in its pool threads take the sample_ensemble span as
parent. A span's self time is its duration minus the union of its children's
intervals, because sampler threads overlap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# public functions wrapped per module (the module name is the layer); core
# and randkit are leaves under these, so their time is self time here
TARGETS = {
    "processes": ("sample_paths", "sample_ensemble", "values_at"),
    "identities": ("companion_values", "hidden_values", "visible_values",
                   "tilted_ensemble", "verify_tilting_identity",
                   "verify_decomposition_identity"),
    "statlab": ("weighted_laplace_panel", "bootstrap_mean_se",
                "build_identity_report", "effective_sample_size"),
    "levymeasure": ("levy_functional_quadrature", "levy_functional_mc",
                    "laplace_exponent_check", "validate_levy_conditions"),
    "permanental": ("green_matrix", "sample_permanental", "sample_local_times",
                    "verify_permanental_identity", "levy_functional_permanental"),
    "limits": ("verify_thinning_limit", "thinned_values"),
    "cli": ("main",),
}


def _rows(args) -> int:
    size = args.get("n", args.get("size"))
    return 1 if size is None else int(size)


def _panel_cells(args) -> int:
    # one index draw per (resample, row), gathered for the denominator and
    # each panel entry
    return args["b"] * len(args["ensemble"].weights) * (len(args["panel"]) + 1)


def _mean_cells(args) -> int:
    return args["b"] * len(args["x"]) * 2


# work recorded per call: (kind, function of the bound arguments)
WORK = {
    "values_at": ("rows", _rows),
    "companion_values": ("rows", _rows),
    "hidden_values": ("rows", _rows),
    "visible_values": ("rows", _rows),
    "levy_functional_mc": ("rows", _rows),
    "sample_local_times": ("rows", _rows),
    "sample_permanental": ("rows", _rows),
    "thinned_values": ("rows", _rows),
    "weighted_laplace_panel": ("cells", _panel_cells),
    "bootstrap_mean_se": ("cells", _mean_cells),
}


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    rows: int = 0
    cells: int = 0


class Tracer:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, layer: str, name: str, rows: int = 0, cells: int = 0):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, layer, name, start, end, rows, cells))

    def adopting(self, parent: int, fn):
        """fn, run with `parent` as the current span in whichever thread calls it."""

        @functools.wraps(fn)
        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return run

    def wrap(self, layer: str, name: str, fn):
        sig = inspect.signature(fn)
        kind, measure = WORK.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            work = {kind: measure(bound.arguments)} if kind else {}
            with self.span(layer, name, **work) as sid:
                if name == "sample_ensemble":
                    bound.arguments["fn"] = self.adopting(sid, bound.arguments["fn"])
                return fn(*bound.args, **bound.kwargs)

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Replace every module-level binding of the target functions across the
    levyid package (including `from .x import f` copies) and the suite's job
    handlers with traced wrappers; restore them on exit."""
    cli = sys.modules["levyid.cli"]
    wrapped = {}
    for layer, names in TARGETS.items():
        module = sys.modules[f"levyid.{layer}"]
        for name in names:
            fn = getattr(module, name)
            wrapped[id(fn)] = (fn, tracer.wrap(layer, name, fn))
    saved = []
    modules = [m for k, m in sys.modules.items() if k == "levyid" or k.startswith("levyid.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])
    handlers = dict(cli._JOB_HANDLERS)
    for command, fn in handlers.items():
        cli._JOB_HANDLERS[command] = tracer.wrap("cli", f"job:{command}", fn)
    try:
        yield
    finally:
        cli._JOB_HANDLERS.update(handlers)
        for module, attr, value in saved:
            setattr(module, attr, value)


def _union_length(intervals) -> float:
    total, reach = 0.0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - _union_length([k for k in kids if k[1] > k[0]])
    return out


def totals(spans):
    """Per function: self seconds, call count, rows and cells, keyed by name."""
    self_s = self_times(spans)
    agg = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "rows": 0, "cells": 0, "layer": ""})
    for s in spans:
        a = agg[s.name]
        a["layer"] = s.layer
        a["self_s"] += self_s[s.id]
        a["calls"] += 1
        a["rows"] += s.rows
        a["cells"] += s.cells
    return agg
