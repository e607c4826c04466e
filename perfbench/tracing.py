"""In-memory spans around the layer functions the indexes call.

The indexes bind their layer functions with ``from … import``, so a span
wrapper must replace the name in each module that looks it up. Nothing
under ``src/repro`` is edited: :meth:`Tracer.patched` swaps the names in
and restores them on exit.

Each span stores its name, start, end, parent span and root span (the
benchmark phase that caused it) in flat arrays; self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from functools import wraps

import numpy as np

# (module, attribute, span name). Each function is patched in every
# module that calls it during PMHL / PostMHL build, update or query.
TARGETS = [
    (mod, fn, span)
    for mod in ("repro.psp.pmhl", "repro.psp.postmhl")
    for fn, span in [
        ("build_treedec", "core.treedec.build_treedec"),
        ("update_shortcuts", "core.treedec.update_shortcuts"),
        ("build_labels", "core.treedec.build_labels"),
        ("h2h_query", "core.treedec.h2h_query"),
        ("prune_to_subtree_roots", "core.h2h.prune_to_subtree_roots"),
        ("ch_query_rows", "core.ch.ch_query_rows"),
        ("bidijkstra", "core.dijkstra.bidijkstra"),
    ]
] + [
    ("repro.psp.pmhl", "partition_graph", "partition.partition_graph"),
    ("repro.psp.postmhl", "td_partition", "partition.td_partition"),
    ("repro.graphs.graph", "Graph.apply_updates", "graphs.apply_updates"),
]


def _owner(module: str, attr: str):
    """(object holding the last name of ``attr``, that name)."""
    obj = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, last


class Tracer:
    """Spans and work counters, kept in memory until :meth:`table`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # (root span, counter, value or zero-argument callable)
        self.counters: list[tuple[int, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else i)
        self.start.append(0.0)
        self.end.append(0.0)
        stack.append(i)
        return i

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        self.start[i] = time.perf_counter()
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, value) -> None:
        """Add ``value`` to ``key`` under the current root span. A callable
        is called only by :meth:`counter_totals`, after the run."""
        self.counters.append((self._stack[0] if self._stack else -1, key, value))

    def wrap(self, name: str, fn, on_return=None):
        nid = self._id(name)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.start[i] = t0
                self._stack.pop()
            if on_return is not None:
                on_return(self, out, args, kwargs)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, hooks=None):
        """Wrap every target for the duration of the block."""
        hooks = hooks or {}
        saved = []
        try:
            for module, path, name in TARGETS:
                owner, attr = _owner(module, path)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, hooks.get(name)))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def table(self) -> dict:
        """Spans as arrays: name id, parent, root, duration, self time."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": parent,
            "root": np.frombuffer(self.root, dtype=np.int32).astype(np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def counter_totals(self) -> dict[tuple[str, str], float]:
        """(root span name, counter) -> summed value."""
        root_names = np.frombuffer(self.name, dtype=np.int32)
        out: dict[tuple[str, str], float] = {}
        for r, key, v in self.counters:
            root = self.names[root_names[r]] if r >= 0 else ""
            val = v() if callable(v) else v
            out[(root, key)] = out.get((root, key), 0.0) + val
        return out


def span_cost() -> float:
    """Seconds one wrapped call adds over a bare call (calibration)."""
    n = 200_000
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(n):
        traced()
    return max(0.0, (clock() - t0 - bare) / n)
