"""Contraction Hierarchies on top of the tree-decomposition shortcuts.

Lemma 4 of the paper: under the same (MDE) vertex order, the shortcuts
produced by tree decomposition are exactly the CH shortcut index. So the
CH index *is* a ``TreeDec``; the CH query is a bidirectional upward
Dijkstra over the shortcut rows, and DCH maintenance is
``update_shortcuts`` (the bottom-up shortcut-centric pass).
"""
from __future__ import annotations

import heapq
import math
import time
from typing import Callable, Iterable

from repro.graphs.graph import Graph
from repro.core.treedec import TreeDec, build_treedec, update_shortcuts

INF = math.inf

# A "row function" maps a vertex to its upward shortcut edges (u, w).
# CH searches never need rank comparisons: stored rows already point
# strictly upward, and upward closures compose (neighbors are ancestors).
RowFn = Callable[[int], Iterable[tuple[int, float]]]


def upward_search(rows: RowFn, s: int) -> dict[int, float]:
    """Dijkstra restricted to upward shortcut edges; returns settled dists."""
    dist: dict[int, float] = {s: 0.0}
    done: set[int] = set()
    pq: list[tuple[float, int]] = [(0.0, s)]
    while pq:
        d, u = heapq.heappop(pq)
        if u in done:
            continue
        done.add(u)
        for v, w in rows(u):
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


def ch_query_rows(rows: RowFn, s: int, t: int) -> float:
    """Bidirectional upward search; min over common settled vertices."""
    if s == t:
        return 0.0
    df = upward_search(rows, s)
    db = upward_search(rows, t)
    if len(df) > len(db):
        df, db = db, df
    best = INF
    for v, d in df.items():
        d2 = db.get(v)
        if d2 is not None and d + d2 < best:
            best = d + d2
    return best


class CHIndex:
    """Static-order CH with DCH (shortcut-centric) maintenance."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.build_time = 0.0
        t0 = time.perf_counter()
        self.td: TreeDec = build_treedec(graph)
        self.build_time = time.perf_counter() - t0

    def _rows(self, v: int) -> Iterable[tuple[int, float]]:
        return zip(self.td.neigh[v], self.td.sc[v])

    def query(self, s: int, t: int) -> float:
        return ch_query_rows(self._rows, s, t)

    def apply_batch(self, updates: list[tuple[int, int, float]]) -> float:
        """Apply a weight batch and maintain shortcuts; returns seconds."""
        applied = self.graph.apply_updates(updates)
        t0 = time.perf_counter()
        update_shortcuts(self.td, applied)
        return time.perf_counter() - t0

    def index_size(self) -> int:
        """Number of shortcut entries."""
        return sum(len(nb) for nb in self.td.neigh)
