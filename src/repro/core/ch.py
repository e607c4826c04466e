"""Contraction Hierarchies on top of the tree-decomposition shortcuts.

Lemma 4 of the paper: under the same (MDE) vertex order, the shortcuts
produced by tree decomposition are exactly the CH shortcut index. So the
CH index *is* a ``TreeDec`` and DCH maintenance is ``update_shortcuts``
(the bottom-up shortcut-centric pass).

It also makes the CH query a DP with no heap: every shortcut of v goes
to a tree ancestor of v, so v's upward search space is its root path,
and walking it deepest first (``dist[pos[x]] = min(dist[pos[x]],
dist[depth[x]] + sc[x])``) reaches each ancestor only after every vertex
below it on the path, when its distance is final. A query takes the
min of ``dist_s + dist_t`` over the common ancestors, the depth prefix
up to the LCA.

Rows are tens of entries long, where a Python loop over ``tolist()``
beats a NumPy call per ancestor.
"""
from __future__ import annotations

import math
import time
from operator import add

from repro.graphs.graph import Graph
from repro.core.treedec import TreeDec, build_treedec, update_shortcuts

INF = math.inf


class TreeCH:
    """A tree decomposition read as a CH: its shape (fixed, as the tree
    never changes shape: ``td``'s parents and depths, and each row's
    neighbour depths ``pos`` as Python lists) and its live shortcut rows
    ``td.sc``, which maintenance updates in place."""

    def __init__(self, td: TreeDec):
        self.td = td
        self.pos = [p.tolist() for p in td.pos]

    def up(self, v: int, stop: list[bool] | None = None) -> list[float]:
        """Upward distances of v, indexed by depth: entry d is the
        shortest upward path from v to its ancestor at depth d (INF where
        there is none). The root-path DP walks v's ancestors deepest
        first, up to the root or to the first one marked in ``stop``,
        whose row it does not relax."""
        parent, pos, sc = self.td.parent, self.pos, self.td.sc
        d = self.td.depth[v]
        dist = [INF] * (d + 1)
        dist[d] = 0.0
        x = v
        while x >= 0 and not (stop and stop[x]):
            dx = dist[d]
            if dx < INF:
                for p, w in zip(pos[x], sc[x].tolist()):
                    c = dx + w
                    if c < dist[p]:
                        dist[p] = c
            x = parent[x]
            d -= 1
        return dist

    def meet(self, s: int, ds: list[float], t: int, dt: list[float]) -> float:
        """min of ``ds + dt`` over the common ancestors of s and t."""
        td = self.td
        if td.root_of[s] != td.root_of[t]:
            return INF
        p = td.depth[td.lca(s, t)] + 1
        return min(map(add, ds[:p], dt[:p]))


def ch_query_rows(ch, s: int, t: int) -> float:
    """One CH query: the min of ``ds + dt`` over the vertices both upward
    search spaces share. ``ch`` gives a vertex's upward distances
    (``up``) and joins two of them (``meet``): a :class:`TreeCH`, or
    PMHL's partition ∪ overlay CH."""
    if s == t:
        return 0.0
    return ch.meet(s, ch.up(s), t, ch.up(t))


class CHIndex:
    """Static-order CH with DCH (shortcut-centric) maintenance."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.build_time = 0.0
        t0 = time.perf_counter()
        self.td: TreeDec = build_treedec(graph)
        self.build_time = time.perf_counter() - t0
        self.ch = TreeCH(self.td)

    def query(self, s: int, t: int) -> float:
        return ch_query_rows(self.ch, s, t)

    def apply_batch(self, updates: list[tuple[int, int, float]]) -> float:
        """Apply a weight batch and maintain shortcuts; returns seconds."""
        applied = self.graph.apply_updates(updates)
        t0 = time.perf_counter()
        update_shortcuts(self.td, applied)
        return time.perf_counter() - t0

    def index_size(self) -> int:
        """Number of shortcut entries."""
        return sum(len(nb) for nb in self.td.neigh)
