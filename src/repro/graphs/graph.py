"""Undirected weighted graph with dynamic edge weights.

The paper's dynamic model (§II) only changes edge *weights* (increase or
decrease); the edge set and every index structure built on it stay fixed.
``Graph`` therefore keeps a dict-of-dict adjacency with O(1) weight
reads, and ``apply_updates`` writes a whole batch. Searches and index
builds read weights from it; index maintenance takes the ``(u, v, w)``
batch that ``apply_updates`` returns, not the graph.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator


class Graph:
    """Undirected weighted graph over vertices ``0..n-1``.

    Parallel edges are merged by minimum weight. Weights are positive
    travel times (float).
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]] = ()):
        self.n = n
        self.adj: list[dict[int, float]] = [dict() for _ in range(n)]
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_edge(self, u: int, v: int, w: float) -> None:
        """Insert (or min-merge) the undirected edge ``(u, v)``."""
        if u == v:
            return
        old = self.adj[u].get(v)
        if old is None or w < old:
            self.adj[u][v] = w
            self.adj[v][u] = w

    def weight(self, u: int, v: int) -> float:
        return self.adj[u][v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once, as ``(u, v, w)`` with u < v."""
        for u in range(self.n):
            for v, w in self.adj[u].items():
                if u < v:
                    yield u, v, w

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def copy(self) -> "Graph":
        g = Graph(self.n)
        g.adj = [dict(a) for a in self.adj]
        return g

    def apply_updates(self, updates: Iterable[tuple[int, int, float]]) -> list[tuple[int, int, float]]:
        """Apply a batch of weight updates; return the applied list.

        This is U-Stage 1 ("on-spot edge update") of both PMHL and
        PostMHL: after it, index-free searches on the graph are correct.
        The batch is atomic: every update must name an existing edge
        (else ``KeyError``) with a finite weight > 0 (else ``ValueError``),
        and the whole batch is checked before any weight is written.
        """
        applied = [(u, v, w) for u, v, w in updates]
        for u, v, w in applied:
            if not (0 <= u < self.n and v in self.adj[u]):
                raise KeyError(f"edge ({u},{v}) not present")
            if not (0 < w < math.inf):
                raise ValueError(f"edge ({u},{v}): weight {w!r} is not finite and > 0")
        for u, v, w in applied:
            self.adj[u][v] = w
            self.adj[v][u] = w
        return applied

    def subgraph(self, vertices: list[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph with local ids; returns (graph, global→local map)."""
        loc = {g: i for i, g in enumerate(vertices)}
        sg = Graph(len(vertices))
        for g in vertices:
            for nb, w in self.adj[g].items():
                if nb in loc and g < nb:
                    sg.add_edge(loc[g], loc[nb], w)
        return sg, loc
