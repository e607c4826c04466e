"""H2H / DH2H / MHL: hierarchical 2-hop labeling over the tree decomposition.

``H2HIndex`` is the paper's MHL (Multi-stage Hierarchical 2-hop
Labeling): the H2H index *extended with the CH shortcut arrays*
(Lemma 4 makes them the same structure), so during maintenance the
index can serve queries from whichever stage is ready:

- stage 0: graph updated, shortcuts stale  → BiDijkstra on the graph;
- stage 1: shortcuts updated (DCH phase)   → CH query, the root-path
  DP of Lemma 4 (``TreeCH``: a vertex's upward search space is its tree
  ancestors, so no heap);
- stage 2: labels updated (DH2H phase)     → H2H query.

DH2H maintenance = bottom-up shortcut pass (``update_shortcuts``) +
top-down label pass over the subtrees rooted at the highest affected
tree nodes (coarser than star-centric pruning but exact — see DESIGN.md).
"""
from __future__ import annotations

import time

from repro.graphs.graph import Graph
from repro.core.dijkstra import bidijkstra
from repro.core.treedec import build_labels, build_treedec, h2h_query, update_shortcuts
from repro.core.ch import TreeCH, ch_query_rows


def prune_to_subtree_roots(td, affected: set[int]) -> list[int]:
    """Keep only the highest affected nodes (drop descendants of others)."""
    roots = []
    for v in sorted(affected, key=lambda x: int(td.depth[x])):
        u = int(td.parent[v])
        keep = True
        while u != -1:
            if u in affected:
                keep = False
                break
            u = int(td.parent[u])
        if keep:
            roots.append(v)
    return roots


class H2HIndex:
    """MHL index: tree decomposition + shortcut arrays + distance labels."""

    def __init__(self, graph: Graph):
        self.graph = graph
        t0 = time.perf_counter()
        self.td = build_treedec(graph)
        self.shortcut_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.dis = build_labels(self.td)
        self.label_time = time.perf_counter() - t0
        self.build_time = self.shortcut_time + self.label_time
        self.ch = TreeCH(self.td)

    # -- queries at each stage ----------------------------------------
    def query(self, s: int, t: int) -> float:
        return h2h_query(self.td, self.dis, s, t)

    def query_ch(self, s: int, t: int) -> float:
        return ch_query_rows(self.ch, s, t)

    def query_bidij(self, s: int, t: int) -> float:
        return bidijkstra(self.graph, s, t)

    # -- maintenance ---------------------------------------------------
    def apply_batch(self, updates: list[tuple[int, int, float]]) -> dict[str, float]:
        """DH2H maintenance; returns per-phase seconds.

        Phase timings are the paper's U-stages for the non-partitioned
        index: ``edge`` (U1), ``shortcut`` (U2, after which CH queries
        are correct), ``label`` (U3, after which H2H queries are correct).
        """
        t0 = time.perf_counter()
        applied = self.graph.apply_updates(updates)
        t_edge = time.perf_counter() - t0

        t0 = time.perf_counter()
        res = update_shortcuts(self.td, applied)
        t_sc = time.perf_counter() - t0

        t0 = time.perf_counter()
        roots = prune_to_subtree_roots(self.td, res.affected)
        if roots:
            build_labels(self.td, roots=roots, dis=self.dis)
        t_lab = time.perf_counter() - t0
        return {"edge": t_edge, "shortcut": t_sc, "label": t_lab}

    def index_size(self) -> int:
        """Total label entries + shortcut entries."""
        labels = sum(len(d) for d in self.dis)
        return labels + sum(len(nb) for nb in self.td.neigh)
