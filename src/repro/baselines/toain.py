"""TOAIN baseline (Luo et al., VLDB'18) — adaptive core-CH substitute.

The original TOAIN builds SCOB, a multi-level CH tuned to trade query
time against update time for kNN throughput; the paper uses it with k=1
as an SP baseline. SCOB's implementation is not available offline, so we
reproduce its *adaptive trade-off knob* (DESIGN.md §4): a hybrid
point-to-point search with a tunable **core size κ** —

- the top-κ vertices of the MDE hierarchy form the *core*; their
  tree-decomposition rows are exactly the CH of the graph left after
  contracting everything else;
- a query runs bidirectional Dijkstra that relaxes raw graph edges at
  non-core vertices and only upward CH shortcuts at core vertices
  (κ→0 degenerates to BiDijkstra, κ→n to plain CH);
- ``tune`` picks κ from a grid by measured mean query time, mimicking
  TOAIN's throughput-driven self-configuration.

Maintenance keeps all shortcuts exact via the DCH bottom-up pass (core
rows depend on non-core contributors), so unlike real SCOB our variant
has no update-side savings — noted in EXPERIMENTS.md where it matters.
"""
from __future__ import annotations

import heapq
import math
import time

from repro.graphs.graph import Graph
from repro.core.ch import CHIndex

INF = math.inf


class TOAINIndex(CHIndex):
    """Core-CH hybrid with an adaptive core-size knob; tree build, DCH
    maintenance and size are ``CHIndex``'s. The query is its own: below
    the core the search relaxes graph edges, which lead to any vertex,
    so it needs a heap where a pure CH walks the root path."""

    def __init__(self, graph: Graph, *, core_frac: float = 0.25):
        super().__init__(graph)
        self.set_core(int(core_frac * graph.n))

    def set_core(self, kappa: int) -> None:
        self.kappa = max(0, min(self.graph.n, kappa))
        self._core_min_rank = self.graph.n - self.kappa

    def _rows(self, u: int):
        """Edges the hybrid search relaxes at ``u``: graph edges below the
        core, upward shortcut rows inside it."""
        if int(self.td.rank[u]) >= self._core_min_rank:
            return zip(self.td.neigh[u], self.td.sc[u])
        return self.graph.adj[u].items()

    def _search(self, s: int) -> dict[int, float]:
        """Dijkstra over the hybrid edges (``_rows``); returns settled dists."""
        dist: dict[int, float] = {s: 0.0}
        done: set[int] = set()
        pq: list[tuple[float, int]] = [(0.0, s)]
        while pq:
            d, u = heapq.heappop(pq)
            if u in done:
                continue
            done.add(u)
            for v, w in self._rows(u):
                nd = d + w
                if nd < dist.get(v, INF):
                    dist[v] = nd
                    heapq.heappush(pq, (nd, v))
        return dist

    def query(self, s: int, t: int) -> float:
        """Bidirectional hybrid search; min over common settled vertices."""
        if s == t:
            return 0.0
        df = self._search(s)
        db = self._search(t)
        if len(df) > len(db):
            df, db = db, df
        best = INF
        for v, d in df.items():
            d2 = db.get(v)
            if d2 is not None and d + d2 < best:
                best = d + d2
        return best

    def tune(self, pairs: list[tuple[int, int]], fracs=(0.02, 0.05, 0.15, 0.4, 1.0)) -> float:
        """Pick the core fraction minimizing mean query time."""
        best_frac, best_t = fracs[0], INF
        for f in fracs:
            self.set_core(int(f * self.graph.n))
            t0 = time.perf_counter()
            for s, t in pairs:
                self.query(s, t)
            el = (time.perf_counter() - t0) / max(1, len(pairs))
            if el < best_t:
                best_t, best_frac = el, f
        self.set_core(int(best_frac * self.graph.n))
        return best_frac
