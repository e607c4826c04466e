"""PSP-strategy baselines from [35], expressed as PMHL levels (§III-C).

- ``NCHPIndex`` — *N-CH-P*: no-boundary PSP with DCH underlying.
  Maintains only the partition + overlay shortcut arrays (U-Stages 1–2)
  and answers with the PCH search.
- ``PTDPIndex`` — *P-TD-P*: post-boundary PSP with DH2H underlying.
  Maintains through the post-boundary index (U-Stages 1–4) and answers
  with [35]'s post-boundary strategy: L'_i within a partition, and
  across partitions the distance concatenation through both boundary
  sets, |B_s| × |B_t| overlay H2H queries per query (``concat_min``).
  That concatenation is the slowness PMHL's cross-boundary L* removes;
  PMHL's own intermediate stages answer it with Lemma 2's min-plus
  product instead, so this query is the one place it is kept.

Both reuse :class:`repro.psp.pmhl.PMHLIndex` with a restricted level so
their construction and maintenance are *identical code* to the
corresponding PMHL stages, as in the paper.
"""
from __future__ import annotations

import math

import numpy as np

from repro.graphs.graph import Graph
from repro.core.treedec import TreeDec, h2h_query
from repro.psp.pmhl import PMHLIndex

INF = math.inf


def concat_min(td: TreeDec, dis: list, ds, bs, dt, bt) -> float:
    """Distance concatenation through two boundary sets: the min over
    (a, b) of ``ds[a] + d(bs[a], bt[b]) + dt[b]``, with d an H2H query on
    (td, dis); INF entries of ``ds`` / ``dt`` are skipped."""
    best = INF
    for da, b1 in zip(ds, bs):
        if da == INF:
            continue
        for db, b2 in zip(dt, bt):
            if db == INF:
                continue
            d = da + h2h_query(td, dis, b1, b2) + db
            if d < best:
                best = d
    return best


class NCHPIndex(PMHLIndex):
    """No-boundary partitioned CH (update-oriented PSP baseline)."""

    def __init__(self, graph: Graph, k: int, coords: np.ndarray | None = None):
        super().__init__(graph, k, coords, level="shortcut")

    query = PMHLIndex.query_pch


class PTDPIndex(PMHLIndex):
    """Post-boundary partitioned H2H (query-oriented PSP baseline)."""

    def __init__(self, graph: Graph, k: int, coords: np.ndarray | None = None):
        super().__init__(graph, k, coords, level="post")

    def query_postboundary(self, s: int, t: int) -> float:
        """Same-partition via L'_i; cross-partition by concatenating
        d(s, B_i) and d(t, B_j), both from L'_i / L'_j, through the
        overlay."""
        if s == t:
            return 0.0
        i, j = self.pid[s], self.pid[t]
        td, dis = self.td_post, self.dis_post
        if i == j:
            return h2h_query(td, dis, s, t)
        ui, uj = self.units[i], self.units[j]
        ds = [h2h_query(td, dis, s, b) for b in ui.b_local]
        dt = [h2h_query(td, dis, t, b) for b in uj.b_local]
        return concat_min(self.td_o, self.dis_o, ds, ui.b_ov, dt, uj.b_ov)

    query = query_postboundary
