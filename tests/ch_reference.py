"""Test-only reference for the CH query stage: the bidirectional upward
heap search that the root-path DP replaced, verbatim.

- ``upward_search`` / ``ch_query_rows``: Dijkstra over a row function
  (vertex → its upward shortcut edges), from both ends; the answer is
  the min over the vertices both searches settled;
- ``tree_rows``: the row function of one tree (DCH, DH2H, PostMHL);
- ``pmhl_rows``: PMHL's union of the partition forest and the overlay
  tree, the old ``PMHLIndex._pch_rows``;
- ``query``: the old PCH stage of any of these indexes.
"""
from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

INF = math.inf

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


def tree_rows(td) -> RowFn:
    return lambda v: zip(td.neigh[v], td.sc[v])


def pmhl_rows(idx) -> RowFn:
    """Upward shortcut rows of the union CH (partition ∪ overlay)."""

    def rows(v: int):
        out: dict[int, float] = {}
        for x, w in zip(idx.td.neigh[v], idx.td.sc[v]):
            if w < out.get(x, INF):
                out[x] = float(w)
        if v in idx.units[int(idx.part.pid[v])].b_set:
            o = idx.o_loc[v]
            for x, w in zip(idx.td_o.neigh[o], idx.td_o.sc[o]):
                g = idx.ov_vertices[x]
                if w < out.get(g, INF):
                    out[g] = float(w)
        return out.items()

    return rows


def query(idx, s: int, t: int) -> float:
    """The heap-search PCH stage of a PMHL-family index (it has
    ``units``) or of a single-tree index (its ``td``)."""
    rows = pmhl_rows(idx) if hasattr(idx, "units") else tree_rows(idx.td)
    return ch_query_rows(rows, s, t)
