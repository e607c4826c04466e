"""Test-only reference for ``update_shortcuts``: the per-pair heap
kernel it replaced, over contributor lists rebuilt from the tree rows.

``contributors(td)[(a, b)]`` (a < b by vertex id) lists every x with
a, b ∈ X(x).N — the vertices whose contraction produced a candidate for
shortcut (a, b). The reference reads base weights from ``graph.adj`` and
returns pairs ``(owner, hi)``, not positions.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf


def contributors(td) -> dict[tuple[int, int], list[int]]:
    out: dict[tuple[int, int], list[int]] = {}
    for x in range(td.n):
        nb = td.neigh[x]
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                a, b = nb[i], nb[j]
                out.setdefault((a, b) if a < b else (b, a), []).append(x)
    return out


def recompute(td, graph, contrib, v: int, u: int, exclude: set[int] | None = None) -> float:
    """sc(v, u) from its base edge and contributors (minus ``exclude``)."""
    best = graph.adj[v].get(u, INF)
    xs = [x for x in contrib.get((v, u) if v < u else (u, v), ()) if exclude is None or x not in exclude]
    if xs:
        pa = np.array([td.flat_off[x] + td.nidx[x][v] for x in xs], dtype=np.int64)
        pb = np.array([td.flat_off[x] + td.nidx[x][u] for x in xs], dtype=np.int64)
        best = min(best, float((td.flat[pa] + td.flat[pb]).min()))
    return best


@dataclass
class ReferenceUpdate:
    affected: set[int]
    changed_pairs: set[tuple[int, int]]
    recomputed_pairs: set[tuple[int, int]]
    escaped: dict[int, set[int]]


def reference_update(td, graph, contrib, changed_edges, *, subset=None, seed_dirty=None) -> ReferenceUpdate:
    """Dirty owners in ascending rank, one pair at a time; ``subset`` and
    ``seed_dirty`` / ``escaped`` (owner → row indices) as in the original."""
    dirty: dict[int, set[int]] = {k: set(v) for k, v in (seed_dirty or {}).items()}

    def owner_of(a: int, b: int) -> tuple[int, int]:
        return (a, b) if td.rank[a] < td.rank[b] else (b, a)

    for u, v in changed_edges:
        o, hi = owner_of(u, v)
        if hi in td.nidx[o]:
            dirty.setdefault(o, set()).add(td.nidx[o][hi])

    heap = [(int(td.rank[v]), v) for v in dirty]
    heapq.heapify(heap)
    inheap = set(dirty)
    affected: set[int] = set()
    changed_pairs: set[tuple[int, int]] = set()
    recomputed_pairs: set[tuple[int, int]] = set()
    escaped: dict[int, set[int]] = {}

    while heap:
        _, v = heapq.heappop(heap)
        inheap.discard(v)
        if subset is not None and v not in subset:
            escaped.setdefault(v, set()).update(dirty.get(v, ()))
            dirty.pop(v, None)
            continue
        idxs = dirty.pop(v, set())
        row_changed: list[int] = []
        for i in idxs:
            u = td.neigh[v][i]
            recomputed_pairs.add((v, u))
            new = recompute(td, graph, contrib, v, u)
            if new != td.sc[v][i]:
                td.sc[v][i] = new
                row_changed.append(i)
                changed_pairs.add((v, u))
        if not row_changed:
            continue
        affected.add(v)
        nb = td.neigh[v]
        for i in row_changed:
            a = nb[i]
            for j in range(len(nb)):
                if j == i:
                    continue
                o, hi = owner_of(a, nb[j])
                k = td.nidx[o].get(hi)
                if k is None:
                    continue
                s = dirty.setdefault(o, set())
                if k not in s:
                    s.add(k)
                    if o not in inheap:
                        heapq.heappush(heap, (int(td.rank[o]), o))
                        inheap.add(o)
    return ReferenceUpdate(affected, changed_pairs, recomputed_pairs, escaped)
