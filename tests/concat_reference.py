"""Test-only references for the boundary concatenation that Lemma 2's
min-plus product replaced in the PMHL and PostMHL query stages.

- ``boundary_matrix``: all-pair distances among boundary vertices, one
  H2H query per pair (what PMHL's ``D_i`` and PostMHL's ``D_i`` must
  equal);
- ``boundary_gather``: PostMHL's ``D_i`` gathered pair by pair from the
  label rows, which its read from ``H_i`` replaced;
- ``hub_query``: the generic 2-hop-cover query over two sorted hub
  arrays (what ``query_cross``'s precomputed join must equal);
- ``pmhl_noboundary`` / ``pmhl_postboundary`` / ``postmhl_postboundary``:
  the pairwise-concatenating stage queries, verbatim. ``concat_min``
  itself stays in ``repro.psp.strategies``, where P-TD-P answers with it.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.treedec import h2h_query
from repro.psp.pmhl import joined_min
from repro.psp.strategies import concat_min

INF = math.inf


def boundary_matrix(td, dis, verts) -> np.ndarray:
    """All-pair distances among ``verts`` by H2H queries on (td, dis)."""
    D = np.zeros((len(verts), len(verts)), dtype=np.float64)
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            D[a, b] = D[b, a] = h2h_query(td, dis, verts[a], verts[b])
    return D


def boundary_gather(td, dis, root) -> np.ndarray:
    """D_i among B_i = X(root).N, gathered from the label rows.

    B_i lies on the root's ancestor path, so every pair is an ancestor
    pair and ``d(b_a, b_b) = dis[deeper][depth(shallower)]`` — the value
    ``h2h_query`` returns for it, bit for bit. ``X(root).N`` is in
    descending depth, so ``b_a`` is the deeper one for every ``b > a``.
    """
    bs, dep = td.neigh[root], td.pos[root]
    D = np.zeros((len(bs), len(bs)), dtype=np.float64)
    for a in range(len(bs) - 1):
        D[a, a + 1 :] = D[a + 1 :, a] = dis[bs[a]][dep[a + 1 :]]
    return D


def hub_query(h1, d1, h2, d2) -> float:
    """2-hop-cover query over two sorted hub arrays."""
    _, i1, i2 = np.intersect1d(h1, h2, assume_unique=True, return_indices=True)
    return joined_min(d1, i1, d2, i2)


def _pmhl_concat(idx, s, t, td, dis) -> float:
    ui, uj = idx.units[int(idx.part.pid[s])], idx.units[int(idx.part.pid[t])]
    ds = [h2h_query(td, dis, s, b) for b in ui.b_local]
    dt = [h2h_query(td, dis, t, b) for b in uj.b_local]
    return concat_min(idx.td_o, idx.dis_o, ds, ui.b_ov, dt, uj.b_ov)


def pmhl_noboundary(idx, s, t) -> float:
    if s == t:
        return 0.0
    via = _pmhl_concat(idx, s, t, idx.td, idx.dis)
    if idx.part.pid[s] == idx.part.pid[t]:
        return min(h2h_query(idx.td, idx.dis, s, t), via)
    return via


def pmhl_postboundary(idx, s, t) -> float:
    if s == t:
        return 0.0
    if idx.part.pid[s] == idx.part.pid[t]:
        return h2h_query(idx.td_post, idx.dis_post, s, t)
    return _pmhl_concat(idx, s, t, idx.td_post, idx.dis_post)


def postmhl_postboundary(idx, s, t) -> float:
    if s == t:
        return 0.0
    i, j = int(idx.tdp.pid[s]), int(idx.tdp.pid[t])
    td = idx.td
    if i == -1 and j == -1:
        return h2h_query(td, idx.dis, s, t)
    if i == j:
        a = td.lca(s, t)
        novl = idx.novl[i]
        if a == s:
            best = float(idx.dis[t][td.depth[s]])
        elif a == t:
            best = float(idx.dis[s][td.depth[t]])
        else:
            q = td.qpos[a]
            q = q[q >= novl]
            best = float((idx.dis[s][q] + idx.dis[t][q]).min()) if len(q) else INF
        return min(best, float((idx.disB[s] + idx.disB[t]).min()))
    if j == -1:
        s, t, i, j = t, s, j, i
    if i == -1:
        return concat_min(td, idx.dis, [0.0], [s], idx.disB[t], idx.tdp.boundary[j])
    return concat_min(td, idx.dis, idx.disB[s], idx.tdp.boundary[i], idx.disB[t], idx.tdp.boundary[j])
