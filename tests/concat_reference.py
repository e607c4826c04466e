"""Test-only references for the boundary concatenation that Lemma 2's
min-plus product replaced in the PMHL and PostMHL query stages.

- ``boundary_matrix``: all-pair distances among boundary vertices, one
  H2H query per pair (what PMHL's ``D_i`` and PostMHL's gathered
  ``D_i`` must equal);
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


def hub_query(h1, d1, h2, d2) -> float:
    """2-hop-cover query over two sorted hub arrays."""
    _, i1, i2 = np.intersect1d(h1, h2, assume_unique=True, return_indices=True)
    return joined_min(d1, i1, d2, i2)


def _pmhl_concat(idx, s, t, td_attr, dis_attr) -> float:
    i, j = int(idx.part.pid[s]), int(idx.part.pid[t])
    ui, uj = idx.units[i], idx.units[j]
    tdi, disi = getattr(ui, td_attr), getattr(ui, dis_attr)
    tdj, disj = getattr(uj, td_attr), getattr(uj, dis_attr)
    ls, lt = ui.loc[s], uj.loc[t]
    ds = [h2h_query(tdi, disi, ls, b) for b in ui.b_local]
    dt = [h2h_query(tdj, disj, lt, b) for b in uj.b_local]
    return concat_min(idx.td_o, idx.dis_o, ds, ui.b_ov, dt, uj.b_ov)


def pmhl_noboundary(idx, s, t) -> float:
    if s == t:
        return 0.0
    i, j = int(idx.part.pid[s]), int(idx.part.pid[t])
    via = _pmhl_concat(idx, s, t, "td", "dis")
    if i == j:
        u = idx.units[i]
        return min(h2h_query(u.td, u.dis, u.loc[s], u.loc[t]), via)
    return via


def pmhl_postboundary(idx, s, t) -> float:
    if s == t:
        return 0.0
    i, j = int(idx.part.pid[s]), int(idx.part.pid[t])
    if i == j:
        u = idx.units[i]
        return h2h_query(u.td_post, u.dis_post, u.loc[s], u.loc[t])
    return _pmhl_concat(idx, s, t, "td_post", "dis_post")


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
