"""Test-only reference for the stacked maintenance passes: PMHL's and
PostMHL's ``apply_batch`` as one sweep (and, in PMHL, one residual
refresh and one label pass) per touched partition, each partition on
its own, as the indexes ran them before every partition was maintained
in one pass per stage.

Each function applies a batch to an index in place and returns the
partitions each stage ran (``{stage: sorted pids}``), which the stacked
passes must report as their ``parts`` keys.
"""
from __future__ import annotations

import numpy as np

from repro.core.h2h import prune_to_subtree_roots
from repro.core.treedec import build_labels, support_min, update_shortcuts
from repro.psp.pmhl import PMHLIndex, boundary_rows, relabel
from repro.psp.postmhl import PostMHLIndex, boundary_dists, hub_matrix


def pmhl_per_partition(ix: PMHLIndex, updates) -> dict[str, list[int]]:
    td, pid = ix.td, ix.pid
    ix.graph.apply_updates(updates)
    intra: dict[int, list] = {}
    inter = []
    for a, b, w in updates:
        if pid[a] == pid[b]:
            intra.setdefault(pid[a], []).append((a, b, w))
        else:
            inter.append((a, b, w))

    # U2: one sweep and one residual refresh per partition
    res_part = ix.part.pid[td.own[ix.res_pos]]
    ov_changes, affected = [], {}
    for i, ups in intra.items():
        res = update_shortcuts(td, ups)
        affected[i] = res.affected
        mine = np.flatnonzero(res_part == i)
        k = mine[np.isin(ix.res_pos[mine], res.recomputed_pairs)]
        nv = support_min(td, ix.res_pos[k], skip=ix.b_mask)
        moved = nv != ix.res_w[k]
        ix.res_w[k[moved]] = nv[moved]
        ov_changes.extend((*ix.res_ov[j], w) for j, w in zip(k[moved].tolist(), nv[moved].tolist()))
    ov_changes.extend((ix.o_loc[a], ix.o_loc[b], w) for a, b, w in inter)
    res_o = update_shortcuts(ix.td_o, ov_changes)
    ran = {"u2": sorted(intra)}
    if ix.level == "shortcut":
        return ran

    # U3: one label pass per partition
    for aff in affected.values():
        roots = prune_to_subtree_roots(td, aff)
        if roots:
            build_labels(td, roots=roots, dis=ix.dis)
    changed_ov = relabel(ix.td_o, ix.dis_o, prune_to_subtree_roots(ix.td_o, res_o.affected))
    for u in ix.units:
        ix._set_hub_rows(u, [j for j, o in enumerate(u.b_ov) if o in changed_ov])
    ran["u3"] = sorted(affected)

    # U4: one D refresh, sweep and label pass per partition
    post_changed, ran["u4"] = set(), []
    for u in ix.units:
        if u.pid not in intra and changed_ov.isdisjoint(u.b_ov):
            continue
        ran["u4"].append(u.pid)
        changes = [(a, b, w) for a, b, w in intra.get(u.pid, ()) if not (a in u.b_set and b in u.b_set)]
        rows = [a for a, o in enumerate(u.b_ov) if o in changed_ov]
        for a, new in zip(rows, boundary_rows(u.H, rows)):
            moved = np.flatnonzero(new != u.D[a])
            u.D[a, moved] = u.D[moved, a] = new[moved]
            changes.extend((u.b_local[a], u.b_local[b], float(new[b])) for b in moved.tolist())
        res_p = update_shortcuts(ix.td_post, changes)
        roots = prune_to_subtree_roots(ix.td_post, res_p.affected)
        if roots:
            build_labels(ix.td_post, roots=roots, dis=ix.dis_post)
        if roots or res_p.affected:
            post_changed.add(u.pid)
    if ix.level == "post":
        return ran

    # U5
    ran["u5"] = []
    for u in ix.units:
        if u.pid in post_changed or not changed_ov.isdisjoint(u.b_ov):
            ix._build_cross(u)
            ran["u5"].append(u.pid)
    return ran


def postmhl_per_partition(ix: PostMHLIndex, updates) -> dict[str, list[int]]:
    td = ix.td
    applied = ix.graph.apply_updates(updates)
    part_edges: dict[int, list] = {}
    ov_edges = []
    for a, b, w in applied:
        i = ix.pid[a if td.rank[a] < td.rank[b] else b]
        if i == -1:
            ov_edges.append((a, b, w))
        else:
            part_edges.setdefault(i, []).append((a, b, w))

    # U2: one sweep per partition, then the overlay sweep
    escaped, part_affected = [], set()
    for i, edges in part_edges.items():
        res = update_shortcuts(td, edges, subset=ix.in_part)
        if res.affected:
            part_affected.add(i)
        escaped.append(res.escaped)
    res_o = update_shortcuts(td, ov_edges, seed=escaped)

    # U3–U5
    ov_affected = {v for v in res_o.affected if v in ix.tdp.overlay}
    changed_ov = relabel(td, ix.dis, prune_to_subtree_roots(td, ov_affected), ix.tdp.overlay)
    changed_D = set()
    for i, bs in enumerate(ix.tdp.boundary):
        if not changed_ov.isdisjoint(bs):
            ix.H[i] = hub_matrix(td, ix.dis, ix.tdp.roots[i])
            D = boundary_dists(td, ix.H[i], ix.tdp.roots[i])
            if not np.array_equal(D, ix.D[i]):
                ix.D[i] = D
                changed_D.add(i)
    ran = {"u2": sorted(part_edges), "u4": [], "u5": []}
    for i in range(ix.k):
        post = i in part_affected or i in changed_D
        if post:
            ix._build_post(i)
            ran["u4"].append(i)
        if post or not changed_ov.isdisjoint(ix.ov_anc[i]):
            ix._build_cross(i)
            ran["u5"].append(i)
    return ran
