"""PMHL: all five query stages exact, Theorem 2, Lemma 2, maintenance."""
import dataclasses
import math

import pytest

from repro.core.dijkstra import floyd_warshall
from repro.core.treedec import TreeDec, build_labels, build_treedec, h2h_query
import repro.psp.pmhl as pmhl
from repro.psp.pmhl import PMHLIndex
from tests.concat_reference import boundary_matrix, hub_query
from tests.util import pairs_for, small_case, updated_case

import numpy as np


@pytest.fixture(scope="module", params=[(0, 3), (1, 4), (2, 5)])
def built(request):
    seed, k = request.param
    g, coords, fw = small_case(seed, 20, 5)
    return PMHLIndex(g.copy(), k, coords), g, fw, seed


STAGES = ["query_pch", "query_noboundary", "query_postboundary", "query_cross"]


@pytest.mark.parametrize("stage", STAGES)
def test_stage_queries_exact(built, stage):
    idx, g, fw, seed = built
    q = getattr(idx, stage)
    for s, t in pairs_for(g.n, 50, seed):
        assert q(s, t) == pytest.approx(fw[s][t]), (stage, s, t)


def test_same_partition_queries(built):
    idx, g, fw, seed = built
    for i in range(idx.k):
        vs = idx.part.parts[i]
        for s, t in zip(vs[:6], vs[-6:]):
            if s == t:
                continue
            for stage in STAGES:
                assert getattr(idx, stage)(s, t) == pytest.approx(fw[s][t])


def test_theorem2_overlay_preserves_boundary_distances(built):
    """Overlay H2H distances between boundary vertices = global ones."""
    idx, g, fw, _ = built
    bs = idx.part.boundary_all
    for a in bs[::3]:
        for b in bs[::4]:
            if a != b:
                assert h2h_query(idx.td_o, idx.dis_o, idx.o_loc[a], idx.o_loc[b]) == pytest.approx(fw[a][b])


def _overlay_label(idx, o):
    """Overlay vertex ``o``'s label as (sorted hub vertex ids, distances)."""
    anc = np.array([idx.ov_vertices[a] for a in idx.td_o.ancestors(o)], dtype=np.int64)
    srt = np.argsort(anc)
    return anc[srt], np.asarray(idx.dis_o[o])[srt]


def _lemma2_label(idx, v):
    """Lemma 2's L*(v): the overlay label for a boundary vertex, the
    index's row otherwise."""
    u = idx.units[int(idx.part.pid[v])]
    l = u.loc[v]
    if l in u.b_set:
        return _overlay_label(idx, idx.o_loc[v])
    return u.lstar[l]


def test_lemma2_cross_boundary_2hop_cover(built):
    """L* hub arrays satisfy the 2-hop cover for cross-partition pairs."""
    idx, g, fw, seed = built
    cnt = 0
    for s, t in pairs_for(g.n, 120, seed + 9):
        if idx.part.pid[s] == idx.part.pid[t]:
            continue
        h1, d1 = _lemma2_label(idx, s)
        h2, d2 = _lemma2_label(idx, t)
        assert hub_query(h1, d1, h2, d2) == pytest.approx(fw[s][t])
        cnt += 1
    assert cnt > 10


def test_lstar_entries_upper_bound_distance(built):
    """Every L* label entry is a real path length (≥ true distance)."""
    idx, g, fw, _ = built
    u = idx.units[0]
    for v, (hubs, dists) in list(u.lstar.items())[:10]:
        gv = u.vertices[v]
        for h, d in zip(hubs, dists):
            if math.isfinite(d):
                assert d >= fw[gv][h] - 1e-9


def test_boundary_first_property(built):
    """In each partition tree, boundary ranks above non-boundary."""
    idx, _, _, _ = built
    for u in idx.units:
        if not u.b_set:
            continue
        max_nb = max(
            (u.td.rank[l] for l in range(len(u.vertices)) if l not in u.b_set), default=-1
        )
        assert all(u.td.rank[b] > max_nb for b in u.b_set)


def test_disB_values_exact(built):
    idx, g, fw, _ = built
    for u in idx.units:
        for v in range(0, len(u.vertices), 5):
            if v in u.b_set:
                continue
            gv = u.vertices[v]
            for j, b in enumerate(u.b_local):
                assert u.disB[v][j] == pytest.approx(fw[gv][u.vertices[b]])


@pytest.mark.parametrize("seed,k", [(0, 3), (1, 4)])
def test_maintenance_all_stages(seed, k):
    g, coords, ups, truths = updated_case(seed, 20, 5)
    idx = PMHLIndex(g.copy(), k, coords)
    for batch, fw in zip(ups, truths):
        times = idx.apply_batch(batch)
        assert {"u1", "u2", "u3", "u4", "u5"} <= set(times)
        for s, t in pairs_for(g.n, 25, seed + 7):
            d = fw[s][t]
            assert idx.query_bidij(s, t) == pytest.approx(d)
            for stage in STAGES:
                assert getattr(idx, stage)(s, t) == pytest.approx(d), stage


def test_maintenance_increase_only():
    """Pure weight-increase batch (the hard DH2H direction)."""
    g, coords, fw0 = small_case(6, 20, 5)
    idx = PMHLIndex(g.copy(), 4, coords)
    batch = [(u, v, w * 3) for u, v, w in list(g.edges())[::4]]
    idx.apply_batch(batch)
    g2 = g.copy()
    g2.apply_updates(batch)
    fw = floyd_warshall(g2)
    for s, t in pairs_for(g.n, 40, 3):
        for stage in STAGES:
            assert getattr(idx, stage)(s, t) == pytest.approx(fw[s][t]), stage


def test_index_size_grows_with_level():
    g, coords, _ = small_case(0, 20, 5)
    full = PMHLIndex(g.copy(), 4, coords)
    assert full.index_size() > 0
    assert full.build_times["post"] and full.build_times["cross"]


def test_hub_query_disjoint_returns_inf():
    h1 = np.array([1, 2]); d1 = np.array([1.0, 2.0])
    h2 = np.array([3, 4]); d2 = np.array([1.0, 2.0])
    assert hub_query(h1, d1, h2, d2) == math.inf


def _per_vertex_cross(idx, u):
    """Reference L* construction, one vertex at a time: disB by a
    parents-first loop, each L* row by np.unique + np.minimum.at."""
    td = u.td_post
    disB = {l: u.D[j] for j, l in enumerate(u.b_local)}
    for v in reversed(td.order):
        if v not in u.b_set:
            disB[v] = np.min([td.sc[v][k] + disB[x] for k, x in enumerate(td.neigh[v])], axis=0)
    b_hub = [_overlay_label(idx, o) for o in u.b_ov]
    lstar = {}
    for v in range(len(u.vertices)):
        if v in u.b_set:
            continue
        hubs = np.concatenate([h for h, _ in b_hub])
        dists = np.concatenate([d + disB[v][j] for j, (_, d) in enumerate(b_hub)])
        uh, inv = np.unique(hubs, return_inverse=True)
        best = np.full(len(uh), math.inf)
        np.minimum.at(best, inv, dists)
        lstar[v] = (uh, best)
    return disB, lstar


def test_dense_cross_index_equals_per_vertex_reference(built):
    """The dense disB / L* matrices hold exactly the per-vertex values."""
    idx, _, _, _ = built
    for u in idx.units:
        disB, lstar = _per_vertex_cross(idx, u)
        assert all(np.array_equal(u.disB[v], row) for v, row in disB.items())
        assert len(disB) == len(u.disB) and u.lstar.keys() == lstar.keys()
        for v, (h, d) in lstar.items():
            assert np.array_equal(u.lstar[v][0], h) and np.array_equal(u.lstar[v][1], d), v


def _extended_partition_post(idx, u):
    """Reference post-boundary index: the extended partition G'_i as a
    graph (the partition plus every boundary pair at its D entry),
    contracted again under the partition tree's order."""
    gext, _ = idx.graph.subgraph(u.vertices)
    for a in range(len(u.b_local)):
        for b in range(a + 1, len(u.b_local)):
            gext.add_edge(u.b_local[a], u.b_local[b], float(u.D[a, b]))
    td = build_treedec(gext, fixed_order=u.td.order)
    return td, build_labels(td)


def test_post_tree_equals_extended_partition_build(built):
    """The post-boundary tree (the partition tree's shape, boundary-pair
    bases set to D) holds exactly the shortcuts, base weights and labels
    of a build on G'_i."""
    idx = built[0]
    for u in idx.units:
        td, dis = _extended_partition_post(idx, u)
        _assert_same_trees(u.td_post, td)
        assert len(u.dis_post) == len(dis)
        for v, (ra, rb) in enumerate(zip(u.dis_post, dis)):
            assert np.array_equal(ra, rb), (u.pid, v)


def _assert_same_trees(ta, tb):
    assert np.array_equal(ta.flat, tb.flat)
    assert np.array_equal(ta.base, tb.base)


WEIGHTS = ("flat", "sc", "base")
SHAPE = [f.name for f in dataclasses.fields(TreeDec) if f.name not in WEIGHTS]


def _assert_shares_shape(post, td):
    """``post`` holds ``td``'s structural arrays themselves and only its
    weights of its own."""
    for name in SHAPE:
        assert getattr(post, name) is getattr(td, name), name
    assert len(post.tour_first) == len(post.preorder) == post.n and post.tour_rmq
    assert post.flat is not td.flat and post.base is not td.base
    assert all(row.base is post.flat for row in post.sc)


def _assert_same_state(a, b):
    """Shortcuts and base weights of every tree, the post-boundary
    labels, D, disB, every L* row and the boundary rows of ``a`` and
    ``b`` are bit-for-bit equal, and each post-boundary tree shares its
    partition tree's shape."""
    _assert_same_trees(a.td_o, b.td_o)
    for ua, ub in zip(a.units, b.units, strict=True):
        _assert_same_trees(ua.td, ub.td)
        _assert_same_trees(ua.td_post, ub.td_post)
        _assert_shares_shape(ua.td_post, ua.td)
        _assert_shares_shape(ub.td_post, ub.td)
        assert len(ua.dis_post) == len(ub.dis_post)
        for v, (ra, rb) in enumerate(zip(ua.dis_post, ub.dis_post)):
            assert np.array_equal(ra, rb), v
        assert np.array_equal(ua.D, ub.D)
        assert np.array_equal(ua.disB, ub.disB)
        assert ua.lstar.keys() == ub.lstar.keys()
        for v, (h, d) in ua.lstar.items():
            assert np.array_equal(h, ub.lstar[v][0]) and np.array_equal(d, ub.lstar[v][1]), v
        assert np.array_equal(ua.hubs, ub.hubs)
        assert len(ua.lrows) == len(ub.lrows) == len(ua.vertices)
        for l in ua.b_local:
            assert np.array_equal(ua.lrows[l], ub.lrows[l]), l


@pytest.mark.parametrize("seed,k", [(0, 3), (1, 4), (2, 3), (3, 4)])
def test_incremental_state_equals_fresh_build(seed, k):
    """After every batch, maintained disB / L* (boundary rows too) / D are bit-for-bit
    those of a from-scratch build on the updated graph."""
    g, coords, ups, _ = updated_case(seed, 20, 5)
    idx = PMHLIndex(g.copy(), k, coords)
    g2 = g.copy()
    for batch in ups:
        idx.apply_batch(batch)
        g2.apply_updates(batch)
        _assert_same_state(idx, PMHLIndex(g2.copy(), k, coords))


@pytest.mark.parametrize("seed,k", [(0, 3), (1, 4)])
def test_residuals_and_overlay_equal_fresh_build(seed, k):
    """Theorem-2 residuals are maintained exactly: after every batch each
    partition's residual values and no-boundary shortcuts, and the overlay
    shortcuts, are bit-for-bit those of a from-scratch build."""
    g, coords, ups, _ = updated_case(seed, 20, 5)
    idx = PMHLIndex(g.copy(), k, coords)
    g2 = g.copy()
    for batch in ups:
        idx.apply_batch(batch)
        g2.apply_updates(batch)
        ref = PMHLIndex(g2.copy(), k, coords)
        for ua, ub in zip(idx.units, ref.units, strict=True):
            assert np.array_equal(ua.res_pos, ub.res_pos)
            assert np.array_equal(ua.res_w, ub.res_w)
            assert np.array_equal(ua.td.flat, ub.td.flat)
        assert idx.td_o.order == ref.td_o.order
        assert np.array_equal(idx.td_o.flat, ref.td_o.flat)


def _pinned_boundary_edges(idx):
    """Same-partition edges between two boundary vertices whose weight is
    above their D entry: the post-boundary tree holds D for them, not
    the edge weight."""
    out = []
    for u in idx.units:
        for a, la in enumerate(u.b_local):
            for b, lb in enumerate(u.b_local):
                ga, gb = u.vertices[la], u.vertices[lb]
                if a < b and gb in idx.graph.adj[ga] and idx.graph.adj[ga][gb] > u.D[a, b]:
                    out.append((ga, gb, idx.graph.adj[ga][gb]))
    return out


def test_incremental_state_equals_fresh_build_increase_only():
    """An increase-only batch, then a batch of inter-partition edges only
    (partitions without intra updates still see their D / L* move), then
    one that doubles only pinned boundary-pair edges (D stays put, so the
    post-boundary tree must keep D as their base weight)."""
    g, coords, _ = small_case(6, 20, 5)
    idx = PMHLIndex(g.copy(), 4, coords)
    g2 = g.copy()
    increase = [(u, v, w * 3) for u, v, w in list(g.edges())[::4]]
    inter = [(a, b, g2.adj[a][b] / 2) for a, b, _ in idx.part.inter_edges]
    for batch in (increase, inter, None):
        if batch is None:
            batch = [(a, b, w * 2) for a, b, w in _pinned_boundary_edges(idx)]
            assert batch
        idx.apply_batch(batch)
        g2.apply_updates(batch)
        _assert_same_state(idx, PMHLIndex(g2.copy(), 4, coords))


@pytest.mark.parametrize("factor", [3.0, 0.5])
def test_refreshed_D_equals_full_boundary_matrix(factor, monkeypatch):
    """U4 recomputes only the D rows whose boundary vertex's overlay
    label changed; after every increase-only or decrease-only batch each
    partition's D equals a full re-query, and fewer rows were recomputed."""
    g, coords, _ = small_case(6, 20, 5)
    idx = PMHLIndex(g.copy(), 4, coords)
    rows = []
    real = pmhl.boundary_rows
    monkeypatch.setattr(pmhl, "boundary_rows", lambda H, r: rows.extend(r) or real(H, r))
    edges = list(g.edges())
    D0 = [u.D.copy() for u in idx.units]
    made = full = 0
    for k in range(3):
        rows.clear()
        idx.apply_batch([(a, b, idx.graph.adj[a][b] * factor) for a, b, _ in edges[k::15]])
        made += len(rows)
        full += sum(len(u.b_ov) for u in idx.units)
        for u in idx.units:
            assert np.array_equal(u.D, boundary_matrix(idx.td_o, idx.dis_o, u.b_ov)), u.pid
    assert any(not np.array_equal(d, u.D) for d, u in zip(D0, idx.units))
    assert 0 < made < full


def _pair_classes(idx):
    """One list of (s, t) pairs per query_cross path."""
    def is_b(v):
        u = idx.units[int(idx.part.pid[v])]
        return u.loc[v] in u.b_set

    classes = {c: [] for c in ("nonb-nonb", "b-nonb", "nonb-b", "b-b", "same", "s==t")}
    for s in range(idx.graph.n):
        classes["s==t"].append((s, s))
        for t in range(idx.graph.n):
            if s == t:
                continue
            if idx.part.pid[s] == idx.part.pid[t]:
                classes["same"].append((s, t))
            else:
                key = ("b" if is_b(s) else "nonb") + "-" + ("b" if is_b(t) else "nonb")
                classes[key].append((s, t))
    return classes


def test_query_cross_every_path_exact(built):
    """Each pair class of query_cross equals Floyd–Warshall exactly; each
    cross-partition class also equals the generic hub_query over the
    per-vertex (hubs, L* row) arrays."""
    idx, g, fw, seed = built

    def label(v):
        u = idx.units[int(idx.part.pid[v])]
        return u.hubs, u.lrows[u.loc[v]]

    for cls, pairs in _pair_classes(idx).items():
        assert pairs, cls
        for s, t in pairs[:: max(1, len(pairs) // 60)]:
            d = idx.query_cross(s, t)
            assert d == fw[s][t], (cls, s, t)
            if cls not in ("same", "s==t"):
                assert d == hub_query(*label(s), *label(t)), (cls, s, t)


def _assert_boundary_rows_are_overlay_labels(idx):
    for u in idx.units:
        for j, (l, o) in enumerate(zip(u.b_local, u.b_ov)):
            row = u.lrows[l]
            assert np.array_equal(row[u.bcols[j]], idx.dis_o[o]), l
            rest = np.ones(len(row), dtype=bool)
            rest[u.bcols[j]] = False
            assert np.all(row[rest] == math.inf), l


def test_boundary_rows_are_overlay_labels():
    """A boundary vertex's L* row holds its overlay label at its ancestor
    columns and INF elsewhere, after the build and after a batch."""
    g, coords, ups, _ = updated_case(2, 20, 5)
    idx = PMHLIndex(g.copy(), 4, coords)
    _assert_boundary_rows_are_overlay_labels(idx)
    idx.apply_batch(ups[0])
    _assert_boundary_rows_are_overlay_labels(idx)


def test_batch_leaves_published_arrays_unchanged():
    """U5 rebuilds into fresh arrays: rows read before a batch keep their values."""
    g, coords, ups, _ = updated_case(1, 20, 5)
    idx = PMHLIndex(g.copy(), 4, coords)
    held = [(u.disB, dict(u.lstar)) for u in idx.units]
    copies = [(m.copy(), {v: (h.copy(), d.copy()) for v, (h, d) in ls.items()}) for m, ls in held]
    idx.apply_batch(ups[0])
    assert any(m is not u.disB for (m, _), u in zip(held, idx.units))
    for (m, ls), (m0, ls0) in zip(held, copies):
        assert np.array_equal(m, m0)
        for v, (h, d) in ls.items():
            assert np.array_equal(h, ls0[v][0]) and np.array_equal(d, ls0[v][1])
