"""PostMHL (Algorithm 4): correctness, DH2H equivalence, maintenance."""
from functools import lru_cache

import numpy as np
import pytest

from repro.core.dijkstra import floyd_warshall
from repro.core.h2h import H2HIndex
from repro.graphs.generator import DATASETS
from repro.psp.postmhl import PostMHLIndex, boundary_dists
from tests.concat_reference import boundary_gather, boundary_matrix
from tests.util import pairs_for, small_case, updated_case

PARAMS = [(0, 8, 4), (1, 8, 5), (2, 10, 4)]


@pytest.fixture(scope="module", params=PARAMS)
def built(request):
    seed, tau, ke = request.param
    g, _, fw = small_case(seed, 20, 5)
    return PostMHLIndex(g.copy(), tau=tau, k_e=ke), g, fw, seed


def test_partitions_exist(built):
    idx, g, _, _ = built
    assert idx.k >= 2
    assert 0 < idx.overlay_size() < g.n


def test_remark2_labels_equal_h2h(built):
    """PostMHL's full label rows are exactly the H2H/DH2H labels."""
    idx, g, _, _ = built
    ref = H2HIndex(g.copy())
    for v in range(g.n):
        assert np.array_equal(idx.dis[v], ref.dis[v]), v


@pytest.mark.parametrize("stage", ["query_pch", "query_postboundary", "query"])
def test_stage_queries_exact(built, stage):
    idx, g, fw, seed = built
    q = getattr(idx, stage)
    for s, t in pairs_for(g.n, 50, seed):
        assert q(s, t) == pytest.approx(fw[s][t]), (stage, s, t)


def test_disB_exact(built):
    """Boundary arrays hold exact global distances to X(root).N."""
    idx, g, fw, _ = built
    for i in range(idx.k):
        bs = idx.tdp.boundary[i]
        for v in idx.tdp.parts[i][::4]:
            for j, b in enumerate(bs):
                assert idx.disB[v][j] == pytest.approx(fw[v][b])


def test_boundary_matrix_exact(built):
    idx, g, fw, _ = built
    for i in range(idx.k):
        bs = idx.tdp.boundary[i]
        for a in range(len(bs)):
            for b in range(len(bs)):
                assert idx.D[i][a, b] == pytest.approx(fw[bs[a]][bs[b]])


def test_overlay_neighbors_of_partition_in_root_bag(built):
    """Every overlay neighbor of an in-partition vertex ∈ X(root).N —
    the containment Algorithm 4 line 26 relies on."""
    idx, _, _, _ = built
    for i in range(idx.k):
        bag = set(idx.tdp.boundary[i])
        for v in idx.tdp.parts[i]:
            for x in idx.td.neigh[v]:
                if x in idx.tdp.overlay:
                    assert x in bag


@pytest.mark.parametrize("seed,tau,ke", PARAMS[:2])
def test_maintenance_all_stages(seed, tau, ke):
    g, _, ups, truths = updated_case(seed, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=tau, k_e=ke)
    for batch, fw in zip(ups, truths):
        times = idx.apply_batch(batch)
        assert {"u1", "u2", "u3", "u4", "u5"} <= set(times)
        for s, t in pairs_for(g.n, 25, seed + 3):
            d = fw[s][t]
            assert idx.query_bidij(s, t) == pytest.approx(d)
            assert idx.query_pch(s, t) == pytest.approx(d)
            assert idx.query_postboundary(s, t) == pytest.approx(d)
            assert idx.query(s, t) == pytest.approx(d)


def test_maintenance_labels_equal_h2h_after_updates():
    """Theorem 4 consequence: staged updates land on the DH2H labels."""
    g, _, ups, _ = updated_case(3, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=8, k_e=4)
    ref = H2HIndex(g.copy())
    for batch in ups:
        idx.apply_batch(batch)
        ref.apply_batch(batch)
    for v in range(g.n):
        assert np.array_equal(idx.dis[v], ref.dis[v]), v


def _pair_class(idx, s, t) -> str:
    i, j = int(idx.tdp.pid[s]), int(idx.tdp.pid[t])
    if s == t:
        return "same vertex"
    if i == j == -1:
        return "overlay-overlay"
    if i == -1 or j == -1:
        return "overlay-partition" if i == -1 else "partition-overlay"
    if i != j:
        return "partition-partition"
    return "ancestor" if idx.td.lca(s, t) in (s, t) else "same partition"


@lru_cache(maxsize=None)
def _window_case(seed: int, width: int, height: int, x0: int, span: int):
    """A graph, batch → reversal → batch where the batch doubles every
    edge inside the grid columns ``[x0, x0 + span)``, and the all-pairs
    distances after each."""
    g, coords, fw0 = small_case(seed, width, height)
    inside = [(u, v, w) for u, v, w in g.edges() if all(x0 <= coords[x][0] < x0 + span for x in (u, v))]
    batch = [(u, v, w * 2.0) for u, v, w in inside]
    g2 = g.copy()
    g2.apply_updates(batch)
    fw = floyd_warshall(g2)
    return g, [batch, inside, batch], [fw, fw0, fw]


def _case(case: tuple):
    """(graph, batches, distances after each) of an ``updated_case``
    argument tuple or of a ``("window", ...)`` one."""
    if case[0] == "window":
        return _window_case(*case[1:])
    g, _, ups, truths = updated_case(*case)
    return g, ups, truths


# Columns 20-22 of this 40×5 grid: U2 changes rows of partitions 2 and 3,
# D moves in 6 and 7, and the other five partitions skip U4 (U5 still
# runs in all nine).
WINDOW = (("window", 2, 40, 5, 20, 3), 8, 6)


@pytest.mark.parametrize(
    "case,tau,ke", [((0, 20, 5), 8, 4), ((1, 20, 5), 8, 5), WINDOW], ids=["0-8-4", "1-8-5", "window"]
)
def test_postboundary_exact_before_u5(case, tau, ke, monkeypatch):
    """Q-stage 3 needs U1–U4 only: with the cross-boundary phase skipped,
    every pair class is exact, disB is exact and the in-partition columns
    are the H2H labels."""
    g, ups, truths = _case(case)
    idx = PostMHLIndex(g.copy(), tau=tau, k_e=ke)
    ref = H2HIndex(g.copy())
    monkeypatch.setattr(PostMHLIndex, "_build_cross", lambda self, i: None)
    for batch, fw in zip(ups, truths):
        idx.apply_batch(batch)
        ref.apply_batch(batch)
        classes: dict[str, int] = {}
        for s in range(0, g.n, g.n // 50):  # 50 sources
            for t in range(g.n):
                assert idx.query_postboundary(s, t) == fw[s][t], (s, t)
                c = _pair_class(idx, s, t)
                classes[c] = classes.get(c, 0) + 1
        assert len(classes) == 7, classes
        for i in range(idx.k):
            novl = idx.novl[i]
            for v in idx.tdp.parts[i]:
                assert [idx.disB[v][j] for j in range(len(idx.tdp.boundary[i]))] == [
                    fw[v][b] for b in idx.tdp.boundary[i]
                ]
                assert np.array_equal(idx.dis[v][novl:], ref.dis[v][novl:]), v


def _assert_same_state(a: PostMHLIndex, b: PostMHLIndex) -> None:
    """D, every disB row and every label row of ``a`` and ``b`` are bit-for-bit equal."""
    assert a.tdp.roots == b.tdp.roots
    for i in range(a.k):
        assert np.array_equal(a.D[i], b.D[i]), i
    for v in range(a.graph.n):
        assert (a.disB[v] is None) == (b.disB[v] is None), v
        if a.disB[v] is not None:
            assert np.array_equal(a.disB[v], b.disB[v]), v
        assert np.array_equal(a.dis[v], b.dis[v]), v


@pytest.mark.parametrize(
    "case,tau,ke",
    [
        ((0, 20, 5), 8, 4),
        ((1, 20, 5), 8, 5),
        ((2, 20, 5), 10, 4),
        ((3, 20, 5), 8, 4),
        # batch 3 changes the row of an overlay ancestor of a partition
        # root outside B_i while every B_i row stays the same
        ((1, 30, 6, 3, 15), 10, 6),
        # U4 skips partitions, some of which U5 still rebuilds
        WINDOW,
    ],
    ids=["seed0", "seed1", "seed2", "seed3", "ancestor-outside-B", "window"],
)
def test_incremental_state_equals_fresh_build(case, tau, ke):
    """After every batch, maintained D / disB / labels equal a from-scratch
    build on the updated graph."""
    g, ups, _ = _case(case)
    idx = PostMHLIndex(g.copy(), tau=tau, k_e=ke)
    for batch in ups:
        times = idx.apply_batch(batch)
        if case[0] == "window":
            assert 0 < len(times["u4"]["parts"]) < idx.k
        _assert_same_state(idx, PostMHLIndex(idx.graph.copy(), tau=tau, k_e=ke))


def _assert_D_is_gather(idx: PostMHLIndex) -> None:
    """Every partition's D_i, read from H_i, is bit for bit the pairwise
    gather of B_i's label rows."""
    for i, root in enumerate(idx.tdp.roots):
        D = boundary_gather(idx.td, idx.dis, root)
        assert np.array_equal(boundary_dists(idx.td, idx.H[i], root), D), i
        assert np.array_equal(idx.D[i], D), i


@pytest.mark.parametrize("name", ["NY", "FLA"])
def test_D_from_H_equals_gather(name):
    """After the build and after each of 3 halve/double batches of 100
    edges, on every partition of NY and FLA."""
    spec = DATASETS[name]
    g, _ = spec.build()
    idx = PostMHLIndex(g.copy(), tau=spec.tau, k_e=spec.k_e)
    _assert_D_is_gather(idx)
    rng = np.random.default_rng(17)
    edges = list(g.edges())
    for _ in range(3):
        pick = rng.choice(len(edges), 100, replace=False)
        batch = [(a, b, idx.graph.adj[a][b] * float(rng.choice([0.5, 2.0]))) for a, b, _ in (edges[k] for k in pick)]
        idx.apply_batch(batch)
        _assert_D_is_gather(idx)


@pytest.mark.parametrize("seed,tau,ke", PARAMS)
def test_gathered_D_equals_boundary_matrix(seed, tau, ke):
    """The gather of B_i's rows is bit for bit the H2H-query matrix."""
    g, _, ups, _ = updated_case(seed, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=tau, k_e=ke)
    for batch in [None, *ups]:
        if batch is not None:
            idx.apply_batch(batch)
        for i, (root, bs) in enumerate(zip(idx.tdp.roots, idx.tdp.boundary)):
            D = boundary_matrix(idx.td, idx.dis, bs)
            assert np.array_equal(boundary_gather(idx.td, idx.dis, root), D), i
            assert np.array_equal(idx.D[i], D), i


def test_window_batch_skips_unchanged_partitions():
    """U4 runs exactly where D_i or the partition's shortcuts changed; a
    skipped partition keeps its D and disB objects."""
    case, tau, ke = WINDOW
    g, ups, _ = _case(case)
    idx = PostMHLIndex(g.copy(), tau=tau, k_e=ke)
    td = idx.td
    D0, disB0 = list(idx.D), list(idx.disB)
    flat0 = td.flat.copy()
    times = idx.apply_batch(ups[0])
    sc_moved = {
        i
        for i, part in enumerate(idx.tdp.parts)
        if any(not np.array_equal(flat0[td.flat_off[v] : td.flat_off[v + 1]], td.sc[v]) for v in part)
    }
    D_moved = {i for i in range(idx.k) if not np.array_equal(D0[i], idx.D[i])}
    ran = set(times["u4"]["parts"])
    assert ran == sc_moved | D_moved
    assert D_moved - sc_moved and 0 < len(ran) < idx.k
    for i in set(range(idx.k)) - ran:
        assert idx.D[i] is D0[i], i
        assert all(idx.disB[v] is disB0[v] for v in idx.tdp.parts[i]), i


def test_batch_after_reversal_runs_same_tasks():
    """batch → reversal → batch: both applications of the batch start from
    the same state, so they rebuild the same partitions."""
    case, tau, ke = WINDOW
    g, ups, _ = _case(case)
    idx = PostMHLIndex(g.copy(), tau=tau, k_e=ke)
    first, _, again = (idx.apply_batch(b) for b in ups)
    for stage in ("u2", "u4", "u5"):
        assert first[stage]["parts"].keys() == again[stage]["parts"].keys(), stage


def test_incremental_state_equals_fresh_build_increase_only():
    g, _, _ = small_case(6, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=8, k_e=4)
    idx.apply_batch([(u, v, w * 3) for u, v, w in list(g.edges())[::4]])
    _assert_same_state(idx, PostMHLIndex(idx.graph.copy(), tau=8, k_e=4))


def test_batch_leaves_published_rows_unchanged():
    """A batch writes fresh arrays: rows and matrices a reader holds from
    before it (overlay labels included) keep their values."""
    g, _, ups, _ = updated_case(3, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=8, k_e=4)
    for batch in ups:
        rows = list(idx.dis)
        held = [a for a in [*rows, *idx.disB, *idx.D] if a is not None]
        copies = [a.copy() for a in held]
        idx.apply_batch(batch)
        assert all(np.array_equal(a, c) for a, c in zip(held, copies))
        assert any(idx.dis[v] is not rows[v] for v in idx.tdp.overlay)


def test_maintenance_increase_only():
    g, _, fw0 = small_case(6, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=8, k_e=4)
    batch = [(u, v, w * 3) for u, v, w in list(g.edges())[::4]]
    idx.apply_batch(batch)
    g2 = g.copy()
    g2.apply_updates(batch)
    fw = floyd_warshall(g2)
    for s, t in pairs_for(g.n, 40, 5):
        assert idx.query(s, t) == pytest.approx(fw[s][t])
        assert idx.query_postboundary(s, t) == pytest.approx(fw[s][t])


def test_index_size_includes_boundary_arrays(built):
    """Theorem 5 shape: |L| = H2H labels + shortcuts + n_p·|B| terms."""
    idx, g, _, _ = built
    h2h_part = sum(len(d) for d in idx.dis) + sum(len(nb) for nb in idx.td.neigh)
    extra = sum(len(b) for b in idx.disB if b is not None)
    assert idx.index_size() == h2h_part + extra
    assert extra > 0


def test_build_times_recorded(built):
    idx, _, _, _ = built
    assert set(idx.build_times) == {"tree", "partition", "overlay", "post", "cross"}
    assert len(idx.build_times["post"]) == idx.k
