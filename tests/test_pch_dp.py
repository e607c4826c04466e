"""The CH query stage as a root-path DP (Lemma 4).

Every CH-stage query (DCH, DH2H's ``query_ch``, PostMHL's and PMHL's
PCH, N-CH-P) walks tree ancestors instead of running a heap search. Its
answers must be ``==`` the bidirectional heap search it replaced
(``tests/ch_reference.py``) and Dijkstra's, after the build and after
increase and decrease batches, on every pair class; and so must its
upward distances, ancestor by ancestor. Paths that join the boundary
chain partway and pairs with no path are covered on small fixtures.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.ch import CHIndex
from repro.core.dijkstra import dijkstra
from repro.core.h2h import H2HIndex
from repro.graphs.generator import DATASETS
from repro.psp.pmhl import PMHLIndex
from repro.psp.postmhl import PostMHLIndex
from repro.psp.strategies import NCHPIndex
from tests import ch_reference as ref
from tests.util import is_boundary, pmhl_pair_classes, postmhl_pair_classes, small_case, two_components, updated_case

INF = math.inf


def _assert_pairs(idx, query, pairs, what) -> None:
    truth = {s: dijkstra(idx.graph, s) for s in {s for s, _ in pairs}}
    for s, t in pairs:
        d = query(s, t)
        assert d == ref.query(idx, s, t), (what, s, t)
        assert d == truth[s].get(t, INF), (what, s, t)


def _assert_overlay_dominates(idx: PMHLIndex) -> None:
    """The premise that lets PMHL's phase 2 skip the boundary vertices'
    partition rows: each finite entry is also in the overlay row, with a
    weight no larger."""
    td_o = idx.td_o
    for u in idx.units:
        for b in u.b_local:
            o = idx.o_loc[b]
            for x, w in zip(idx.td.neigh[b], idx.td.sc[b]):
                if w < INF:
                    k = td_o.nidx[o][idx.o_loc[x]]
                    assert td_o.sc[o][k] <= w, (u.pid, b, x)


def _assert_all(indexes, rng) -> None:
    pm, nchp, post, dch, dh2h = indexes
    _assert_overlay_dominates(pm)
    for idx in (pm, nchp):
        classes = pmhl_pair_classes(idx, rng)
        for kind, ps in classes.items():
            if kind.startswith("boundary"):
                ps = ps + [(t, s) for s, t in ps]
            _assert_pairs(idx, idx.query_pch, ps, (type(idx).__name__, kind))
        loops = [(v, v) for v in rng.choice(idx.graph.n, 3, replace=False).tolist()]
        loops.append((idx.units[0].b_local[0],) * 2)
        _assert_pairs(idx, idx.query_pch, loops, (type(idx).__name__, "s == t"))
    classes = postmhl_pair_classes(post, rng)
    for kind, ps in classes.items():
        _assert_pairs(post, post.query_pch, ps, ("PostMHL", kind))
    mixed = [p for ps in classes.values() for p in ps[:10]]
    _assert_pairs(dch, dch.query, mixed, "DCH")
    _assert_pairs(dh2h, dh2h.query_ch, mixed, "DH2H")


@pytest.mark.parametrize("name", ["NY", "FLA"])
def test_pch_dp_equals_heap_search(name):
    """After the build, an increase-only and a decrease-only batch of 100
    edges, every CH stage equals the heap search and Dijkstra."""
    spec = DATASETS[name]
    g, coords = spec.build()
    indexes = (
        PMHLIndex(g.copy(), spec.k, coords),
        NCHPIndex(g.copy(), spec.k, coords),
        PostMHLIndex(g.copy(), tau=spec.tau, k_e=spec.k_e),
        CHIndex(g.copy()),
        H2HIndex(g.copy()),
    )
    rng = np.random.default_rng(15)
    _assert_all(indexes, rng)
    edges = list(g.edges())
    for factor in (2.0, 0.5):
        pick = rng.choice(len(edges), 100, replace=False)
        batch = [(a, b, indexes[0].graph.adj[a][b] * factor) for a, b, _ in (edges[k] for k in pick)]
        for idx in indexes:
            idx.apply_batch(batch)
        _assert_all(indexes, rng)


def test_upward_distances_equal_heap_search():
    """``TreeCH.up`` gives every ancestor the distance the upward heap
    search settles it at (INF where it settles none), after each batch."""
    g, _, ups, _ = updated_case(1, 20, 5)
    idx = CHIndex(g.copy())
    for batch in [[], *ups]:
        idx.apply_batch(batch)
        for v in range(g.n):
            dist = idx.ch.up(v)
            want = ref.upward_search(ref.tree_rows(idx.td), v)
            assert dist == [want.get(x, INF) for x in idx.td.ancestors(v)], v
            assert set(want) <= set(idx.td.ancestors(v))


def test_pch_paths_that_leave_the_boundary_chain_partway():
    """A vertex whose partition path enters B_i below its deepest vertex
    (0 < b_anc < |B|) skips the deeper part of the chain; PCH stays exact
    for it after each batch."""
    g, coords, ups, truths = updated_case(0, 20, 5)
    idx = PMHLIndex(g.copy(), 3, coords)
    branch = [
        v
        for u in idx.units
        for v in u.vertices
        if not is_boundary(idx, v) and 0 < idx.b_anc[v] < len(u.b_local)
    ]
    assert len(branch) >= 10
    for batch, fw in [([], small_case(0, 20, 5)[2]), *zip(ups, truths)]:
        idx.apply_batch(batch)
        for s in branch[::3]:
            for t in range(0, g.n, 3):
                d = idx.query_pch(s, t)
                assert d == fw[s][t] == ref.query(idx, s, t), (s, t)
                assert idx.query_pch(t, s) == d, (t, s)


def test_pch_no_path_is_inf():
    """Across components every CH stage answers INF; inside the extra
    component (no boundary, its own partition-tree root) it is exact."""
    g, coords, n = two_components()
    pm = PMHLIndex(g.copy(), 3, coords)
    assert sum(pm.part.pid[r] == pm.part.pid[n] for r in pm.td.roots) == 2
    post, h2h = PostMHLIndex(g.copy(), tau=8, k_e=3), H2HIndex(g.copy())
    dch, nchp = CHIndex(g.copy()), NCHPIndex(g.copy(), 3, coords)
    stages = [
        (pm, pm.query_pch), (nchp, nchp.query_pch), (post, post.query_pch), (dch, dch.query), (h2h, h2h.query_ch)
    ]
    for idx, query in stages:
        for s in (n, n + 2):
            for t in range(0, n, 4):
                assert query(s, t) == INF == ref.query(idx, s, t)
                assert query(t, s) == INF == ref.query(idx, t, s)
        assert query(n, n + 2) == 12.0 == ref.query(idx, n, n + 2)
        assert query(n + 2, n + 1) == 5.0

