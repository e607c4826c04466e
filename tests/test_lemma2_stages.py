"""The intermediate query stages as Lemma 2's min-plus product.

PMHL's no-boundary and post-boundary stages and PostMHL's post-boundary
stage concatenate boundary distances through the common overlay hubs
instead of pair by pair. Their answers must be ``==`` the pairwise
concatenation (``tests/concat_reference.py``) and Dijkstra's, after the
build and after increase and decrease batches; each stage must be right
as soon as its U-stage has run; and the row gathers rely on B_i being
the top chain of every PMHL partition tree.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.dijkstra import dijkstra
from repro.core.treedec import update_shortcuts
from repro.experiments.runner import ALGOS
from repro.graphs.generator import DATASETS
from repro.psp.pmhl import PMHLIndex
from repro.psp.postmhl import PostMHLIndex
from repro.psp.strategies import NCHPIndex, PTDPIndex
from tests import concat_reference as ref
from tests.util import pairs_for, pmhl_pair_classes, postmhl_pair_classes, small_case, updated_case


def _assert_stages(pm: PMHLIndex, post: PostMHLIndex, rng) -> None:
    stages = [
        (pm, pmhl_pair_classes, [(pm.query_noboundary, ref.pmhl_noboundary), (pm.query_postboundary, ref.pmhl_postboundary)]),
        (post, postmhl_pair_classes, [(post.query_postboundary, ref.postmhl_postboundary)]),
    ]
    for idx, pairs, checks in stages:
        classes = pairs(idx, rng)
        assert all(classes.values()), {k: len(v) for k, v in classes.items()}
        for kind, ps in classes.items():
            truth = {s: dijkstra(idx.graph, s) for s in {s for s, _ in ps}}
            for s, t in ps:
                for new, old in checks:
                    d = new(s, t)
                    assert d == old(idx, s, t), (new.__name__, kind, s, t)
                    assert d == truth[s][t], (new.__name__, kind, s, t)


@pytest.mark.parametrize("name", ["NY", "FLA"])
def test_lemma2_stages_equal_concatenation(name):
    """After the build, an increase-only and a decrease-only batch of 100
    edges, every new stage equals the pairwise concatenation and
    Dijkstra on every pair class."""
    spec = DATASETS[name]
    g, coords = spec.build()
    pm = PMHLIndex(g.copy(), spec.k, coords)
    post = PostMHLIndex(g.copy(), tau=spec.tau, k_e=spec.k_e)
    rng = np.random.default_rng(14)
    _assert_stages(pm, post, rng)
    edges = list(g.edges())
    for factor in (2.0, 0.5):
        pick = rng.choice(len(edges), 100, replace=False)
        batch = [(a, b, pm.graph.adj[a][b] * factor) for a, b, _ in (edges[k] for k in pick)]
        pm.apply_batch(batch)
        post.apply_batch(batch)
        _assert_stages(pm, post, rng)


@pytest.mark.parametrize("seed,k", [(0, 3), (1, 4), (2, 5)])
def test_pmhl_stages_exact_when_they_open(seed, k, monkeypatch):
    """No-boundary answers right after U3 (U4 and U5 skipped), and
    post-boundary right after U4 (U5 skipped): both read H, which U3
    refreshes."""
    g, coords, ups, truths = updated_case(seed, 20, 5)
    after_u3 = PMHLIndex(g.copy(), k, coords)
    after_u4 = PMHLIndex(g.copy(), k, coords)
    held = [u.H.copy() for u in after_u3.units]
    monkeypatch.setattr(PMHLIndex, "_build_cross", lambda self, u: None)
    real_post = PMHLIndex._update_post
    for batch, fw in zip(ups, truths):
        monkeypatch.setattr(PMHLIndex, "_update_post", lambda self, intra, post, changed: update_shortcuts(self.td_post, []))
        after_u3.apply_batch(batch)
        monkeypatch.setattr(PMHLIndex, "_update_post", real_post)
        after_u4.apply_batch(batch)
        for s, t in pairs_for(g.n, 150, seed + 5):
            assert after_u3.query_noboundary(s, t) == fw[s][t], (s, t)
            assert after_u4.query_postboundary(s, t) == fw[s][t], (s, t)
    assert any(not np.array_equal(h, u.H) for h, u in zip(held, after_u3.units))


@pytest.mark.parametrize("seed,tau,ke", [(0, 8, 4), (1, 8, 5), (2, 10, 4)])
def test_postmhl_postboundary_exact_when_it_opens(seed, tau, ke, monkeypatch):
    """Post-boundary answers right after U4, with U5 skipped; it reads
    H_i, which U3 refreshes."""
    g, _, ups, truths = updated_case(seed, 20, 5)
    idx = PostMHLIndex(g.copy(), tau=tau, k_e=ke)
    held = list(idx.H)
    monkeypatch.setattr(PostMHLIndex, "_build_cross", lambda self, i: None)
    for batch, fw in zip(ups, truths):
        idx.apply_batch(batch)
        for s, t in pairs_for(g.n, 150, seed + 5):
            assert idx.query_postboundary(s, t) == fw[s][t], (s, t)
    assert any(h is not H for h, H in zip(held, idx.H))


def _assert_boundary_top_chain(idx: PMHLIndex, pids) -> None:
    for i in pids:
        u = idx.units[i]
        nb = len(u.b_local)
        assert [int(idx.td.depth[b]) for b in u.b_local] == list(range(nb - 1, -1, -1)), i
        for b in u.b_local[:-1]:
            assert int(idx.td.parent[b]) in u.b_set, i


@pytest.mark.parametrize("name,pids", [("NY", None), ("FLA", None), ("CTR", [31])])
def test_boundary_is_top_chain(name, pids):
    """B_i sits at depths |B|-1, ..., 0 of every partition tree, b_local
    deepest first; CTR partition 31's chain lacked boundary pairs before
    the boundary was joined into one clique."""
    spec = DATASETS[name]
    g, coords = spec.build()
    idx = NCHPIndex(g, spec.k, coords)  # the check runs at every build level
    _assert_boundary_top_chain(idx, pids or range(idx.k))


def test_build_rejects_a_boundary_off_the_top_chain(monkeypatch):
    """A partition tree whose boundary is not its top chain fails the build."""
    import repro.psp.pmhl as pmhl

    real = pmhl.finish_boundary_first
    monkeypatch.setattr(pmhl, "finish_boundary_first", lambda e, orders: real(e, [o[::-1] for o in orders]))
    g, coords, _ = small_case(0, 20, 5)
    with pytest.raises(AssertionError, match="boundary depths"):
        PMHLIndex(g.copy(), 3, coords)


def test_ptdp_keeps_pairwise_concatenation(monkeypatch):
    """P-TD-P, the paper's baseline, answers across partitions with [35]'s
    pairwise concatenation, and the runner's P-TD-P stage calls it."""
    import repro.psp.strategies as strategies

    g, coords, fw = small_case(1, 20, 5)
    idx = PTDPIndex(g.copy(), 4, coords)
    calls = []
    real = strategies.concat_min
    monkeypatch.setattr(strategies, "concat_min", lambda *a: calls.append(a) or real(*a))
    stage = getattr(idx, ALGOS["P-TD-P"].stages[0][1])
    cross = [(s, t) for s, t in pairs_for(g.n, 60, 2) if idx.part.pid[s] != idx.part.pid[t]]
    for s, t in cross:
        assert stage(s, t) == fw[s][t]
    assert len(calls) == len(cross) > 0
