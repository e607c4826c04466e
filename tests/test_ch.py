"""CH index (Lemma 4 construction) and DCH maintenance."""
import time

import pytest

from repro.baselines.toain import TOAINIndex
from repro.core.ch import CHIndex
from tests.util import pairs_for, small_case, updated_case


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ch_query_exact(seed):
    g, _, fw = small_case(seed)
    idx = CHIndex(g.copy())
    for s, t in pairs_for(g.n, 50, seed):
        assert idx.query(s, t) == pytest.approx(fw[s][t])


def test_ch_identity():
    g, _, _ = small_case(0)
    assert CHIndex(g.copy()).query(3, 3) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dch_maintenance_exact(seed):
    g, _, ups, truths = updated_case(seed)
    idx = CHIndex(g.copy())
    for batch, fw in zip(ups, truths):
        dt = idx.apply_batch(batch)
        assert dt >= 0
        for s, t in pairs_for(g.n, 30, seed + 1):
            assert idx.query(s, t) == pytest.approx(fw[s][t])


def test_dch_decrease_then_increase_roundtrip():
    """Halve then restore a batch of edges: index returns to original."""
    g, _, fw = small_case(4)
    idx = CHIndex(g.copy())
    edges = list(g.edges())[:20]
    idx.apply_batch([(u, v, w / 2) for u, v, w in edges])
    idx.apply_batch([(u, v, w) for u, v, w in edges])
    for s, t in pairs_for(g.n, 30, 9):
        assert idx.query(s, t) == pytest.approx(fw[s][t])


def test_index_size_positive():
    g, _, _ = small_case(0)
    idx = CHIndex(g.copy())
    assert idx.index_size() >= g.m  # at least every original edge appears
    assert idx.build_time > 0


@pytest.mark.parametrize("cls", [CHIndex, TOAINIndex])
def test_batch_seconds_cover_the_graph_update(cls, monkeypatch):
    """DCH's and TOAIN's batch seconds include U1 (the graph update), as
    DH2H's, PMHL's and PostMHL's batch times do."""
    g, _, ups, _ = updated_case(1)
    idx = cls(g.copy())
    real = idx.graph.apply_updates

    def slow(updates):
        time.sleep(0.05)
        return real(updates)

    monkeypatch.setattr(idx.graph, "apply_updates", slow)
    assert idx.apply_batch(ups[0]) >= 0.05
