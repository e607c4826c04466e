"""Tests of the benchmark's own helpers (not of the indexes)."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.dijkstra import dijkstra
from repro.graphs.generator import road_network, update_batches
from repro.psp.pmhl import PMHLIndex
from repro.psp.postmhl import PostMHLIndex

from perfbench import adapter, tracing
from perfbench.metrics import PROBE_MEAN_REF_US, PROBE_P10_REF_US, host_scale, tail_percentile
from perfbench.bench import Raw
from perfbench.workloads import VOLUME, HalveOrDouble, Queries, Workload, generators, hotspot_window


# ---------------------------------------------------------------- p99 --
def test_p99_needs_ten_samples_beyond_it():
    assert tail_percentile(np.arange(999.0), 99) is None
    v = tail_percentile(np.arange(1000.0), 99)
    assert v is not None and (np.arange(1000.0) > v).sum() >= 10
    assert tail_percentile([], 50) is None
    assert tail_percentile(np.arange(20.0), 50) == pytest.approx(9.5)


def test_timings_keep_the_fastest_repetition():
    raw = Raw()
    raw.lat[("pmhl", "cross")] = [np.array([3.0, 1.0, 5.0]), np.array([2.0, 4.0, 5.0])]
    assert raw.latencies("pmhl", "cross").tolist() == [2.0, 1.0, 5.0]
    a = {"u1": 1.0, "u2": {"parts": {0: 3.0, 1: 1.0}, "overlay": 2.0}}
    b = {"u1": 2.0, "u2": {"parts": {0: 1.0, 1: 4.0}, "overlay": 2.5}}
    assert adapter.fastest_times([a, b]) == {"u1": 1.0, "u2": {"parts": {0: 1.0, 1: 1.0}, "overlay": 2.0}}
    with pytest.raises(ValueError):
        adapter.fastest_times([a, {"u1": 1.0}])


def test_host_scale_matches_the_probe_statistic_to_the_timing():
    raw = Raw()
    raw.probe = [x * 1e-6 for x in [400.0] * 9 + [400.0] + [1300.0] * 10]
    hq, hw = host_scale(raw)
    assert hq == pytest.approx(PROBE_P10_REF_US / 400.0)  # 10th percentile: the quiet host
    assert hw == pytest.approx(PROBE_MEAN_REF_US / 850.0)  # mean: every burst


# --------------------------------------------------------------- spans --
def test_self_time_subtracts_direct_children(monkeypatch):
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    tr = tracing.Tracer()
    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: leaf())
    with tr.span("outer"):      # [0, 10]
        leaf()                  # [1, 4]
        mid()                   # [5, 9] holding leaf [6, 7]
    t = tr.table()
    names = [tr.names[i] for i in t["name"]]
    assert names == ["outer", "leaf", "mid", "leaf"]
    assert t["dur"].tolist() == [10.0, 3.0, 4.0, 1.0]
    assert t["self"].tolist() == [3.0, 3.0, 3.0, 1.0]
    assert t["parent"].tolist() == [-1, 0, 0, 2]
    assert t["root"].tolist() == [0, 0, 0, 0]


def test_patched_restores_and_counts():
    import repro.psp.pmhl as pm

    original = pm.h2h_query
    tr = tracing.Tracer()
    hooks = {"core.treedec.h2h_query": lambda tracer, out, a, k: tracer.count("calls", 1)}
    with tr.patched(hooks=hooks):
        assert pm.h2h_query is not original
        g, coords = road_network(12, 3, seed=1)
        with tr.span("root"):
            PMHLIndex(g, 2, coords)
    assert pm.h2h_query is original
    calls = sum(tr.names[n] == "core.treedec.h2h_query" for n in tr.table()["name"])
    assert calls > 0 and tr.counter_totals()[("root", "calls")] == calls


# ----------------------------------------------------------- generators --
SPEC = SimpleNamespace(width=256, k=4)  # window of 16 columns, over |U| edges
HOT = Workload("hot", 3.0, True, 100, 1, 1, 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_hotspot_updates_and_trips_stay_in_window(seed):
    g, coords = road_network(SPEC.width, 8, seed=seed)
    updates, queries = generators(HOT, g, coords, SPEC, seed)
    x0, span = hotspot_window(SPEC.width, SPEC.k)
    block = SPEC.width // SPEC.k
    assert x0 // block == (x0 + span - 1) // block  # inside one PMHL block
    inside = lambda v: x0 <= coords[v, 0] < x0 + span  # noqa: E731
    weights = {(u, v): w for u, v, w in g.edges()}
    for _ in range(5):
        batch = updates.next_batch()
        assert len({(u, v) for u, v, _ in batch}) == len(batch) == VOLUME
        for u, v, w in batch:
            assert inside(u) and inside(v)
            assert w in (weights[(u, v)] / 2, weights[(u, v)] * 2) or w == 1.0
            weights[(u, v)] = w
    for s, t in queries.pairs(200):
        assert s != t and inside(s) and inside(t)


def test_stratified_pairs_are_uniform_pairs():
    g, coords = road_network(10, 3, seed=0)
    pairs = Queries(np.arange(g.n), coords, np.random.default_rng(4)).pairs(87_000)
    s, t = np.array(pairs).T
    assert not np.any(s == t)
    # Each of the 30·29 ordered pairs is equally likely (expected 100 each).
    counts = np.bincount(s * g.n + t, minlength=g.n * g.n).reshape(g.n, g.n)
    off = counts[~np.eye(g.n, dtype=bool)]
    assert off.min() > 50 and off.max() < 160
    assert abs(off.mean() - 100) < 1e-9
    # Column distances follow the exact distribution.
    dx = coords[s, 0] - coords[t, 0]
    want = np.array([sum(coords[a, 0] - coords[b, 0] == d for a in range(30) for b in range(30) if a != b)
                     for d in range(-9, 10)]) / 870
    assert np.abs(np.bincount(dx + 9, minlength=19) / len(dx) - want).max() < 2e-3


def test_generators_repeat_for_a_seed():
    g, coords = road_network(SPEC.width, 8, seed=3)
    a = generators(HOT, g, coords, SPEC, 7)
    b = generators(HOT, g, coords, SPEC, 7)
    assert a[0].next_batch() == b[0].next_batch()
    assert np.array_equal(a[1].pairs(50), b[1].pairs(50))


def test_reversal_restores_the_weights_before_the_batch():
    g, _ = road_network(12, 3, seed=1)
    gen = HalveOrDouble(list(g.edges()), 10, np.random.default_rng(2))
    weights = dict(gen.weight)
    batch = gen.next_batch()
    back = gen.reversal()
    assert [(u, v) for u, v, _ in back] == [(u, v) for u, v, _ in batch]
    for (u, v, w), (_, _, old) in zip(batch, back):
        assert old == weights[(u, v)] and w in (old / 2, old * 2, 1.0)
    assert gen.weight == weights
    g.apply_updates(batch)
    g.apply_updates(back)
    assert {(u, v): w for u, v, w in g.edges()} == weights


def test_halve_or_double_rejects_oversized_batches():
    with pytest.raises(ValueError):
        HalveOrDouble([(0, 1, 5.0)], 2, np.random.default_rng(0))


# -------------------------------------------------------------- adapter --
@pytest.fixture(scope="module")
def tiny():
    g, coords = road_network(24, 4, seed=2)
    index = {"pmhl": PMHLIndex(g.copy(), 3, coords), "postmhl": PostMHLIndex(g.copy(), tau=8, k_e=4)}
    batch = update_batches(g, batches=1, volume=15, seed=5)[0]
    before = {kind: adapter.snapshot(kind, ix) for kind, ix in index.items()}
    views = {kind: adapter.read_batch(kind, ix.apply_batch(batch)) for kind, ix in index.items()}
    g.apply_updates(batch)
    return g, index, before, views


def test_adapter_reads_build_times(tiny):
    _, index, _, _ = tiny
    pm = adapter.read_build(index["pmhl"].build_times)
    assert set(pm) == {"parts_phase_a", "overlay", "parts_phase_b", "post", "boundary_hubs", "cross"}
    assert set(adapter.read_build(index["postmhl"].build_times)) == {"tree", "partition", "overlay", "post", "cross"}
    assert all(v >= 0 for v in pm.values())


def test_adapter_reads_batches(tiny):
    _, index, _, views = tiny
    pm, pq = views["pmhl"], views["postmhl"]
    assert set(pm.stage_s) == {"u1", "u2", "u3", "u4", "u5"}
    assert set(pq.stage_s) == {"u1", "u2_parts", "u2_overlay", "u3", "u4", "u5"}
    for kind, view in views.items():
        assert len(view.walls) == len(adapter.stage_queries(kind, index[kind])) - 1
        assert view.walls == sorted(view.walls)
        assert view.walls_p16[-1] <= view.walls[-1] + 1e-12
        assert all(0 <= p < index[kind].k for ps in view.parts.values() for p in ps)
    # Serial walls at p = 1: PMHL's last wall is every stage in sequence.
    assert pm.walls[-1] == pytest.approx(sum(pm.stage_s.values()))


def test_adapter_stages_answer_like_dijkstra(tiny):
    g, index, _, _ = tiny
    truth = dijkstra(g, 5)
    for kind, ix in index.items():
        for _, fn in adapter.stage_queries(kind, ix):
            for t in (0, 17, 60, g.n - 1):
                assert fn(5, t) == truth[t]


def test_adapter_change_counts(tiny):
    _, index, before, views = tiny
    pm, pq = index["pmhl"], index["postmhl"]
    rebuilt = views["pmhl"].parts["u5"]
    assert 0 <= adapter.changed_partitions("pmhl", pm, before["pmhl"], rebuilt) <= len(rebuilt)
    rebuilt = views["postmhl"].parts["u4"]
    assert 0 <= adapter.changed_partitions("postmhl", pq, before["postmhl"], rebuilt) <= len(rebuilt)
    assert 0 <= adapter.overlay_labels_changed(pq, before["postmhl"]) <= len(pq.tdp.overlay)
    # A snapshot taken now compares equal to the current state.
    now = adapter.snapshot("pmhl", pm)
    assert adapter.changed_partitions("pmhl", pm, now, list(range(pm.k))) == 0
    now = adapter.snapshot("postmhl", pq)
    assert adapter.changed_partitions("postmhl", pq, now, list(range(pq.k))) == 0
    assert adapter.lstar_rows(pm, [0]) == len(pm.units[0].lstar)


def test_lambda_uses_stage_windows():
    assert adapter.stage_windows([2.0, 4.0], 10.0) == [2.0, 2.0, 6.0]
    assert adapter.stage_windows([2.0, 12.0], 10.0) == [2.0, 8.0, 0.0]
    stats = [(1e-2, 0.0), (1e-3, 0.0), (1e-5, 0.0)]
    fast = adapter.lambda_qps([0.1, 0.2], stats, 10.0, 0.1)
    slow = adapter.lambda_qps([2.0, 4.0], stats, 10.0, 0.1)
    assert fast > slow > 0
    assert adapter.lambda_qps([2.0, 10.0], stats, 10.0, 0.1) == 0.0
    assert math.isfinite(fast)
