"""Measurement harness: LPT scheduling and stage walls."""
import gc

import pytest

from repro.experiments.harness import (
    lpt,
    mean_walls,
    measure_queries,
    pmhl_stage_walls,
    postmhl_stage_walls,
)


def test_lpt_single_worker_is_sum():
    assert lpt([3, 1, 2], 1) == 6.0


def test_lpt_many_workers_is_max():
    assert lpt([3, 1, 2], 10) == 3.0


def test_lpt_two_workers():
    # LPT: 5 | 4+2 -> makespan 6
    assert lpt([5, 4, 2], 2) == 6.0


def test_lpt_empty():
    assert lpt([], 4) == 0.0
    assert lpt([0.0, 0.0], 4) == 0.0


def test_lpt_monotone_in_p():
    ds = [5, 4, 3, 2, 1, 1, 1]
    vals = [lpt(ds, p) for p in (1, 2, 4, 8)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] == 5.0


def test_pmhl_walls_shape():
    times = {
        "u1": 0.1,
        "u2": {"parts": {0: 1.0, 1: 2.0}, "overlay": 0.5},
        "u3": {"parts": {0: 1.0}, "overlay": 0.2},
        "u4": {"parts": {0: 0.4, 1: 0.6}},
        "u5": {"parts": {0: 0.3}, "boundary_hubs": 0.1},
    }
    w1 = pmhl_stage_walls(times, 1)
    w8 = pmhl_stage_walls(times, 8)
    assert len(w1) == 4
    assert w1 == sorted(w1)  # cumulative
    assert all(a >= b for a, b in zip(w1, w8))  # parallelism helps
    assert w1[0] == pytest.approx(0.1 + 3.0 + 0.5)
    assert w8[0] == pytest.approx(0.1 + 2.0 + 0.5)


def test_postmhl_walls_shape():
    times = {
        "u1": 0.1,
        "u2": {"parts": {0: 1.0}, "overlay": 0.5},
        "u3": {"overlay": 0.3},
        "u4": {"parts": {0: 0.4, 1: 0.6}},
        "u5": {"parts": {0: 0.2, 1: 0.1}},
    }
    w = postmhl_stage_walls(times, 8)
    assert len(w) == 3
    assert w == sorted(w)
    # post stage opens before post+cross completes
    assert w[1] <= w[2]
    assert w[2] == pytest.approx(0.1 + 1.0 + 0.5 + 0.3 + 0.7)


def test_mean_walls():
    assert mean_walls([[1.0, 2.0], [3.0, 4.0]]) == [2.0, 3.0]


def test_measure_queries_stats():
    calls = []

    def fn(s, t):
        calls.append((s, t))

    st = measure_queries(fn, [(0, 1), (1, 2)], min_total=0.0)
    assert st.n >= 2 and st.mean > 0 and st.qps > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_measure_queries_times_with_gc_off_and_restores_it(enabled):
    """Queries run with the collector off; its earlier state comes back,
    also when a query raises."""
    seen = []

    def fn(s, t):
        seen.append(gc.isenabled())

    def boom(s, t):
        raise RuntimeError

    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        measure_queries(fn, [(0, 1)], min_total=0.0)
        assert seen == [False] and gc.isenabled() == enabled
        with pytest.raises(RuntimeError):
            measure_queries(boom, [(0, 1)])
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()
