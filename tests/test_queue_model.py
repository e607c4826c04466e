"""Lemma 1 / multi-stage throughput model + discrete-event validation."""
import math

import pytest

from repro.throughput.queue_model import (
    Stage,
    capacity_throughput,
    lemma1_throughput,
    multistage_throughput,
    pk_throughput,
)
from repro.throughput.simulator import (
    measured_throughput,
    qps_timeline,
    simulate_mean_response,
)


def test_pk_formula_lemma1_first_term():
    # λ ≤ 2(R*−tq)/(Vq+2R*tq−tq²), hand-checked point
    lam = pk_throughput(tq=0.01, vq=0.0, rq=0.1)
    assert lam == pytest.approx(2 * (0.1 - 0.01) / (2 * 0.1 * 0.01 - 0.0001))


def test_pk_zero_when_service_exceeds_qos():
    assert pk_throughput(tq=0.2, vq=0.0, rq=0.1) == 0.0


def test_pk_mm1_consistency():
    """For deterministic service, P-K gives R = tq + λ tq²/... ; at the
    returned λ the response time equals R* exactly."""
    tq, rq = 0.02, 0.5
    lam = pk_throughput(tq, 0.0, rq)
    rho = lam * tq
    r = tq + lam * (tq * tq) / (2 * (1 - rho))
    assert r == pytest.approx(rq)


def test_capacity_term():
    assert capacity_throughput(tu=60, tq=0.01, dt=120) == pytest.approx(50.0)
    assert capacity_throughput(tu=130, tq=0.01, dt=120) == 0.0


def test_lemma1_min_of_terms():
    v = lemma1_throughput(tq=0.01, vq=0.0, tu=110, dt=120, rq=1.0)
    assert v == pytest.approx(capacity_throughput(110, 0.01, 120))


def test_multistage_reduces_to_single_stage():
    one = multistage_throughput([Stage(120, 0.01)], 120, 0.5)
    assert one == pytest.approx(lemma1_throughput(0.01, 0.0, 0, 120, 0.5))


def test_multistage_rewards_faster_fallback():
    """A faster query method during maintenance raises throughput — the
    multi-stage scheme's whole point (Fig. 1(c))."""
    slow_fb = multistage_throughput([Stage(60, 0.05), Stage(60, 0.001)], 120, 0.5)
    fast_fb = multistage_throughput([Stage(60, 0.005), Stage(60, 0.001)], 120, 0.5)
    assert fast_fb > slow_fb


def test_multistage_monotone_in_final_stage_share():
    a = multistage_throughput([Stage(100, 0.05), Stage(20, 0.001)], 120, 0.5)
    b = multistage_throughput([Stage(20, 0.05), Stage(100, 0.001)], 120, 0.5)
    assert b > a


def test_update_exceeding_interval_zero():
    assert multistage_throughput([Stage(130, 0.01)], 120, 0.5) == 0.0


def test_simulator_low_load_response_near_service():
    st = [Stage(120, 0.01)]
    r = simulate_mean_response(st, 120, lam=1.0, seed=1)
    assert 0.01 <= r < 0.02


def test_simulator_agrees_with_pk_direction():
    """Below the analytic λ*, simulated response meets QoS; far above, not."""
    tq, rq = 0.01, 0.1
    lam_star = pk_throughput(tq, 0.0, rq)
    st = [Stage(120, tq)]
    assert simulate_mean_response(st, 120, 0.5 * lam_star, seed=2) <= rq
    assert simulate_mean_response(st, 120, 1.5 * lam_star, seed=2) > rq


def test_measured_throughput_bracket():
    tq, rq = 0.01, 0.1
    st = [Stage(120, tq)]
    lam = measured_throughput(st, 120, rq, seed=3)
    ana = pk_throughput(tq, 0.0, rq)
    assert 0.5 * ana < lam < 1.5 * ana


def test_qps_timeline():
    st = [Stage(10, 0.01), Stage(110, 0.001)]
    tl = qps_timeline(st, 120)
    assert tl[0] == (0.0, pytest.approx(100.0))
    assert tl[1] == (10.0, pytest.approx(1000.0))


def test_infinite_stage_yields_zero():
    assert multistage_throughput([Stage(10, math.inf), Stage(110, 0.01)], 120, 0.5) == 0.0
