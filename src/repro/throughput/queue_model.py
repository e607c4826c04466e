"""Throughput model: Lemma 1 (M/G/1, Pollaczek–Khinchine) + multi-stage.

The paper's system model (§II): updates arrive in batches every ``δt``
seconds, the index is maintained first, queries arrive Poisson(λ) and
queue FIFO; QoS is the mean response time ``R_q*``. Lemma 1 bounds the
maximum average throughput by (i) the P-K response-time constraint and
(ii) the capacity left after maintenance.

Multi-stage indexes (MHL/PMHL/PostMHL) serve queries *during*
maintenance with whatever stage is ready, so the service time is
piecewise over the interval. ``multistage_throughput`` extends Lemma 1
with time-weighted effective service moments and a stage-wise capacity
term (Σ duration_i / t_{q,i} services per interval).
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def pk_throughput(tq: float, vq: float, rq: float) -> float:
    """First term of Lemma 1: λ ≤ 2(R*−tq) / (Vq + 2·R*·tq − tq²)."""
    if tq <= 0:
        return math.inf
    if tq >= rq:
        return 0.0
    return 2.0 * (rq - tq) / (vq + 2.0 * rq * tq - tq * tq)


def capacity_throughput(tu: float, tq: float, dt: float) -> float:
    """Second term of Lemma 1: λ ≤ (δt − tu) / (tq · δt)."""
    if tu >= dt:
        return 0.0
    if tq <= 0:
        return math.inf
    return (dt - tu) / (tq * dt)


def lemma1_throughput(tq: float, vq: float, tu: float, dt: float, rq: float) -> float:
    """Lemma 1: maximum average throughput of a single-stage index."""
    return min(pk_throughput(tq, vq, rq), capacity_throughput(tu, tq, dt))


@dataclass
class Stage:
    """One query-processing stage inside an update interval."""

    duration: float  # seconds of the interval served by this method
    tq: float        # mean query time of the method
    vq: float = 0.0  # variance of the query time


def multistage_throughput(stages: list[Stage], dt: float, rq: float) -> float:
    """Maximum throughput for a piecewise service-time interval.

    ``stages`` must cover exactly [0, δt] (the last stage is the fully
    updated index). A stage with ``tq = inf`` models an index-unavailable
    window with no query processing.
    """
    total = sum(s.duration for s in stages)
    if total > dt + 1e-9:
        return 0.0  # maintenance does not fit in the interval
    # Effective service moments over the interval (arrivals are uniform
    # in time under Poisson, so stage weights are duration fractions).
    tq_eff = 0.0
    es2 = 0.0
    capacity = 0.0
    for s in stages:
        f = s.duration / dt
        if math.isinf(s.tq):
            if f > 0:
                return 0.0  # unserved window with nonzero length ⇒ unbounded queue at any λ>0... treat via capacity below
            continue
        tq_eff += f * s.tq
        es2 += f * (s.vq + s.tq * s.tq)
        capacity += s.duration / s.tq
    vq_eff = max(0.0, es2 - tq_eff * tq_eff)
    lam_pk = pk_throughput(tq_eff, vq_eff, rq)
    lam_cap = capacity / dt
    return min(lam_pk, lam_cap)
