"""Measurement utilities shared by every experiment.

- per-query timing with mean/variance (feeds the M/G/1 model);
- LPT (longest-processing-time) scheduling of per-partition task
  durations onto ``p`` workers — each measured alone, or a partition's
  share of one pass over all partitions — how we obtain parallel stage
  wall-clock for any thread count without owning that many cores
  (DESIGN.md §2/§4);
- stage-wall computation for PMHL and PostMHL update timelines.
"""
from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class QueryStats:
    mean: float
    var: float
    n: int

    @property
    def qps(self) -> float:
        return 1.0 / self.mean if self.mean > 0 else float("inf")


def measure_queries(fn, pairs, *, min_total: float = 0.02) -> QueryStats:
    """Time ``fn(s, t)`` per query; repeats the batch if it is too fast
    for stable numbers (cheap index queries are microseconds). The
    garbage collector is off while timing, as in ``timeit``: a collection
    pause would land on whichever query triggers it."""
    times = []
    total = 0.0
    rounds = 0
    gc_on = gc.isenabled()
    gc.disable()
    try:
        while rounds == 0 or (total < min_total and rounds < 50):
            for s, t in pairs:
                t0 = time.perf_counter()
                fn(s, t)
                el = time.perf_counter() - t0
                times.append(el)
                total += el
            rounds += 1
    finally:
        if gc_on:
            gc.enable()
    arr = np.array(times)
    return QueryStats(mean=float(arr.mean()), var=float(arr.var()), n=len(arr))


def lpt(durations, p: int) -> float:
    """Makespan of LPT scheduling ``durations`` onto ``p`` workers."""
    ds = sorted((d for d in durations if d > 0), reverse=True)
    if not ds:
        return 0.0
    if p <= 1:
        return float(sum(ds))
    heap = [0.0] * min(p, len(ds))
    heapq.heapify(heap)
    for d in ds:
        t = heapq.heappop(heap)
        heapq.heappush(heap, t + d)
    return float(max(heap))


def pmhl_stage_walls(times: dict, p: int) -> list[float]:
    """Cumulative availability times of PMHL query stages 2..5.

    Returns [after_U2, after_U3, after_U4, after_U5]: PCH queries start
    at after_U2, no-boundary at after_U3, post-boundary at after_U4,
    cross-boundary at after_U5 (Figure 7). Partition tasks run in
    parallel on p workers; the overlay task of U2 follows the partition
    tasks (it consumes their boundary shortcuts), while U3 maintains
    overlay and partition labels concurrently.
    """
    t = times.get("u1", 0.0)
    u2 = times.get("u2", {})
    t += lpt(u2.get("parts", {}).values(), p) + u2.get("overlay", 0.0)
    w2 = t
    u3 = times.get("u3", {})
    t += lpt(list(u3.get("parts", {}).values()) + [u3.get("overlay", 0.0)], p)
    w3 = t
    u4 = times.get("u4", {})
    t += lpt(u4.get("parts", {}).values(), p)
    w4 = t
    u5 = times.get("u5", {})
    t += u5.get("boundary_hubs", 0.0) + lpt(u5.get("parts", {}).values(), p)
    w5 = t
    return [w2, w3, w4, w5]


def postmhl_stage_walls(times: dict, p: int) -> list[float]:
    """Cumulative availability times of PostMHL query stages 2..4.

    [after_U2 (PCH), after_U3+post (post-boundary), after_cross (H2H)].
    Post- and cross-boundary updates run in parallel per partition after
    the overlay labels; each partition does post then cross, so the
    post-boundary stage opens at the post-makespan and the final stage
    once both finish.
    """
    t = times.get("u1", 0.0)
    u2 = times.get("u2", {})
    t += lpt(u2.get("parts", {}).values(), p) + u2.get("overlay", 0.0)
    w2 = t
    t += times.get("u3", {}).get("overlay", 0.0)
    u4 = times.get("u4", {}).get("parts", {})
    u5 = times.get("u5", {}).get("parts", {})
    w3 = t + lpt(u4.values(), p)
    combined = [u4.get(i, 0.0) + u5.get(i, 0.0) for i in set(u4) | set(u5)]
    w4 = t + lpt(combined, p)
    return [w2, w3, w4]


def mean_walls(walls_list: list[list[float]]) -> list[float]:
    """Average stage walls over update batches."""
    return list(np.mean(walls_list, axis=0)) if walls_list else []
