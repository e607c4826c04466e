"""The one place that reads the shapes PMHL and PostMHL return.

``apply_batch`` returns nested per-stage dicts and ``build_times`` maps
phases to seconds or to ``{pid: seconds}``; both differ between the two
indexes. Everything else in the benchmark goes through the functions
here, so a change of those return values touches only this module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.harness import pmhl_stage_walls, postmhl_stage_walls
from repro.throughput.queue_model import Stage, multistage_throughput

KINDS = ("pmhl", "postmhl")


def stage_queries(kind: str, index) -> list[tuple[str, object]]:
    """(stage name, query function) in availability order; last is final."""
    if kind == "pmhl":
        return [
            ("bidij", index.query_bidij),
            ("pch", index.query_pch),
            ("noboundary", index.query_noboundary),
            ("postboundary", index.query_postboundary),
            ("cross", index.query_cross),
        ]
    return [
        ("bidij", index.query_bidij),
        ("pch", index.query_pch),
        ("postboundary", index.query_postboundary),
        ("h2h", index.query),
    ]


def _total(x) -> float:
    return float(sum(x.values())) if isinstance(x, dict) else float(x)


def read_build(build_times: dict) -> dict[str, float]:
    """Build phase -> serial seconds (per-partition dicts summed)."""
    return {phase: _total(v) for phase, v in build_times.items()}


@dataclass
class BatchView:
    """One ``apply_batch`` call, flattened."""

    stage_s: dict[str, float]      # per-stage serial seconds
    parts: dict[str, list[int]]    # stage -> partition ids it rebuilt
    walls: list[float]             # serial stage-availability walls (p = 1)
    walls_p16: list[float]         # LPT model at 16 workers


def read_batch(kind: str, times: dict) -> BatchView:
    if kind == "pmhl":
        u2, u3, u4, u5 = (times[k] for k in ("u2", "u3", "u4", "u5"))
        stage_s = {
            "u1": times["u1"],
            "u2": _total(u2["parts"]) + u2["overlay"],
            "u3": _total(u3["parts"]) + u3["overlay"],
            "u4": _total(u4["parts"]),
            "u5": _total(u5["parts"]) + u5["boundary_hubs"],
        }
        parts = {s: sorted(times[s]["parts"]) for s in ("u2", "u4", "u5")}
        walls = pmhl_stage_walls
    else:
        u2 = times["u2"]
        stage_s = {
            "u1": times["u1"],
            "u2_parts": _total(u2["parts"]),
            "u2_overlay": u2["overlay"],
            "u3": times["u3"]["overlay"],
            "u4": _total(times["u4"]["parts"]),
            "u5": _total(times["u5"]["parts"]),
        }
        parts = {s: sorted(times[s]["parts"]) for s in ("u2", "u4", "u5")}
        walls = postmhl_stage_walls
    return BatchView(stage_s, parts, walls(times, 1), walls(times, 16))


def fastest_times(runs: list[dict]) -> dict:
    """Each maintenance task at its fastest over ``apply_batch`` returns
    of the same batch applied to the same index state (they hold the same
    tasks): the task times of one application without the outside load
    that slowed the others."""
    first = runs[0]
    if isinstance(first, dict):
        if any(r.keys() != first.keys() for r in runs):
            raise ValueError("repetitions of one batch ran different tasks")
        return {k: fastest_times([r[k] for r in runs]) for k in first}
    return min(runs)


def stage_windows(walls: list[float], dt: float) -> list[float]:
    """Seconds of an update interval of length ``dt`` that each stage
    serves: stage i answers from ``walls[i-1]`` (0 for the first stage)
    until ``walls[i]``; the final stage serves the rest of the interval."""
    ends = [min(w, dt) for w in [*walls, dt]]
    return [max(0.0, end - start) for start, end in zip([0.0, *ends[:-1]], ends)]


def lambda_qps(walls: list[float], stage_stats: list[tuple[float, float]], dt: float, rq: float) -> float:
    """λ*_q of one index; ``stage_stats`` holds each stage's (mean,
    variance) query time."""
    if walls[-1] >= dt:
        return 0.0
    stages = [Stage(w, mean, var) for w, (mean, var) in zip(stage_windows(walls, dt), stage_stats) if w > 0]
    return multistage_throughput(stages, dt, rq)


# ----------------------------------------------------------------------
# Before/after snapshots of public index arrays, for the useful ratios.
# ----------------------------------------------------------------------

def snapshot(kind: str, index):
    """Copies of the arrays a batch may rewrite, per partition."""
    if kind == "pmhl":
        return [(list(u.disB), dict(u.lstar)) for u in index.units]
    overlay = {v: index.dis[v] for v in index.tdp.overlay}
    parts = [
        [(index.disB[v], index.dis[v].copy()) for v in members]
        for members in index.tdp.parts
    ]
    return overlay, parts


def _same(a, b) -> bool:
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def changed_partitions(kind: str, index, before, pids: list[int]) -> int:
    """How many of the rebuilt partitions ``pids`` ended with other values."""
    n = 0
    for i in pids:
        if kind == "pmhl":
            u = index.units[i]
            disB, lstar = before[i]
            moved = any(not _same(a, b) for a, b in zip(disB, u.disB)) or any(
                not (_same(h, u.lstar[v][0]) and _same(d, u.lstar[v][1]))
                for v, (h, d) in lstar.items()
            )
        else:
            rows = before[1][i]
            moved = any(
                not (_same(b, index.disB[v]) and _same(d, index.dis[v]))
                for v, (b, d) in zip(index.tdp.parts[i], rows)
            )
        n += moved
    return n


def overlay_labels_changed(index, before) -> int:
    """PostMHL overlay vertices whose label row changed (U3 output)."""
    overlay = before[0]
    return sum(not _same(row, index.dis[v]) for v, row in overlay.items())


def lstar_rows(index, pids: list[int]) -> int:
    """L* rows a PMHL U5 pass over ``pids`` rebuilds (non-boundary vertices)."""
    return sum(len(index.units[i].vertices) - len(index.units[i].b_local) for i in pids)
