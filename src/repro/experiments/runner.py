"""Per-dataset measurement runner: builds every algorithm, applies the
update batches, measures per-stage query times — the raw material for
experiment tables T2–T7 (Exp 2–6 of the paper).

Scale mapping (DESIGN.md §4): datasets are the lite registry; defaults
|U|=100 (paper 1000), δt=10 s (paper 120 s), R_q*=0.1 s (paper 1.0 s),
p=16 workers (paper 140 threads) — the same ×~1/10 time scaling the
paper itself applies to its largest datasets (δt 600, R_q* 5).
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.graphs.generator import DATASETS, random_queries, update_batches
from repro.core.ch import CHIndex
from repro.core.dijkstra import bidijkstra
from repro.core.h2h import H2HIndex
from repro.baselines.toain import TOAINIndex
from repro.psp.pmhl import PMHLIndex
from repro.psp.strategies import NCHPIndex, PTDPIndex
from repro.psp.postmhl import PostMHLIndex
from repro.experiments.harness import (
    QueryStats,
    mean_walls,
    measure_queries,
    pmhl_stage_walls,
    postmhl_stage_walls,
)
from repro.throughput.queue_model import Stage, multistage_throughput

# Default lite-scale system parameters (see module docstring).
DEFAULTS = dict(volume=100, dt=10.0, rq=0.1, p=16, n_batches=5, n_queries=100)
# Per-dataset overrides mirroring the paper's slacked setting for CTR/USA
# (δt=600, R_q*=5 there; ×5 here).
SLACKED = {"CTR": dict(dt=50.0, rq=0.5), "USA": dict(dt=50.0, rq=0.5)}


@dataclass
class AlgoResult:
    """Everything measured for one algorithm on one dataset."""

    name: str
    t_build: float
    size: int
    # Query stats per stage, in availability order; the last is the
    # fully-updated index. Keys depend on the algorithm.
    stage_q: dict[str, QueryStats]
    # Mean stage availability walls within an interval, already
    # LPT-scheduled at the runner's p (seconds from interval start).
    walls: list[float]
    # Stage names matching walls+final for timeline/throughput building.
    stage_names: list[str] = field(default_factory=list)
    raw_batches: list = field(default_factory=list)  # apply_batch returns
    # (apply_batch return, p) -> one wall per stage after the first.
    walls_fn: Callable[[object, int], list[float]] | None = None

    def walls_at(self, p: int) -> list[float]:
        """Mean stage walls over the measured batches with ``p`` workers."""
        return mean_walls([self.walls_fn(t, p) for t in self.raw_batches])

    def stages_for(self, dt: float) -> list[Stage]:
        """Stage list over one update interval for the queue model."""
        out: list[Stage] = []
        prev = 0.0
        qs = [self.stage_q[n] for n in self.stage_names]
        # stage i serves from walls[i-1]..walls[i]; stage 0 from 0.
        bounds = list(self.walls) + [dt]
        for q, b in zip(qs, bounds):
            b = min(b, dt)
            if b > prev:
                out.append(Stage(b - prev, q.mean, q.var))
                prev = b
        if not out:  # maintenance exceeds the interval
            out = [Stage(dt, float("inf"))]
        return out

    def throughput(self, dt: float, rq: float) -> float:
        if self.tu >= dt:
            return 0.0
        return multistage_throughput(self.stages_for(dt), dt, rq)

    @property
    def tu(self) -> float:
        return self.walls[-1] if self.walls else 0.0

    @property
    def tq(self) -> float:
        return self.stage_q[self.stage_names[-1]].mean


def _toain(graph, spec, coords, pairs) -> TOAINIndex:
    index = TOAINIndex(graph)
    index.tune(pairs[:20])  # self-configuration is part of construction
    return index


class Algo(NamedTuple):
    """How the runner builds, queries and schedules one algorithm."""

    make: Callable  # (graph, spec, coords, pairs) -> index
    # (stage name, query method) in availability order, after the
    # implicit BiDijkstra stage.
    stages: list[tuple[str, str]]
    # (apply_batch return, p) -> the wall at which each listed stage opens.
    walls: Callable[[object, int], list[float]]

    def build(self, graph, spec, coords, pairs):
        """(index, construction seconds)."""
        t0 = time.perf_counter()
        index = self.make(graph, spec, coords, pairs)
        return index, time.perf_counter() - t0


ALGOS = {
    "DCH": Algo(
        lambda g, spec, coords, pairs: CHIndex(g),
        [("ch", "query")],
        lambda t, p: [t],
    ),
    "DH2H": Algo(
        lambda g, spec, coords, pairs: H2HIndex(g),
        [("h2h", "query")],
        lambda t, p: [t["edge"] + t["shortcut"] + t["label"]],
    ),
    "TOAIN": Algo(_toain, [("toain", "query")], lambda t, p: [t]),
    "N-CH-P": Algo(
        lambda g, spec, coords, pairs: NCHPIndex(g, spec.k, coords),
        [("pch", "query_pch")],
        lambda t, p: pmhl_stage_walls(t, p)[:1],
    ),
    "P-TD-P": Algo(
        lambda g, spec, coords, pairs: PTDPIndex(g, spec.k, coords),
        [("post", "query_postboundary")],
        lambda t, p: pmhl_stage_walls(t, p)[2:3],  # available after U4
    ),
    "PMHL": Algo(
        lambda g, spec, coords, pairs: PMHLIndex(g, spec.k, coords),
        [("pch", "query_pch"), ("noboundary", "query_noboundary"),
         ("postboundary", "query_postboundary"), ("cross", "query_cross")],
        pmhl_stage_walls,
    ),
    "PostMHL": Algo(
        lambda g, spec, coords, pairs: PostMHLIndex(g, tau=spec.tau, k_e=spec.k_e),
        [("pch", "query_pch"), ("postboundary", "query_postboundary"), ("h2h", "query")],
        postmhl_stage_walls,
    ),
}


def measure_index(name, index, t_build, batches, pairs, p, bidij=None) -> AlgoResult:
    """Apply ``batches`` to a built ``ALGOS[name]`` index, then time each
    query stage and average the stage walls at ``p`` workers.

    ``bidij`` is the shared BiDijkstra stage; without it the index's own
    ``query_bidij`` is timed on the first 30 pairs.
    """
    algo = ALGOS[name]
    raw = [index.apply_batch(b) for b in batches]
    if bidij is None:
        bidij = measure_queries(index.query_bidij, pairs[:30])
    stage_q = {"bidij": bidij}
    for stage, method in algo.stages:
        stage_q[stage] = measure_queries(getattr(index, method), pairs)
    r = AlgoResult(name, t_build, index.index_size(), stage_q, [], list(stage_q), raw, algo.walls)
    r.walls = r.walls_at(p)
    return r


def measure_dataset(
    name: str,
    algos: list[str] | None = None,
    *,
    volume: int | None = None,
    n_batches: int | None = None,
    n_queries: int | None = None,
    p: int | None = None,
    seed: int = 11,
) -> dict[str, AlgoResult]:
    """Build, update, and measure every requested algorithm on a dataset.

    BiDij is always measured first: every algorithm falls back to it.
    """
    spec = DATASETS[name]
    cfg = {**DEFAULTS, **SLACKED.get(name, {})}
    volume = volume or cfg["volume"]
    n_batches = n_batches or cfg["n_batches"]
    n_queries = n_queries or cfg["n_queries"]
    p = p or cfg["p"]

    graph, coords = spec.build()
    pairs = random_queries(graph.n, n_queries, seed=seed)
    batches = update_batches(graph, batches=n_batches, volume=volume, seed=seed + 1)

    g = graph.copy()
    for b in batches:
        g.apply_updates(b)
    bidij = measure_queries(lambda s, t: bidijkstra(g, s, t), pairs)
    out = {"BiDij": AlgoResult("BiDij", 0.0, 0, {"bidij": bidij}, [], ["bidij"])}
    for a, algo in ALGOS.items():
        if not algos or a in algos:
            index, t_build = algo.build(graph.copy(), spec, coords, pairs)
            out[a] = measure_index(a, index, t_build, batches, pairs, p, bidij)
    return out


_RECORD_CACHE: dict = {}


def get_records(names: list[str], algos: list[str] | None = None, **kw) -> dict[str, dict[str, AlgoResult]]:
    """Memoized measure_dataset across experiments in one process."""
    out = {}
    for n in names:
        key = (n, tuple(algos) if algos else None, tuple(sorted(kw.items())))
        if key not in _RECORD_CACHE:
            _RECORD_CACHE[key] = measure_dataset(n, algos, **kw)
        out[n] = _RECORD_CACHE[key]
    return out


# ----------------------------------------------------------------------
# JSON result cache so tables can be regenerated without re-measuring
# ----------------------------------------------------------------------
RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__)))), "results")


def save_results(tag: str, rows: list[dict], text: str, out: str = RESULTS_DIR) -> str:
    """Write ``rows`` to <out>/<tag>.json and the printed table ``text``
    to <out>/<tag>.txt (``out`` defaults to results/); return the .json path."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{tag}.json")
    with open(path, "w") as f:
        json.dump(rows, f, indent=1)
    with open(os.path.join(out, f"{tag}.txt"), "w") as f:
        f.write(text + "\n")
    return path


def fmt_table(rows: list[dict], cols: list[str], title: str) -> str:
    """Plain fixed-width table for experiment outputs."""
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) if rows else len(c) for c in cols}
    lines = [title, "  ".join(c.ljust(widths[c]) for c in cols)]
    lines.append("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.001:
            return f"{v:.3g}"
        return f"{v:.4g}"
    return str(v)
