"""Metrics of a run: end-to-end from untraced runs, per-layer from traced.

Each metric is ``(value, unit, samples)``; the summary prints the sample
count, the JSON result line carries value and unit.

End-to-end times are put on one host-speed scale. Other tenants of the
shared host slow whole runs, for minutes, by up to 1.6x; repetitions
inside a run (``bench`` keeps the fastest) cannot remove that. A fixed
pure-Python loop (``bench.probe_work``), timed all through the run
between the timed operations, measures it, and each end-to-end time is
multiplied by the loop's reference time over its time in this run, in
the statistic that matches how the time was taken:

- query latencies, each a pair's fastest pass, dodge most bursts of
  load, as the loop's 10th percentile does: ``host.scale_query``;
- set-up and maintenance walls last seconds and take in every burst, as
  the loop's mean does: ``host.scale_wall``.

λ* is computed from the scaled times. The loop runs no code of the
program, so a faster program still reads faster. Per-layer times are
left as measured; the summary prints both scales, and an end-to-end
time divided by its scale is the measured value.
"""
from __future__ import annotations

import numpy as np

from perfbench import adapter
from perfbench.adapter import KINDS
from perfbench.workloads import RQ

P99_MIN_BEYOND = 10
# probe_work's 10th-percentile and mean time, in µs, on a lightly loaded
# 4-vCPU 2.0 GHz Xeon host: scaled times read as if measured there.
PROBE_P10_REF_US = 430.0
PROBE_MEAN_REF_US = 600.0


def tail_percentile(samples, q: float) -> float | None:
    """The ``q``-th percentile, or None when fewer than ``P99_MIN_BEYOND``
    samples lie beyond it."""
    n = len(samples)
    if n == 0 or n * (100.0 - q) / 100.0 < P99_MIN_BEYOND:
        return None
    return float(np.percentile(samples, q))


def _med(xs) -> float:
    return float(np.median(xs))


def stage_stats(raw, kind: str) -> list[tuple[str, np.ndarray]]:
    names = [stage for k, stage in raw.lat if k == kind]
    return [(stage, raw.latencies(kind, stage)) for stage in names]


def median_walls(raw, kind: str) -> list[float]:
    """Per-stage medians of the serial availability walls, over the
    fastest application of each warm batch."""
    return np.median([view.walls for view in raw.fastest(kind)], axis=0).tolist()


def host_scale(raw) -> tuple[float, float]:
    """(query, wall) scales: the reference over this run's 10th-percentile
    and mean probe time."""
    probe = np.array(raw.probe) * 1e6
    return PROBE_P10_REF_US / float(np.percentile(probe, 10)), PROBE_MEAN_REF_US / float(probe.mean())


def end_to_end(raw, wl) -> dict:
    hq, hw = host_scale(raw)
    m = {
        "setup_s": (_med(raw.setup_s) * hw, "s", len(raw.setup_s)),
        "peak_rss_mb": (raw.rss_mb, "MB", 1),
    }
    for kind in KINDS:
        stats = [(stage, x * hq) for stage, x in stage_stats(raw, kind)]
        warm = raw.fastest(kind)
        walls = [w * hw for w in median_walls(raw, kind)]
        lam = adapter.lambda_qps(walls, [(float(x.mean()), float(x.var())) for _, x in stats], wl.dt, RQ)
        final = stats[-1][1] * 1e6
        p99 = tail_percentile(final, 99)
        if p99 is None:
            raise ValueError(f"{kind}: {len(final)} final-stage samples are too few for p99")
        m[f"{kind}.lambda_qps"] = (lam, "queries/s", sum(len(x) for _, x in stats))
        m[f"{kind}.query_p50_us"] = (float(np.percentile(final, 50)), "us", len(final))
        m[f"{kind}.query_p99_us"] = (p99, "us", len(final))
        m[f"{kind}.update_s"] = (_med([view.walls[-1] for view in warm]) * hw, "s", len(raw.warm[kind]))
    return m


def _shares(raw) -> dict:
    wall = raw.timed_wall
    return {
        "bench.apply_batch_share": (raw.timed["apply_batch"] / wall, "ratio", raw.passes),
        "bench.final_query_share": (raw.timed["final"] / wall, "ratio", raw.passes),
    }


def lambda_shares(raw, wl) -> dict:
    """Each stage's share of t_q,eff, the interval-weighted mean query time
    that sets λ*: window × mean query time, over the sum for the index."""
    out = {}
    for kind in KINDS:
        stats = stage_stats(raw, kind)
        terms = [w * float(x.mean()) for w, (_, x) in zip(adapter.stage_windows(median_walls(raw, kind), wl.dt), stats)]
        for (stage, x), term in zip(stats, terms):
            out[f"{kind}.lambda_share.{stage}"] = (term / sum(terms), "ratio", len(x))
    return out


def properties(raw, wl) -> dict:
    """Input properties of the workload and where its time and λ* come
    from, as measured in this run."""
    out = {"pmhl.same_partition_share": (raw.same_partition, "ratio", len(raw.lat[("pmhl", "cross")][0]))}
    for kind in KINDS:
        k = raw.k[kind]
        for stage in ("u2", "u4"):
            touched = [len(view.parts[stage]) for view in raw.views(kind)]
            out[f"{kind}.{stage}_partitions"] = (_med(touched), "count", len(touched))
            out[f"{kind}.{stage}_share"] = (_med(touched) / k, "ratio", len(touched))
    hq, hw = host_scale(raw)
    out["host.scale_query"] = (hq, "ratio", len(raw.probe))
    out["host.scale_wall"] = (hw, "ratio", len(raw.probe))
    for kind in KINDS:  # share of each δt the final stage serves
        out[f"{kind}.final_window_share"] = (max(0.0, 1 - median_walls(raw, kind)[-1] / wl.dt), "ratio", len(raw.fastest(kind)))
    return out | _shares(raw) | lambda_shares(raw, wl)


class _Spans:
    """Sums over spans of one name, grouped by the phase (root span)."""

    def __init__(self, tracer):
        self.t = tracer.table()
        self.names = tracer.names
        self.root_name = self.t["name"][self.t["root"]]

    def select(self, span: str, roots: tuple[str, ...]) -> np.ndarray:
        if span not in self.names:
            return np.zeros(len(self.t["dur"]), dtype=bool)
        ids = [self.names.index(r) for r in roots if r in self.names]
        return (self.t["name"] == self.names.index(span)) & np.isin(self.root_name, ids)

    def total(self, span: str, roots, field: str = "self") -> float:
        return float(self.t[field][self.select(span, roots)].sum())

    def calls(self, span: str, roots) -> int:
        return int(self.select(span, roots).sum())

    def mean(self, span: str, roots) -> float:
        sel = self.select(span, roots)
        return float(self.t["dur"][sel].mean()) if sel.any() else 0.0


def per_layer(raw, wl, tracer, span_cost: float) -> dict:
    sp = _Spans(tracer)
    counters = tracer.counter_totals()
    setup = ("setup.pmhl", "setup.postmhl")
    batch = ("batch.pmhl", "batch.postmhl")
    queries = tuple(f"query.{kind}.{stage}" for kind, stage in raw.lat)
    reps = len(raw.setup_s)
    nb = sum(len(raw.warm[k]) for k in KINDS)  # warm apply_batch calls

    def count(key: str) -> float:
        return sum(counters.get((r, key), 0.0) for r in batch)

    m = {
        "graphs.apply_updates_s": (sp.total("graphs.apply_updates", batch) / nb, "s", nb),
        "partition.partition_graph_s": (sp.total("partition.partition_graph", setup) / reps, "s", reps),
        "partition.td_partition_s": (sp.total("partition.td_partition", setup) / reps, "s", reps),
        "partition.pmhl_k": (raw.k["pmhl"], "count", 1),
        "partition.postmhl_k": (raw.k["postmhl"], "count", 1),
        "core.treedec.build_treedec_s": (sp.total("core.treedec.build_treedec", setup) / reps, "s", reps),
        "core.treedec.build_treedec_calls": (sp.calls("core.treedec.build_treedec", setup) / reps, "count", reps),
        "core.treedec.update_shortcuts_s": (sp.total("core.treedec.update_shortcuts", batch) / nb, "s", nb),
        "core.treedec.recomputed_pairs": (count("recomputed_pairs") / nb, "count", nb),
        "core.treedec.changed_pairs": (count("changed_pairs") / nb, "count", nb),
        "core.treedec.shortcut_useful_ratio": (count("changed_pairs") / max(1.0, count("recomputed_pairs")), "ratio", nb),
        "core.treedec.affected_owners": (count("affected_owners") / nb, "count", nb),
        "core.treedec.build_labels_s": (sp.total("core.treedec.build_labels", batch) / nb, "s", nb),
        "core.treedec.relabelled_nodes": (count("relabelled_nodes") / nb, "count", nb),
        "core.treedec.h2h_query_calls_maint": (sp.calls("core.treedec.h2h_query", batch) / nb, "count", nb),
        "core.treedec.h2h_query_us": (sp.mean("core.treedec.h2h_query", queries) * 1e6, "us", sp.calls("core.treedec.h2h_query", queries)),
        "core.ch.pch_query_us": (sp.mean("core.ch.ch_query_rows", queries) * 1e6, "us", sp.calls("core.ch.ch_query_rows", queries)),
        "core.dijkstra.bidij_query_ms": (sp.mean("core.dijkstra.bidijkstra", queries) * 1e3, "ms", sp.calls("core.dijkstra.bidijkstra", queries)),
        "core.h2h.prune_to_subtree_roots_s": (sp.total("core.h2h.prune_to_subtree_roots", batch) / nb, "s", nb),
    }
    for kind in KINDS:
        builds = raw.builds[kind]
        for phase in builds[0]:
            m[f"{kind}.build.{phase}_s"] = (_med([b[phase] for b in builds]), "s", len(builds))
        warm = raw.views(kind)
        for stage in warm[0].stage_s:
            m[f"{kind}.{stage}_s"] = (_med([v.stage_s[stage] for v in warm]), "s", len(warm))
        for stage, lat in stage_stats(raw, kind):
            m[f"{kind}.q.{stage}_us"] = (float(lat.mean()) * 1e6, "us", len(lat))
        changed, rebuilt = (sum(x) for x in zip(*raw.useful[kind]))
        ratio = "u5_useful_ratio" if kind == "pmhl" else "u4_useful_ratio"
        m[f"{kind}.{ratio}"] = (changed / max(1, rebuilt), "ratio", rebuilt)
        m[f"{kind}.batch_self_s"] = (sp.total(f"batch.{kind}", (f"batch.{kind}",)) / len(warm), "s", len(warm))
        m[f"{kind}.index_entries"] = (raw.index_entries[kind], "count", 1)
        m[f"{kind}.model.tu_p16_s"] = (_med([v.walls_p16[-1] for v in warm]), "s", len(warm))
        m[f"{kind}.update_first_s"] = (adapter.read_batch(kind, raw.first[kind]).walls[-1], "s", 1)
    m["pmhl.u5_partitions"] = (_med([len(v.parts["u5"]) for v in raw.views("pmhl")]), "count", len(raw.warm["pmhl"]))
    m["pmhl.lstar_rows_rebuilt"] = (_med(raw.lstar_rows), "count", len(raw.lstar_rows))
    m["postmhl.overlay_labels_changed"] = (_med(raw.overlay_changed), "count", len(raw.overlay_changed))
    m |= properties(raw, wl) | raw.spark
    # Spans opened inside the timed wall, times the calibrated cost of one.
    timed_spans = int(np.isin(sp.root_name, [sp.names.index(r) for r in batch + queries]).sum())
    m["trace.overhead_share"] = (timed_spans * span_cost / raw.timed_wall, "ratio", timed_spans)
    return m
