"""One workload run: build, replay batches and query passes, check answers.

A run builds PMHL and PostMHL ``SETUP_REPS`` times from the same graph
(set-up time is the median of the repetitions) and keeps the last
build, which takes a first batch. It then runs
``round(--seconds / family_s)`` batch families, at least one (so a run
may measure longer than ``--seconds``). A family is
``batches`` new random batches, each followed by its reversal, applied
in turn ``REPEATS`` times, so every application of one of them starts
from the same graph. After
each application a correctness gate runs, then ``passes`` query passes:
one closed-loop client (one query at a time, each timed alone) answers
the same ``n_final`` pairs on the final stages of both indexes, and in
the first pass after a batch also the first ``N_STAGE`` of them on every
earlier stage.

Timings are taken at the fastest of identical repetitions, as ``timeit``
does: the host is shared, and other tenants slow whole seconds of a run
by up to 2x, which is interference, not the program. A query pair's
latency is its fastest pass, and each maintenance task of a batch (a
partition or overlay step, as ``apply_batch`` reports them) counts at its
fastest application. Slowdowns that last the whole run are taken out by
``metrics.host_scale``.

Only ``apply_batch`` calls and the query passes count toward the timed
wall; gates and answer checks are outside it.
"""
from __future__ import annotations

import contextlib
import gc
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core.dijkstra import dijkstra
from repro.graphs.generator import DATASETS
from repro.psp.pmhl import PMHLIndex
from repro.psp.postmhl import PostMHLIndex

from perfbench import adapter
from perfbench.adapter import KINDS
from perfbench.workloads import DATASET, Workload, generators

SETUP_REPS = 3
REPEATS = 3      # applications of each batch of a family
N_STAGE = 32     # pairs the earlier (non-final) stages answer after each batch
# Correctness gate after every batch: Dijkstra from GATE_SOURCES sources,
# GATE_TARGETS targets each on the final stages, the first GATE_ALL of
# them on every stage.
GATE_SOURCES = 2
GATE_TARGETS = 100
GATE_ALL = 3
PROBE_EVERY = 0.02  # seconds of query stream between host-speed probes


def probe_work() -> float:
    """A fixed pure-Python loop, independent of the program."""
    d = {i: float(i) for i in range(256)}
    best = math.inf
    for i in range(1500):
        best = min(best, d[(i * 7) & 255] + d[(i * 13) & 255])
    return best


@dataclass
class Tally:
    """Operations attempted and failed (raised or wrong answer)."""

    attempted: int = 0
    failed: int = 0
    shown: int = 0

    def fail(self, what: str, detail: str = "") -> None:
        self.failed += 1
        if self.shown < 5:  # enough to diagnose, without flooding stderr
            self.shown += 1
            print(f"FAILED {what} {detail}".rstrip(), file=sys.stderr)

    def call(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.fail(what, traceback.format_exc())
            return math.nan


@dataclass
class Raw:
    """Everything a run measured; metrics are computed from this."""

    setup_s: list[float] = field(default_factory=list)
    builds: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    # apply_batch returns: the first batch, and (batch id, wall, return) of warm ones
    first: dict = field(default_factory=dict)
    warm: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    lat: dict = field(default_factory=dict)          # (kind, stage) -> [per-pass arrays]
    timed: dict = field(default_factory=lambda: {"apply_batch": 0.0, "final": 0.0, "stage": 0.0})
    index_entries: dict = field(default_factory=dict)
    k: dict = field(default_factory=dict)
    same_partition: float = 0.0
    # traced runs only: per warm batch (kind -> list)
    useful: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    overlay_changed: list[int] = field(default_factory=list)
    lstar_rows: list[int] = field(default_factory=list)
    spark: dict = field(default_factory=dict)  # traced runs: sparkdist metrics
    rss_mb: float = 0.0
    passes: int = 0
    probe: list[float] = field(default_factory=list)  # seconds per probe_work

    @property
    def timed_wall(self) -> float:
        return sum(self.timed.values())

    def latencies(self, kind: str, stage: str) -> np.ndarray:
        """Each pair's fastest latency over the passes."""
        return np.min(self.lat[(kind, stage)], axis=0)

    def fastest(self, kind: str) -> list[adapter.BatchView]:
        """Each distinct warm batch with its tasks at their fastest
        application."""
        runs: dict = {}
        for key, _, times in self.warm[kind]:
            runs.setdefault(key, []).append(times)
        return [adapter.read_batch(kind, adapter.fastest_times(r)) for r in runs.values()]

    def views(self, kind: str) -> list[adapter.BatchView]:
        """Every warm application."""
        return [adapter.read_batch(kind, times) for _, _, times in self.warm[kind]]


def _no_span(name):
    return contextlib.nullcontext()


class Bench:
    def __init__(self, wl: Workload, seed: int, seconds: float, tracer=None):
        self.wl = wl
        self.seconds = seconds
        self.tracer = tracer
        self.span = tracer.span if tracer is not None else _no_span
        self.spec = DATASETS[DATASET]
        self.graph, self.coords = self.spec.build()
        self.updates, self.queries = generators(wl, self.graph, self.coords, self.spec, seed)
        # Stratified pairs: the earlier stages answer the first N_STAGE.
        self.pairs = np.concatenate([self.queries.pairs(N_STAGE), self.queries.pairs(wl.n_final - N_STAGE)])
        self.tally = Tally()
        self.raw = Raw()
        self.index = None

    # ------------------------------------------------------------------
    def setup(self, ref) -> dict | None:
        """Build both indexes ``SETUP_REPS`` times from ``ref`` and keep
        the last pair, after a first batch that is also applied to
        ``ref`` (None if it raised). Each repetition frees the previous
        build and collects the heap before its clock starts."""
        spec, raw = self.spec, self.raw
        for _ in range(SETUP_REPS):
            index = ix = None  # free the previous build before timing the next
            gc.collect()
            index = {}
            t0 = time.perf_counter()
            with self.span("setup.pmhl"):
                index["pmhl"] = PMHLIndex(ref.copy(), spec.k, self.coords)
            with self.span("setup.postmhl"):
                index["postmhl"] = PostMHLIndex(ref.copy(), tau=spec.tau, k_e=spec.k_e)
            raw.setup_s.append(time.perf_counter() - t0)
            for kind, ix in index.items():
                raw.builds[kind].append(adapter.read_build(ix.build_times))
                raw.index_entries[kind] = ix.index_size()
        batch = self.updates.next_batch()
        ref.apply_updates(batch)
        for kind, ix in index.items():
            done = self.apply(kind, ix, batch, "batch_first")
            if done is None:
                return None
            raw.first[kind] = done[1]
        raw.k = {kind: ix.k for kind, ix in index.items()}
        return index

    def probe(self) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.raw.probe.append(time.perf_counter() - t0)

    def apply(self, kind: str, ix, batch, phase: str):
        """Time one ``apply_batch``: (wall, its return value), or None if
        it raised."""
        before = adapter.snapshot(kind, ix) if self.tracer is not None and phase == "batch" else None
        gc.collect()
        self.probe()
        self.tally.attempted += 1
        with self.span(f"{phase}.{kind}"):
            t0 = time.perf_counter()
            try:
                times = ix.apply_batch(batch)
            except Exception:
                self.tally.fail(f"{kind}.apply_batch", traceback.format_exc())
                return None
            wall = time.perf_counter() - t0
        self.probe()
        if before is not None:
            parts = adapter.read_batch(kind, times).parts
            rebuilt = parts["u5" if kind == "pmhl" else "u4"]
            self.raw.useful[kind].append((adapter.changed_partitions(kind, ix, before, rebuilt), len(rebuilt)))
            if kind == "pmhl":
                self.raw.lstar_rows.append(adapter.lstar_rows(ix, parts["u5"]))
            else:
                self.raw.overlay_changed.append(adapter.overlay_labels_changed(ix, before))
        return wall, times

    def gate(self, index, ref) -> None:
        """Every stage of both indexes against Dijkstra on the current graph."""
        with self.span("gate"):
            for s, targets in self.queries.groups(GATE_SOURCES, GATE_TARGETS):
                dist = dijkstra(ref, s)
                for j, t in enumerate(targets):
                    want = dist.get(t, math.inf)
                    for kind, ix in index.items():
                        stages = adapter.stage_queries(kind, ix)
                        for stage, fn in stages if j < GATE_ALL else stages[-1:]:
                            got = self.tally.call(f"{kind}.{stage}", fn, s, t)
                            if got != want and not math.isnan(got):
                                self.tally.fail(f"{kind}.{stage}", f"({s},{t}) = {got}, Dijkstra {want}")

    def stream(self, kind: str, stage: str, fn, pairs, role: str) -> np.ndarray:
        """Closed-loop query stream; returns the answers (nan where the
        query raised) and keeps each query's latency."""
        lat = np.empty(len(pairs))
        ans = np.empty(len(pairs))
        clock = time.perf_counter
        due = clock() + PROBE_EVERY
        with self.span(f"query.{kind}.{stage}"):
            for i, (s, t) in enumerate(pairs.tolist()):
                t0 = clock()
                try:
                    d = fn(s, t)
                except Exception:
                    d = math.nan
                    self.tally.fail(f"{kind}.{stage}", traceback.format_exc())
                t1 = clock()
                lat[i] = t1 - t0
                ans[i] = d
                if t1 >= due:
                    self.probe()
                    due = clock() + PROBE_EVERY
        self.tally.attempted += len(pairs)
        self.raw.lat.setdefault((kind, stage), []).append(lat)
        self.raw.timed[role] += float(lat.sum())
        return ans

    def query_pass(self, index, earlier: bool) -> None:
        """The final stages of both indexes, and the earlier stages if
        ``earlier``, answer their pairs once. Earlier stages answer after
        the batch finished, so they must agree with the same index's
        final stage, and the final stages of PMHL and PostMHL must agree
        with each other."""
        gc.collect()
        final = {}
        for kind, ix in index.items():
            *stages, (last, fn) = adapter.stage_queries(kind, ix)
            answers = {stage: self.stream(kind, stage, f, self.pairs[:N_STAGE], "stage") for stage, f in stages} if earlier else {}
            final[kind] = self.stream(kind, last, fn, self.pairs, "final")
            for stage, ans in answers.items():
                for i in np.flatnonzero((ans != final[kind][:N_STAGE]) & ~np.isnan(ans)):
                    self.tally.fail(f"{kind}.{stage}", f"{self.pairs[i].tolist()} = {ans[i]}, final stage {final[kind][i]}")
        for i in np.flatnonzero(final["pmhl"] != final["postmhl"]):
            self.tally.fail("pmhl≢postmhl", f"{self.pairs[i].tolist()}: {final['pmhl'][i]} vs {final['postmhl'][i]}")
        self.raw.passes += 1

    # ------------------------------------------------------------------
    def run(self) -> Raw:
        raw = self.raw
        ref = self.graph.copy()  # the graph as updated so far, for the gates
        self.index = index = self.setup(ref)
        if index is None:
            return raw  # a failed batch leaves the index unusable
        pid = index["pmhl"].part.pid
        raw.same_partition = float(np.mean(pid[self.pairs[:, 0]] == pid[self.pairs[:, 1]]))
        for family in range(max(1, round(self.seconds / self.wl.family_s))):
            batches = []
            for _ in range(self.wl.batches):
                batches += [self.updates.next_batch(), self.updates.reversal()]
            for _ in range(REPEATS):
                for i, batch in enumerate(batches):
                    ref.apply_updates(batch)
                    for kind, ix in index.items():
                        done = self.apply(kind, ix, batch, "batch")
                        if done is None:
                            return raw
                        raw.warm[kind].append(((family, i), *done))
                        raw.timed["apply_batch"] += done[0]
                    self.gate(index, ref)
                    for n in range(self.wl.passes):
                        self.query_pass(index, earlier=n == 0)
        raw.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return raw

    def spark(self, scratch: str) -> None:
        """The Spark layer over the kept PostMHL labels (traced runs)."""
        from perfbench.spark import BATCH_QUERIES, BATCHES, spark_pass

        pairs = [self.queries.pairs(BATCH_QUERIES).tolist() for _ in range(BATCHES)]
        self.raw.spark = spark_pass(self.index["postmhl"], pairs, self.tally, self.span, scratch)
