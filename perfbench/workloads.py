"""Workload table and the seeded update / query generators.

Every input of a run comes from the ``--seed`` argument: the graph is the
registered dataset (fixed), the update batches and query pairs are drawn
from ``numpy`` generators seeded with it. The indexes only ever see the
generated batches and pairs.

Updates follow the paper's protocol (§VII-A): each batch picks ``volume``
distinct edges and halves or doubles each one's current weight. Weights
stay dyadic multiples of integers, so every distance is an exact float sum
and answers can be compared with ``==``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


DATASET = "FLA"  # key of repro.graphs.generator.DATASETS
VOLUME = 100     # |U| per batch
RQ = 0.1         # R*_q, mean-response bound, seconds


@dataclass(frozen=True)
class Workload:
    name: str
    dt: float      # δt, seconds between batches
    window: bool   # updates and queries confined to one column window
    n_final: int   # pairs the final stages answer in every query pass
    passes: int    # query passes after each batch
    batches: int   # distinct batches (each with its reversal) per family
    # Timed seconds of one batch family on a 4-vCPU 2.0 GHz Xeon; a run
    # of --seconds does round(seconds / family_s) families, at least
    # one, whatever the host's speed.
    family_s: float


WORKLOADS = {
    w.name: w
    for w in [
        # Queries dominate: t_u is a small share of δt (the final stage
        # serves ~90% of it), so query paths set λ* and latency;
        # maintenance changes should leave λ* nearly unchanged.
        Workload("fla-read", 10.0, False, n_final=12_000, passes=2, batches=2, family_s=44.0),
        # Update locality: all updates and trips inside one corridor
        # window, so U2 touches one PMHL partition and trips are
        # same-partition.
        Workload("fla-hotspot", 3.0, True, n_final=10_000, passes=3, batches=1, family_s=12.0),
    ]
}


def hotspot_window(width: int, k: int) -> tuple[int, int]:
    """(first column, columns) of the update hotspot.

    The window is width/16 columns wide and centred in the PMHL column
    block just left of the corridor's middle. PMHL's coordinate
    partitioner cuts the corridor into k blocks of width/k columns, so
    every local trip stays inside one PMHL partition. The position is
    fixed: where the window sits decides how far a change spreads through
    the overlay, so a seed-drawn position would make runs incomparable.
    """
    span, block = width // 16, width // k
    if span > block:
        raise ValueError("window wider than a partition block")
    return (k // 2 - 1) * block + (block - span) // 2, span


class HalveOrDouble:
    """Batches of distinct edges from ``pool``, each halved or doubled.

    ``reversal`` gives the batch that puts the last batch's edges back to
    their weights before it; it is itself a halve-or-double batch on the
    same edges, so a batch and its reversal can be replayed in turn, each
    application starting from the same graph."""

    def __init__(self, pool: list[tuple[int, int, float]], volume: int, rng: np.random.Generator):
        if volume > len(pool):
            raise ValueError(f"|U| = {volume} exceeds the {len(pool)} edges in the pool")
        self.keys = [(u, v) for u, v, _ in pool]
        self.weight = {(u, v): w for u, v, w in pool}
        self.volume = volume
        self.rng = rng

    def next_batch(self) -> list[tuple[int, int, float]]:
        batch, self.before = [], []
        for i in self.rng.choice(len(self.keys), size=self.volume, replace=False):
            key = self.keys[i]
            w = self.weight[key]
            new = max(1.0, w * 0.5 if self.rng.random() < 0.5 else w * 2.0)
            self.weight[key] = new
            batch.append((*key, new))
            self.before.append((*key, w))
        return batch

    def reversal(self) -> list[tuple[int, int, float]]:
        """The last batch's edges at their weights before it."""
        for u, v, w in self.before:
            self.weight[(u, v)] = w
        return list(self.before)


class Queries:
    """Uniform s–t pairs (s ≠ t) over a block of whole grid columns.

    ``pairs`` stratifies the column distance x_s − x_t: each of ``count``
    equal-probability strata of its (triangular) distribution gives one
    pair, then the pair is completed uniformly. Every pair is still a
    uniform draw, but search cost grows with distance, so the stage means
    vary far less between seeds than with independent draws.
    """

    def __init__(self, vertices: np.ndarray, coords: np.ndarray, rng: np.random.Generator):
        x, y = coords[vertices, 0], coords[vertices, 1]
        order = np.lexsort((y, x))
        cols = int(x.max() - x.min() + 1)
        if len(vertices) % cols or np.any(np.bincount(x - x.min()) != len(vertices) // cols):
            raise ValueError("query vertices must fill whole columns of equal height")
        self.grid = np.asarray(vertices)[order].reshape(cols, -1)  # [column, row]
        self.vertices = self.grid.ravel()
        c, h = self.grid.shape
        self.dist = np.arange(-(c - 1), c)
        # Ordered pairs at each column distance, less the c·h pairs s = t.
        weight = (c - np.abs(self.dist)) * h * h - (self.dist == 0) * c * h
        self.cdf = np.cumsum(weight) / weight.sum()
        self.rng = rng

    def pairs(self, count: int) -> np.ndarray:
        """``count`` pairs as rows (s, t)."""
        rng, (c, h) = self.rng, self.grid.shape
        u = (rng.permutation(count) + rng.random(count)) / count
        d = self.dist[np.minimum(np.searchsorted(self.cdf, u, side="right"), len(self.dist) - 1)]
        lo, hi = np.maximum(0, d), np.minimum(c, c + d)
        xs = lo + (rng.random(count) * (hi - lo)).astype(np.int64)
        ys = rng.integers(0, h, count)
        yt = rng.integers(0, h, count)
        same = (d == 0) & (yt == ys)
        yt[same] = (ys[same] + 1 + rng.integers(0, h - 1, same.sum())) % h
        return np.stack([self.grid[xs, ys], self.grid[xs - d, yt]], axis=1)

    def groups(self, sources: int, targets: int) -> list[tuple[int, list[int]]]:
        """Uniform pairs grouped by source, so one Dijkstra checks many targets."""
        out = []
        for s in self.rng.choice(self.vertices, size=sources, replace=False).tolist():
            ts = self.rng.choice(self.vertices, size=targets).tolist()
            out.append((s, [t for t in ts if t != s]))
        return out


def generators(wl: Workload, graph, coords: np.ndarray, spec, seed: int):
    """(update generator, query generator) of one run."""
    rng_u, rng_q = (np.random.default_rng([seed, i]) for i in range(2))
    if not wl.window:
        return HalveOrDouble(list(graph.edges()), VOLUME, rng_u), Queries(np.arange(graph.n), coords, rng_q)
    x0, span = hotspot_window(spec.width, spec.k)
    inside = (coords[:, 0] >= x0) & (coords[:, 0] < x0 + span)
    pool = [(u, v, w) for u, v, w in graph.edges() if inside[u] and inside[v]]
    return HalveOrDouble(pool, VOLUME, rng_u), Queries(np.flatnonzero(inside), coords, rng_q)
