"""Shared test fixtures/helpers: small graphs with cached ground truth."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.graphs.generator import road_network, update_batches
from repro.graphs.graph import Graph
from repro.core.dijkstra import floyd_warshall


@lru_cache(maxsize=32)
def small_case(seed: int, width: int = 14, height: int = 5):
    """(graph, coords, all-pairs ground truth) for a small road network."""
    g, coords = road_network(width, height, seed=seed)
    return g, coords, floyd_warshall(g)


@lru_cache(maxsize=32)
def updated_case(seed: int, width: int = 14, height: int = 5, batches: int = 3, volume: int = 20):
    """Graph + update batches + ground truth after each batch."""
    g, coords, _ = small_case(seed, width, height)
    ups = update_batches(g, batches=batches, volume=volume, seed=seed + 100)
    g2 = g.copy()
    truths = []
    for b in ups:
        g2.apply_updates(b)
        truths.append(floyd_warshall(g2))
    return g, coords, ups, truths


def two_components() -> tuple[Graph, np.ndarray, int]:
    """A small road network plus a 3-vertex path placed at its left edge,
    so PMHL's first partition holds a component with no boundary."""
    g, coords, _ = small_case(0, 14, 5)
    n = g.n
    out = Graph(n + 3)
    for a, b, w in g.edges():
        out.add_edge(a, b, w)
    out.add_edge(n, n + 1, 7.0)
    out.add_edge(n + 1, n + 2, 5.0)
    return out, np.vstack([coords, [[0, 0], [0, 1], [1, 0]]]), n


def pairs_for(n: int, count: int, seed: int = 0):
    import random

    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        s, t = rnd.randrange(n), rnd.randrange(n)
        if s != t:
            out.append((s, t))
    return out


def assert_component_equals(forest, forest_dis, vertices, td, dis) -> None:
    """The rows of ``forest`` at ``vertices`` (global ids) are bit for bit
    those of ``td``, a tree over local ids (``vertices[l]`` is local l):
    neighbours, shortcuts, base weights, depths and, where ``dis`` is
    given, labels."""
    for l, v in enumerate(vertices):
        assert forest.neigh[v] == [vertices[x] for x in td.neigh[l]], v
        assert np.array_equal(forest.sc[v], td.sc[l]), v
        fa, la = forest.flat_off[v], td.flat_off[l]
        assert np.array_equal(forest.base[fa : forest.flat_off[v + 1]], td.base[la : td.flat_off[l + 1]]), v
        assert forest.depth[v] == td.depth[l], v
        if dis is not None:
            assert np.array_equal(forest_dis[v], dis[l]), v


def is_boundary(idx, v: int) -> bool:
    return v in idx.units[int(idx.part.pid[v])].b_set


def pmhl_pair_classes(idx, rng) -> dict[str, list[tuple[int, int]]]:
    """Pairs per class: same partition, across partitions, and either
    kind with a boundary endpoint."""
    n = idx.graph.n
    bound = np.array([v for v in range(n) if is_boundary(idx, v)])
    inner = np.array([v for v in range(n) if not is_boundary(idx, v)])
    sources = [*rng.choice(inner, 4, replace=False), *rng.choice(bound, 3, replace=False)]
    classes: dict[str, list[tuple[int, int]]] = {"same": [], "cross": [], "boundary-same": [], "boundary-cross": []}
    for s in sources:
        part = idx.part.parts[int(idx.part.pid[s])]
        b_same = [v for v in part if is_boundary(idx, v) and v != s][:3]
        targets = [*rng.choice(n, 12, replace=False), *rng.choice(part, 6, replace=False), *b_same]
        for t in targets:
            if t == s:
                continue
            same = idx.part.pid[s] == idx.part.pid[t]
            kind = "same" if same else "cross"
            if is_boundary(idx, s) or is_boundary(idx, t):
                kind = "boundary-" + kind
            classes[kind].append((int(s), int(t)))
    return classes


def postmhl_pair_classes(idx, rng) -> dict[str, list[tuple[int, int]]]:
    """Pairs per class: same partition, across partitions, one overlay
    endpoint, two overlay endpoints."""
    n = idx.graph.n
    pid = idx.tdp.pid
    overlay = np.flatnonzero(pid < 0)
    inner = np.flatnonzero(pid >= 0)
    sources = [*rng.choice(inner, 4, replace=False), *rng.choice(overlay, 3, replace=False)]
    classes: dict[str, list[tuple[int, int]]] = {"same": [], "cross": [], "one-overlay": [], "two-overlay": []}
    for s in sources:
        targets = [*rng.choice(n, 12, replace=False), *rng.choice(overlay, 4, replace=False)]
        if pid[s] >= 0:
            targets.extend(rng.choice(idx.tdp.parts[pid[s]], 6))
        for t in targets:
            if t == s:
                continue
            ov = int(pid[s] < 0) + int(pid[t] < 0)
            kind = ("same" if pid[s] == pid[t] else "cross", "one-overlay", "two-overlay")[ov]
            classes[kind].append((int(s), int(t)))
    return classes
