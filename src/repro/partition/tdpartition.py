"""Tree-decomposition-based graph partitioning (paper §VI-A, Algorithm 2).

Instead of partitioning the graph and then ordering vertices, PostMHL
derives the partitioning *from* the MDE tree decomposition: each
partition is the subtree of a chosen root node X(u) (u + descendants),
its boundary is X(u).N (a vertex separator), and everything outside the
chosen subtrees is the overlay graph. Root candidates are constrained by
bandwidth τ (|X(u).N| ≤ τ bounds the boundary size) and partition-size
bounds β_l·n/k_e ≤ |subtree(u)| ≤ β_u·n/k_e; scanning candidates in
decreasing vertex order and keeping ancestor-free ones implements the
minimum-overlay strategy (prefer the highest roots ⇒ smallest overlay).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.treedec import TreeDec


@dataclass
class TDPartitionResult:
    roots: list[int]
    parts: list[list[int]]       # in-partition vertices per partition
    boundary: list[list[int]]    # X(root).N per partition (rank-ascending)
    overlay: set[int]            # overlay vertices (upward-closed)
    pid: np.ndarray              # vertex -> partition id, -1 for overlay

    @property
    def k(self) -> int:
        return len(self.roots)


def td_partition(
    td: TreeDec,
    tau: int,
    k_e: int,
    beta_l: float = 0.1,
    beta_u: float = 2.0,
) -> TDPartitionResult:
    """Algorithm 2: choose partition roots on the tree decomposition."""
    n = td.n
    # Subtree sizes, children before parents (children have lower rank).
    cN = np.ones(n, dtype=np.int64)
    for v in td.order:
        for c in td.children[v]:
            cN[v] += cN[c]

    lo = beta_l * n / k_e
    hi = beta_u * n / k_e
    candidates = [
        v
        for v in reversed(td.order)  # decreasing vertex order
        # X(v).N is the partition's boundary; an empty separator (the
        # tree root) cannot delimit a partition.
        if lo <= cN[v] <= hi and 0 < len(td.neigh[v]) <= tau
    ]

    roots: list[int] = []
    root_set: set[int] = set()
    for v in candidates:
        u = td.parent[v]
        blocked = False
        while u != -1:
            if u in root_set:
                blocked = True
                break
            u = td.parent[u]
        if not blocked:
            roots.append(v)
            root_set.add(v)

    pid = np.full(n, -1, dtype=np.int64)
    parts: list[list[int]] = []
    boundary: list[list[int]] = []
    for i, r in enumerate(roots):
        stack = [r]
        members: list[int] = []
        while stack:
            v = stack.pop()
            members.append(v)
            pid[v] = i
            stack.extend(td.children[v])
        parts.append(members)
        boundary.append(list(td.neigh[r]))
    overlay = {v for v in range(n) if pid[v] == -1}
    return TDPartitionResult(roots=roots, parts=parts, boundary=boundary, overlay=overlay, pid=pid)
