"""Test-only reference for ``build_labels``: the per-neighbour kernel it
replaced, over a root-path matrix that keeps only its lower triangle.

Same arguments and same result as ``build_labels``: each node's
candidate matrix is filled one neighbour at a time, reading
``M[p][j]`` if j ≤ p else ``M[j][p]``.
"""
from __future__ import annotations

import math

import numpy as np

INF = math.inf


def reference_labels(td, *, roots=None, active=None, dis=None, col0=0):
    if dis is None:
        dis = [None] * td.n
    h = td.height
    M = np.full((h, h), INF, dtype=np.float64)
    start = roots if roots is not None else td.roots

    for r in start:
        for a in td.ancestors(r)[col0:-1]:
            d = int(td.depth[a])
            M[d, : d + 1] = dis[a]
        stack = [r]
        while stack:
            v = stack.pop()
            if active is not None and v not in active:
                continue
            d = int(td.depth[v])
            nb = td.neigh[v]
            if not nb:
                row = np.zeros(1, dtype=np.float64)
            else:
                pv = td.pos[v]
                w = td.sc[v]
                cand = np.empty((len(nb), d), dtype=np.float64)
                for k in range(len(nb)):
                    p = int(pv[k])
                    cand[k, : p + 1] = M[p, : p + 1]
                    if p + 1 < d:
                        cand[k, p + 1 :] = M[p + 1 : d, p]
                row = dis[v].copy() if col0 else np.empty(d + 1, dtype=np.float64)
                row[col0:d] = (cand[:, col0:] + w[:, None]).min(axis=0)
                row[d] = 0.0
            dis[v] = row
            M[d, : d + 1] = row
            stack.extend(td.children[v])
    return dis
