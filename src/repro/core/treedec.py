"""MDE tree decomposition with dynamic shortcut maintenance.

This is the shared engine behind every index in the paper:

- CH's shortcut graph equals the tree-decomposition shortcuts under the
  same vertex order (Lemma 4), so ``TreeDec`` *is* the CH index.
- H2H/MHL distance labels are a top-down DP over the tree
  (``build_labels``), and DH2H's bottom-up shortcut maintenance is
  ``update_shortcuts`` (contributor lists give exact recomputation of
  ``sc(v,u) = min(w(v,u), min_x sc(x,v)+sc(x,u))`` in rank order).
- PMHL partition indexes use the *boundary-first* order: non-boundary
  vertices are eliminated by minimum degree, then boundary vertices; the
  residual graph snapshot taken between the two phases supplies the
  overlay graph's boundary shortcuts (Theorem 2), and the partition is
  then rebuilt with a fixed order whose boundary part follows the
  overlay order.

Key structural invariant used throughout: ``X(v).N`` is a subset of
``v``'s tree ancestors, so a neighbor's *position in the ancestor array*
equals its tree depth.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph

INF = math.inf


@dataclass
class TreeDec:
    """Tree decomposition + shortcut index of one graph.

    ``neigh[v]``/``sc[v]`` are X(v).N and its shortcut weights, sorted by
    ascending rank (so ``pos[v]`` — neighbor depths — is ascending too).
    ``contrib[(a, b)]`` (a, b rank-sorted) lists every vertex whose
    contraction produced a candidate for shortcut (a, b).
    """

    n: int
    order: list[int]
    rank: np.ndarray
    neigh: list[list[int]]
    sc: list[np.ndarray]
    nidx: list[dict[int, int]]
    parent: np.ndarray
    children: list[list[int]]
    depth: np.ndarray
    pos: list[np.ndarray]
    qpos: list[np.ndarray]
    roots: list[int]
    root_of: np.ndarray
    contrib: dict[tuple[int, int], list[int]]
    residual: dict[tuple[int, int], float] = field(default_factory=dict)
    _up: np.ndarray | None = None  # binary-lifting table, built lazily
    # Flat shortcut storage: sc[v] are views into `flat`; `flat_off[v]`
    # is v's row offset. Lets pair recomputation be one NumPy gather.
    flat: np.ndarray | None = None
    flat_off: np.ndarray | None = None
    _support: dict = field(default_factory=dict)  # pair -> (posA, posB) arrays

    # ------------------------------------------------------------------
    # LCA
    # ------------------------------------------------------------------
    def _lifting(self) -> np.ndarray:
        if self._up is None:
            maxd = int(self.depth.max(initial=0))
            levels = max(1, maxd.bit_length())
            up = np.full((levels, self.n), -1, dtype=np.int64)
            up[0] = self.parent
            for k in range(1, levels):
                prev = up[k - 1]
                valid = prev >= 0
                up[k, valid] = prev[prev[valid]]
            self._up = up
        return self._up

    def lca(self, a: int, b: int) -> int:
        up = self._lifting()
        da, db = int(self.depth[a]), int(self.depth[b])
        if da < db:
            a, b, da, db = b, a, db, da
        diff = da - db
        k = 0
        while diff:
            if diff & 1:
                a = int(up[k, a])
            diff >>= 1
            k += 1
        if a == b:
            return a
        for k in range(up.shape[0] - 1, -1, -1):
            if up[k, a] != up[k, b]:
                a, b = int(up[k, a]), int(up[k, b])
        return int(self.parent[a])

    def ancestors(self, v: int) -> list[int]:
        """Root-to-v path (the ancestor array X(v).A, v included last)."""
        path = []
        u = v
        while u != -1:
            path.append(u)
            u = int(self.parent[u])
        return path[::-1]

    def tree_height(self) -> int:
        return int(self.depth.max(initial=0)) + 1

    def treewidth(self) -> int:
        return max((len(nb) for nb in self.neigh), default=0) + 1


def build_treedec(
    graph: Graph,
    *,
    forced_last: set[int] | None = None,
    fixed_order: list[int] | None = None,
    snapshot_residual: bool = False,
) -> TreeDec:
    """Eliminate all vertices of ``graph`` and build its TreeDec.

    - default: pure minimum-degree elimination (MDE), ties by vertex id;
    - ``forced_last``: boundary-first mode — MDE over the non-forced
      vertices first, then the forced set in ascending vertex id (PMHL
      phase A; Spark's partition-parallel build);
    - ``fixed_order``: eliminate exactly in this order (PMHL phase B and
      the post-boundary partition index, whose boundary part follows the
      overlay order);
    - ``snapshot_residual``: record the residual boundary-graph weights
      right before the first forced vertex is contracted (Theorem 2 —
      these are the overlay graph's edges).
    """
    n = graph.n
    W: list[dict[int, float]] = [dict(a) for a in graph.adj]
    contracted = [False] * n
    order: list[int] = []
    contrib: dict[tuple[int, int], list[int]] = {}
    neigh: list[list[int]] = [[] for _ in range(n)]
    scw: list[list[float]] = [[] for _ in range(n)]
    residual: dict[tuple[int, int], float] = {}

    forced = forced_last or set()

    def contract(v: int) -> None:
        nbs = list(W[v].items())
        neigh[v] = [u for u, _ in nbs]
        scw[v] = [w for _, w in nbs]
        for i in range(len(nbs)):
            a, wa = nbs[i]
            del W[a][v]
            for j in range(i + 1, len(nbs)):
                b, wb = nbs[j]
                cand = wa + wb
                old = W[a].get(b)
                if old is None or cand < old:
                    W[a][b] = cand
                    W[b][a] = cand
                key = (a, b) if a < b else (b, a)
                contrib.setdefault(key, []).append(v)
        W[v].clear()
        contracted[v] = True
        order.append(v)

    if fixed_order is not None:
        for v in fixed_order:
            contract(v)
    else:
        pq = [(len(W[v]), v) for v in range(n) if v not in forced]
        heapq.heapify(pq)
        while pq:
            d, v = heapq.heappop(pq)
            if contracted[v] or len(W[v]) != d:
                if not contracted[v]:
                    heapq.heappush(pq, (len(W[v]), v))
                continue
            contract(v)
        if forced:
            if snapshot_residual:
                for b in forced:
                    for u, w in W[b].items():
                        if b < u:
                            residual[(b, u)] = w
            for v in sorted(forced):
                contract(v)

    if len(order) != n:
        raise ValueError("graph has isolated/disconnected leftovers; all vertices must be eliminated")

    rank = np.empty(n, dtype=np.int64)
    for r, v in enumerate(order):
        rank[v] = r

    # Sort each neighbor row by ascending rank (⇒ ascending depth), then
    # lay all rows out in one flat array so dynamic-maintenance pair
    # recomputation can gather contributor values vectorized.
    nidx: list[dict[int, int]] = [dict() for _ in range(n)]
    flat_off = np.zeros(n + 1, dtype=np.int64)
    rows: list[list[float]] = [[]] * n
    for v in range(n):
        pairs = sorted(zip(neigh[v], scw[v]), key=lambda p: rank[p[0]])
        neigh[v] = [u for u, _ in pairs]
        rows[v] = [w for _, w in pairs]
        nidx[v] = {u: i for i, (u, _) in enumerate(pairs)}
        flat_off[v + 1] = flat_off[v] + len(pairs)
    flat = np.array([w for r in rows for w in r], dtype=np.float64)
    sc_arr: list[np.ndarray] = [flat[flat_off[v] : flat_off[v + 1]] for v in range(n)]

    parent = np.full(n, -1, dtype=np.int64)
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if neigh[v]:
            p = neigh[v][0]  # lowest-rank neighbor
            parent[v] = p
            children[p].append(v)
    roots = [v for v in range(n) if parent[v] == -1]

    depth = np.zeros(n, dtype=np.int64)
    root_of = np.empty(n, dtype=np.int64)
    stack = list(roots)
    topo: list[int] = []
    for r in roots:
        root_of[r] = r
    while stack:
        v = stack.pop()
        topo.append(v)
        for c in children[v]:
            depth[c] = depth[v] + 1
            root_of[c] = root_of[v]
            stack.append(c)

    pos: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    qpos: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    for v in topo:
        p = np.array([depth[u] for u in neigh[v]], dtype=np.int64)
        pos[v] = p
        qpos[v] = np.append(p, depth[v])

    return TreeDec(
        n=n, order=order, rank=rank, neigh=neigh, sc=sc_arr, nidx=nidx,
        parent=parent, children=children, depth=depth, pos=pos, qpos=qpos,
        roots=roots, root_of=root_of, contrib=contrib, residual=residual,
        flat=flat, flat_off=flat_off,
    )


def shortcut(td: TreeDec, a: int, b: int) -> float:
    """Current shortcut weight between a and b (must be a TD shortcut)."""
    if td.rank[a] > td.rank[b]:
        a, b = b, a
    return float(td.sc[a][td.nidx[a][b]])


def recompute_shortcut(td: TreeDec, graph: Graph, v: int, u: int, *, exclude: set[int] | None = None) -> float:
    """Exact recomputation of sc(v,u) from base edge + contributor mins.

    The contributor gather positions are cached per pair (first touch
    builds them), so repeated maintenance passes are one vectorized min.
    ``exclude`` drops contributors (used for Theorem-2 residual values,
    which must ignore candidates produced by contracting boundary
    vertices) and falls back to the scalar path.
    """
    best = graph.adj[v].get(u, INF)
    key = (v, u) if v < u else (u, v)
    if exclude is not None:
        for x in td.contrib.get(key, ()):
            if x in exclude:
                continue
            best = min(best, float(td.sc[x][td.nidx[x][v]]) + float(td.sc[x][td.nidx[x][u]]))
        return best
    sup = td._support.get(key)
    if sup is None:
        xs = td.contrib.get(key, ())
        pa = np.fromiter((td.flat_off[x] + td.nidx[x][v] for x in xs), dtype=np.int64, count=len(xs))
        pb = np.fromiter((td.flat_off[x] + td.nidx[x][u] for x in xs), dtype=np.int64, count=len(xs))
        sup = (pa, pb)
        td._support[key] = sup
    pa, pb = sup
    if len(pa):
        best = min(best, float((td.flat[pa] + td.flat[pb]).min()))
    return best


@dataclass
class ShortcutUpdate:
    """Result of one bottom-up shortcut pass."""

    affected: set[int]                       # owners whose row changed
    changed_pairs: set[tuple[int, int]]      # (owner, hi) pairs whose value changed
    recomputed_pairs: set[tuple[int, int]]   # every dirty pair that was recomputed
    escaped: dict[int, set[int]]             # dirt owned outside `subset`


def update_shortcuts(
    td: TreeDec,
    graph: Graph,
    changed_edges: list[tuple[int, int]],
    *,
    subset: set[int] | None = None,
    seed_dirty: dict[int, set[int]] | None = None,
) -> ShortcutUpdate:
    """Bottom-up shortcut maintenance (the DCH / DH2H U-Stage-2 engine).

    ``graph`` must already hold the new weights. Processes dirty shortcut
    owners in ascending rank; a changed row marks every dependent pair
    dirty (owner = lower-rank endpoint, always of higher rank than the
    contributor, so a single sweep is exact for increases *and*
    decreases).

    ``subset``: only owners inside it are processed (PostMHL processes
    each partition's subtree in parallel); dirt escaping to owners
    outside the subset is returned via ``escaped`` for a later pass
    (feed it back through ``seed_dirty``).

    ``recomputed_pairs`` ⊇ ``changed_pairs`` matters for Theorem-2
    residual maintenance: a boundary pair's *residual* value (ignoring
    boundary contributors) can change even when its full value does not.
    """
    dirty: dict[int, set[int]] = {k: set(v) for k, v in (seed_dirty or {}).items()}

    def owner_of(a: int, b: int) -> tuple[int, int]:
        return (a, b) if td.rank[a] < td.rank[b] else (b, a)

    for u, v in changed_edges:
        o, hi = owner_of(u, v)
        if hi in td.nidx[o]:
            dirty.setdefault(o, set()).add(td.nidx[o][hi])

    heap = [(int(td.rank[v]), v) for v in dirty]
    heapq.heapify(heap)
    inheap = set(dirty)
    affected: set[int] = set()
    changed_pairs: set[tuple[int, int]] = set()
    recomputed_pairs: set[tuple[int, int]] = set()
    escaped: dict[int, set[int]] = {}

    while heap:
        _, v = heapq.heappop(heap)
        inheap.discard(v)
        if subset is not None and v not in subset:
            escaped.setdefault(v, set()).update(dirty.get(v, ()))
            dirty.pop(v, None)
            continue
        idxs = dirty.pop(v, set())
        row_changed: list[int] = []
        for i in idxs:
            u = td.neigh[v][i]
            recomputed_pairs.add((v, u))
            new = recompute_shortcut(td, graph, v, u)
            if new != td.sc[v][i]:
                td.sc[v][i] = new
                row_changed.append(i)
                changed_pairs.add((v, u))
        if not row_changed:
            continue
        affected.add(v)
        # v is a contributor to every pair of its neighbors; pairs touching
        # a changed neighbor entry must be recomputed at their owner.
        nb = td.neigh[v]
        for i in row_changed:
            a = nb[i]
            for j in range(len(nb)):
                if j == i:
                    continue
                b = nb[j]
                o, hi = owner_of(a, b)
                k = td.nidx[o].get(hi)
                if k is None:
                    continue  # pair was never materialized as a shortcut
                s = dirty.setdefault(o, set())
                if k not in s:
                    s.add(k)
                    if o not in inheap:
                        heapq.heappush(heap, (int(td.rank[o]), o))
                        inheap.add(o)
    return ShortcutUpdate(affected, changed_pairs, recomputed_pairs, escaped)


# ----------------------------------------------------------------------
# H2H labels: top-down DP with a root-path matrix
# ----------------------------------------------------------------------

def build_labels(
    td: TreeDec,
    *,
    roots: list[int] | None = None,
    active: set[int] | None = None,
    dis: list[np.ndarray | None] | None = None,
    col0: int = 0,
) -> list[np.ndarray]:
    """Compute/refresh H2H distance arrays top-down.

    ``dis[v][j]`` = distance from v to its ancestor at depth j
    (``dis[v][depth[v]] = 0``). The DP per node takes the elementwise min
    over neighbors of ``sc(v, x_k) + d(x_k, ·)``, where ``d(x_k, A[j])``
    is read from a matrix M holding the root-path ancestors' arrays:
    ``M[p][j]`` if j ≤ p else ``M[j][p]`` (x_k *is* the ancestor at its
    own depth p).

    - ``roots``: subtree roots to (re)compute — DH2H's top-down label
      update phase recomputes exactly the subtrees under the highest
      affected tree nodes; defaults to the tree roots (full build).
    - ``active``: restrict computation to this upward-closed vertex set
      (PostMHL's overlay-only label phase); children outside it are
      pruned.
    - ``dis``: existing arrays updated (returned); fresh otherwise.
    - ``col0``: compute only the columns ``[col0, depth)`` of each row
      and keep the others from its existing row (PostMHL's in-partition
      columns). A neighbor above depth ``col0`` is then read only at the
      columns its depth gives in the rows being computed, so those
      columns must be set beforehand.

    Every row written is a fresh array (in window mode a copy of the old
    row), so callers can tell rewritten rows from the row objects they
    held before.
    """
    if dis is None:
        dis = [None] * td.n
    h = td.tree_height()
    M = np.full((h, h), INF, dtype=np.float64)
    start = roots if roots is not None else td.roots

    for r in start:
        # Seed M with r's strict ancestors' existing arrays (at depth ≥
        # col0: shallower rows only feed columns outside the window).
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


def h2h_query(td: TreeDec, dis: list[np.ndarray], s: int, t: int) -> float:
    """H2H distance query: min over the LCA separator positions."""
    if s == t:
        return 0.0
    if td.root_of[s] != td.root_of[t]:
        return INF  # different components: no path
    a = td.lca(s, t)
    if a == s:
        return float(dis[t][td.depth[s]])
    if a == t:
        return float(dis[s][td.depth[t]])
    idx = td.qpos[a]
    return float((dis[s][idx] + dis[t][idx]).min())
