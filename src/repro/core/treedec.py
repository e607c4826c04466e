"""MDE tree decomposition with dynamic shortcut maintenance.

This is the shared engine behind every index in the paper:

- CH's shortcut graph equals the tree-decomposition shortcuts under the
  same vertex order (Lemma 4), so ``TreeDec`` *is* the CH index.
- H2H/MHL distance labels are a top-down DP over the tree
  (``build_labels``), and DH2H's bottom-up shortcut maintenance is
  ``update_shortcuts``: static support tables + a depth sweep give exact
  recomputation of ``sc(v,u) = min(w(v,u), min_x sc(x,v)+sc(x,u))``,
  deepest owners first, one vectorized gather per tree depth. It takes
  a batch of ``(u, v, w)`` weight changes and writes each ``w`` into
  ``TreeDec.base``, the only edge-weight copy maintenance keeps: no graph
  is read after the build.
- PMHL partition indexes use the *boundary-first* order: non-boundary
  vertices are eliminated by minimum degree, then boundary vertices.
  ``contract_nonboundary`` contracts only the non-boundary vertices; the
  weights left between boundary vertices are the overlay graph's
  boundary shortcuts (Theorem 2). ``finish_boundary_first`` resumes
  that state: it joins each partition's boundary into one clique (INF
  where no edge is left) and contracts it in the overlay order, so the
  graph is contracted once. Over a graph of intra-partition edges only,
  that is one forest holding every partition tree. The post-boundary
  forest is ``share_shape`` of it.

Key structural invariant used throughout: ``X(v).N`` is a subset of
``v``'s tree ancestors, so a neighbor's *position in the ancestor array*
equals its tree depth.

Every query stage that meets two tree paths needs their LCA (H2H's O(w)
query assumes an O(1) one). ``TreeDec.lca`` is an Euler tour of the
forest plus a sparse-table range-minimum query (Bender & Farach-Colton,
"The LCA Problem Revisited", LATIN 2000): one min of two table entries.
The tree never changes shape, so ``_treedec`` builds the tables once, as
``array('i')`` like the parents, depths and components a query reads
with them, and ``share_shape`` shares them.
"""
from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.graphs.graph import Graph

INF = math.inf


@dataclass
class TreeDec:
    """Tree decomposition + shortcut index of one graph.

    ``neigh[v]``/``sc[v]`` are X(v).N and its shortcut weights, sorted by
    ascending rank (so ``pos[v]`` — neighbor depths — is descending: the
    first neighbor is the parent).

    Shortcut *positions* index ``flat``: position p is the shortcut
    ``(own[p], nbr[p])`` with base edge weight ``base[p]`` (INF if the
    graph has no such edge). ``base`` is read from the graph at build;
    after that ``update_shortcuts`` writes each changed weight into it,
    so it is the one weight copy a maintained index keeps.

    Support tables + depth sweep: the tree never changes shape, so the
    contributors of every shortcut are fixed —
    x supports (a, b) iff a, b ∈ X(x).N — and stored as a CSR
    (``sup_ptr``: position → entries; ``sup_a``/``sup_b``: the positions
    of sc(x, a) and sc(x, b)), with its transpose (``dep_ptr``/``dep``:
    position → the positions it supports). A supported shortcut's owner
    is an ancestor of every contributor, so ``pdepth`` (owner depth per
    position) orders an exact deepest-first sweep; ``depth_pos[d]`` lists
    the positions of owner depth d, the sweep's static schedule.
    """

    n: int
    order: list[int]
    rank: np.ndarray
    neigh: list[list[int]]
    sc: list[np.ndarray]
    nidx: list[dict[int, int]]
    parent: array
    children: list[list[int]]
    depth: array
    pos: list[np.ndarray]
    qpos: list[np.ndarray]
    roots: list[int]
    root_of: array
    # O(1) LCA: each vertex's first index in the Euler tour, its preorder
    # number → vertex, and the tour's sparse table (level k, index i: the
    # shallowest vertex of tour[i : i + 2^k], as its preorder number).
    tour_first: array
    preorder: array
    tour_rmq: list[array]
    height: int  # levels of the tallest tree: the label DP's matrix side
    # Flat shortcut storage: sc[v] are views into `flat`; `flat_off[v]`
    # is v's row offset.
    flat: np.ndarray | None = None
    flat_off: np.ndarray | None = None
    own: np.ndarray | None = None
    nbr: np.ndarray | None = None
    base: np.ndarray | None = None
    pdepth: np.ndarray | None = None
    depth_pos: list[np.ndarray] | None = None
    sup_ptr: np.ndarray | None = None
    sup_a: np.ndarray | None = None
    sup_b: np.ndarray | None = None
    dep_ptr: np.ndarray | None = None
    dep: np.ndarray | None = None

    # ------------------------------------------------------------------
    # LCA
    # ------------------------------------------------------------------
    def lca(self, a: int, b: int) -> int:
        """Lowest common ancestor of a and b, which must share a tree
        (``root_of``): the shallowest vertex of the Euler tour between
        their first visits, one range minimum of the sparse table."""
        i, j = self.tour_first[a], self.tour_first[b]
        if i > j:
            i, j = j, i
        k = (j - i + 1).bit_length() - 1
        row = self.tour_rmq[k]
        x, y = row[i], row[j + 1 - (1 << k)]
        return self.preorder[x if x < y else y]

    def ancestors(self, v: int) -> list[int]:
        """Root-to-v path (the ancestor array X(v).A, v included last)."""
        parent, path = self.parent, []
        u = v
        while u != -1:
            path.append(u)
            u = parent[u]
        return path[::-1]

    def treewidth(self) -> int:
        return max((len(nb) for nb in self.neigh), default=0) + 1


class Elimination:
    """A graph's contraction state: the weights ``W`` left between
    uncontracted vertices, the vertices contracted so far (``order``),
    and each contracted vertex's unsorted row (neighbours and weights) as
    it was when contracted. ``_eliminate`` continues it."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.W: list[dict[int, float]] = [dict(a) for a in graph.adj]
        self.order: list[int] = []
        self.neigh: list[list[int]] = [[] for _ in range(graph.n)]
        self.scw: list[list[float]] = [[] for _ in range(graph.n)]

    def residual(self) -> dict[tuple[int, int], float]:
        """The edges left between uncontracted vertices, ``{(a, b): w}``
        with ``a < b``."""
        return {(a, b): w for a, row in enumerate(self.W) for b, w in row.items() if a < b}


def _eliminate(e: Elimination, *, order: list[int] | None = None, keep: np.ndarray | None = None) -> Elimination:
    """Continue ``e``: contract ``order``, or by minimum degree (ties by
    vertex id) every vertex not marked in ``keep`` (bool per vertex),
    adding fill-in edges. Returns ``e``."""
    W, neigh, scw = e.W, e.neigh, e.scw
    contracted = [False] * len(W)

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
        W[v].clear()
        contracted[v] = True
        e.order.append(v)

    if order is not None:
        for v in order:
            contract(v)
    else:
        pq = [(len(W[v]), v) for v in range(len(W)) if keep is None or not keep[v]]
        heapq.heapify(pq)
        while pq:
            d, v = heapq.heappop(pq)
            if contracted[v] or len(W[v]) != d:
                if not contracted[v]:
                    heapq.heappush(pq, (len(W[v]), v))
                continue
            contract(v)
    return e


def contract_nonboundary(graph: Graph, boundary_mask: np.ndarray) -> Elimination:
    """PMHL phase A: contract every non-boundary vertex of ``graph`` by
    MDE. The weights left between boundary vertices (``residual()``) are
    Theorem 2's residual boundary graph; ``finish_boundary_first``
    resumes the state into the partition tree."""
    return _eliminate(Elimination(graph), keep=boundary_mask)


def boundary_residual(graph: Graph, boundary_mask: np.ndarray) -> tuple[list[int], dict[tuple[int, int], float]]:
    """Theorem 2's residual boundary graph, without building a tree:
    the non-boundary elimination order and the residual edges
    ``{(a, b): w}``, ``a < b``, of ``contract_nonboundary``."""
    e = contract_nonboundary(graph, boundary_mask)
    return e.order, e.residual()


def finish_boundary_first(e: Elimination, b_orders: list[list[int]]) -> TreeDec:
    """PMHL phase B, resumed from phase A's state ``e``: join every pair
    of each order in ``b_orders`` that has no edge left by an INF-weight
    edge, then contract the orders one after another and build the
    boundary-first tree (a forest when ``e`` holds several partitions:
    no clique joins two orders, so their trees stay apart).

    With every boundary pair a shortcut, the tree has the shape that the
    extended partition G'_i (every boundary pair an edge) has under the
    same order, so the post-boundary tree can share it. A pair that the
    contraction leaves unjoined gets base and shortcut INF, so no
    distance changes.
    """
    for b_order in b_orders:
        for i, a in enumerate(b_order):
            for b in b_order[i + 1 :]:
                if b not in e.W[a]:
                    e.W[a][b] = e.W[b][a] = INF
    return _treedec(_eliminate(e, order=[b for b_order in b_orders for b in b_order]))


def build_treedec(graph: Graph, *, fixed_order: list[int] | None = None) -> TreeDec:
    """Eliminate all vertices of ``graph`` and build its TreeDec.

    - default: pure minimum-degree elimination (MDE), ties by vertex id;
    - ``fixed_order``: eliminate exactly in this order (the tests'
      reference for a resumed boundary-first tree, and the rebuild of a
      tree under a recorded order).
    """
    return _treedec(_eliminate(Elimination(graph), order=fixed_order))


def share_shape(td: TreeDec) -> TreeDec:
    """A TreeDec with ``td``'s shape and its own weights: every
    structural array (order, rows, depths, positions, support tables and
    the LCA tables) is ``td``'s object; ``flat``, its ``sc`` views and
    ``base`` are copies."""
    flat = td.flat.copy()
    sc = [flat[a:b] for a, b in zip(td.flat_off[:-1], td.flat_off[1:])]
    return replace(td, flat=flat, sc=sc, base=td.base.copy())


def _treedec(e: Elimination) -> TreeDec:
    """The TreeDec of a finished elimination: rows sorted by rank, tree
    links, depths, label positions and support tables; base weights are
    read from ``e.graph`` (INF where it has no edge)."""
    graph, order, neigh, scw = e.graph, e.order, e.neigh, e.scw
    n = graph.n

    if len(order) != n:
        raise ValueError("graph has isolated/disconnected leftovers; all vertices must be eliminated")

    rank = np.empty(n, dtype=np.int64)
    for r, v in enumerate(order):
        rank[v] = r

    # Sort each neighbor row by ascending rank (⇒ descending depth), then
    # lay all rows out in one flat array so dynamic maintenance can
    # gather contributor values vectorized.
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

    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if neigh[v]:
            p = neigh[v][0]  # lowest-rank neighbor
            parent[v] = p
            children[p].append(v)
    roots = [v for v in range(n) if parent[v] == -1]

    # One DFS gives depths, components, the preorder and the Euler tour
    # (each vertex, then a return to it after each child; ``~v`` on the
    # stack is the return to v). Tour entries are preorder numbers.
    depth = [0] * n
    root_of = [0] * n
    tin = [0] * n
    first = [0] * n
    preorder: list[int] = []
    tour: list[int] = []
    stack = list(roots)
    for r in roots:
        root_of[r] = r
    while stack:
        v = stack.pop()
        if v < 0:
            tour.append(tin[~v])
            continue
        first[v] = len(tour)
        tin[v] = len(preorder)
        tour.append(tin[v])
        preorder.append(v)
        for c in children[v]:
            depth[c] = depth[v] + 1
            root_of[c] = root_of[v]
            stack.append(~v)
            stack.append(c)

    pos: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    qpos: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    for v in preorder:
        p = np.array([depth[u] for u in neigh[v]], dtype=np.int64)
        pos[v] = p
        qpos[v] = np.append(p, depth[v])

    own = np.repeat(np.arange(n, dtype=np.int32), np.diff(flat_off))
    nbr = np.fromiter((u for nb in neigh for u in nb), dtype=np.int32, count=len(flat))
    base = np.fromiter(
        (graph.adj[v].get(u, INF) for v, nb in enumerate(neigh) for u in nb), dtype=np.float64, count=len(flat)
    )
    td = TreeDec(
        n=n, order=order, rank=rank, neigh=neigh, sc=sc_arr, nidx=nidx,
        parent=array("i", parent), children=children, depth=array("i", depth),
        pos=pos, qpos=qpos, roots=roots, root_of=array("i", root_of),
        tour_first=array("i", first), preorder=array("i", preorder),
        tour_rmq=_sparse_table(tour), height=max(depth, default=0) + 1,
        flat=flat, flat_off=flat_off, own=own, nbr=nbr, base=base,
        pdepth=np.array(depth, dtype=np.int32)[own],
    )
    by_depth = np.argsort(td.pdepth, kind="stable")
    td.depth_pos = np.split(by_depth, np.cumsum(np.bincount(td.pdepth, minlength=td.height))[:-1])
    _support_tables(td)
    return td


def _sparse_table(tour: list[int]) -> list[array]:
    """Range-minimum table of ``tour`` (Bender & Farach-Colton): level k
    holds the minimum of every span of 2^k entries, ``min(level[k-1][i],
    level[k-1][i + 2^(k-1)])``. Over the Euler tour of preorder numbers,
    the minimum between two first visits is their LCA: every vertex
    visited there lies in its subtree, and it precedes them in preorder."""
    level = np.array(tour, dtype=np.int32)
    levels = [level]
    half = 1
    while 2 * half <= len(tour):
        level = np.minimum(level[:-half], level[half:])
        levels.append(level)
        half *= 2
    return [array("i", lv.tobytes()) for lv in levels]


def _support_tables(td: TreeDec) -> None:
    """Derive the support CSR and its transpose from the final rows.

    Contracting x produced a candidate for every pair (a, b) of X(x).N,
    a of lower rank (rows are rank-sorted, so a = row entry i < j = b).
    Rows of one degree d share ``triu_indices(d, 1)``, so each degree is
    one step. The pair's position is a ``searchsorted`` on the row keys
    ``own·n + rank[nbr]``, which ascend with the position. Entry k of a
    row supports the d - 1 pairs of k with the row's other entries, so
    the transpose is laid out row by row with no sort; the support
    entries are grouped by target with one stable ``argsort``. All
    tables are int32.
    """
    off, P = td.flat_off, len(td.flat)
    keys = td.own.astype(np.int64) * td.n + td.rank[td.nbr]
    deg = np.diff(off)
    td.dep_ptr = np.concatenate([[0], np.cumsum(deg[td.own] - 1)]).astype(np.int32)
    td.dep = np.empty(td.dep_ptr[-1], dtype=np.int32)
    pa_l, pb_l, t_l = [], [], []
    for d in np.unique(deg[deg >= 2]).tolist():
        i, j = np.triu_indices(d, 1)
        start = off[:-1][deg == d][:, None]
        pa, pb = start + i, start + j
        t = np.searchsorted(keys, td.nbr[pa].astype(np.int64) * td.n + td.rank[td.nbr[pb]]).astype(np.int32)
        pair = np.zeros((d, d), dtype=np.int64)
        pair[i, j] = pair[j, i] = np.arange(len(i))
        pat = pair[~np.eye(d, dtype=bool)]  # row k: pairs of k with every j != k
        td.dep[td.dep_ptr[start] + np.arange(len(pat))] = t[:, pat]
        pa_l.append(pa.ravel().astype(np.int32))
        pb_l.append(pb.ravel().astype(np.int32))
        t_l.append(t.ravel())
    t = np.concatenate([np.empty(0, dtype=np.int32), *t_l])
    by_t = np.argsort(t, kind="stable")
    td.sup_ptr = np.concatenate([[0], np.cumsum(np.bincount(t, minlength=P))]).astype(np.int32)
    td.sup_a = np.concatenate([t[:0], *pa_l])[by_t]
    td.sup_b = np.concatenate([t[:0], *pb_l])[by_t]


def _segments(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR entries of ``rows``, concatenated: (entry indices, each
    row's start in the concatenation, each row's length)."""
    s = ptr[rows]
    ln = ptr[rows + 1] - s
    starts = np.cumsum(ln) - ln
    return np.arange(int(ln.sum())) + np.repeat(s - starts, ln), starts, ln


def position(td: TreeDec, a: int, b: int) -> int:
    """``flat`` position of the shortcut between a and b (must be a TD
    shortcut): it sits in the row of the lower-rank endpoint."""
    if td.rank[a] > td.rank[b]:
        a, b = b, a
    return int(td.flat_off[a]) + td.nidx[a][b]


def shortcut(td: TreeDec, a: int, b: int) -> float:
    """Current shortcut weight between a and b (must be a TD shortcut)."""
    return float(td.flat[position(td, a, b)])


def support_min(td: TreeDec, p: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    """Exact recomputation of the shortcuts at positions ``p``: the base
    edge weight min every contributor's ``sc(x, a) + sc(x, b)``.

    ``skip`` (bool per vertex) drops the contributors it marks: a
    boundary pair's Theorem-2 *residual* value is its support without
    the boundary contributors.
    """
    idx, starts, ln = _segments(td.sup_ptr, p)
    a = td.sup_a[idx]
    vals = td.flat[a] + td.flat[td.sup_b[idx]]
    if skip is not None:
        vals[skip[td.own[a]]] = INF
    out = td.base[p]
    nz = ln > 0
    if nz.any():
        out[nz] = np.minimum(out[nz], np.minimum.reduceat(vals, starts[nz]))
    return out


@dataclass
class ShortcutUpdate:
    """Result of one bottom-up shortcut pass (arrays of ``flat``
    positions, sorted)."""

    affected: set[int]           # owners whose row changed
    changed_pairs: np.ndarray    # positions whose value changed
    recomputed_pairs: np.ndarray # every dirty position that was recomputed
    escaped: np.ndarray          # dirty positions owned outside `subset`


def update_shortcuts(
    td: TreeDec,
    changes: Sequence[tuple[int, int, float]],
    *,
    subset: np.ndarray | None = None,
    seed: Sequence[np.ndarray] = (),
) -> ShortcutUpdate:
    """Bottom-up shortcut maintenance (the DCH / DH2H U-Stage-2 engine):
    support tables + depth sweep.

    ``changes`` are ``(u, v, w)`` edge-weight changes: each ``w`` is
    written to the base weight ``td.base`` of the shortcut (u, v), whose
    position is marked dirty. No graph is read.
    The sweep walks the owner depths from the deepest dirty one up. At
    each depth it recomputes the dirty positions of ``depth_pos[d]`` with
    one ``support_min``, writes the values that changed and marks their
    dependents in a dirty bitmap. A dependent's owner is strictly
    shallower, so one sweep is exact for increases *and* decreases, and
    the positions of several trees or partitions share its steps.

    ``subset`` (bool per vertex, closed under tree descendants): only
    positions owned inside it are processed (PostMHL's partition
    subtrees, all at once); dirt on owners outside it is returned as
    ``escaped`` for a later pass (``seed`` takes the ``escaped`` arrays
    of earlier passes).

    ``recomputed_pairs`` ⊇ ``changed_pairs`` matters for Theorem-2
    residual maintenance: a boundary pair's *residual* value (ignoring
    boundary contributors) can change even when its full value does not.
    """
    start = [np.empty(0, dtype=np.int64), *seed]
    if changes:
        ep = np.empty(len(changes), dtype=np.int64)
        for k, (u, v, w) in enumerate(changes):
            ep[k] = position(td, u, v)
            td.base[ep[k]] = w
        start.append(ep)
    start = np.concatenate(start)
    dirty = np.zeros(len(td.flat), dtype=bool)
    dirty[start] = True
    escaped, recomputed, changed = [], [], []
    top = int(td.pdepth[start].max()) if len(start) else -1
    for d in range(top, -1, -1):
        at = td.depth_pos[d]
        sel = at[dirty[at]]
        if subset is not None and len(sel):
            inside = subset[td.own[sel]]
            escaped.append(sel[~inside])
            sel = sel[inside]
        if not len(sel):
            continue
        recomputed.append(sel)
        new = support_min(td, sel)
        diff = new != td.flat[sel]
        if diff.any():
            ch = sel[diff]
            td.flat[ch] = new[diff]
            changed.append(ch)
            dirty[td.dep[_segments(td.dep_ptr, ch)[0]]] = True

    changed_pos = _sorted_cat(changed)
    return ShortcutUpdate(
        affected=set(td.own[changed_pos].tolist()),
        changed_pairs=changed_pos,
        recomputed_pairs=_sorted_cat(recomputed),
        escaped=_sorted_cat(escaped),
    )


def _sorted_cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)


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
    is read from a symmetric matrix M over the root-path ancestors (x_k
    *is* the ancestor at its own depth p): each row at depth p is written
    to ``M[p, :p+1]`` and ``M[:p+1, p]``, so a node's candidates are the
    one gather ``M[pos[v], col0:d]``.

    - ``roots``: subtree roots to (re)compute — DH2H's top-down label
      update phase recomputes exactly the subtrees under the highest
      affected tree nodes; defaults to the tree roots (full build).
    - ``active``: restrict computation to this upward-closed vertex set
      (PostMHL's overlay-only label phase); children outside it are
      pruned.
    - ``dis``: existing arrays updated (returned); fresh otherwise.
    - ``col0``: compute only the columns ``[col0, depth)`` of each row
      and keep the others from its existing row (PostMHL's in-partition
      columns). M's columns ``≥ col0`` come from the window rows (depth
      ≥ col0: seeded ancestors and rows computed here); a neighbor at
      depth p < col0 is read at entry p of them, so it must be set.

    Every row written is a fresh array (in window mode a copy of the old
    row), so callers can tell rewritten rows from the row objects they
    held before.
    """
    if dis is None:
        dis = [None] * td.n
    h = td.height
    M = np.full((h, h), INF, dtype=np.float64)
    start = roots if roots is not None else td.roots

    for r in start:
        # Seed M with r's strict ancestors' existing arrays (at depth ≥
        # col0: shallower rows only feed columns outside the window).
        for a in td.ancestors(r)[col0:-1]:
            d = td.depth[a]
            M[d, : d + 1] = M[: d + 1, d] = dis[a]
        stack = [r]
        while stack:
            v = stack.pop()
            if active is not None and v not in active:
                continue
            d = td.depth[v]
            row = dis[v].copy() if col0 else np.empty(d + 1, dtype=np.float64)
            # a tree root has no neighbours: its row is [0]
            row[col0:d] = (M[td.pos[v], col0:d] + td.sc[v][:, None]).min(axis=0, initial=INF)
            row[d] = 0.0
            dis[v] = row
            M[d, : d + 1] = M[: d + 1, d] = row
            stack.extend(td.children[v])
    return dis


def h2h_query(td: TreeDec, dis: list[np.ndarray], s: int, t: int) -> float:
    """H2H distance query: min over the LCA separator positions. The
    separator is tens of entries, where Python's ``min`` of the list
    beats a NumPy reduction."""
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
    return min((dis[s][idx] + dis[t][idx]).tolist())
