"""PMHL: Partitioned Multi-stage Hub Labeling (paper §V).

The index aggregates, per partition G_i with boundary B_i:

- the **no-boundary** index: boundary-first partition MHL ``L_i`` (tree
  ``T_i`` + shortcut arrays + labels) and the overlay MHL ``~L`` built on
  the overlay graph assembled from residual boundary shortcuts
  (Theorem 2's optimization — no Dijkstra, no L_i queries) + inter-edges;
- the **post-boundary** index ``L'_i`` of the extended partition
  ``G'_i`` (boundary pairs pinned to their global distances ``D_i``
  obtained from ``~L``), giving globally-correct same-partition queries.
  ``G'_i`` is no graph: ``L'_i``'s tree shares ``T_i``'s shape and owns
  only its weights, whose boundary-pair bases are ``D_i``;
- the **cross-boundary** index ``L*``: per-vertex global 2-hop hub
  arrays obtained by concatenating boundary arrays ``disB`` with the
  overlay labels (Lemma 2), eliminating distance concatenation for
  cross-partition queries. Every vertex of G_i uses one hub set (the
  union of B_i's overlay ancestors), so ``L*`` of a whole partition is
  one dense matrix: a boundary vertex's row is its overlay label ``H_i``
  row, every other row is the min-plus product ``disB_i ⊗ H_i``.

Query stages (fastest *available* index answers):
  1 BiDijkstra → 2 PCH → 3 no-boundary → 4 post-boundary → 5 cross-boundary
PCH reads only the shortcut arrays: it walks the partition tree and then
the partition's overlay hubs as root-path DPs (Lemma 4, ``UnionCH``).
Stages 3 and 4 concatenate across B_s and B_t by the same Lemma: the
min over the hubs both partitions share of ``min_a d(s, b_a) + H_i[a]``
and ``min_b d(t, b_b) + H_j[b]``, with d(s, b_a) gathered from the
partition labels (``L_i`` in stage 3, ``L'_i`` in stage 4). ``H_i`` is
kept per partition and refreshed in U3; U4's ``D_i = H_i ⊗ H_iᵀ`` and
U5's ``L*`` read it too.
Update stages U1–U5 mirror §V-D; ``apply_batch`` returns per-task
durations so stage wall-clock under p workers is an LPT schedule
(DESIGN.md §2). Maintenance hands ``(u, v, w)`` changes to
``update_shortcuts``, which writes them into the trees' ``base``: the
partition and overlay graphs are locals of ``build``, and no index
state holds a graph copy.
"""
from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import add

import numpy as np

from repro.graphs.graph import Graph
from repro.core.ch import TreeCH, ch_query_rows
from repro.core.dijkstra import bidijkstra
from repro.core.h2h import prune_to_subtree_roots
from repro.core.treedec import (
    TreeDec,
    build_labels,
    build_treedec,
    contract_nonboundary,
    finish_boundary_first,
    h2h_query,
    position,
    share_shape,
    support_min,
    update_shortcuts,
)
from repro.partition.partitioner import Partition, partition_graph

INF = math.inf


def relabel(td: TreeDec, dis: list, roots: list[int], active: set[int] | None = None) -> set[int]:
    """Recompute the labels under ``roots`` (inside ``active``) and return
    the vertices whose row changed value, so later stages react to actual
    changes and not to recomputation alone."""
    if not roots:
        return set()
    old = {}
    stack = list(roots)
    while stack:
        v = stack.pop()
        if active is None or v in active:
            old[v] = dis[v]
            stack.extend(td.children[v])
    build_labels(td, roots=roots, active=active, dis=dis)
    return {v for v, row in old.items() if row is None or not np.array_equal(row, dis[v])}


def joined_min(d1: np.ndarray, i1: np.ndarray, d2: np.ndarray, i2: np.ndarray) -> float:
    """min over common hubs of d1 + d2, given their positions i1 / i2."""
    if len(i1) == 0:
        return INF
    return float((d1[i1] + d2[i2]).min())


def boundary_rows(H: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Rows ``rows`` of ``D = H ⊗ Hᵀ``, the distances among B_i (Lemma 2
    over the overlay hubs): ``D[a, b] = min_h H[a, h] + H[b, h]``, one
    vector per row. The diagonal is 0 (``H[a]`` is 0 at b_a's own hub)."""
    out = np.empty((len(rows), H.shape[0]), dtype=np.float64)
    for k, a in enumerate(rows):
        out[k] = (H[a] + H).min(axis=1)
    return out


def disB_plan(td: TreeDec, row: dict[int, int], boundary: list[int]) -> tuple:
    """Static schedule of the top-down ``disB`` DP over the vertices of
    ``row`` (vertex → row of the ``disB`` matrix), whose neighbours must
    all be in ``row`` too. Column j is ``d(·, boundary[j])``.

    Returns ``(n_rows, b_rows, steps)``: the matrix height, the rows of
    the boundary vertices, and one step per tree depth (a vertex's
    neighbours are its ancestors, so one depth only reads rows of smaller
    depths). A step is ``(rows, nbrs, fpos, starts)``: the rows of the
    non-boundary vertices of that depth, their neighbours' rows
    concatenated, the ``td.flat`` positions of the matching shortcut
    weights, and each vertex's offset into the concatenation.
    """
    bset = set(boundary)
    by_depth: dict[int, list[int]] = {}
    for v in row:
        if v not in bset and td.neigh[v]:
            by_depth.setdefault(int(td.depth[v]), []).append(v)
    steps = []
    for d in sorted(by_depth):
        vs = by_depth[d]
        deg = [len(td.neigh[v]) for v in vs]
        nbrs = np.array([row[x] for v in vs for x in td.neigh[v]], dtype=np.int64)
        fpos = np.concatenate([np.arange(td.flat_off[v], td.flat_off[v + 1]) for v in vs])
        starts = np.concatenate([[0], np.cumsum(deg[:-1])]).astype(np.int64)
        steps.append((np.array([row[v] for v in vs], dtype=np.int64), nbrs, fpos, starts))
    return len(row), [row[b] for b in boundary], steps


def build_disB(td: TreeDec, plan: tuple, D: np.ndarray) -> np.ndarray:
    """Boundary arrays as one fresh ``(n_rows × |B|)`` matrix: row r holds
    d_G(v, b_j) for all b_j ∈ B, v the vertex of row r.

    Top-down DP over ``td`` (Algorithm 4 lines 13–19): a boundary
    vertex's row is its (global) D row; any other row is the min over its
    neighbours x of ``sc(v, x) + row(x)``, one gather +
    ``minimum.reduceat`` per depth of ``plan`` (from ``disB_plan``).
    """
    n_rows, b_rows, steps = plan
    M = np.full((n_rows, len(b_rows)), INF, dtype=np.float64)
    M[b_rows] = D
    for rows, nbrs, fpos, starts in steps:
        cand = M[nbrs] + td.flat[fpos][:, None]
        M[rows] = np.minimum.reduceat(cand, starts, axis=0)
    return M


def cross_labels(disB: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Lemma 2 as one min-plus product ``disB ⊗ H`` (a fresh matrix):
    row v of the result is ``min_j disB[v, j] + H[j]``."""
    L = np.full((disB.shape[0], H.shape[1]), INF, dtype=np.float64)
    for j in range(H.shape[0]):
        np.minimum(L, disB[:, j, None] + H[j], out=L)
    return L


class UnionCH:
    """PMHL's PCH index, the union CH of the partition trees and the
    overlay tree, searched as root-path DPs (Lemma 4) with no heap.

    Phase 1 walks v's partition tree path (``TreeCH.up``) and stops at
    B_i, the top chain of the tree, or at the root of a component with
    no boundary. Above B_i every upward edge joins two boundary vertices:
    a boundary vertex's partition row holds the shallower part of its
    chain, its overlay row its overlay ancestors. Phase 2 scatters the
    chain's distances into a vector over the partition's hubs (``hubs``,
    the union of B_i's overlay ancestors) and relaxes the hubs' overlay
    rows in overlay-rank order (a static schedule of hub columns; the
    weights are read live from ``td_o.sc``).

    Phase 2 leaves out the boundary vertices' partition rows: the overlay
    holds each of their finite shortcuts with a weight no larger. The
    overlay contracts the same residual edges in the same order, and
    vertices of other partitions besides, which only lower its weights.
    """

    def __init__(self, index: "PMHLIndex"):
        self.index = index
        td_o = index.td_o
        ov = np.asarray(index.ov_vertices, dtype=np.int64)
        self.trees = [TreeCH(u.td) for u in index.units]
        self.stop = [u.b_mask.tolist() for u in index.units]
        self.chain: list[list[int]] = []  # hub column of B_i's vertex at each depth
        self.steps: list[list[tuple[int, list[int], np.ndarray]]] = []
        for u in index.units:
            self.chain.append(np.searchsorted(u.hubs, [u.vertices[b] for b in u.b_local[::-1]]).tolist())
            o_ids = [index.o_loc[g] for g in u.hubs.tolist()]
            by_rank = sorted(range(len(o_ids)), key=lambda c: int(td_o.rank[o_ids[c]]))
            self.steps.append([
                (c, np.searchsorted(u.hubs, ov[td_o.neigh[o_ids[c]]]).tolist(), td_o.sc[o_ids[c]])
                for c in by_rank
            ])

    def up(self, v: int) -> tuple[int, int, list[float], list[float]]:
        """(partition, local id, partition-tree upward distances by depth,
        upward distances to the partition's hubs) of v."""
        ix = self.index
        i = int(ix.part.pid[v])
        u = ix.units[i]
        l = u.loc[v]
        dist = self.trees[i].up(l, self.stop[i])
        hv = [INF] * len(u.hubs)
        for c, x in zip(self.chain[i], dist[: u.b_anc[l]]):
            hv[c] = x
        for c, cols, w in self.steps[i]:
            x = hv[c]
            if x < INF:
                for p, wp in zip(cols, w.tolist()):
                    cand = x + wp
                    if cand < hv[p]:
                        hv[p] = cand
        return i, l, dist, hv

    def meet(self, s: int, us: tuple, t: int, ut: tuple) -> float:
        """min of ``ds + dt`` over the common hubs (``hub_joins``) and, in
        one partition, over the common non-boundary tree ancestors."""
        i, ls, ds, hs = us
        j, lt, dt, ht = ut
        i1, i2 = self.index.hub_joins[i][j]
        best = joined_min(np.array(hs), i1, np.array(ht), i2)
        if i == j:
            u = self.index.units[i]
            if u.td.root_of[ls] == u.td.root_of[lt]:
                a = u.td.lca(ls, lt)
                lo, hi = int(u.b_anc[a]), int(u.td.depth[a]) + 1
                if lo < hi:
                    best = min(best, min(map(add, ds[lo:hi], dt[lo:hi])))
        return best


@dataclass
class PartitionUnit:
    """All per-partition state of PMHL: trees, labels and matrices, no
    graph (each tree's ``base`` holds its current edge weights)."""

    pid: int
    vertices: list[int]
    loc: dict[int, int]
    b_local: list[int] = field(default_factory=list)   # boundary, overlay-rank order
    b_anc: np.ndarray | None = None                    # per vertex: B_i's vertices on its root path
    b_ov: list[int] = field(default_factory=list)      # boundary, overlay ids
    b_set: set[int] = field(default_factory=set)       # local boundary set
    b_mask: np.ndarray | None = None                   # local boundary, bool per vertex
    td: TreeDec | None = None                          # no-boundary tree of G_i
    dis: list | None = None
    # Theorem-2 residual boundary pairs: their ``td.flat`` positions,
    # residual values (the overlay tree's base weights of these edges)
    # and overlay endpoints
    res_pos: np.ndarray | None = None
    res_w: np.ndarray | None = None
    res_ov: list[tuple[int, int]] = field(default_factory=list)
    td_post: TreeDec | None = None                     # td's shape; boundary-pair base weights = D
    dis_post: list | None = None
    D: np.ndarray | None = None                        # |B|×|B| global boundary dists
    # hub layout and cross-boundary index; the tree shapes never change,
    # so ``hubs``, ``bcols``, ``nonb`` and ``plan`` are fixed at build
    hubs: np.ndarray | None = None                     # sorted union of B_i's overlay hubs
    bcols: list[np.ndarray] = field(default_factory=list)  # b_j's overlay ancestors' columns in ``hubs``
    H: np.ndarray | None = None                        # |B|×|hubs|: row j = b_j's dis_o row at bcols[j], INF elsewhere
    disB: np.ndarray | None = None                     # n×|B|: row v = d_G(v, B_i)
    nonb: np.ndarray | None = None                     # non-boundary local ids
    plan: tuple = ()                                   # disB_plan of td_post
    lrows: list[np.ndarray] = field(default_factory=list)  # local id -> L* row (views of one matrix)
    lstar: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)  # non-boundary v -> (hubs, lrows[v])


class PMHLIndex:
    """PMHL over a partitioned road network.

    ``level`` selects how much of the index family is built/maintained —
    this is how the paper's PSP baselines fall out of the same code:

    - ``"shortcut"``: no-boundary shortcut arrays only = **N-CH-P** [35]
      (update-oriented PSP with DCH underlying; query = PCH);
    - ``"post"``: through the post-boundary index = **P-TD-P** [35]
      (query-oriented PSP with DH2H underlying; query = post-boundary);
    - ``"full"``: everything including the cross-boundary L* = PMHL.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        coords: np.ndarray | None = None,
        *,
        level: str = "full",
    ):
        assert level in ("shortcut", "post", "full")
        self.level = level
        self.graph = graph
        self.k = k
        self.part: Partition = partition_graph(graph, k, coords)
        # hub_joins[i][j] = positions of the hubs partitions i and j share
        self.hub_joins: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self.build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        bt = self.build_times = {}
        t_parts1 = bt["parts_phase_a"] = {}
        # Step 1 (phase A): contract non-boundary vertices by MDE; the
        # residual boundary graph is Theorem 2's overlay shortcuts.
        self.units: list[PartitionUnit] = []
        pass1 = []
        for i, vs in enumerate(self.part.parts):
            gl, loc = self.graph.subgraph(vs)
            u = PartitionUnit(pid=i, vertices=vs, loc=loc)
            u.b_set = {loc[b] for b in self.part.boundary[i]}
            u.b_mask = np.zeros(gl.n, dtype=bool)
            u.b_mask[list(u.b_set)] = True
            self.units.append(u)
            t0 = time.perf_counter()
            elim = contract_nonboundary(gl, u.b_mask)
            pass1.append((elim, elim.residual()))
            t_parts1[i] = time.perf_counter() - t0

        # Step 2+3: overlay graph from residual + inter edges; overlay MHL.
        t0 = time.perf_counter()
        self.ov_vertices = self.part.boundary_all
        self.o_loc = {g: i for i, g in enumerate(self.ov_vertices)}
        og = Graph(len(self.ov_vertices))
        for u, (_, residual) in zip(self.units, pass1):
            glob = u.vertices
            for (l1, l2), w in residual.items():
                og.add_edge(self.o_loc[glob[l1]], self.o_loc[glob[l2]], w)
        for a, b, _ in self.part.inter_edges:
            og.add_edge(self.o_loc[a], self.o_loc[b], self.graph.adj[a][b])
        self.td_o = build_treedec(og)
        self.dis_o = build_labels(self.td_o) if self.level != "shortcut" else None
        bt["overlay"] = time.perf_counter() - t0

        # Step 1 (phase B): resume phase A and contract the boundary in
        # the overlay order.
        t_parts2 = bt["parts_phase_b"] = {}
        for u, (elim, residual) in zip(self.units, pass1):
            t0 = time.perf_counter()
            b_sorted = sorted(u.b_set, key=lambda l: int(self.td_o.rank[self.o_loc[u.vertices[l]]]))
            u.b_local = b_sorted
            u.b_ov = [self.o_loc[u.vertices[l]] for l in b_sorted]
            u.td = finish_boundary_first(elim, b_sorted)
            # The Lemma-2 stages read d(v, B_i) from v's label row: B_i
            # must be the top chain of the tree, b_local deepest first.
            bdep = u.td.depth[b_sorted]
            if not np.array_equal(bdep, np.arange(len(b_sorted))[::-1]):
                raise AssertionError(f"partition {u.pid}: boundary depths {bdep.tolist()} are not |B|-1, ..., 0")
            depth, parent = u.td.depth.tolist(), u.td.parent.tolist()
            b_anc = [0] * len(u.vertices)
            for v in reversed(u.td.order):  # parents first
                if v in u.b_set:
                    b_anc[v] = depth[v] + 1
                elif parent[v] >= 0:
                    b_anc[v] = b_anc[parent[v]]
            u.b_anc = np.array(b_anc, dtype=np.int64)
            u.dis = build_labels(u.td) if self.level != "shortcut" else None
            u.res_pos = np.array([position(u.td, a, b) for a, b in residual], dtype=np.int64)
            u.res_w = np.array(list(residual.values()), dtype=np.float64)
            u.res_ov = [(self.o_loc[u.vertices[a]], self.o_loc[u.vertices[b]]) for a, b in residual]
            t_parts2[u.pid] = time.perf_counter() - t0

        # Hub layout, which the PCH schedule and every Lemma-2 stage read.
        t0 = time.perf_counter()
        self._build_hub_joins()
        self.pch = UnionCH(self)
        bt["boundary_hubs"] = time.perf_counter() - t0

        if self.level == "shortcut":
            return

        # Steps 4+5: post-boundary indexes L'_i (boundary-pair bases = D),
        # and each partition's H_i: B_i's overlay labels.
        t_post = bt["post"] = {}
        for u in self.units:
            t0 = time.perf_counter()
            u.H = np.full((len(u.bcols), len(u.hubs)), INF, dtype=np.float64)
            every_row = range(len(u.b_ov))
            self._set_hub_rows(u, every_row)
            u.D = boundary_rows(u.H, every_row)
            bl = u.b_local
            u.td_post = share_shape(u.td)
            pins = [(bl[a], bl[b], float(u.D[a, b])) for a in range(len(bl)) for b in range(a + 1, len(bl))]
            update_shortcuts(u.td_post, pins)
            u.dis_post = build_labels(u.td_post)
            t_post[u.pid] = time.perf_counter() - t0

        if self.level == "post":
            return

        # Step 6: cross-boundary index L*.
        t_cross = bt["cross"] = {}
        for u in self.units:
            t0 = time.perf_counter()
            n = len(u.vertices)
            u.nonb = np.array([v for v in range(n) if v not in u.b_set], dtype=np.int64)
            u.plan = disB_plan(u.td_post, {v: v for v in range(n)}, u.b_local)
            self._build_cross(u)
            t_cross[u.pid] = time.perf_counter() - t0

    def _build_hub_joins(self) -> None:
        """Static hub layout: each partition's sorted hub union (vertex ids
        of its boundary vertices' overlay ancestors) with the columns of
        every boundary vertex's ancestors in it, in ancestor order (the
        order of its ``dis_o`` row), and for every partition pair the
        positions of their common hubs (``hub_joins[i][j] = (i1, i2)``)."""
        ov = np.asarray(self.ov_vertices, dtype=np.int64)
        for u in self.units:
            anc = [ov[self.td_o.ancestors(o)] for o in u.b_ov]
            u.hubs = np.unique(np.concatenate([ov[:0], *anc]))
            u.bcols = [np.searchsorted(u.hubs, h) for h in anc]
        self.hub_joins = [
            [np.intersect1d(ui.hubs, uj.hubs, assume_unique=True, return_indices=True)[1:] for uj in self.units]
            for ui in self.units
        ]

    def _set_hub_rows(self, u: PartitionUnit, rows: Sequence[int]) -> None:
        """Write rows ``rows`` of ``H``: b_j's overlay label ``dis_o`` at
        its hub columns ``bcols[j]`` (the other columns stay INF)."""
        for j in rows:
            u.H[j, u.bcols[j]] = self.dis_o[u.b_ov[j]]

    def _build_cross(self, u: PartitionUnit) -> None:
        """Rebuild ``disB`` and the partition's ``L*`` matrix (Lemma 2)
        into fresh arrays; earlier rows stay as they were.

        ``H[j]`` (kept current by U3) is b_j's own ``L*`` row; every
        other row is ``disB ⊗ H``.
        """
        u.disB = build_disB(u.td_post, u.plan, u.D)
        L = cross_labels(u.disB, u.H)
        L[u.b_local] = u.H
        u.lrows = list(L)
        u.lstar = {v: (u.hubs, u.lrows[v]) for v in u.nonb.tolist()}

    # ------------------------------------------------------------------
    # queries (stages 1..5)
    # ------------------------------------------------------------------
    def query_bidij(self, s: int, t: int) -> float:
        return bidijkstra(self.graph, s, t)

    def query_pch(self, s: int, t: int) -> float:
        """Q-Stage 2: the union CH of the partition and overlay trees."""
        return ch_query_rows(self.pch, s, t)

    def _hub_row(self, u: PartitionUnit, l: int, dis: list) -> np.ndarray:
        """d(v, ·) over the partition's hubs through B_i, v = local ``l``
        (Lemma 2). A boundary vertex's vector is its own ``H`` row. Any
        other v reaches B_i through its boundary ancestors (the tree
        separates it from the rest of B_i), which are the top
        ``b_anc[l]`` depths of both partition trees, the last rows of
        ``H``: the vector is ``min_d dis[l][d] + H[|B| - 1 - d]``."""
        if l in u.b_set:
            return u.H[len(u.b_local) - 1 - int(u.td.depth[l])]
        k = u.b_anc[l]
        return (dis[l][:k, None] + u.H[::-1][:k]).min(axis=0, initial=INF)

    def _via_hubs(self, s: int, t: int, dis_attr: str) -> float:
        """Boundary concatenation as Lemma 2's min-plus product: the min
        over the hubs partitions i and j share of s's and t's hub
        vectors (``dis_attr`` names the partition labels they read)."""
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        ui, uj = self.units[i], self.units[j]
        i1, i2 = self.hub_joins[i][j]
        return joined_min(
            self._hub_row(ui, ui.loc[s], getattr(ui, dis_attr)), i1,
            self._hub_row(uj, uj.loc[t], getattr(uj, dis_attr)), i2,
        )

    def query_noboundary(self, s: int, t: int) -> float:
        """Q-Stage 3: L_i + ~L, concatenated through the hubs."""
        if s == t:
            return 0.0
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        via = self._via_hubs(s, t, "dis")
        if i == j:
            u = self.units[i]
            local = h2h_query(u.td, u.dis, u.loc[s], u.loc[t])
            return min(local, via)
        return via

    def query_postboundary(self, s: int, t: int) -> float:
        """Q-Stage 4: same-partition via L'_i; cross-partition through the
        hubs from L'_i's labels."""
        if s == t:
            return 0.0
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        if i == j:
            u = self.units[i]
            return h2h_query(u.td_post, u.dis_post, u.loc[s], u.loc[t])
        return self._via_hubs(s, t, "dis_post")

    def query_cross(self, s: int, t: int) -> float:
        """Q-Stage 5: same-partition via L'_i, cross-partition via L*."""
        if s == t:
            return 0.0
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        if i == j:
            u = self.units[i]
            return h2h_query(u.td_post, u.dis_post, u.loc[s], u.loc[t])
        ui, uj = self.units[i], self.units[j]
        i1, i2 = self.hub_joins[i][j]
        return joined_min(ui.lrows[ui.loc[s]], i1, uj.lrows[uj.loc[t]], i2)

    query = query_cross  # final-stage (fully updated) query entry point

    # ------------------------------------------------------------------
    # maintenance (U-Stages 1..5)
    # ------------------------------------------------------------------
    def apply_batch(self, updates: list[tuple[int, int, float]]) -> dict:
        """Run U-Stages 1–5; returns per-stage / per-task durations."""
        out: dict = {}

        # ---- U1: on-spot edge update --------------------------------
        t0 = time.perf_counter()
        self.graph.apply_updates(updates)
        intra: dict[int, list[tuple[int, int, float]]] = {}
        inter: list[tuple[int, int, float]] = []
        for a, b, w in updates:
            i, j = int(self.part.pid[a]), int(self.part.pid[b])
            if i == j:
                intra.setdefault(i, []).append((a, b, w))
            else:
                inter.append((a, b, w))
        out["u1"] = time.perf_counter() - t0

        # ---- U2: no-boundary shortcut update ------------------------
        u2_parts: dict[int, float] = {}
        ov_changes: list[tuple[int, int, float]] = []
        affected_lab: dict[int, set[int]] = {}
        for i, ups in intra.items():
            u = self.units[i]
            t0 = time.perf_counter()
            res = update_shortcuts(u.td, [(u.loc[a], u.loc[b], w) for a, b, w in ups])
            affected_lab[i] = res.affected
            # Theorem-2 residuals: an overlay edge's base weight is its
            # residual (boundary-contributor-free) value, so a moved
            # residual is an overlay change. Only a recomputed pair's
            # residual can move.
            k = np.flatnonzero(np.isin(u.res_pos, res.recomputed_pairs))
            nv = support_min(u.td, u.res_pos[k], skip=u.b_mask)
            moved = nv != u.res_w[k]
            u.res_w[k[moved]] = nv[moved]
            ov_changes.extend((*u.res_ov[j], w) for j, w in zip(k[moved].tolist(), nv[moved].tolist()))
            u2_parts[i] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ov_changes.extend((self.o_loc[a], self.o_loc[b], w) for a, b, w in inter)
        res_o = update_shortcuts(self.td_o, ov_changes)
        out["u2"] = {"parts": u2_parts, "overlay": time.perf_counter() - t0}
        if self.level == "shortcut":
            return out

        # ---- U3: no-boundary label update ---------------------------
        u3_parts: dict[int, float] = {}
        for i, aff in affected_lab.items():
            u = self.units[i]
            t0 = time.perf_counter()
            roots = prune_to_subtree_roots(u.td, aff)
            if roots:
                build_labels(u.td, roots=roots, dis=u.dis)
            u3_parts[i] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ov_roots = prune_to_subtree_roots(self.td_o, res_o.affected)
        changed_ov = relabel(self.td_o, self.dis_o, ov_roots)
        # H_i's rows are B_i's overlay labels: the Lemma-2 query stages
        # read them as soon as this stage ends.
        for u in self.units:
            self._set_hub_rows(u, [j for j, o in enumerate(u.b_ov) if o in changed_ov])
        out["u3"] = {"parts": u3_parts, "overlay": time.perf_counter() - t0}

        # ---- U4: post-boundary index update -------------------------
        u4_parts: dict[int, float] = {}
        post_label_changed: set[int] = set()
        for u in self.units:
            i = u.pid
            if i not in intra and changed_ov.isdisjoint(u.b_ov):
                continue
            t0 = time.perf_counter()
            if self._update_post(u, intra.get(i, ()), changed_ov):
                post_label_changed.add(i)
            u4_parts[i] = time.perf_counter() - t0
        out["u4"] = {"parts": u4_parts}
        if self.level == "post":
            return out

        # ---- U5: cross-boundary index update ------------------------
        u5_parts: dict[int, float] = {}
        for u in self.units:
            i = u.pid
            if i not in post_label_changed and changed_ov.isdisjoint(u.b_ov):
                continue
            t0 = time.perf_counter()
            self._build_cross(u)
            u5_parts[i] = time.perf_counter() - t0
        # Boundary rows are rebuilt with their partition's matrix, so no
        # separate boundary-hub task remains; the key stays because
        # readers of this dict (the benchmark adapter) index it.
        out["u5"] = {"parts": u5_parts, "boundary_hubs": 0.0}
        return out

    def _update_post(self, u: PartitionUnit, intra: list, changed_ov: set[int]) -> bool:
        """U4 of one partition: the rows of ``D`` whose boundary vertex's
        overlay label changed are recomputed from ``H`` (the others hold,
        as ``D[a, b]`` reads only rows a and b of ``H``); the moved
        entries and the partition's edge changes go to ``td_post``, then
        its labels. Returns whether any ``td_post`` row changed."""
        # a boundary pair's weight is pinned to D (below)
        changes = [(u.loc[a], u.loc[b], w) for a, b, w in intra if not {u.loc[a], u.loc[b]} <= u.b_set]
        rows = [a for a, o in enumerate(u.b_ov) if o in changed_ov]
        for a, new in zip(rows, boundary_rows(u.H, rows)):
            moved = np.flatnonzero(new != u.D[a])
            u.D[a, moved] = u.D[moved, a] = new[moved]
            changes.extend((u.b_local[a], u.b_local[b], float(new[b])) for b in moved.tolist())
        res_p = update_shortcuts(u.td_post, changes)
        roots = prune_to_subtree_roots(u.td_post, res_p.affected)
        if roots:
            build_labels(u.td_post, roots=roots, dis=u.dis_post)
        return bool(roots or res_p.affected)

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Total index entries across all PMHL components."""
        total = 0
        for u in self.units:
            total += sum(len(nb) for nb in u.td.neigh)
            if u.dis is not None:
                total += sum(len(d) for d in u.dis)
            if u.td_post is not None:
                total += sum(len(nb) for nb in u.td_post.neigh)
                total += sum(len(d) for d in u.dis_post)
            if u.disB is not None:
                total += u.disB.size
            total += sum(len(h) for h, _ in u.lstar.values())
            if self.level == "full":
                # a boundary row holds only its overlay label's entries
                total += sum(len(c) for c in u.bcols)
        total += sum(len(nb) for nb in self.td_o.neigh)
        if self.dis_o is not None:
            total += sum(len(d) for d in self.dis_o)
        return total
