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

The trees ``T_i`` are the components of one forest over global vertex
ids (``td``, ``dis``): one contraction of the intra-partition edges, in
which no edge joins two partitions. ``L'_i`` is ``share_shape`` of it
(``td_post``, ``dis_post``). No state holds a partition-local id.

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
Update stages U1–U5 mirror §V-D. U2–U4 maintain every touched
partition at once, as the paper's one thread per partition: U2 and U4
are one ``update_shortcuts`` over a forest with every partition's
changes, U3 and U4 one ``build_labels`` under every partition's
affected subtrees. ``apply_batch`` reports each touched partition's
share of such a pass (``split_seconds``), so stage wall-clock under p
workers is an LPT schedule of the shares (DESIGN.md §2). Maintenance
hands ``(u, v, w)`` changes to ``update_shortcuts``, which writes them
into the trees' ``base``: the partition and overlay graphs are locals
of ``build``, and no index state holds a graph copy.
"""
from __future__ import annotations

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import add

import numpy as np

from repro.graphs.graph import Graph
from repro.core.ch import TreeCH, ch_query_rows
from repro.core.dijkstra import bidijkstra
from repro.core.h2h import prune_to_subtree_roots
from repro.core.treedec import (
    ShortcutUpdate,
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


def split_seconds(seconds: float, pids, work: np.ndarray) -> dict[int, float]:
    """One pass over several partitions as per-partition task times: the
    pass's measured ``seconds`` shared among the partitions ``pids`` in
    proportion to ``work[i]``, the positions or rows it recomputed in
    partition i (evenly if it recomputed none). The shares sum to
    ``seconds``; the p-worker LPT model schedules them (DESIGN.md §2)."""
    pids = sorted(pids)
    w = work[pids].astype(np.float64)
    if not w.sum():
        w[:] = 1.0
    return dict(zip(pids, (seconds * w / w.sum()).tolist()))


def subtree_sizes(td: TreeDec) -> np.ndarray:
    """Vertices in each vertex's subtree (a relabelled root's rows)."""
    size = np.ones(td.n, dtype=np.int64)
    for v in td.order:  # children first
        if td.parent[v] >= 0:
            size[td.parent[v]] += size[v]
    return size


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
            by_depth.setdefault(td.depth[v], []).append(v)
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
        self.tree = TreeCH(index.td)
        self.stop = index.b_mask.tolist()
        self.chain: list[list[int]] = []  # hub column of B_i's vertex at each depth
        self.steps: list[list[tuple[int, list[int], np.ndarray]]] = []
        for u in index.units:
            self.chain.append(np.searchsorted(u.hubs, u.b_local[::-1]).tolist())
            o_ids = [index.o_loc[g] for g in u.hubs.tolist()]
            by_rank = sorted(range(len(o_ids)), key=lambda c: int(td_o.rank[o_ids[c]]))
            self.steps.append([
                (c, np.searchsorted(u.hubs, ov[td_o.neigh[o_ids[c]]]).tolist(), td_o.sc[o_ids[c]])
                for c in by_rank
            ])

    def up(self, v: int) -> tuple[int, list[float], list[float]]:
        """(partition, partition-tree upward distances by depth, upward
        distances to the partition's hubs) of v."""
        ix = self.index
        i = ix.pid[v]
        dist = self.tree.up(v, self.stop)
        hv = [INF] * len(ix.units[i].hubs)
        for c, x in zip(self.chain[i], dist[: ix.b_anc[v]]):
            hv[c] = x
        for c, cols, w in self.steps[i]:
            x = hv[c]
            if x < INF:
                for p, wp in zip(cols, w.tolist()):
                    cand = x + wp
                    if cand < hv[p]:
                        hv[p] = cand
        return i, dist, hv

    def meet(self, s: int, us: tuple, t: int, ut: tuple) -> float:
        """min of ``ds + dt`` over the common hubs (``hub_joins``) and, in
        one partition tree, over the common non-boundary tree ancestors."""
        ix = self.index
        i, ds, hs = us
        j, dt, ht = ut
        i1, i2 = ix.hub_joins[i][j]
        best = joined_min(np.array(hs), i1, np.array(ht), i2)
        td = ix.td
        if td.root_of[s] == td.root_of[t]:
            a = td.lca(s, t)
            lo, hi = ix.b_anc[a], td.depth[a] + 1
            if lo < hi:
                best = min(best, min(map(add, ds[lo:hi], dt[lo:hi])))
        return best


@dataclass
class PartitionUnit:
    """The per-partition state of PMHL: boundary, residuals and matrices,
    all over global vertex ids. The partition's trees and labels are
    components of the index's forests."""

    pid: int
    vertices: list[int]
    b_local: list[int] = field(default_factory=list)   # boundary, overlay-rank order
    b_ov: list[int] = field(default_factory=list)      # boundary, overlay ids
    b_set: set[int] = field(default_factory=set)       # boundary set
    D: np.ndarray | None = None                        # |B|×|B| global boundary dists
    # hub layout and cross-boundary index; the tree shapes never change,
    # so ``hubs``, ``bcols`` and ``plan`` are fixed at build
    hubs: np.ndarray | None = None                     # sorted union of B_i's overlay hubs
    bcols: list[np.ndarray] = field(default_factory=list)  # b_j's overlay ancestors' columns in ``hubs``
    H: np.ndarray | None = None                        # |B|×|hubs|: row j = b_j's dis_o row at bcols[j], INF elsewhere
    disB: np.ndarray | None = None                     # |vertices|×|B|: row r = d_G(vertices[r], B_i)
    plan: tuple = ()                                   # disB_plan of td_post, rows in ``vertices`` order
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
        self.pid: list[int] = self.part.pid.tolist()
        # hub_joins[i][j] = positions of the hubs partitions i and j share
        self.hub_joins: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self.td_post: TreeDec | None = None  # td's shape; boundary-pair base weights = D
        self.dis_post: list | None = None
        self.lrows: list[np.ndarray | None] = [None] * graph.n  # v -> L* row (views of its partition's matrix)
        self.build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        bt = self.build_times = {}
        part, pid, n = self.part, self.pid, self.graph.n
        # Step 1 (phase A): contract the non-boundary vertices of the
        # intra-partition edges by MDE; the residual boundary graph is
        # Theorem 2's overlay shortcuts.
        t0 = time.perf_counter()
        self.b_mask = np.zeros(n, dtype=bool)
        self.b_mask[part.boundary_all] = True
        intra = Graph(n, ((a, b, w) for a, b, w in self.graph.edges() if pid[a] == pid[b]))
        elim = contract_nonboundary(intra, self.b_mask)
        residual = elim.residual()
        bt["parts_phase_a"] = time.perf_counter() - t0

        # Step 2+3: overlay graph from residual + inter edges; overlay MHL.
        t0 = time.perf_counter()
        self.ov_vertices = part.boundary_all
        o_loc = self.o_loc = {g: i for i, g in enumerate(self.ov_vertices)}
        og = Graph(len(self.ov_vertices))
        for (a, b), w in residual.items():
            og.add_edge(o_loc[a], o_loc[b], w)
        for a, b, _ in part.inter_edges:
            og.add_edge(o_loc[a], o_loc[b], self.graph.adj[a][b])
        self.td_o = build_treedec(og)
        self.dis_o = build_labels(self.td_o) if self.level != "shortcut" else None
        bt["overlay"] = time.perf_counter() - t0

        # Step 1 (phase B): resume phase A and contract each boundary in
        # the overlay order.
        t0 = time.perf_counter()
        self.units: list[PartitionUnit] = []
        for i, (vs, bs) in enumerate(zip(part.parts, part.boundary)):
            b_sorted = sorted(bs, key=lambda b: int(self.td_o.rank[o_loc[b]]))
            self.units.append(
                PartitionUnit(pid=i, vertices=vs, b_local=b_sorted, b_ov=[o_loc[b] for b in b_sorted], b_set=set(bs))
            )
        td = self.td = finish_boundary_first(elim, [u.b_local for u in self.units])
        # The Lemma-2 stages read d(v, B_i) from v's label row: B_i must
        # be the top chain of its tree, b_local deepest first.
        depth, parent = td.depth, td.parent
        for u in self.units:
            bdep = [depth[b] for b in u.b_local]
            if bdep != list(range(len(bdep) - 1, -1, -1)):
                raise AssertionError(f"partition {u.pid}: boundary depths {bdep} are not |B|-1, ..., 0")
        # per vertex: how many of its partition's boundary vertices lie on
        # its root path
        b_anc = [0] * n
        is_b = self.b_mask.tolist()
        for v in reversed(td.order):  # parents first
            if is_b[v]:
                b_anc[v] = depth[v] + 1
            elif parent[v] >= 0:
                b_anc[v] = b_anc[parent[v]]
        self.b_anc = array("i", b_anc)
        self.sub_size = subtree_sizes(td)
        self.dis = build_labels(td) if self.level != "shortcut" else None
        # Theorem-2 residual boundary pairs of every partition: their
        # ``td.flat`` positions, residual values (the overlay tree's base
        # weights of these edges) and overlay endpoints
        self.res_pos = np.array([position(td, a, b) for a, b in residual], dtype=np.int64)
        self.res_w = np.array(list(residual.values()), dtype=np.float64)
        self.res_ov = [(o_loc[a], o_loc[b]) for a, b in residual]
        bt["parts_phase_b"] = time.perf_counter() - t0

        # Hub layout, which the PCH schedule and every Lemma-2 stage read.
        t0 = time.perf_counter()
        self._build_hub_joins()
        self.pch = UnionCH(self)
        bt["boundary_hubs"] = time.perf_counter() - t0

        if self.level == "shortcut":
            return

        # Steps 4+5: post-boundary indexes L'_i (boundary-pair bases = D),
        # and each partition's H_i: B_i's overlay labels.
        t0 = time.perf_counter()
        pins = []
        for u in self.units:
            u.H = np.full((len(u.bcols), len(u.hubs)), INF, dtype=np.float64)
            every_row = range(len(u.b_ov))
            self._set_hub_rows(u, every_row)
            u.D = boundary_rows(u.H, every_row)
            bl = u.b_local
            pins += [(bl[a], bl[b], float(u.D[a, b])) for a in range(len(bl)) for b in range(a + 1, len(bl))]
        self.td_post = share_shape(td)
        update_shortcuts(self.td_post, pins)
        self.dis_post = build_labels(self.td_post)
        bt["post"] = time.perf_counter() - t0

        if self.level == "post":
            return

        # Step 6: cross-boundary index L*.
        t_cross = bt["cross"] = {}
        for u in self.units:
            t0 = time.perf_counter()
            u.plan = disB_plan(self.td_post, {v: r for r, v in enumerate(u.vertices)}, u.b_local)
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
        u.disB = build_disB(self.td_post, u.plan, u.D)
        L = cross_labels(u.disB, u.H)
        L[u.plan[1]] = u.H
        for v, row in zip(u.vertices, L):
            self.lrows[v] = row
        u.lstar = {v: (u.hubs, self.lrows[v]) for v in u.vertices if v not in u.b_set}

    # ------------------------------------------------------------------
    # queries (stages 1..5)
    # ------------------------------------------------------------------
    def query_bidij(self, s: int, t: int) -> float:
        return bidijkstra(self.graph, s, t)

    def query_pch(self, s: int, t: int) -> float:
        """Q-Stage 2: the union CH of the partition and overlay trees."""
        return ch_query_rows(self.pch, s, t)

    def _hub_row(self, u: PartitionUnit, v: int, dis: list) -> np.ndarray:
        """d(v, ·) over the hubs of v's partition through B_i (Lemma 2).
        A boundary vertex's vector is its own ``H`` row. Any other v
        reaches B_i through its boundary ancestors (the tree separates it
        from the rest of B_i), which are the top ``b_anc[v]`` depths of
        both partition trees, the last rows of ``H``: the vector is
        ``min_d dis[v][d] + H[|B| - 1 - d]``."""
        if v in u.b_set:
            return u.H[len(u.b_local) - 1 - self.td.depth[v]]
        k = self.b_anc[v]
        return (dis[v][:k, None] + u.H[::-1][:k]).min(axis=0, initial=INF)

    def _via_hubs(self, s: int, t: int, dis: list) -> float:
        """Boundary concatenation as Lemma 2's min-plus product: the min
        over the hubs partitions i and j share of s's and t's hub
        vectors (``dis`` is the partition labels they read)."""
        i, j = self.pid[s], self.pid[t]
        i1, i2 = self.hub_joins[i][j]
        return joined_min(self._hub_row(self.units[i], s, dis), i1, self._hub_row(self.units[j], t, dis), i2)

    def query_noboundary(self, s: int, t: int) -> float:
        """Q-Stage 3: L_i + ~L, concatenated through the hubs (``L_i``
        answers INF across partitions: they are different trees)."""
        if s == t:
            return 0.0
        return min(h2h_query(self.td, self.dis, s, t), self._via_hubs(s, t, self.dis))

    def query_postboundary(self, s: int, t: int) -> float:
        """Q-Stage 4: same-partition via L'_i; cross-partition through the
        hubs from L'_i's labels."""
        if s == t:
            return 0.0
        if self.pid[s] == self.pid[t]:
            return h2h_query(self.td_post, self.dis_post, s, t)
        return self._via_hubs(s, t, self.dis_post)

    def query_cross(self, s: int, t: int) -> float:
        """Q-Stage 5: same-partition via L'_i, cross-partition via L*."""
        if s == t:
            return 0.0
        i, j = self.pid[s], self.pid[t]
        if i == j:
            return h2h_query(self.td_post, self.dis_post, s, t)
        i1, i2 = self.hub_joins[i][j]
        return joined_min(self.lrows[s], i1, self.lrows[t], i2)

    query = query_cross  # final-stage (fully updated) query entry point

    # ------------------------------------------------------------------
    # maintenance (U-Stages 1..5)
    # ------------------------------------------------------------------
    def apply_batch(self, updates: list[tuple[int, int, float]]) -> dict:
        """Run U-Stages 1–5; returns per-stage / per-task durations."""
        out: dict = {}
        td, pid, pid_arr = self.td, self.pid, self.part.pid

        # ---- U1: on-spot edge update --------------------------------
        t0 = time.perf_counter()
        self.graph.apply_updates(updates)
        intra = [(a, b, w) for a, b, w in updates if pid[a] == pid[b]]
        inter = [(a, b, w) for a, b, w in updates if pid[a] != pid[b]]
        touched = {pid[a] for a, _, _ in intra}
        out["u1"] = time.perf_counter() - t0

        # ---- U2: no-boundary shortcut update ------------------------
        # One sweep over the partition forest for every partition.
        t0 = time.perf_counter()
        res = update_shortcuts(td, intra)
        # Theorem-2 residuals: an overlay edge's base weight is its
        # residual (boundary-contributor-free) value, so a moved
        # residual is an overlay change. Only a recomputed pair's
        # residual can move.
        k = np.flatnonzero(np.isin(self.res_pos, res.recomputed_pairs))
        nv = support_min(td, self.res_pos[k], skip=self.b_mask)
        moved = nv != self.res_w[k]
        k, nv = k[moved], nv[moved]
        self.res_w[k] = nv
        ov_changes = [(*self.res_ov[j], w) for j, w in zip(k.tolist(), nv.tolist())]
        t_parts = time.perf_counter() - t0
        t0 = time.perf_counter()
        ov_changes.extend((self.o_loc[a], self.o_loc[b], w) for a, b, w in inter)
        res_o = update_shortcuts(self.td_o, ov_changes)
        out["u2"] = {
            "parts": split_seconds(t_parts, touched, np.bincount(pid_arr[td.own[res.recomputed_pairs]], minlength=self.k)),
            "overlay": time.perf_counter() - t0,
        }
        if self.level == "shortcut":
            return out

        # ---- U3: no-boundary label update ---------------------------
        t0 = time.perf_counter()
        roots = prune_to_subtree_roots(td, res.affected)
        if roots:
            build_labels(td, roots=roots, dis=self.dis)
        t_parts = time.perf_counter() - t0
        rows = np.bincount(pid_arr[roots], weights=self.sub_size[roots], minlength=self.k)
        t0 = time.perf_counter()
        ov_roots = prune_to_subtree_roots(self.td_o, res_o.affected)
        changed_ov = relabel(self.td_o, self.dis_o, ov_roots)
        # H_i's rows are B_i's overlay labels: the Lemma-2 query stages
        # read them as soon as this stage ends.
        for u in self.units:
            self._set_hub_rows(u, [j for j, o in enumerate(u.b_ov) if o in changed_ov])
        out["u3"] = {"parts": split_seconds(t_parts, touched, rows), "overlay": time.perf_counter() - t0}

        # ---- U4: post-boundary index update -------------------------
        t0 = time.perf_counter()
        post = [u for u in self.units if u.pid in touched or not changed_ov.isdisjoint(u.b_ov)]
        res_p = self._update_post(intra, post, changed_ov)
        out["u4"] = {
            "parts": split_seconds(
                time.perf_counter() - t0,
                [u.pid for u in post],
                np.bincount(pid_arr[td.own[res_p.recomputed_pairs]], minlength=self.k),
            )
        }
        post_label_changed = {pid[v] for v in res_p.affected}
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

    def _update_post(self, intra: list, post: list[PartitionUnit], changed_ov: set[int]) -> ShortcutUpdate:
        """U4 of the partitions ``post``, one sweep and one label pass
        over the post-boundary forest: in each, the rows of ``D`` whose
        boundary vertex's overlay label changed are recomputed from ``H``
        (the others hold, as ``D[a, b]`` reads only rows a and b of
        ``H``); the moved entries and the partitions' edge changes go to
        ``td_post``, then its labels. Returns the sweep's result."""
        # a boundary pair's weight is pinned to D (below)
        b_mask = self.b_mask
        changes = [(a, b, w) for a, b, w in intra if not (b_mask[a] and b_mask[b])]
        for u in post:
            rows = [a for a, o in enumerate(u.b_ov) if o in changed_ov]
            for a, new in zip(rows, boundary_rows(u.H, rows)):
                moved = np.flatnonzero(new != u.D[a])
                u.D[a, moved] = u.D[moved, a] = new[moved]
                changes.extend((u.b_local[a], u.b_local[b], float(new[b])) for b in moved.tolist())
        res_p = update_shortcuts(self.td_post, changes)
        roots = prune_to_subtree_roots(self.td_post, res_p.affected)
        if roots:
            build_labels(self.td_post, roots=roots, dis=self.dis_post)
        return res_p

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Total index entries across all PMHL components."""
        total = sum(len(nb) for nb in self.td.neigh)
        if self.dis is not None:
            total += sum(len(d) for d in self.dis)
        if self.td_post is not None:
            total += sum(len(nb) for nb in self.td_post.neigh)
            total += sum(len(d) for d in self.dis_post)
        for u in self.units:
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
