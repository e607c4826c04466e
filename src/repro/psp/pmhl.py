"""PMHL: Partitioned Multi-stage Hub Labeling (paper §V).

The index aggregates, per partition G_i with boundary B_i:

- the **no-boundary** index: boundary-first partition MHL ``L_i`` (tree
  ``T_i`` + shortcut arrays + labels) and the overlay MHL ``~L`` built on
  the overlay graph assembled from residual boundary shortcuts
  (Theorem 2's optimization — no Dijkstra, no L_i queries) + inter-edges;
- the **post-boundary** index ``L'_i``: same elimination order on the
  extended partition ``G'_i`` (boundary pairs pinned to their global
  distances ``D_i`` obtained from ``~L``), giving globally-correct
  same-partition queries;
- the **cross-boundary** index ``L*``: per-vertex global 2-hop hub
  arrays obtained by concatenating boundary arrays ``disB`` with the
  overlay labels (Lemma 2), eliminating distance concatenation for
  cross-partition queries. Every vertex of G_i uses one hub set (the
  union of B_i's overlay ancestors), so ``L*`` of a whole partition is
  one dense matrix: a boundary vertex's row is its overlay label ``H_i``
  row, every other row is the min-plus product ``disB_i ⊗ H_i``.

Query stages (fastest *available* index answers):
  1 BiDijkstra → 2 PCH → 3 no-boundary → 4 post-boundary → 5 cross-boundary
Update stages U1–U5 mirror §V-D; ``apply_batch`` returns per-task
durations so stage wall-clock under p workers is an LPT schedule
(DESIGN.md §2).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph
from repro.core.ch import ch_query_rows
from repro.core.dijkstra import bidijkstra
from repro.core.h2h import prune_to_subtree_roots
from repro.core.treedec import (
    TreeDec,
    build_labels,
    build_treedec,
    h2h_query,
    recompute_shortcut,
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


def hub_query(h1: np.ndarray, d1: np.ndarray, h2: np.ndarray, d2: np.ndarray) -> float:
    """2-hop-cover query over two sorted hub arrays: the generic form of
    ``query_cross``'s precomputed join, kept as its reference in tests."""
    _, i1, i2 = np.intersect1d(h1, h2, assume_unique=True, return_indices=True)
    return joined_min(d1, i1, d2, i2)


def boundary_matrix(td: TreeDec, dis: list, verts: list[int]) -> np.ndarray:
    """All-pair distances among ``verts`` by H2H queries on (td, dis)."""
    nb = len(verts)
    D = np.zeros((nb, nb), dtype=np.float64)
    for a in range(nb):
        for b in range(a + 1, nb):
            D[a, b] = D[b, a] = h2h_query(td, dis, verts[a], verts[b])
    return D


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


def concat_min(td: TreeDec, dis: list, ds, bs, dt, bt) -> float:
    """Distance concatenation through two boundary sets: the min over
    (a, b) of ``ds[a] + d(bs[a], bt[b]) + dt[b]``, with d an H2H query on
    (td, dis); INF entries of ``ds`` / ``dt`` are skipped."""
    best = INF
    for da, b1 in zip(ds, bs):
        if da == INF:
            continue
        for db, b2 in zip(dt, bt):
            if db == INF:
                continue
            d = da + h2h_query(td, dis, b1, b2) + db
            if d < best:
                best = d
    return best


def cross_labels(disB: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Lemma 2 as one min-plus product ``disB ⊗ H`` (a fresh matrix):
    row v of the result is ``min_j disB[v, j] + H[j]``."""
    L = np.full((disB.shape[0], H.shape[1]), INF, dtype=np.float64)
    for j in range(H.shape[0]):
        np.minimum(L, disB[:, j, None] + H[j], out=L)
    return L


@dataclass
class PartitionUnit:
    """All per-partition state of PMHL."""

    pid: int
    vertices: list[int]
    loc: dict[int, int]
    gl: Graph                      # local partition graph (intra edges)
    b_local: list[int] = field(default_factory=list)   # boundary, overlay-rank order
    b_global: list[int] = field(default_factory=list)
    b_ov: list[int] = field(default_factory=list)      # boundary, overlay ids
    b_set: set[int] = field(default_factory=set)       # local boundary set
    elim_order: list[int] = field(default_factory=list)
    td: TreeDec | None = None                          # no-boundary
    dis: list | None = None
    residual: dict[tuple[int, int], float] = field(default_factory=dict)
    gpost: Graph | None = None                         # extended partition G'_i
    td_post: TreeDec | None = None
    dis_post: list | None = None
    D: np.ndarray | None = None                        # |B|×|B| global boundary dists
    # cross-boundary index; the tree shapes never change, so ``nonb``,
    # ``plan``, ``hubs`` and ``bcols`` are fixed at build
    disB: np.ndarray | None = None                     # n×|B|: row v = d_G(v, B_i)
    nonb: np.ndarray | None = None                     # non-boundary local ids
    plan: tuple = ()                                   # disB_plan of td_post
    hubs: np.ndarray | None = None                     # sorted union of B_i's overlay hubs
    bcols: list[np.ndarray] = field(default_factory=list)  # b_j's overlay ancestors' columns in ``hubs``
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
        build: bool = True,
        level: str = "full",
    ):
        assert level in ("shortcut", "post", "full")
        self.level = level
        self.graph = graph
        self.k = k
        self.part: Partition = partition_graph(graph, k, coords)
        self.units: list[PartitionUnit] = []
        # hub_joins[i][j] = positions of the hubs partitions i and j share
        self.hub_joins: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self.build_times: dict[str, object] = {}
        self._init_units()
        if build:
            self.build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _init_units(self) -> None:
        for i in range(self.k):
            gl, loc = self.graph.subgraph(self.part.parts[i])
            u = PartitionUnit(pid=i, vertices=self.part.parts[i], loc=loc, gl=gl)
            u.b_global = list(self.part.boundary[i])
            u.b_set = {loc[b] for b in u.b_global}
            self.units.append(u)

    def build(self) -> None:
        bt = self.build_times = {}
        t_parts1 = bt["parts_phase_a"] = {}
        # Step 1 (phase A): contract non-boundary vertices by MDE, snapshot
        # the residual boundary graph (Theorem 2's overlay shortcuts).
        pass1 = []
        for u in self.units:
            t0 = time.perf_counter()
            td1 = build_treedec(u.gl, forced_last=u.b_set)
            t_parts1[u.pid] = time.perf_counter() - t0
            nonb_order = [v for v in td1.order if v not in u.b_set]
            pass1.append((td1.residual, nonb_order))

        # Step 2+3: overlay graph from residual + inter edges; overlay MHL.
        t0 = time.perf_counter()
        self.ov_vertices = self.part.boundary_all
        self.o_loc = {g: i for i, g in enumerate(self.ov_vertices)}
        og = Graph(len(self.ov_vertices))
        for u, (residual, _) in zip(self.units, pass1):
            glob = u.vertices
            for (l1, l2), w in residual.items():
                og.add_edge(self.o_loc[glob[l1]], self.o_loc[glob[l2]], w)
        for a, b, _ in self.part.inter_edges:
            og.add_edge(self.o_loc[a], self.o_loc[b], self.graph.adj[a][b])
        self.og = og
        self.td_o = build_treedec(og)
        self.dis_o = build_labels(self.td_o) if self.level != "shortcut" else None
        bt["overlay"] = time.perf_counter() - t0

        # Step 1 (phase B): rebuild each partition MHL with the full
        # boundary-first order (boundary relative order = overlay order).
        t_parts2 = bt["parts_phase_b"] = {}
        for u, (residual, nonb_order) in zip(self.units, pass1):
            t0 = time.perf_counter()
            b_sorted = sorted(u.b_set, key=lambda l: int(self.td_o.rank[self.o_loc[u.vertices[l]]]))
            u.b_local = b_sorted
            u.b_ov = [self.o_loc[u.vertices[l]] for l in b_sorted]
            u.elim_order = nonb_order + b_sorted
            u.td = build_treedec(u.gl, fixed_order=u.elim_order)
            u.dis = build_labels(u.td) if self.level != "shortcut" else None
            u.residual = dict(residual)
            t_parts2[u.pid] = time.perf_counter() - t0

        if self.level == "shortcut":
            return

        # Steps 4+5: post-boundary indexes L'_i.
        t_post = bt["post"] = {}
        for u in self.units:
            t0 = time.perf_counter()
            u.D = boundary_matrix(self.td_o, self.dis_o, u.b_ov)
            u.gpost = u.gl.copy()
            for a in range(len(u.b_local)):
                for b in range(a + 1, len(u.b_local)):
                    u.gpost.add_edge(u.b_local[a], u.b_local[b], float(u.D[a, b]))
            u.td_post = build_treedec(u.gpost, fixed_order=u.elim_order)
            u.dis_post = build_labels(u.td_post)
            t_post[u.pid] = time.perf_counter() - t0

        if self.level == "post":
            return

        # Step 6: cross-boundary index L*.
        t0 = time.perf_counter()
        self._build_hub_joins()
        bt["boundary_hubs"] = time.perf_counter() - t0
        t_cross = bt["cross"] = {}
        for u in self.units:
            t0 = time.perf_counter()
            u.nonb = np.array([v for v in range(u.gl.n) if v not in u.b_set], dtype=np.int64)
            u.plan = disB_plan(u.td_post, {v: v for v in range(u.gl.n)}, u.b_local)
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
            u.hubs = np.unique(np.concatenate(anc))
            u.bcols = [np.searchsorted(u.hubs, h) for h in anc]
        self.hub_joins = [
            [np.intersect1d(ui.hubs, uj.hubs, assume_unique=True, return_indices=True)[1:] for uj in self.units]
            for ui in self.units
        ]

    def _build_cross(self, u: PartitionUnit) -> None:
        """Rebuild ``disB`` and the partition's ``L*`` matrix (Lemma 2)
        into fresh arrays; earlier rows stay as they were.

        ``H[j]`` is b_j's overlay label ``dis_o`` scattered to its hub
        columns ``bcols[j]`` (INF where b_j lacks a hub). It is b_j's own
        ``L*`` row; every other row is ``disB ⊗ H``.
        """
        u.disB = build_disB(u.td_post, u.plan, u.D)
        H = np.full((len(u.bcols), len(u.hubs)), INF, dtype=np.float64)
        for j, (cols, o) in enumerate(zip(u.bcols, u.b_ov)):
            H[j, cols] = self.dis_o[o]
        L = cross_labels(u.disB, H)
        L[u.b_local] = H
        u.lrows = list(L)
        u.lstar = {v: (u.hubs, u.lrows[v]) for v in u.nonb.tolist()}

    # ------------------------------------------------------------------
    # queries (stages 1..5)
    # ------------------------------------------------------------------
    def _pch_rows(self, v: int):
        """Upward shortcut rows of the union CH (partition ∪ overlay)."""
        i = int(self.part.pid[v])
        u = self.units[i]
        l = u.loc[v]
        out: dict[int, float] = {}
        for x, w in zip(u.td.neigh[l], u.td.sc[l]):
            g = u.vertices[x]
            if w < out.get(g, INF):
                out[g] = float(w)
        if l in u.b_set:
            o = self.o_loc[v]
            for x, w in zip(self.td_o.neigh[o], self.td_o.sc[o]):
                g = self.ov_vertices[x]
                if w < out.get(g, INF):
                    out[g] = float(w)
        return out.items()

    def query_bidij(self, s: int, t: int) -> float:
        return bidijkstra(self.graph, s, t)

    def query_pch(self, s: int, t: int) -> float:
        return ch_query_rows(self._pch_rows, s, t)

    def _concat(self, s: int, t: int, td_attr: str, dis_attr: str) -> float:
        """Boundary-concatenated cross/same-partition distance."""
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        ui, uj = self.units[i], self.units[j]
        tdi, disi = getattr(ui, td_attr), getattr(ui, dis_attr)
        tdj, disj = getattr(uj, td_attr), getattr(uj, dis_attr)
        ls, lt = ui.loc[s], uj.loc[t]
        ds = [h2h_query(tdi, disi, ls, b) for b in ui.b_local]
        dt = [h2h_query(tdj, disj, lt, b) for b in uj.b_local]
        return concat_min(self.td_o, self.dis_o, ds, ui.b_ov, dt, uj.b_ov)

    def query_noboundary(self, s: int, t: int) -> float:
        """Q-Stage 3: L_i + ~L with distance concatenation (slow)."""
        if s == t:
            return 0.0
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        via = self._concat(s, t, "td", "dis")
        if i == j:
            u = self.units[i]
            local = h2h_query(u.td, u.dis, u.loc[s], u.loc[t])
            return min(local, via)
        return via

    def query_postboundary(self, s: int, t: int) -> float:
        """Q-Stage 4: fast same-partition via L'_i; cross still concatenates."""
        if s == t:
            return 0.0
        i, j = int(self.part.pid[s]), int(self.part.pid[t])
        if i == j:
            u = self.units[i]
            return h2h_query(u.td_post, u.dis_post, u.loc[s], u.loc[t])
        return self._concat(s, t, "td_post", "dis_post")

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
        ov_edge_changes: list[tuple[int, int]] = []
        affected_lab: dict[int, set[int]] = {}
        for i, ups in intra.items():
            u = self.units[i]
            t0 = time.perf_counter()
            loc_edges = []
            for a, b, w in ups:
                la, lb = u.loc[a], u.loc[b]
                u.gl.set_weight(la, lb, w)
                loc_edges.append((la, lb))
            res = update_shortcuts(u.td, u.gl, loc_edges)
            affected_lab[i] = res.affected
            # Theorem-2 residuals: refresh overlay base edges whose
            # residual (boundary-contributor-free) value changed.
            for (a, b) in res.recomputed_pairs:
                if a in u.b_set and b in u.b_set:
                    key = (a, b) if a < b else (b, a)
                    if key not in u.residual:
                        continue
                    nv = recompute_shortcut(u.td, u.gl, a, b, exclude=u.b_set)
                    if nv != u.residual[key]:
                        u.residual[key] = nv
                        oa = self.o_loc[u.vertices[a]]
                        ob = self.o_loc[u.vertices[b]]
                        if self.og.adj[oa].get(ob, INF) != nv:
                            self.og.set_weight(oa, ob, nv)
                            ov_edge_changes.append((oa, ob))
            u2_parts[i] = time.perf_counter() - t0
        t0 = time.perf_counter()
        for a, b, w in inter:
            oa, ob = self.o_loc[a], self.o_loc[b]
            self.og.set_weight(oa, ob, w)
            ov_edge_changes.append((oa, ob))
        res_o = update_shortcuts(self.td_o, self.og, ov_edge_changes)
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
        out["u3"] = {"parts": u3_parts, "overlay": time.perf_counter() - t0}

        # ---- U4: post-boundary index update -------------------------
        changed_ov_g = {self.ov_vertices[o] for o in changed_ov}
        u4_parts: dict[int, float] = {}
        post_label_changed: set[int] = set()
        for u in self.units:
            i = u.pid
            d_may_change = any(g in changed_ov_g for g in u.b_global)
            if i not in intra and not d_may_change:
                continue
            t0 = time.perf_counter()
            loc_edges = []
            for a, b, w in intra.get(i, ()):
                la, lb = u.loc[a], u.loc[b]
                if la in u.b_set and lb in u.b_set:
                    continue  # boundary-pair weight is pinned to D below
                u.gpost.set_weight(la, lb, w)
                loc_edges.append((la, lb))
            if d_may_change:
                Dn = boundary_matrix(self.td_o, self.dis_o, u.b_ov)
                for a in range(len(u.b_local)):
                    for b in range(a + 1, len(u.b_local)):
                        if Dn[a, b] != u.D[a, b]:
                            u.gpost.set_weight(u.b_local[a], u.b_local[b], float(Dn[a, b]))
                            loc_edges.append((u.b_local[a], u.b_local[b]))
                u.D = Dn
            res_p = update_shortcuts(u.td_post, u.gpost, loc_edges)
            roots = prune_to_subtree_roots(u.td_post, res_p.affected)
            if roots:
                build_labels(u.td_post, roots=roots, dis=u.dis_post)
            if roots or res_p.affected:
                post_label_changed.add(i)
            u4_parts[i] = time.perf_counter() - t0
        out["u4"] = {"parts": u4_parts}
        if self.level == "post":
            return out

        # ---- U5: cross-boundary index update ------------------------
        u5_parts: dict[int, float] = {}
        for u in self.units:
            i = u.pid
            if i not in post_label_changed and not any(g in changed_ov_g for g in u.b_global):
                continue
            t0 = time.perf_counter()
            self._build_cross(u)
            u5_parts[i] = time.perf_counter() - t0
        # Boundary rows are rebuilt with their partition's matrix, so no
        # separate boundary-hub task remains; the key stays because
        # readers of this dict (the benchmark adapter) index it.
        out["u5"] = {"parts": u5_parts, "boundary_hubs": 0.0}
        return out

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
            # a boundary row holds only its overlay label's entries
            total += sum(len(c) for c in u.bcols)
        total += sum(len(nb) for nb in self.td_o.neigh)
        if self.dis_o is not None:
            total += sum(len(d) for d in self.dis_o)
        return total
