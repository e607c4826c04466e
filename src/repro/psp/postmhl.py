"""PostMHL: Post-partitioned Multi-stage Hub Labeling (paper §VI, Alg. 4).

One global MDE tree decomposition carries *all* index components:

- **overlay index**: full H2H labels of the overlay vertices (the
  upward-closed complement of the partition subtrees chosen by
  TD-partitioning);
- **post-boundary index** (per partition): the boundary array
  ``disB[v][j] = d_G(v, b_j)`` for the partition's separator
  ``B_i = X(root).N`` plus the distance-array entries to *in-partition*
  ancestors — both computable from the overlay index alone (Theorem 4);
- **cross-boundary index** (per partition): the distance-array entries
  to *overlay* ancestors, the columns ``[0, depth(root))`` of each
  in-partition label row.

Because every in-partition root path is (overlay ancestors, then
in-partition ancestors), the full label rows equal plain H2H labels on
the same order — PostMHL's final-stage query *is* DH2H's (Remark 2),
which we assert in tests. So both per-partition phases run the shared
kernels: ``disB`` is PMHL's ``build_disB`` DP, the in-partition columns
a windowed ``build_labels`` (``col0``), and the cross-boundary phase the
plain ``build_labels`` over the partition subtree.

Update stages: U1 edge refresh → U2 shortcuts (partition-parallel
sweeps + overlay sweep over the escaped dirty positions) → U3 overlay labels
and the re-gathered ``D_i`` and ``H_i`` of partitions with a changed ``B_i`` row →
U4 post-boundary and U5 cross-boundary per-partition in parallel. U4 is
change-driven: it reads only ``D_i`` (a gather, :func:`boundary_gather`)
and the partition's shortcuts, so it runs only where one of them changed;
U5 runs wherever U4 ran or an overlay ancestor's row changed.
Queries per stage: BiDijkstra → CH → post-boundary → full H2H. The CH
stage is the root-path DP of Lemma 4 over the global tree (``TreeCH``),
with no heap. Across partitions the post-boundary stage concatenates
``disB`` through the overlay as Lemma 2's min-plus product: ``H_i`` holds
B_i's label rows over the root's overlay ancestors (``hub_matrix``), and
partitions i and j share the depth prefix of them up to
``lca(root_i, root_j)``.
"""
from __future__ import annotations

import math
import time

import numpy as np

from repro.graphs.graph import Graph
from repro.core.ch import TreeCH, ch_query_rows
from repro.core.dijkstra import bidijkstra
from repro.core.h2h import prune_to_subtree_roots
from repro.core.treedec import TreeDec, build_labels, build_treedec, h2h_query, update_shortcuts
from repro.partition.tdpartition import TDPartitionResult, td_partition
from repro.psp.pmhl import build_disB, disB_plan, relabel

INF = math.inf


def boundary_gather(td: TreeDec, dis: list, root: int) -> np.ndarray:
    """D_i among B_i = X(root).N, gathered from the label rows.

    B_i lies on the root's ancestor path, so every pair is an ancestor
    pair and ``d(b_a, b_b) = dis[deeper][depth(shallower)]`` — the value
    ``h2h_query`` returns for it, bit for bit. ``X(root).N`` is in
    descending depth, so ``b_a`` is the deeper one for every ``b > a``.
    """
    bs, dep = td.neigh[root], td.pos[root]
    D = np.zeros((len(bs), len(bs)), dtype=np.float64)
    for a in range(len(bs) - 1):
        D[a, a + 1 :] = D[a + 1 :, a] = dis[bs[a]][dep[a + 1 :]]
    return D


def hub_matrix(td: TreeDec, dis: list, root: int) -> np.ndarray:
    """H_i: row a is ``dis[b_a]`` for b_a ∈ B_i = X(root).N, padded with
    INF to the root's depth. Column h is the root's overlay ancestor at
    depth h, which is b_a's ancestor for every h ≤ depth(b_a): B_i's
    overlay labels over the hubs they share (Lemma 2)."""
    bs = td.neigh[root]
    H = np.full((len(bs), td.depth[root]), INF, dtype=np.float64)
    for a, b in enumerate(bs):
        H[a, : len(dis[b])] = dis[b]
    return H


class PostMHLIndex:
    """PostMHL over one global tree decomposition."""

    def __init__(
        self,
        graph: Graph,
        *,
        tau: int,
        k_e: int,
        beta_l: float = 0.1,
        beta_u: float = 2.0,
    ):
        self.graph = graph
        t0 = time.perf_counter()
        self.td = build_treedec(graph)
        self.t_tree = time.perf_counter() - t0
        self.ch = TreeCH(self.td)

        t0 = time.perf_counter()
        self.tdp: TDPartitionResult = td_partition(self.td, tau, k_e, beta_l, beta_u)
        self.t_partition = time.perf_counter() - t0

        self.k = self.tdp.k
        self.novl = [self.td.depth[r] for r in self.tdp.roots]
        self.ov_anc = [self.td.ancestors(r)[:-1] for r in self.tdp.roots]  # overlay ancestors
        # Partition vertices. Dirt from partition i's edges only reaches
        # i's subtree and overlay ancestors, so this one mask restricts
        # every partition's U2 sweep to its own partition.
        self.in_part = self.tdp.pid >= 0
        self.plans: list[tuple] = [()] * self.k  # disB_plan per partition
        self.D: list[np.ndarray | None] = [None] * self.k
        self.H: list[np.ndarray | None] = [None] * self.k  # hub_matrix per partition
        # hub_prefix[i, j]: how many hubs H_i and H_j share, the common
        # prefix of the roots' overlay-ancestor paths (down to their LCA;
        # the paths never meet again below it). Row i pads with -1 - i.
        width = max(self.novl)
        paths = np.array([anc + [-1 - i] * (width - len(anc)) for i, anc in enumerate(self.ov_anc)])
        self.hub_prefix = np.array([(paths == row).sum(axis=1) for row in paths])
        self.disB: list[np.ndarray | None] = [None] * graph.n
        self.dis: list[np.ndarray | None] = [None] * graph.n
        self.build_times: dict[str, object] = {}
        self.build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        t0 = time.perf_counter()
        build_labels(self.td, active=self.tdp.overlay, dis=self.dis)
        t_overlay = time.perf_counter() - t0
        t_post: dict[int, float] = {}
        t_cross: dict[int, float] = {}
        for i, (bs, part) in enumerate(zip(self.tdp.boundary, self.tdp.parts)):
            t0 = time.perf_counter()
            row = {b: j for j, b in enumerate(bs)}
            row.update((v, len(bs) + j) for j, v in enumerate(part))
            self.plans[i] = disB_plan(self.td, row, bs)
            self.D[i] = boundary_gather(self.td, self.dis, self.tdp.roots[i])
            self.H[i] = hub_matrix(self.td, self.dis, self.tdp.roots[i])
            self._build_post(i)
            t_post[i] = time.perf_counter() - t0
            t0 = time.perf_counter()
            self._build_cross(i)
            t_cross[i] = time.perf_counter() - t0
        self.build_times = {
            "tree": self.t_tree,
            "partition": self.t_partition,
            "overlay": t_overlay,
            "post": t_post,
            "cross": t_cross,
        }

    def _build_post(self, i: int) -> None:
        """Post-boundary phase (Alg. 4 lines 5–31): disB + in-partition
        entries from ``D[i]`` and the partition's shortcuts, into fresh rows.

        ``disB`` of the partition is one ``build_disB`` matrix. Every
        overlay neighbour of a partition vertex lies in B_i, so once each
        row's boundary-depth columns hold its ``disB`` row, the columns
        ``[novl, d)`` are ``build_labels`` windowed at ``col0 = novl``.
        """
        td = self.td
        root = self.tdp.roots[i]
        B = build_disB(td, self.plans[i], self.D[i])
        bdepth = td.pos[root]  # depths of B_i = X(root).N
        for v, b in zip(self.tdp.parts[i], B[len(bdepth):]):
            self.disB[v] = b
            row = np.full(td.depth[v] + 1, INF, dtype=np.float64)
            row[bdepth] = b
            self.dis[v] = row
        build_labels(td, roots=[root], dis=self.dis, col0=self.novl[i])

    def _build_cross(self, i: int) -> None:
        """Cross-boundary phase: the partition's rows recomputed in full,
        so the overlay-ancestor columns [0, novl) are H2H's (Remark 2)."""
        build_labels(self.td, roots=[self.tdp.roots[i]], dis=self.dis)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_bidij(self, s: int, t: int) -> float:
        return bidijkstra(self.graph, s, t)

    def query_pch(self, s: int, t: int) -> float:
        return ch_query_rows(self.ch, s, t)

    def query_postboundary(self, s: int, t: int) -> float:
        """Q-Stage 3: post-boundary + overlay index (cross entries stale)."""
        if s == t:
            return 0.0
        i, j = int(self.tdp.pid[s]), int(self.tdp.pid[t])
        td = self.td
        if i == -1 and j == -1:
            return h2h_query(td, self.dis, s, t)
        if i == j:
            # Same partition: LCA separator splits into in-partition
            # members (post entries) and boundary members (disB covers
            # all of B_i ⊇ them).
            a = td.lca(s, t)
            novl = self.novl[i]
            if a == s:
                best = float(self.dis[t][td.depth[s]])
            elif a == t:
                best = float(self.dis[s][td.depth[t]])
            else:
                idx = td.qpos[a]
                idx = idx[idx >= novl]
                best = float((self.dis[s][idx] + self.dis[t][idx]).min()) if len(idx) else INF
            best = min(best, float((self.disB[s] + self.disB[t]).min()))
            return best
        # Across partitions, concatenate through B_j (and B_i) as Lemma 2's
        # min-plus product over the common hubs, a depth prefix.
        if j == -1:
            s, t, i, j = t, s, j, i  # make s the overlay endpoint if any
        if i == -1:
            # overlay ↔ partition j: s's label row is its hub vector, over
            # the ancestors s shares with root_j
            r = self.tdp.roots[j]
            p = td.depth[td.lca(s, r)] + 1 if td.root_of[s] == td.root_of[r] else 0
            return float((self.dis[s][:p] + self._hub_vector(t, j, p)).min(initial=INF))
        p = self.hub_prefix[i, j]
        return float((self._hub_vector(s, i, p) + self._hub_vector(t, j, p)).min(initial=INF))

    def _hub_vector(self, v: int, i: int, p: int) -> np.ndarray:
        """d(v, ·) over the first ``p`` hubs of partition i, through B_i:
        ``min_a disB[v][a] + H_i[a, :p]``."""
        return (self.disB[v][:, None] + self.H[i][:, :p]).min(axis=0)

    def query(self, s: int, t: int) -> float:
        """Q-Stage 4 (final): full H2H query — equivalent to DH2H."""
        return h2h_query(self.td, self.dis, s, t)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def apply_batch(self, updates: list[tuple[int, int, float]]) -> dict:
        """Run U-Stages 1–5; returns per-stage / per-task durations."""
        out: dict = {}
        td = self.td

        # ---- U1 ------------------------------------------------------
        t0 = time.perf_counter()
        applied = self.graph.apply_updates(updates)
        part_edges: dict[int, list[tuple[int, int, float]]] = {}
        ov_edges: list[tuple[int, int, float]] = []
        for a, b, w in applied:
            owner = a if td.rank[a] < td.rank[b] else b
            i = int(self.tdp.pid[owner])
            if i == -1:
                ov_edges.append((a, b, w))
            else:
                part_edges.setdefault(i, []).append((a, b, w))
        out["u1"] = time.perf_counter() - t0

        # ---- U2: shortcuts, partition-parallel then overlay ---------
        u2_parts: dict[int, float] = {}
        escaped: list[np.ndarray] = []
        part_affected: set[int] = set()
        for i, edges in part_edges.items():
            t0 = time.perf_counter()
            res = update_shortcuts(td, edges, subset=self.in_part)
            if res.affected:
                part_affected.add(i)
            escaped.append(res.escaped)
            u2_parts[i] = time.perf_counter() - t0
        t0 = time.perf_counter()
        res_o = update_shortcuts(td, ov_edges, seed=escaped)
        out["u2"] = {"parts": u2_parts, "overlay": time.perf_counter() - t0}

        # ---- U3: overlay label update, then every D_i it may move --
        t0 = time.perf_counter()
        ov_affected = {v for v in res_o.affected if v in self.tdp.overlay}
        roots = prune_to_subtree_roots(td, ov_affected)
        changed_ov = relabel(td, self.dis, roots, self.tdp.overlay)
        # changed_ov holds overlay vertices whose label values truly
        # changed; D_i and H_i are gathers of B_i's rows, so only a
        # changed B_i row can move them. Q-stage 3 reads H_i.
        changed_D: set[int] = set()
        for i, bs in enumerate(self.tdp.boundary):
            if not changed_ov.isdisjoint(bs):
                self.H[i] = hub_matrix(td, self.dis, self.tdp.roots[i])
                D = boundary_gather(td, self.dis, self.tdp.roots[i])
                if not np.array_equal(D, self.D[i]):
                    self.D[i] = D
                    changed_D.add(i)
        out["u3"] = {"overlay": time.perf_counter() - t0}

        # ---- U4 + U5: post-/cross-boundary per partition ------------
        # disB and the in-partition columns read only D_i and the
        # partition's shortcuts (whose changes U2's partition sweep
        # reports: the overlay sweep only touches overlay owners), so U4
        # runs where one of them changed; a skipped partition keeps its D
        # and disB objects. The cross-boundary columns read the row of
        # every overlay ancestor of the root, B_i among them.
        u4_parts: dict[int, float] = {}
        u5_parts: dict[int, float] = {}
        for i in range(self.k):
            post = i in part_affected or i in changed_D
            if post:
                t0 = time.perf_counter()
                self._build_post(i)
                u4_parts[i] = time.perf_counter() - t0
            if post or not changed_ov.isdisjoint(self.ov_anc[i]):
                t0 = time.perf_counter()
                self._build_cross(i)
                u5_parts[i] = time.perf_counter() - t0
        out["u4"] = {"parts": u4_parts}
        out["u5"] = {"parts": u5_parts}
        return out

    # ------------------------------------------------------------------
    def index_size(self) -> int:
        """Label + shortcut + boundary-array entries (Theorem 5 shape)."""
        total = sum(len(nb) for nb in self.td.neigh)
        total += sum(len(d) for d in self.dis if d is not None)
        total += sum(len(b) for b in self.disB if b is not None)
        return total

    def overlay_size(self) -> int:
        return len(self.tdp.overlay)
