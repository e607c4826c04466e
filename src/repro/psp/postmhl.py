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
which we assert in tests.

Update stages: U1 edge refresh → U2 shortcuts (partition-parallel
passes + overlay pass over escaped dirt) → U3 overlay labels →
U4 post-boundary and U5 cross-boundary per-partition in parallel.
Queries per stage: BiDijkstra → CH → post-boundary (disB + overlay
concatenation across partitions) → full H2H.
"""
from __future__ import annotations

import math
import time

import numpy as np

from repro.graphs.graph import Graph
from repro.core.ch import ch_query_rows
from repro.core.dijkstra import bidijkstra
from repro.core.h2h import prune_to_subtree_roots
from repro.core.treedec import build_labels, build_treedec, h2h_query, update_shortcuts
from repro.partition.tdpartition import TDPartitionResult, td_partition
from repro.psp.pmhl import boundary_matrix

INF = math.inf


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
        build: bool = True,
    ):
        self.graph = graph
        t0 = time.perf_counter()
        self.td = build_treedec(graph)
        self.t_tree = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.tdp: TDPartitionResult = td_partition(self.td, tau, k_e, beta_l, beta_u)
        self.t_partition = time.perf_counter() - t0

        self.k = self.tdp.k
        self.novl = [int(self.td.depth[r]) for r in self.tdp.roots]
        self.bidx = [{b: j for j, b in enumerate(bs)} for bs in self.tdp.boundary]
        self.D: list[np.ndarray | None] = [None] * self.k
        self.disB: list[np.ndarray | None] = [None] * graph.n
        self.dis: list[np.ndarray | None] = [None] * graph.n
        self.build_times: dict[str, object] = {}
        if build:
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
        for i in range(self.k):
            t0 = time.perf_counter()
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

    def _partition_preorder(self, i: int):
        """DFS preorder of partition i's subtree (parents before children)."""
        stack = [self.tdp.roots[i]]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(self.td.children[v])

    def _build_post(self, i: int, D: np.ndarray | None = None) -> None:
        """Post-boundary phase (Alg. 4 lines 5–31): disB + in-partition entries.

        Per node, the in-partition columns [novl, d) are a min over
        neighbors: an overlay neighbor b contributes the target
        ancestor's boundary array (``DB[·, bidx[b]]``), an in-partition
        neighbor the root-path matrix trick restricted to in-partition
        columns.
        """
        td = self.td
        novl = self.novl[i]
        bidx = self.bidx[i]
        if D is None:
            D = boundary_matrix(td, self.dis, self.tdp.boundary[i])
        self.D[i] = D
        hmax = 1 + max(int(td.depth[v]) for v in self.tdp.parts[i]) - novl
        nb_cnt = len(self.tdp.boundary[i])
        DB = np.empty((hmax, nb_cnt), dtype=np.float64)   # disB rows of root path
        Mp = np.full((hmax, hmax), INF, dtype=np.float64)  # in-partition columns

        for v in self._partition_preorder(i):
            d = int(td.depth[v])
            r = d - novl  # row in DB/Mp
            # --- boundary array disB[v] -----------------------------
            row_b = np.full(nb_cnt, INF, dtype=np.float64)
            for k, x in enumerate(td.neigh[v]):
                p = int(td.pos[v][k])
                if p < novl:
                    cand = D[bidx[x]]
                else:
                    cand = DB[p - novl]
                np.minimum(row_b, td.sc[v][k] + cand, out=row_b)
            self.disB[v] = row_b
            DB[r] = row_b
            # --- in-partition distance-array entries ----------------
            full = self.dis[v]
            if full is None or len(full) != d + 1:
                full = np.full(d + 1, INF, dtype=np.float64)
                self.dis[v] = full
            if r > 0:
                seg = np.full(r, INF, dtype=np.float64)  # columns novl..d-1
                for k, x in enumerate(td.neigh[v]):
                    p = int(td.pos[v][k])
                    if p < novl:
                        # d(x, A[novl+q]) = ancestor's boundary array at x.
                        cand = DB[:r, bidx[x]]
                    else:
                        pr = p - novl
                        cand = np.concatenate((Mp[pr, : pr + 1], Mp[pr + 1 : r, pr]))
                    np.minimum(seg, td.sc[v][k] + cand, out=seg)
                full[novl:d] = seg
            full[d] = 0.0
            Mp[r, :r] = full[novl:d]
            Mp[r, r] = 0.0

    def _build_cross(self, i: int) -> None:
        """Cross-boundary phase: overlay-ancestor columns [0, novl)."""
        td = self.td
        novl = self.novl[i]
        if novl == 0:
            return
        h = td.tree_height()
        M = np.full((h, novl), INF, dtype=np.float64)
        # Seed overlay-ancestor rows (their label rows, ≤ novl long).
        r0 = self.tdp.roots[i]
        anc = td.ancestors(r0)[:-1]
        for a in anc:
            da = int(td.depth[a])
            M[da, : da + 1] = self.dis[a]
        for v in self._partition_preorder(i):
            d = int(td.depth[v])
            seg = np.full(novl, INF, dtype=np.float64)
            for k, x in enumerate(td.neigh[v]):
                p = int(td.pos[v][k])
                if p < novl:
                    cand = np.concatenate((M[p, : p + 1], M[p + 1 : novl, p]))
                else:
                    cand = M[p, :novl]
                np.minimum(seg, td.sc[v][k] + cand, out=seg)
            self.dis[v][:novl] = seg
            M[d, :novl] = seg

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_bidij(self, s: int, t: int) -> float:
        return bidijkstra(self.graph, s, t)

    def query_pch(self, s: int, t: int) -> float:
        td = self.td
        return ch_query_rows(lambda v: zip(td.neigh[v], td.sc[v]), s, t)

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
        if j == -1:
            s, t, i, j = t, s, j, i  # make s the overlay endpoint if any
        if i == -1:
            # overlay ↔ partition j: concatenate through B_j.
            best = INF
            for jj, b in enumerate(self.tdp.boundary[j]):
                d = h2h_query(td, self.dis, s, b) + self.disB[t][jj]
                if d < best:
                    best = d
            return best
        # partition i ↔ partition j.
        best = INF
        for ii, b1 in enumerate(self.tdp.boundary[i]):
            ds = self.disB[s][ii]
            if ds == INF:
                continue
            for jj, b2 in enumerate(self.tdp.boundary[j]):
                d = ds + h2h_query(td, self.dis, b1, b2) + self.disB[t][jj]
                if d < best:
                    best = d
        return best

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
        self.graph.apply_updates(updates)
        part_edges: dict[int, list[tuple[int, int]]] = {}
        ov_edges: list[tuple[int, int]] = []
        for a, b, _ in updates:
            owner = a if td.rank[a] < td.rank[b] else b
            i = int(self.tdp.pid[owner])
            if i == -1:
                ov_edges.append((a, b))
            else:
                part_edges.setdefault(i, []).append((a, b))
        out["u1"] = time.perf_counter() - t0

        # ---- U2: shortcuts, partition-parallel then overlay ---------
        u2_parts: dict[int, float] = {}
        seed: dict[int, set[int]] = {}
        part_affected: set[int] = set()
        part_sets = [set(p) for p in self.tdp.parts]
        for i, edges in part_edges.items():
            t0 = time.perf_counter()
            res = update_shortcuts(td, self.graph, edges, subset=part_sets[i])
            if res.affected:
                part_affected.add(i)
            for o, idxs in res.escaped.items():
                seed.setdefault(o, set()).update(idxs)
            u2_parts[i] = time.perf_counter() - t0
        t0 = time.perf_counter()
        res_o = update_shortcuts(td, self.graph, ov_edges, seed_dirty=seed)
        out["u2"] = {"parts": u2_parts, "overlay": time.perf_counter() - t0}

        # ---- U3: overlay label update -------------------------------
        t0 = time.perf_counter()
        ov_affected = {v for v in res_o.affected if v in self.tdp.overlay}
        roots = prune_to_subtree_roots(td, ov_affected)
        changed_ov: set[int] = set()
        if roots:
            # Snapshot the recomputed region so downstream stages can
            # react to *actual* value changes, not recomputation alone.
            region: list[int] = []
            stack = list(roots)
            while stack:
                v = stack.pop()
                if v in self.tdp.overlay:
                    region.append(v)
                    stack.extend(td.children[v])
            old = {v: self.dis[v] for v in region}
            build_labels(td, roots=roots, active=self.tdp.overlay, dis=self.dis)
            changed_ov = {
                v for v in region
                if old[v] is None or not np.array_equal(old[v], self.dis[v])
            }
        out["u3"] = {"overlay": time.perf_counter() - t0}

        # ---- U4 + U5: post-/cross-boundary per partition ------------
        # Overlay-pass affected owners can also sit *inside* partitions
        # (an escaped pair's recomputation never does, but the overlay
        # pass only touches overlay owners); partition-internal label
        # damage comes from part_affected.
        u4_parts: dict[int, float] = {}
        u5_parts: dict[int, float] = {}
        for i in range(self.k):
            internal = i in part_affected or i in part_edges
            # changed_ov holds overlay vertices whose label values truly
            # changed; a partition is clean iff it had no internal damage
            # and none of its boundary labels changed (then D and every
            # d(b, ancestor) feeding its entries are unchanged).
            boundary_changed = any(b in changed_ov for b in self.tdp.boundary[i])
            if not internal and not boundary_changed:
                continue
            t0 = time.perf_counter()
            self._build_post(i)
            u4_parts[i] = time.perf_counter() - t0
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
