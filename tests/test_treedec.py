"""Tree-decomposition engine: structure invariants, Definition 1,
Lemma 4 (CH ≡ TD shortcuts), and dynamic shortcut maintenance."""
import math

import numpy as np
import pytest

from repro.core.treedec import (
    build_labels,
    build_treedec,
    h2h_query,
    recompute_shortcut,
    shortcut,
    update_shortcuts,
)
from repro.graphs.generator import road_network, update_batches
from tests.util import small_case


@pytest.fixture(scope="module")
def td_case():
    g, _, fw = small_case(3)
    return g, build_treedec(g), fw


def test_elimination_covers_all(td_case):
    g, td, _ = td_case
    assert sorted(td.order) == list(range(g.n))
    assert all(td.order[td.rank[v]] == v for v in range(g.n))


def test_neighbors_have_higher_rank(td_case):
    _, td, _ = td_case
    for v in range(td.n):
        assert all(td.rank[u] > td.rank[v] for u in td.neigh[v])


def test_neighbors_sorted_by_rank(td_case):
    _, td, _ = td_case
    for v in range(td.n):
        rs = [td.rank[u] for u in td.neigh[v]]
        assert rs == sorted(rs)


def test_parent_is_lowest_rank_neighbor(td_case):
    _, td, _ = td_case
    for v in range(td.n):
        if td.neigh[v]:
            assert td.parent[v] == min(td.neigh[v], key=lambda u: td.rank[u])


def test_neighbors_are_ancestors(td_case):
    """The invariant the whole label DP relies on: X(v).N ⊆ X(v).A."""
    _, td, _ = td_case
    for v in range(td.n):
        anc = set(td.ancestors(v))
        assert set(td.neigh[v]) <= anc


def test_pos_equals_neighbor_depth(td_case):
    _, td, _ = td_case
    for v in range(td.n):
        assert all(td.pos[v][k] == td.depth[u] for k, u in enumerate(td.neigh[v]))


def test_definition1_every_edge_covered(td_case):
    """Def. 1(2): every graph edge lies inside some tree node bag."""
    g, td, _ = td_case
    for u, v, _ in g.edges():
        lo, hi = (u, v) if td.rank[u] < td.rank[v] else (v, u)
        assert hi in td.nidx[lo]


def test_shortcut_upper_bounds_distance(td_case):
    g, td, fw = td_case
    for v in range(td.n):
        for k, u in enumerate(td.neigh[v]):
            assert td.sc[v][k] >= fw[v][u] - 1e-9


def test_lca(td_case):
    _, td, _ = td_case
    for a in range(0, td.n, 7):
        for b in range(0, td.n, 11):
            l = td.lca(a, b)
            anc_a, anc_b = td.ancestors(a), td.ancestors(b)
            common = [x for x, y in zip(anc_a, anc_b) if x == y]
            assert l == common[-1]


def test_lemma4_fixed_order_reproduces_mde(td_case):
    """Rebuilding with the recorded order gives identical shortcuts."""
    g, td, _ = td_case
    td2 = build_treedec(g, fixed_order=td.order)
    for v in range(td.n):
        assert td2.neigh[v] == td.neigh[v]
        assert np.allclose(td2.sc[v], td.sc[v])


def test_boundary_first_order(td_case):
    g, _, _ = td_case
    forced = {0, 1, 2, 3, 4}
    td = build_treedec(g, forced_last=forced)
    max_free = max(td.rank[v] for v in range(g.n) if v not in forced)
    assert all(td.rank[v] > max_free for v in forced)
    assert td.order[-len(forced):] == [0, 1, 2, 3, 4]


def test_residual_snapshot_matches_recompute():
    g, _, _ = small_case(4)
    forced = set(range(0, g.n, 5))
    td = build_treedec(g, forced_last=forced)
    assert td.residual
    for (a, b), w in td.residual.items():
        assert recompute_shortcut(td, g, a, b, exclude=forced) == pytest.approx(w)


def test_recompute_shortcut_exclude_after_cached_gather():
    """``exclude`` masks the cached contributor gather: a pair first
    recomputed in full (filling the cache), then with ``exclude``, gives
    the brute-force min over its contributors both times."""
    g, _, _ = small_case(4)
    forced = set(range(0, g.n, 5))
    td = build_treedec(g, forced_last=forced)

    def brute(a, b, skip):
        best = g.adj[a].get(b, math.inf)
        for x in td.contrib[(a, b)]:
            if x not in skip:
                best = min(best, float(td.sc[x][td.nidx[x][a]]) + float(td.sc[x][td.nidx[x][b]]))
        return best

    mixed = 0
    for (a, b), xs in td.contrib.items():
        assert recompute_shortcut(td, g, a, b) == brute(a, b, set())
        assert (a, b) in td._support
        assert recompute_shortcut(td, g, a, b, exclude=forced) == brute(a, b, forced)
        mixed += 0 < sum(x in forced for x in xs) < len(xs)
    assert mixed > 0


def test_flat_storage_views(td_case):
    _, td, _ = td_case
    v = max(range(td.n), key=lambda x: len(td.neigh[x]))
    old = td.flat[td.flat_off[v]]
    td.sc[v][0] = old + 1.0
    assert td.flat[td.flat_off[v]] == old + 1.0
    td.sc[v][0] = old


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_update_shortcuts_equals_rebuild(seed):
    """After weight updates, maintained shortcuts == from-scratch ones."""
    g, _, _ = small_case(seed)
    g = g.copy()  # never mutate the cached fixture graph
    td = build_treedec(g)
    for batch in update_batches(g, batches=3, volume=25, seed=seed + 50):
        g.apply_updates(batch)
        update_shortcuts(td, g, [(u, v) for u, v, _ in batch])
        ref = build_treedec(g, fixed_order=td.order)
        for v in range(td.n):
            assert np.allclose(td.sc[v], ref.sc[v]), v


def test_update_shortcuts_subset_with_escape():
    """Partition-restricted pass + escaped-dirt pass == full pass."""
    g, _, _ = small_case(5)
    g = g.copy()  # never mutate the cached fixture graph
    td = build_treedec(g)
    batch = update_batches(g, batches=1, volume=30, seed=77)[0]
    g.apply_updates(batch)
    edges = [(u, v) for u, v, _ in batch]
    # restrict to the lower half of the hierarchy; the rest escapes
    low = {v for v in range(g.n) if td.rank[v] < g.n // 2}
    low_edges = [e for e in edges if min(td.rank[e[0]], td.rank[e[1]]) < g.n // 2]
    hi_edges = [e for e in edges if e not in low_edges]
    res = update_shortcuts(td, g, low_edges, subset=low)
    update_shortcuts(td, g, hi_edges, seed_dirty=res.escaped)
    ref = build_treedec(g, fixed_order=td.order)
    for v in range(td.n):
        assert np.allclose(td.sc[v], ref.sc[v]), v


def test_shortcut_helper(td_case):
    _, td, _ = td_case
    v = next(v for v in range(td.n) if td.neigh[v])
    u = td.neigh[v][0]
    assert shortcut(td, v, u) == shortcut(td, u, v) == td.sc[v][0]


def test_build_labels_active_subset():
    """Overlay-restricted labels match the full build on that subset."""
    g, _, _ = small_case(6)
    td = build_treedec(g)
    full = build_labels(td)
    top = {v for v in range(g.n) if td.rank[v] >= g.n - 25}
    # active set must be upward-closed: take all ancestors too
    for v in list(top):
        top.update(td.ancestors(v))
    restricted = build_labels(td, active=top)
    for v in top:
        assert np.allclose(restricted[v], full[v])


def test_build_labels_window_columns():
    """``col0`` recomputes only the columns [col0, depth) of each row of
    the subtree, keeps the others from the old row, and writes fresh rows."""
    g, _, _ = small_case(6)
    td = build_treedec(g)
    dis = build_labels(td)
    r = max((v for v in range(g.n) if td.depth[v] >= 3), key=lambda v: len(td.children[v]))
    c = int(td.depth[r])
    sub, stack = [], [r]
    while stack:
        v = stack.pop()
        sub.append(v)
        stack.extend(td.children[v])
    seeded = list(dis)
    for v in sub:
        seeded[v] = dis[v].copy()
        seeded[v][c:] = -1.0
    held = {v: seeded[v] for v in sub}
    build_labels(td, roots=[r], dis=seeded, col0=c)
    for v in sub:
        assert np.array_equal(seeded[v], dis[v]), v
        assert seeded[v] is not held[v] and (held[v][c:] == -1.0).all()


def test_h2h_query_ancestor_cases():
    g, _, fw = small_case(7)
    td = build_treedec(g)
    dis = build_labels(td)
    # query between a vertex and one of its ancestors hits the fast path
    v = max(range(g.n), key=lambda x: td.depth[x])
    for a in td.ancestors(v)[:-1]:
        assert h2h_query(td, dis, v, a) == pytest.approx(fw[v][a])
        assert h2h_query(td, dis, a, v) == pytest.approx(fw[v][a])
