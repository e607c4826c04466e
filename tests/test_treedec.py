"""Tree-decomposition engine: structure invariants, Definition 1,
Lemma 4 (CH ≡ TD shortcuts), the support tables, dynamic shortcut
maintenance against the per-pair reference kernel, and the label DP
against the per-neighbour reference kernel."""
import heapq
import math
import random

import numpy as np
import pytest

from repro.core.h2h import prune_to_subtree_roots
from repro.core.treedec import (
    boundary_residual,
    build_labels,
    build_treedec,
    contract_nonboundary,
    finish_boundary_first,
    h2h_query,
    position,
    shortcut,
    support_min,
    update_shortcuts,
)
from repro.graphs.generator import DATASETS, road_network, update_batches
from repro.graphs.graph import Graph
from repro.partition.partitioner import partition_graph
from repro.psp.pmhl import PMHLIndex
from repro.psp.postmhl import PostMHLIndex
from tests.label_reference import reference_labels
from tests.shortcut_reference import contributors, recompute, reference_update
from tests.test_random_graphs import CASES, random_connected
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


def _walk_lca(td, a, b):
    """LCA by walking parents up to equal depth, then both together; None
    if a and b lie in different trees."""
    parent, depth = td.parent, td.depth
    while depth[a] > depth[b]:
        a = parent[a]
    while depth[b] > depth[a]:
        b = parent[b]
    while a != b:
        a, b = parent[a], parent[b]
    return None if a == -1 else a


def _assert_lca_pairs(td, pairs):
    """``lca`` equals the parent walk on every pair of one tree; a pair
    across trees is told apart by ``root_of`` (the check every caller
    makes before asking for an LCA)."""
    kinds = {"self": 0, "ancestor": 0, "branch": 0, "cross": 0}
    for a, b in pairs:
        want = _walk_lca(td, a, b)
        if want is None:
            assert td.root_of[a] != td.root_of[b], (a, b)
            kinds["cross"] += 1
            continue
        assert td.root_of[a] == td.root_of[b], (a, b)
        assert td.lca(a, b) == want, (a, b)
        kinds["self" if a == b else "ancestor" if want in (a, b) else "branch"] += 1
    return kinds


def _forest():
    """Five components (one an isolated vertex) in one graph; building it
    gives a forest of five trees."""
    g = Graph(43)
    off = 0
    for k, size in enumerate([12, 7, 1, 20, 3]):
        part = random_connected(size, size // 3, seed=k) if size > 1 else Graph(1)
        for u, v, w in part.edges():
            g.add_edge(off + u, off + v, w)
        off += size
    return g


def test_lca_equals_parent_walk_on_a_forest():
    """Every pair of a five-tree forest: self pairs, ancestor pairs,
    branching pairs and pairs across trees, which ``h2h_query`` answers
    INF through the ``root_of`` check."""
    g = _forest()
    td = build_treedec(g)
    assert len(td.roots) == 5
    kinds = _assert_lca_pairs(td, [(a, b) for a in range(g.n) for b in range(g.n)])
    assert min(kinds.values()) > 0, kinds
    dis = build_labels(td)
    for a in range(g.n):
        for b in range(g.n):
            if td.root_of[a] != td.root_of[b]:
                assert h2h_query(td, dis, a, b) == math.inf


def test_lca_equals_parent_walk_on_fla_trees():
    """10k random pairs of FLA's PostMHL tree, PMHL's overlay tree and
    every PMHL partition and post-boundary tree (pairs of the
    partition's vertices in PMHL's two forests), and 10k pairs across
    the forests' trees."""
    spec = DATASETS["FLA"]
    g, coords = spec.build()
    pm = PMHLIndex(g.copy(), spec.k, coords)
    post = PostMHLIndex(g.copy(), tau=spec.tau, k_e=spec.k_e)
    cases = [(post.td, np.arange(post.td.n)), (pm.td_o, np.arange(pm.td_o.n))]
    cases += [(td, np.array(vs)) for td in (pm.td, pm.td_post) for vs in pm.part.parts]
    rng = np.random.default_rng(16)
    for td, vs in cases:
        kinds = _assert_lca_pairs(td, vs[rng.integers(0, len(vs), (10_000, 2))].tolist())
        assert kinds["ancestor"] and kinds["branch"], kinds
    for td in (pm.td, pm.td_post):
        kinds = _assert_lca_pairs(td, rng.integers(0, td.n, (10_000, 2)).tolist())
        assert kinds["cross"], kinds


def test_lemma4_fixed_order_reproduces_mde(td_case):
    """Rebuilding with the recorded order gives identical shortcuts."""
    g, td, _ = td_case
    td2 = build_treedec(g, fixed_order=td.order)
    for v in range(td.n):
        assert td2.neigh[v] == td.neigh[v]
        assert np.allclose(td2.sc[v], td.sc[v])


def _mask(n, vs):
    m = np.zeros(n, dtype=bool)
    m[list(vs)] = True
    return m


def _boundary_first(g, forced):
    """``boundary_residual`` on ``forced`` and the boundary-first tree:
    phase A's contraction resumed with ``forced`` in ascending vertex id."""
    order, residual = boundary_residual(g, _mask(g.n, forced))
    return finish_boundary_first(contract_nonboundary(g, _mask(g.n, forced)), [sorted(forced)]), order, residual


def _assert_same_tree(a, b):
    assert a.order == b.order and a.neigh == b.neigh
    for f in ("flat", "base", "depth", "sup_ptr", "sup_a", "sup_b", "dep_ptr", "dep"):
        assert np.array_equal(getattr(a, f), getattr(b, f)), f


@pytest.mark.parametrize("seed, forced", [(3, {0, 1, 2, 3, 4}), (4, set(range(0, 70, 5)))])
def test_resumed_tree_equals_fixed_order_build(seed, forced):
    """Where the boundary chain already holds every boundary pair, the
    resumed tree is bit for bit the one-pass build under its order."""
    g, _, _ = small_case(seed)
    td, order, _ = _boundary_first(g, forced)
    _assert_same_tree(td, build_treedec(g, fixed_order=order + sorted(forced)))


def test_boundary_first_order(td_case):
    g, _, _ = td_case
    forced = {0, 1, 2, 3, 4}
    td, order, _ = _boundary_first(g, forced)
    assert sorted(order) == [v for v in range(g.n) if v not in forced]
    max_free = max(td.rank[v] for v in range(g.n) if v not in forced)
    assert all(td.rank[v] > max_free for v in forced)
    assert td.order[-len(forced):] == [0, 1, 2, 3, 4]


def test_residual_snapshot_matches_recompute():
    g, _, _ = small_case(4)
    forced = set(range(0, g.n, 5))
    td, _, residual = _boundary_first(g, forced)
    assert residual
    pos = np.array([position(td, a, b) for a, b in residual], dtype=np.int64)
    got = support_min(td, pos, skip=_mask(g.n, forced))
    assert got.tolist() == list(residual.values())


def _interior_dijkstra(g, s, boundary):
    """Distances from ``s`` over paths whose interior vertices are all
    non-boundary: boundary vertices other than ``s`` are settled but not
    expanded."""
    dist = {s: 0.0}
    done = set()
    heap = [(0.0, s)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v != s and v in boundary:
            continue
        for u, w in g.adj[v].items():
            if d + w < dist.get(u, math.inf):
                dist[u] = d + w
                heapq.heappush(heap, (d + w, u))
    return dist


def _residual_cases():
    """(graph, boundary): every 3rd vertex of the small and random cases
    and the partitions of a road network with their real boundaries."""
    out = [(g, set(range(0, g.n, 3))) for g in [small_case(4)[0], *(random_connected(*c) for c in CASES)]]
    g, coords = road_network(24, 5, seed=6)
    part = partition_graph(g, 4, coords)
    for pid in range(part.k):
        gl, loc = g.subgraph(part.parts[pid])
        out.append((gl, {loc[b] for b in part.boundary[pid]}))
    return out


@pytest.mark.parametrize("g, boundary", _residual_cases())
def test_boundary_residual_is_interior_shortest_paths(g, boundary):
    """Theorem 2's residual edge (a, b) exists exactly when some a-b path
    has only non-boundary interior vertices, and its weight is the
    shortest such path (an independent Dijkstra oracle)."""
    order, residual = boundary_residual(g, _mask(g.n, boundary))
    assert sorted(order) == [v for v in range(g.n) if v not in boundary]
    want = {}
    for a in sorted(boundary):
        dist = _interior_dijkstra(g, a, boundary)
        want.update({(a, b): dist[b] for b in sorted(boundary) if a < b and b in dist})
    assert residual.keys() == want.keys()
    for pair, w in residual.items():
        assert w == pytest.approx(want[pair], rel=1e-12), pair


def _bridged_boundary():
    """Boundary {0, 1, 2}: 0 and 1 are joined only through 2, which is
    contracted after both, so the order [0, 1, 2] leaves no 0-1 shortcut
    unless the boundary is completed."""
    g = Graph(5)
    for a, b, w in [(0, 3, 1.0), (3, 2, 2.0), (1, 4, 1.0), (4, 2, 3.0)]:
        g.add_edge(a, b, w)
    return g, {0, 1, 2}


def test_plain_boundary_first_build_misses_a_pair():
    g, boundary = _bridged_boundary()
    order, residual = boundary_residual(g, _mask(g.n, boundary))
    assert residual == {(0, 2): 3.0, (1, 2): 4.0}
    td = build_treedec(g, fixed_order=order + [0, 1, 2])
    assert 1 not in td.nidx[0]


@pytest.mark.parametrize("g, boundary", [_bridged_boundary(), *_residual_cases()])
def test_resumed_tree_completes_boundary_chain(g, boundary):
    """Every boundary pair is a shortcut of the resumed tree, with base
    INF where the graph has no such edge, and the tree is the one-pass
    build of the graph plus an INF-weight boundary clique. Distances are
    unchanged."""
    bs = sorted(boundary)
    order, _ = boundary_residual(g, _mask(g.n, boundary))
    td = finish_boundary_first(contract_nonboundary(g, _mask(g.n, boundary)), [bs])
    clique = g.copy()
    for i, a in enumerate(bs):
        for b in bs[i + 1 :]:
            assert td.base[position(td, a, b)] == g.adj[a].get(b, math.inf)
            clique.add_edge(a, b, math.inf)  # min-merge: keeps an existing edge
    _assert_same_tree(td, build_treedec(clique, fixed_order=order + bs))
    dis = build_labels(td)
    for s, want in _interior_dijkstra(g, bs[0], set()).items():
        assert h2h_query(td, dis, bs[0], s) == want, s


def test_support_min_skip_matches_brute_force():
    """``skip`` masks contributors of the same gather: every pair
    recomputed in full, then with ``skip``, gives the brute-force min
    over its contributors both times, and leaves ``flat`` as it was."""
    g, _, _ = small_case(4)
    forced = set(range(0, g.n, 5))
    td, _, _ = _boundary_first(g, forced)
    contrib = contributors(td)
    pairs = list(contrib)
    pos = np.array([position(td, a, b) for a, b in pairs], dtype=np.int64)
    flat = td.flat.copy()
    full = support_min(td, pos)
    masked = support_min(td, pos, skip=_mask(g.n, forced))
    assert np.array_equal(td.flat, flat)
    mixed = 0
    for (a, b), f, m in zip(pairs, full.tolist(), masked.tolist()):
        assert f == recompute(td, g, contrib, a, b)
        assert m == recompute(td, g, contrib, a, b, exclude=forced)
        xs = contrib[(a, b)]
        mixed += 0 < sum(x in forced for x in xs) < len(xs)
    assert mixed > 0


def _trees():
    g3, _, _ = small_case(3)
    g4, _, _ = small_case(4)
    out = [build_treedec(g3), _boundary_first(g4, set(range(0, g4.n, 5)))[0]]
    out += [build_treedec(random_connected(n, extra, seed)) for n, extra, seed in CASES]
    return out


@pytest.mark.parametrize("td", _trees())
def test_support_tables_match_brute_force(td):
    """Each position's support is {x : a, b ∈ X(x).N} as pairs of
    positions (sc(x, a), sc(x, b)); each position's dependents are the
    other pairs of its row."""
    sup = {p: set() for p in range(len(td.flat))}
    dep = {q: set() for q in range(len(td.flat))}
    for x in range(td.n):
        nb = td.neigh[x]
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                p = position(td, nb[i], nb[j])
                qa, qb = position(td, x, nb[i]), position(td, x, nb[j])
                sup[p].add(frozenset((qa, qb)))
                dep[qa].add(p)
                dep[qb].add(p)
    for p in range(len(td.flat)):
        e = range(td.sup_ptr[p], td.sup_ptr[p + 1])
        got = [frozenset((int(td.sup_a[k]), int(td.sup_b[k]))) for k in e]
        assert len(got) == len(sup[p]) and set(got) == sup[p], p
        d = td.dep[td.dep_ptr[p] : td.dep_ptr[p + 1]].tolist()
        assert len(d) == len(dep[p]) and set(d) == dep[p], p
    for v in range(td.n):
        for k, u in enumerate(td.neigh[v]):
            p = td.flat_off[v] + k
            assert (td.own[p], td.nbr[p], td.pdepth[p]) == (v, u, td.depth[v])


@pytest.mark.parametrize("td", _trees())
def test_dependents_strictly_shallower(td):
    for q in range(len(td.flat)):
        for p in td.dep[td.dep_ptr[q] : td.dep_ptr[q + 1]].tolist():
            assert td.depth[td.own[p]] < td.depth[td.own[q]]


def test_flat_storage_views(td_case):
    _, td, _ = td_case
    v = max(range(td.n), key=lambda x: len(td.neigh[x]))
    old = td.flat[td.flat_off[v]]
    td.sc[v][0] = old + 1.0
    assert td.flat[td.flat_off[v]] == old + 1.0
    td.sc[v][0] = old


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_update_shortcuts_equals_rebuild(seed):
    """After weight updates, maintained shortcuts == from-scratch ones.
    The sweep runs before the graph sees the batch: it reads no graph."""
    g, _, _ = small_case(seed)
    g = g.copy()  # never mutate the cached fixture graph
    td = build_treedec(g)
    for batch in update_batches(g, batches=3, volume=25, seed=seed + 50):
        update_shortcuts(td, batch)
        g.apply_updates(batch)
        ref = build_treedec(g, fixed_order=td.order)
        for v in range(td.n):
            assert np.allclose(td.sc[v], ref.sc[v]), v


def _pairs(td, p):
    return set(zip(td.own[p].tolist(), td.nbr[p].tolist()))


def test_update_shortcuts_subset_with_escape():
    """Partition-restricted sweep + a sweep seeded with its escaped dirt
    == full pass; the escaped positions are the reference's."""
    g, _, _ = small_case(5)
    g = g.copy()  # never mutate the cached fixture graph
    td = build_treedec(g)
    ref = build_treedec(g, fixed_order=td.order)
    contrib = contributors(ref)
    batch = update_batches(g, batches=1, volume=30, seed=77)[0]
    g.apply_updates(batch)
    # restrict to the lower half of the hierarchy (closed under tree
    # descendants: they have lower rank); the rest escapes
    low = {v for v in range(g.n) if td.rank[v] < g.n // 2}
    low_ups = [e for e in batch if min(td.rank[e[0]], td.rank[e[1]]) < g.n // 2]
    hi_ups = [e for e in batch if e not in low_ups]
    res = update_shortcuts(td, low_ups, subset=_mask(g.n, low))
    rr = reference_update(ref, g, contrib, [(u, v) for u, v, _ in low_ups], subset=low)
    assert len(res.escaped)
    assert _pairs(td, res.escaped) == {(o, ref.neigh[o][i]) for o, idxs in rr.escaped.items() for i in idxs}
    update_shortcuts(td, hi_ups, seed=[res.escaped])
    reference_update(ref, g, contrib, [(u, v) for u, v, _ in hi_ups], seed_dirty=rr.escaped)
    fresh = build_treedec(g, fixed_order=td.order)
    assert np.array_equal(td.flat, fresh.flat)
    assert np.array_equal(td.flat, ref.flat)


def _batches(g, mode, rnd, count=4, volume=20):
    """``count`` batches of distinct edges, each weight doubled
    (``inc``), halved (``dec``) or either at random (``mixed``). Lazy:
    each batch reads the weights left by the batches applied before it."""
    for _ in range(count):
        edges = rnd.sample([(u, v) for u, v, _ in g.edges()], volume)
        batch = []
        for u, v in edges:
            up = mode == "inc" or (mode == "mixed" and rnd.random() < 0.5)
            batch.append((u, v, g.adj[u][v] * (2.0 if up else 0.5)))
        yield batch


GRAPHS = [("random", c) for c in CASES] + [("small", s) for s in (0, 3)]


@pytest.mark.parametrize("mode", ["inc", "dec", "mixed"])
@pytest.mark.parametrize("kind,arg", GRAPHS)
def test_sweep_equals_reference_and_rebuild(kind, arg, mode):
    """After every increase-only, decrease-only or mixed batch, the sweep
    leaves ``flat`` bit-identical to the per-pair reference kernel and to
    a fresh build in the same order, and reports the same work. The
    sweep runs before the graph sees the batch: it reads no graph; the
    reference kernel, the oracle, reads the updated graph."""
    g = random_connected(*arg) if kind == "random" else small_case(arg)[0].copy()
    td = build_treedec(g)
    ref = build_treedec(g, fixed_order=td.order)
    contrib = contributors(ref)
    rnd = random.Random(f"{kind}{arg}{mode}")
    for batch in _batches(g, mode, rnd, volume=min(20, g.m // 2)):
        res = update_shortcuts(td, batch)
        g.apply_updates(batch)
        rr = reference_update(ref, g, contrib, [(u, v) for u, v, _ in batch])
        fresh = build_treedec(g, fixed_order=td.order)
        assert np.array_equal(td.flat, ref.flat)
        assert np.array_equal(td.flat, fresh.flat)
        assert np.array_equal(td.base, fresh.base)
        assert _pairs(td, res.changed_pairs) == rr.changed_pairs
        assert _pairs(td, res.recomputed_pairs) == rr.recomputed_pairs
        assert res.affected == rr.affected
        assert len(res.recomputed_pairs) == len(rr.recomputed_pairs)


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
        assert np.array_equal(restricted[v], full[v])


def _subtree(td, r):
    out, stack = [], [r]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(td.children[v])
    return out


def test_build_labels_window_columns():
    """``col0`` recomputes only the columns [col0, depth) of each row of
    the subtree, keeps the others from the old row, and writes fresh rows."""
    g, _, _ = small_case(6)
    td = build_treedec(g)
    dis = build_labels(td)
    r = max((v for v in range(g.n) if td.depth[v] >= 3), key=lambda v: len(td.children[v]))
    c = int(td.depth[r])
    sub = _subtree(td, r)
    seeded = list(dis)
    for v in sub:
        seeded[v] = dis[v].copy()
        seeded[v][c:] = -1.0
    held = {v: seeded[v] for v in sub}
    build_labels(td, roots=[r], dis=seeded, col0=c)
    for v in sub:
        assert np.array_equal(seeded[v], dis[v]), v
        assert seeded[v] is not held[v] and (held[v][c:] == -1.0).all()


LABEL_GRAPHS = [("random", c) for c in CASES] + [("small", 0), ("road", (40, 20, 11))]


def _label_graph(kind, arg):
    if kind == "random":
        return random_connected(*arg)
    if kind == "small":
        return small_case(arg)[0].copy()
    w, h, seed = arg
    return road_network(w, h, seed=seed)[0]


def _same_rows(got, want):
    assert len(got) == len(want)
    for v, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), v
        assert a is None or np.array_equal(a, b), v


@pytest.mark.parametrize("kind,arg", LABEL_GRAPHS)
def test_build_labels_equals_reference(kind, arg):
    """Every row of ``build_labels`` equals the per-neighbour reference
    kernel's, bit for bit, in each mode: full build, ``active=`` on an
    upward-closed set, ``roots=`` subtrees after an update batch, and
    ``col0=`` windows whose rows hold junk in the window columns."""
    g = _label_graph(kind, arg)
    td = build_treedec(g)
    dis = build_labels(td)
    _same_rows(dis, reference_labels(td))

    top = {v for v in range(g.n) if td.rank[v] >= g.n - g.n // 3}
    for v in list(top):
        top.update(td.ancestors(v))
    _same_rows(build_labels(td, active=top), reference_labels(td, active=top))

    rnd = random.Random(f"labels{kind}{arg}")
    batch = next(_batches(g, "mixed", rnd, count=1, volume=min(20, g.m // 2)))
    roots = prune_to_subtree_roots(td, update_shortcuts(td, batch).affected)
    assert roots
    got = build_labels(td, roots=roots, dis=list(dis))
    _same_rows(got, reference_labels(td, roots=roots, dis=list(dis)))
    _same_rows(got, build_labels(td))
    dis = got

    deep = [v for v in range(g.n) if td.depth[v] >= 2]
    windows = [([r], rnd.randint(1, int(td.depth[r]))) for r in rnd.sample(deep, min(20, len(deep)))]
    c = int(np.median(td.depth))
    windows.append(([v for v in range(g.n) if td.depth[v] == c], c))
    for roots, c in windows:
        seeded = list(dis)
        for v in (v for r in roots for v in _subtree(td, r)):
            seeded[v] = dis[v].copy()
            seeded[v][c : td.depth[v]] = rnd.uniform(-1e3, 1e3)
        got = build_labels(td, roots=roots, dis=list(seeded), col0=c)
        _same_rows(got, reference_labels(td, roots=roots, dis=list(seeded), col0=c))
        _same_rows(got, dis)


def test_h2h_query_ancestor_cases():
    g, _, fw = small_case(7)
    td = build_treedec(g)
    dis = build_labels(td)
    # query between a vertex and one of its ancestors hits the fast path
    v = max(range(g.n), key=lambda x: td.depth[x])
    for a in td.ancestors(v)[:-1]:
        assert h2h_query(td, dis, v, a) == pytest.approx(fw[v][a])
        assert h2h_query(td, dis, a, v) == pytest.approx(fw[v][a])
