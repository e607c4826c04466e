"""Unit tests for the dynamic graph substrate."""
import pytest

from repro.graphs.graph import Graph


def make() -> Graph:
    return Graph(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.5), (0, 3, 10.0)])


def test_edge_count():
    assert make().m == 4


def test_symmetry():
    g = make()
    for u, v, w in g.edges():
        assert g.adj[v][u] == w


def test_min_merge_parallel_edges():
    g = Graph(2, [(0, 1, 5.0), (0, 1, 3.0), (0, 1, 7.0)])
    assert g.weight(0, 1) == 3.0
    assert g.m == 1


def test_self_loop_ignored():
    g = Graph(2, [(0, 0, 1.0), (0, 1, 2.0)])
    assert g.m == 1


def test_set_weight_updates_both_directions():
    g = make()
    g.set_weight(1, 2, 9.0)
    assert g.adj[1][2] == 9.0 and g.adj[2][1] == 9.0


def test_set_weight_missing_edge_raises():
    with pytest.raises(KeyError):
        make().set_weight(0, 2, 1.0)


def test_apply_updates_batch():
    g = make()
    applied = g.apply_updates([(0, 1, 4.0), (2, 3, 8.0)])
    assert len(applied) == 2
    assert g.weight(0, 1) == 4.0 and g.weight(2, 3) == 8.0


def test_copy_is_independent():
    g = make()
    c = g.copy()
    c.set_weight(0, 1, 99.0)
    assert g.weight(0, 1) == 2.0


def test_degree():
    g = make()
    assert g.degree(0) == 2 and g.degree(1) == 2


def test_edges_yielded_once():
    es = list(make().edges())
    assert len(es) == 4
    assert all(u < v for u, v, _ in es)


def test_subgraph_intra_edges_only():
    g = make()
    sg, loc = g.subgraph([0, 1, 2])
    assert sg.n == 3
    assert sg.m == 2  # (0,1) and (1,2); (0,3)/(2,3) dropped
    assert sg.weight(loc[0], loc[1]) == 2.0


def test_subgraph_mapping_roundtrip():
    g = make()
    sg, loc = g.subgraph([2, 3])
    assert sg.weight(loc[2], loc[3]) == 1.5


def test_has_edge():
    g = make()
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)


@pytest.mark.parametrize(
    "bad, exc",
    [
        ((0, 2, 1.0), KeyError),          # unknown edge
        ((1, 2, 0.0), ValueError),        # zero weight
        ((1, 2, -3.0), ValueError),       # negative weight
        ((1, 2, float("nan")), ValueError),
        ((1, 2, float("inf")), ValueError),
    ],
)
def test_apply_updates_rejects_bad_batch_atomically(bad, exc):
    g = make()
    before = [dict(a) for a in g.adj]
    with pytest.raises(exc):
        g.apply_updates([(0, 1, 4.0), bad, (2, 3, 8.0)])  # bad update mid-batch
    assert g.adj == before
