"""PMHL's partition trees as one forest over global vertex ids.

PMHL contracts the graph of intra-partition edges once: MDE over the
non-boundary vertices of every partition together, then each boundary
in its overlay order. Each partition's component(s) of that forest must
be exactly the partition built alone: its subgraph in local ids, with
its boundary joined into an INF clique (as phase B joins it), eliminated
under its own boundary-first order, mapped to global ids. That covers
the elimination order, neighbour rows, shortcuts, base weights, depths,
roots and labels.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.treedec import boundary_residual, build_labels, build_treedec
from repro.graphs.generator import DATASETS
from repro.psp.pmhl import PMHLIndex
from tests.util import assert_component_equals, two_components


def _partition_alone(idx: PMHLIndex, u):
    """(tree, elimination order) of partition ``u`` built alone, in local
    ids ``u.vertices[l]``."""
    gl, loc = idx.graph.subgraph(u.vertices)
    bl = [loc[b] for b in u.b_local]
    order, _ = boundary_residual(gl, np.isin(np.arange(gl.n), bl))
    for i, a in enumerate(bl):
        for b in bl[i + 1 :]:
            gl.add_edge(a, b, math.inf)  # min-merge: keeps an existing edge
    order += bl
    return build_treedec(gl, fixed_order=order), order


def _assert_forest(idx: PMHLIndex) -> None:
    td, pid = idx.td, idx.part.pid
    assert len(td.roots) == sum(len(_partition_alone(idx, u)[0].roots) for u in idx.units)
    for u in idx.units:
        alone, order = _partition_alone(idx, u)
        vs = u.vertices
        assert [v for v in td.order if pid[v] == u.pid] == [vs[l] for l in order], u.pid
        assert sorted(r for r in td.roots if pid[r] == u.pid) == sorted(vs[r] for r in alone.roots), u.pid
        assert all(pid[td.root_of[v]] == u.pid for v in vs), u.pid
        assert_component_equals(td, idx.dis, vs, alone, build_labels(alone))


@pytest.mark.parametrize("name", ["NY", "FLA"])
def test_forest_components_equal_partitions_built_alone(name):
    spec = DATASETS[name]
    g, coords = spec.build()
    idx = PMHLIndex(g, spec.k, coords)
    assert len(idx.td.roots) == spec.k
    _assert_forest(idx)


def test_partition_with_two_trees_equals_its_build_alone():
    """A partition holding a component with no boundary has two trees in
    the forest, as it has built alone."""
    g, coords, n = two_components()
    idx = PMHLIndex(g, 3, coords)
    assert sum(idx.part.pid[r] == idx.part.pid[n] for r in idx.td.roots) == 2
    _assert_forest(idx)
