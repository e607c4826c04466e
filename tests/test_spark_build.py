"""Distributed per-partition construction == single-process reference."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.generator import road_network
from repro.partition.partitioner import partition_graph
from repro.sparkdist.parallel_build import (
    local_residuals,
    partition_edges_pdf,
    spark_partition_labels,
    spark_residuals,
)
from repro.core.treedec import boundary_residual, build_labels, build_treedec
from repro.sparkdist.labels_df import h2h_label_rows


@pytest.fixture(scope="module")
def case():
    g, coords = road_network(24, 5, seed=6)
    return g, partition_graph(g, 4, coords)


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(pdf.columns)
    return pdf[cols].sort_values(cols).reset_index(drop=True)


def test_partition_edges_pdf_counts(case):
    g, part = case
    pdf = partition_edges_pdf(g, part)
    assert len(pdf) + len(part.inter_edges) == g.m


def test_spark_residuals_match_local(spark, case):
    """Theorem-2 overlay shortcuts: distributed == local, exactly."""
    g, part = case
    got = _canon(spark_residuals(spark, g, part).toPandas())
    ref = _canon(local_residuals(g, part))
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_spark_partition_labels_match_local(spark, case):
    g, part = case
    got = _canon(spark_partition_labels(spark, g, part).toPandas())
    refs = []
    for pid in range(part.k):
        vertices = part.parts[pid]
        gl, loc = g.subgraph(vertices)
        bset = {loc[b] for b in part.boundary[pid]}
        order, _ = boundary_residual(gl, np.isin(np.arange(gl.n), list(bset)))
        td = build_treedec(gl, fixed_order=order + sorted(bset))
        rows = h2h_label_rows(td, build_labels(td), id_map=vertices)
        rows.insert(0, "pid", pid)
        refs.append(rows)
    ref = _canon(pd.concat(refs, ignore_index=True))
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)
