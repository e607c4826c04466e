"""Distributed 2-hop batch query engine: DuckDB-oracle-checked and
validated against the in-process index queries + Dijkstra ground truth."""
import numpy as np
import pytest

from repro.oracle import assert_equivalent
from repro.sparkdist.labels_df import (
    TWO_HOP_SQL,
    batch_query_df,
    h2h_label_rows,
    hub_label_rows,
    queries_pdf,
    spark_batch_query,
)
from repro.core.h2h import H2HIndex
from repro.psp.pmhl import PMHLIndex
from tests.util import pairs_for, small_case


@pytest.fixture(scope="module")
def h2h_case():
    g, _, fw = small_case(0, 16, 5)
    idx = H2HIndex(g.copy())
    return g, fw, h2h_label_rows(idx.td, idx.dis)


def test_label_rows_shape(h2h_case):
    g, _, rows = h2h_case
    assert set(rows.columns) == {"v", "hub", "d"}
    assert rows["v"].nunique() == g.n
    # self-label with distance 0 for every vertex
    zero = rows[(rows.v == rows.hub)]
    assert len(zero) == g.n and (zero.d == 0).all()


def test_spark_batch_query_matches_oracle(spark, h2h_case):
    """The Catalyst 2-hop join plan == DuckDB running TWO_HOP_SQL."""
    g, fw, rows = h2h_case
    pairs = pairs_for(g.n, 40, 3)
    result = spark_batch_query(spark, rows, pairs)
    assert_equivalent(result, TWO_HOP_SQL, labels=rows, queries=queries_pdf(pairs))


def test_spark_batch_query_matches_dijkstra(spark, h2h_case):
    g, fw, rows = h2h_case
    pairs = pairs_for(g.n, 40, 4)
    got = {
        int(r["qid"]): float(r["dist"])
        for r in spark_batch_query(spark, rows, pairs).collect()
    }
    for qid, (s, t) in enumerate(pairs):
        assert got[qid] == pytest.approx(fw[s][t]), (s, t)


def test_pmhl_lstar_labels_on_spark(spark):
    """PMHL's cross-boundary L* hub maps answer cross-partition queries
    distributedly, oracle-checked."""
    g, coords, fw = small_case(1, 20, 5)
    idx = PMHLIndex(g.copy(), 4, coords)
    hubs = {}
    for u in idx.units:
        for v in u.vertices:
            hubs[v] = (u.hubs, idx.lrows[v])
    rows = hub_label_rows(hubs)
    rows = rows[np.isfinite(rows.d)]
    pairs = [
        (s, t)
        for s, t in pairs_for(g.n, 120, 5)
        if idx.part.pid[s] != idx.part.pid[t]
    ][:40]
    result = spark_batch_query(spark, rows, pairs)
    assert_equivalent(result, TWO_HOP_SQL, labels=rows, queries=queries_pdf(pairs))
    got = {int(r["qid"]): float(r["dist"]) for r in result.collect()}
    for qid, (s, t) in enumerate(pairs):
        assert got[qid] == pytest.approx(fw[s][t]), (s, t)


def test_batch_query_df_plan_is_dataframe_only(spark, h2h_case):
    """The plan builds from DataFrame ops (no SQL string needed)."""
    _, _, rows = h2h_case
    labels = spark.createDataFrame(rows)
    queries = spark.createDataFrame(queries_pdf([(0, 10), (3, 7)]))
    out = batch_query_df(labels, queries)
    assert set(out.columns) == {"qid", "dist"}
    assert out.count() == 2
