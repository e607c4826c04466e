"""T10: distributed per-partition build + 2-hop label-join query engine.

spark-submit entrypoint exercising the Spark dataflow layer on a real
registry dataset: fan out the Theorem-2 residual computation and the
partition label builds via ``applyInPandas``, then answer a large query
batch with the Catalyst 2-hop join, reporting wall times and QPS.
"""
from __future__ import annotations

import argparse
import time

from job_util import emit


def main(spark, dataset: str = "FLA", n_queries: int = 2000) -> list[dict]:
    from repro.graphs.generator import DATASETS, random_queries
    from repro.partition.partitioner import partition_graph
    from repro.core.h2h import H2HIndex
    from repro.sparkdist.labels_df import h2h_label_rows, spark_batch_query
    from repro.sparkdist.parallel_build import local_residuals, spark_residuals

    spec = DATASETS[dataset]
    graph, coords = spec.build()
    part = partition_graph(graph, spec.k, coords)

    t0 = time.perf_counter()
    n_spark = spark_residuals(spark, graph, part).count()
    t_spark = time.perf_counter() - t0
    t0 = time.perf_counter()
    n_local = len(local_residuals(graph, part))
    t_local = time.perf_counter() - t0

    idx = H2HIndex(graph.copy())
    rows = h2h_label_rows(idx.td, idx.dis)
    pairs = random_queries(graph.n, n_queries)
    t0 = time.perf_counter()
    n_answered = spark_batch_query(spark, rows, pairs).count()
    t_batch = time.perf_counter() - t0

    out = [
        dict(step="residual_fanout_spark", n=n_spark, seconds=t_spark),
        dict(step="residual_local", n=n_local, seconds=t_local),
        dict(step="label_join_batch_query", n=n_answered, seconds=t_batch,
             qps=n_answered / t_batch),
    ]
    return out


if __name__ == "__main__":
    from pyspark.sql import SparkSession

    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="FLA")
    ap.add_argument("--queries", type=int, default=2000)
    args = ap.parse_args()
    spark = SparkSession.builder.appName("repro-spark-build").getOrCreate()
    emit(main(spark, args.dataset, args.queries), ["step", "n", "seconds", "qps"],
         "T10 — distributed build & batch query engine", "t10_spark_build")
    spark.stop()
