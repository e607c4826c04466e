"""The Spark layer in a traced run: PostMHL's final labels as a flat table.

``sparkdist.labels_df`` answers query batches with one relational plan
over a ``labels(v, hub, d)`` table. A traced run flattens the kept
PostMHL index with ``h2h_label_rows`` and answers ``BATCHES`` batches of
``BATCH_QUERIES`` pairs with ``batch_query_df`` in a ``local[4]``
session. Every answer is checked against the in-process H2H query, and
the first batch also against DuckDB running ``TWO_HOP_SQL``. The
session's scratch files stay under ``perfbench/out/``, and the JVM has
exited when :func:`spark_pass` returns.
"""
from __future__ import annotations

import math
import os
import shlex
import tempfile
import time
import traceback

import numpy as np

BATCHES = 3  # the first, then warm ones
BATCH_QUERIES = 2_000
SHUFFLE_PARTITIONS = 8


def _session(scratch: str):
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"  # no hsperfdata files in /tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[4] --driver-memory 1g "
        f"--driver-java-options {shlex.quote('-Djava.io.tmpdir=' + scratch)} "
        f"--conf {shlex.quote('spark.local.dir=' + scratch)} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.warehouse.dir", os.path.join(scratch, "warehouse"))
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def _stop(spark) -> None:
    """Stop the session and wait until the JVM process has ended."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        gateway.proc.wait(timeout=60)
    SparkContext._gateway = SparkContext._jvm = None


def spark_pass(index, pairs: list[list[list[int]]], tally, span, scratch: str) -> dict:
    """Run the label table and query batches; returns ``(value, unit, n)``
    metrics. ``pairs`` holds one list of query pairs per batch."""
    from repro.oracle import assert_equivalent
    from repro.sparkdist.labels_df import TWO_HOP_SQL, batch_query_df, h2h_label_rows, queries_pdf

    clock = time.perf_counter
    t0 = clock()
    with span("spark.session"):
        spark = _session(scratch)
    session_s = clock() - t0
    try:
        t0 = clock()
        with span("spark.h2h_label_rows"):
            rows = h2h_label_rows(index.td, index.dis)
        rows_s = clock() - t0
        t0 = clock()
        with span("spark.create_df"):
            labels = spark.createDataFrame(rows).cache()
            labels.count()  # load the table once, so batches only join
        create_s = clock() - t0
        walls = []
        for n, batch in enumerate(pairs):
            qpdf = queries_pdf(batch)
            t0 = clock()
            tally.attempted += len(batch)
            with span("spark.batch_first" if n == 0 else "spark.batch"):
                try:
                    got = batch_query_df(labels, spark.createDataFrame(qpdf)).toPandas()
                except Exception:
                    tally.fail("spark.batch_query_df", traceback.format_exc())
                    return {}
            walls.append(clock() - t0)
            dist = dict(zip(got["qid"].tolist(), got["dist"].tolist()))
            for qid, (s, t) in enumerate(batch):
                want = index.query(s, t)
                if dist.get(qid, math.inf) != want:
                    tally.fail("spark.batch_query_df", f"({s},{t}) = {dist.get(qid)}, h2h_query {want}")
            if n == 0:
                tally.attempted += 1
                try:
                    assert_equivalent(batch_query_df(labels, spark.createDataFrame(qpdf)), TWO_HOP_SQL,
                                      labels=rows, queries=qpdf)
                except Exception:
                    tally.fail("spark≢duckdb", traceback.format_exc())
    finally:
        _stop(spark)
    warm = walls[1:]
    return {
        "sparkdist.session_start_s": (session_s, "s", 1),
        "sparkdist.h2h_label_rows_s": (rows_s, "s", 1),
        "sparkdist.label_rows": (len(rows), "count", 1),
        "sparkdist.create_df_s": (create_s, "s", 1),
        "sparkdist.join_agg_s": (float(np.median(warm)), "s", len(warm)),
        "sparkdist.join_agg_first_s": (walls[0], "s", 1),
    }
