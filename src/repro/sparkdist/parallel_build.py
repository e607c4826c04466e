"""Partition-parallel index construction as Spark dataflow.

The paper parallelizes PSP index construction/maintenance with one
thread per partition. The distributed counterpart: ship each partition's
edges to a Spark task via ``groupBy("pid").applyInPandas`` and run the
same NumPy contraction kernel inside the task. Two fan-outs are
provided:

- ``spark_residuals``: phase A of PMHL — contract each partition's
  non-boundary vertices (``boundary_residual``, no tree is built) and
  emit the residual boundary shortcuts that form the overlay graph
  (Theorem 2);
- ``spark_partition_labels``: build each partition's boundary-first MHL
  (phase A's contraction, resumed with the boundary in ascending vertex
  id: each partition is contracted once) and emit its H2H labels as flat
  (pid, v, hub, d) rows.

Both return DataFrames checked in tests against the single-process
builders, so the distributed path and the local path cannot drift.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.graph import Graph
from repro.core.treedec import boundary_residual, build_labels, contract_nonboundary, finish_boundary_first
from repro.partition.partitioner import Partition
from repro.sparkdist.labels_df import h2h_label_rows

RESIDUAL_SCHEMA = "pid long, u long, v long, w double"
LABEL_SCHEMA = "pid long, v long, hub long, d double"


def partition_edges_pdf(graph: Graph, part: Partition) -> pd.DataFrame:
    """Intra-partition edges tagged with their partition id."""
    rows = [
        (int(part.pid[u]), u, v, w)
        for u, v, w in graph.edges()
        if part.pid[u] == part.pid[v]
    ]
    return pd.DataFrame(rows, columns=["pid", "u", "v", "w"])


def _local_unit(pdf: pd.DataFrame, part: Partition):
    """Rebuild one partition's local graph inside a Spark task."""
    pid = int(pdf["pid"].iloc[0])
    vertices = part.parts[pid]
    loc = {g: i for i, g in enumerate(vertices)}
    gl = Graph(len(vertices))
    for u, v, w in zip(pdf["u"], pdf["v"], pdf["w"]):
        gl.add_edge(loc[int(u)], loc[int(v)], float(w))
    return pid, vertices, gl, np.isin(np.arange(gl.n), [loc[b] for b in part.boundary[pid]])


def spark_residuals(spark: SparkSession, graph: Graph, part: Partition) -> DataFrame:
    """Residual boundary shortcuts per partition, computed distributedly."""

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        pid, vertices, gl, bmask = _local_unit(pdf, part)
        _, residual = boundary_residual(gl, bmask)
        rows = [(pid, vertices[a], vertices[b], w) for (a, b), w in residual.items()]
        return pd.DataFrame(rows, columns=["pid", "u", "v", "w"])

    edges = spark.createDataFrame(partition_edges_pdf(graph, part))
    return edges.groupBy("pid").applyInPandas(fn, RESIDUAL_SCHEMA)


def local_residuals(graph: Graph, part: Partition) -> pd.DataFrame:
    """Single-process reference for ``spark_residuals``."""
    out = []
    for pid in range(part.k):
        vertices = part.parts[pid]
        gl, loc = graph.subgraph(vertices)
        _, residual = boundary_residual(gl, np.isin(np.arange(gl.n), [loc[b] for b in part.boundary[pid]]))
        for (a, b), w in residual.items():
            out.append((pid, vertices[a], vertices[b], w))
    return pd.DataFrame(out, columns=["pid", "u", "v", "w"])


def spark_partition_labels(spark: SparkSession, graph: Graph, part: Partition) -> DataFrame:
    """Boundary-first partition H2H labels, one Spark task per partition."""

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        pid, vertices, gl, bmask = _local_unit(pdf, part)
        td = finish_boundary_first(contract_nonboundary(gl, bmask), [np.flatnonzero(bmask).tolist()])
        dis = build_labels(td)
        rows = h2h_label_rows(td, dis, id_map=vertices)
        rows.insert(0, "pid", pid)
        return rows

    edges = spark.createDataFrame(partition_edges_pdf(graph, part))
    return edges.groupBy("pid").applyInPandas(fn, LABEL_SCHEMA)
