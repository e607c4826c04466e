"""Benchmark of the PMHL and PostMHL indexes.

Run one workload per process from the repository root::

    python3 perfbench/run.py --workload fla-read --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1``
wraps the layer functions with spans and reports the per-layer metrics.
"""
