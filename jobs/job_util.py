"""Shared argument parsing / printing for the table-reproduction jobs.

Each job is a ``spark-submit``-able (or plain ``python``) entrypoint
that regenerates one EXPERIMENTS.md table. Jobs that need Spark build
the session themselves; pure-driver experiments do not start a JVM.
"""
from __future__ import annotations

import argparse
import os
import sys

# Jobs run from any working directory without installing the package:
# put <repo>/src on the path before anything imports ``repro``.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.experiments.runner import RESULTS_DIR, fmt_table, save_results  # noqa: E402


def parse(datasets_default: str, desc: str) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=desc)
    ap.add_argument("--datasets", default=datasets_default,
                    help="comma-separated dataset names from the registry")
    ap.add_argument("--tag", default=None, help="<out>/<tag>.json output name")
    ap.add_argument("--out", default=RESULTS_DIR, help="output directory (default: <repo>/results)")
    return ap.parse_args()


def emit(rows: list[dict], cols: list[str], title: str, tag: str | None, out: str = RESULTS_DIR) -> None:
    text = fmt_table(rows, cols, title)
    print(text)
    if tag:
        print(f"[saved] {save_results(tag, rows, text, out)}")
