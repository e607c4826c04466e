"""Job entrypoints run end-to-end (small dataset subsets)."""
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_job(name: str, *args: str) -> str:
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "jobs", name), *args],
        cwd=os.path.join(REPO, "jobs"),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


@pytest.mark.slow
def test_exp4_job_runs(tmp_path):
    text = run_job("exp4_qps_evolution.py", "--datasets", "NY", "--out", str(tmp_path))
    assert "QPS evolution" in text
    assert "PostMHL" in text
    assert {p.name for p in tmp_path.iterdir()} == {"t5_qps_evolution.json", "t5_qps_evolution.txt"}


@pytest.mark.slow
def test_exp8_job_runs(tmp_path):
    text = run_job("exp8_bandwidth.py", "--datasets", "NY", "--out", str(tmp_path))
    assert "bandwidth" in text and "overlay_n" in text
    assert {p.name for p in tmp_path.iterdir()} == {"t9_bandwidth.json", "t9_bandwidth.txt"}
