"""Measurement runner + table generators (smoke-level, small configs)."""
import math

import pytest

from repro.experiments.runner import AlgoResult, fmt_table, measure_dataset
from repro.experiments.exp_tables import t1_rows
from repro.experiments.harness import QueryStats, mean_walls, pmhl_stage_walls

# Stage names of every algorithm, in the runner's fixed output order.
STAGES = {
    "BiDij": ["bidij"],
    "DCH": ["bidij", "ch"],
    "DH2H": ["bidij", "h2h"],
    "TOAIN": ["bidij", "toain"],
    "N-CH-P": ["bidij", "pch"],
    "P-TD-P": ["bidij", "post"],
    "PMHL": ["bidij", "pch", "noboundary", "postboundary", "cross"],
    "PostMHL": ["bidij", "pch", "postboundary", "h2h"],
}


@pytest.fixture(scope="module")
def ny_records():
    return measure_dataset("NY", ["BiDij", "DCH", "DH2H", "PMHL", "PostMHL"],
                           n_batches=2, n_queries=30)


@pytest.fixture(scope="module")
def all_records():
    return measure_dataset("NY", n_batches=2, n_queries=10)


def test_records_present(ny_records):
    assert set(ny_records) == {"BiDij", "DCH", "DH2H", "PMHL", "PostMHL"}


def test_stage_orderings(ny_records):
    for a, r in ny_records.items():
        assert r.stage_names[-1] in r.stage_q
        assert r.walls == sorted(r.walls)


def test_hop_indexes_much_faster_than_search(ny_records):
    """The core premise: hub labeling ≫ search-based query speed."""
    assert ny_records["DH2H"].tq * 20 < ny_records["BiDij"].tq
    assert ny_records["PostMHL"].tq * 20 < ny_records["BiDij"].tq


def test_stages_partition_interval(ny_records):
    for a, r in ny_records.items():
        st = r.stages_for(10.0)
        assert sum(s.duration for s in st) == pytest.approx(10.0)
        assert all(s.duration >= 0 for s in st)


def _throughput_report(lam, records):
    """Each algorithm's λ, stage walls and per-stage (mean, var) query
    seconds, so a failed ranking names the stage that moved."""
    return "\n".join(
        f"{a}: lambda={lam[a]:.0f} walls=[{', '.join(f'{w:.4g}' for w in r.walls)}] "
        + " ".join(f"{n}=({q.mean:.3g}, {q.var:.3g})" for n, q in r.stage_q.items())
        for a, r in records.items()
    )


def test_throughput_positive_and_ranked(ny_records):
    lam = {a: r.throughput(10.0, 0.1) for a, r in ny_records.items()}
    why = _throughput_report(lam, ny_records)
    assert all(v > 0 for v in lam.values()), why
    # headline result: the multi-stage PSP indexes beat the search baselines
    assert lam["PostMHL"] > lam["DCH"] > lam["BiDij"], why
    assert lam["PMHL"] > lam["DCH"], why


def test_update_exceeds_interval_gives_zero(ny_records):
    r = ny_records["DH2H"]
    assert r.throughput(r.tu * 0.5, 0.1) == 0.0


def test_stages_for_degenerate_interval():
    q = QueryStats(mean=0.01, var=0.0, n=1)
    r = AlgoResult("X", 0.0, 0, {"q": q}, [5.0], ["q", "q"])
    st = r.stages_for(2.0)  # wall beyond dt: single truncated stage
    assert sum(s.duration for s in st) == pytest.approx(2.0)


def test_fmt_table_renders():
    rows = [dict(a=1, b=0.5), dict(a=22, b=None)]
    text = fmt_table(rows, ["a", "b"], "title")
    assert "title" in text and "22" in text and "-" in text


def test_t1_rows_cover_registry():
    rows = t1_rows()
    assert len(rows) == 8
    assert all(r["paper_V"] > 100 * r["V"] for r in rows)


def test_algo_table_order_and_stage_names(all_records):
    assert list(all_records) == list(STAGES)
    for a, r in all_records.items():
        assert r.stage_names == list(r.stage_q) == STAGES[a]
        assert len(r.walls) == len(r.stage_names) - 1
        assert r.walls_at(16) == r.walls  # NY runs at the default p=16


def test_psp_baseline_walls_are_pmhl_slices(all_records):
    for a, sl in (("N-CH-P", slice(0, 1)), ("P-TD-P", slice(2, 3))):
        r = all_records[a]
        assert len(r.raw_batches) == 2
        for p in (1, 16):
            assert r.walls_at(p) == mean_walls([pmhl_stage_walls(t, p)[sl] for t in r.raw_batches])


def test_walls_at_does_not_increase_with_p(all_records):
    for r in all_records.values():
        walls = [r.walls_at(p) for p in (1, 2, 4, 8, 16, 64, 160)]
        for fewer, more in zip(walls, walls[1:]):
            assert all(b <= a + 1e-12 for a, b in zip(fewer, more))
