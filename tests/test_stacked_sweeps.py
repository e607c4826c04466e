"""One maintenance pass per stage for every partition.

PMHL's U2 and U4 are one ``update_shortcuts`` over a forest and U3 one
label pass; PostMHL's U2 is one sweep over every partition subtree.
After the build and after each of 3 benchmark batches, on NY and FLA
with both benchmark workloads' generators, the index state and every
query stage's answers must be ``==`` those of the per-partition loops
(``tests/sweep_reference.py``), and the stacked calls must report the
union of what the per-partition calls report.

The ``parts`` of a stacked stage are each touched partition's share of
the stage's measured seconds, in proportion to the work the pass did
there; their keys are the partitions the per-partition loops ran.
"""
from __future__ import annotations

import numpy as np
import pytest

import repro.psp.pmhl as pmhl
import repro.psp.postmhl as postmhl
import tests.sweep_reference as reference
from perfbench import adapter
from perfbench.workloads import WORKLOADS, generators
from repro.core.treedec import update_shortcuts
from repro.graphs.generator import DATASETS
from repro.psp.pmhl import PMHLIndex, split_seconds
from repro.psp.postmhl import PostMHLIndex
from tests.util import updated_case


def _rows_equal(a: list, b: list) -> None:
    assert len(a) == len(b)
    for v, (ra, rb) in enumerate(zip(a, b)):
        assert (ra is None) == (rb is None), v
        if ra is not None:
            assert np.array_equal(ra, rb), v


def _trees_equal(ta, tb) -> None:
    assert np.array_equal(ta.flat, tb.flat)
    assert np.array_equal(ta.base, tb.base)


def _assert_pmhl_equal(a: PMHLIndex, b: PMHLIndex) -> None:
    for ta, tb in [(a.td, b.td), (a.td_post, b.td_post), (a.td_o, b.td_o)]:
        _trees_equal(ta, tb)
    for da, db in [(a.dis, b.dis), (a.dis_post, b.dis_post), (a.dis_o, b.dis_o), (a.lrows, b.lrows)]:
        _rows_equal(da, db)
    assert np.array_equal(a.res_pos, b.res_pos) and np.array_equal(a.res_w, b.res_w)
    for ua, ub in zip(a.units, b.units, strict=True):
        for name in ("D", "H", "disB"):
            assert np.array_equal(getattr(ua, name), getattr(ub, name)), (ua.pid, name)
        assert ua.lstar.keys() == ub.lstar.keys()


def _assert_postmhl_equal(a: PostMHLIndex, b: PostMHLIndex) -> None:
    _trees_equal(a.td, b.td)
    for da, db in [(a.dis, b.dis), (a.disB, b.disB), (a.D, b.D), (a.H, b.H)]:
        _rows_equal(da, db)


KINDS = {
    "pmhl": (
        lambda g, spec, coords: PMHLIndex(g, spec.k, coords),
        reference.pmhl_per_partition,
        _assert_pmhl_equal,
        ("query_pch", "query_noboundary", "query_postboundary", "query_cross"),
    ),
    "postmhl": (
        lambda g, spec, coords: PostMHLIndex(g, tau=spec.tau, k_e=spec.k_e),
        reference.postmhl_per_partition,
        _assert_postmhl_equal,
        ("query_pch", "query_postboundary", "query"),
    ),
}


class SweepLog:
    """Every ``update_shortcuts`` call the indexes make, by tree and by
    kind of pass (partition sweep with ``subset``, overlay sweep with
    ``seed``, or plain)."""

    def __init__(self, monkeypatch):
        self.calls: dict[tuple, list] = {}
        for mod in (pmhl, postmhl, reference):
            monkeypatch.setattr(mod, "update_shortcuts", self.wrap)

    def wrap(self, td, changes, *, subset=None, seed=()):
        res = update_shortcuts(td, changes, subset=subset, seed=seed)
        key = (id(td), subset is not None, bool(seed))
        self.calls.setdefault(key, []).append(res)
        return res

    def take(self, ix) -> dict[tuple, tuple]:
        """The union of each pass's results on ``ix``'s trees since the
        last ``take``: the number of calls, affected owners and the
        sorted positions, keyed by tree name and kind of pass."""
        names = {id(getattr(ix, n)): n for n in ("td", "td_post", "td_o") if getattr(ix, n, None) is not None}
        out = {
            (names[key[0]], *key[1:]): (
                len(rs),
                np.array(sorted(set().union(*(r.affected for r in rs)))),
                *(np.unique(np.concatenate([getattr(r, f) for r in rs])) for f in ("recomputed_pairs", "changed_pairs", "escaped")),
            )
            for key, rs in self.calls.items()
        }
        self.calls.clear()
        return out


@pytest.mark.parametrize("workload", ["fla-read", "fla-hotspot"])
@pytest.mark.parametrize("name", ["NY", "FLA"])
@pytest.mark.parametrize("kind", ["pmhl", "postmhl"])
def test_stacked_passes_equal_per_partition_loops(kind, name, workload, monkeypatch):
    make, per_partition, assert_equal, stages = KINDS[kind]
    spec = DATASETS[name]
    g, coords = spec.build()
    updates, queries = generators(WORKLOADS[workload], g, coords, spec, seed=1801)
    pairs = queries.pairs(150).tolist()
    stacked, loops = make(g.copy(), spec, coords), make(g.copy(), spec, coords)
    assert_equal(stacked, loops)
    log = SweepLog(monkeypatch)
    for _ in range(3):
        batch = updates.next_batch()
        times = stacked.apply_batch(batch)
        one = log.take(stacked)
        ran = per_partition(loops, batch)
        many = log.take(loops)
        assert_equal(stacked, loops)
        for stage in ran:
            assert sorted(times[stage]["parts"]) == ran[stage], stage
        # one call per pass over each tree, reporting what the loops did
        assert one.keys() == many.keys()
        for key, (calls, *res) in one.items():
            assert calls == 1, key
            for x, y in zip(res, many[key][1:]):
                assert np.array_equal(x, y), key
        for stage in stages:
            qa, qb = getattr(stacked, stage), getattr(loops, stage)
            assert [qa(s, t) for s, t in pairs] == [qb(s, t) for s, t in pairs], stage
    assert max(len(v) for v in ran.values()) > 1  # some stage touched several partitions


class Clock:
    """A ``time`` stand-in whose ``perf_counter`` advances 1 s per call,
    so every interval an index measures with two reads is 1 s."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("kind", ["pmhl", "postmhl"])
def test_parts_split_one_measured_pass(kind, monkeypatch):
    """Each stacked stage reports one key per partition the loops ran,
    values that sum to the stage's measured seconds (1 s under the fake
    clock) in proportion to the positions (U2, U4) or label rows (U3)
    the pass recomputed in each partition, and the same keys when the
    same batch meets the same state again."""
    g, coords, ups, _ = updated_case(3, 20, 5, batches=1, volume=40)
    batch = ups[0]
    if kind == "pmhl":
        idx, ref = PMHLIndex(g.copy(), 4, coords), PMHLIndex(g.copy(), 4, coords)
        pid, split = idx.part.pid, ("u2", "u3", "u4")
    else:
        idx, ref = PostMHLIndex(g.copy(), tau=8, k_e=4), PostMHLIndex(g.copy(), tau=8, k_e=4)
        pid, split = idx.tdp.pid, ("u2",)
    ran = (reference.pmhl_per_partition if kind == "pmhl" else reference.postmhl_per_partition)(ref, batch)
    reversal = [(a, b, g.adj[a][b]) for a, b, _ in batch]

    log = SweepLog(monkeypatch)
    roots: list = []
    real_labels = pmhl.build_labels
    monkeypatch.setattr(pmhl, "build_labels", lambda td, **kw: roots.append((td, kw.get("roots"))) or real_labels(td, **kw))
    monkeypatch.setattr(pmhl if kind == "pmhl" else postmhl, "time", Clock())
    first = idx.apply_batch(batch)
    assert all(len(rs) == 1 for rs in log.calls.values())

    for stage in split:
        parts = first[stage]["parts"]
        keys = sorted(parts)
        assert keys == ran[stage], stage
        assert sum(parts.values()) == pytest.approx(1.0), stage
        if stage == "u3":
            ((td, r),) = [(td, r) for td, r in roots if td is idx.td]
            work = np.bincount(pid[r], weights=pmhl.subtree_sizes(td)[r], minlength=idx.k)
        else:
            td = idx.td_post if stage == "u4" else idx.td
            ((res,),) = [log.calls[(id(td), kind == "postmhl", False)]]
            work = np.bincount(pid[td.own[res.recomputed_pairs]], minlength=idx.k)
        assert work[keys].sum() > 0
        assert np.allclose([parts[i] for i in keys], work[keys] / work[keys].sum()), stage
    assert max(len(first[s]["parts"]) for s in split) > 1

    idx.apply_batch(reversal)
    again = idx.apply_batch(batch)
    adapter.fastest_times([first, again])  # raises if the tasks differ
    for stage in split:
        assert first[stage]["parts"].keys() == again[stage]["parts"].keys()


def test_split_seconds():
    work = np.array([0, 3, 1, 0])
    assert split_seconds(2.0, {3, 1, 2}, work) == {1: 1.5, 2: 0.5, 3: 0.0}
    assert split_seconds(2.0, [0, 3], work) == {0: 1.0, 3: 1.0}  # no work: even
    assert split_seconds(2.0, [], work) == {}
