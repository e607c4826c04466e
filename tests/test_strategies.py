"""N-CH-P and P-TD-P baselines (PSP strategies of [35]) as PMHL levels."""
import pytest

from repro.psp.strategies import NCHPIndex, PTDPIndex
from tests.util import pairs_for, small_case, updated_case


@pytest.mark.parametrize("seed", [0, 1])
def test_nchp_query_exact(seed):
    g, coords, fw = small_case(seed, 20, 5)
    idx = NCHPIndex(g.copy(), 4, coords)
    for s, t in pairs_for(g.n, 40, seed):
        assert idx.query(s, t) == pytest.approx(fw[s][t])


def test_nchp_builds_no_labels():
    g, coords, _ = small_case(0, 20, 5)
    idx = NCHPIndex(g.copy(), 4, coords)
    assert idx.dis_o is None
    assert idx.dis is None
    assert idx.td_post is None


@pytest.mark.parametrize("seed", [0, 1])
def test_nchp_maintenance(seed):
    g, coords, ups, truths = updated_case(seed, 20, 5)
    idx = NCHPIndex(g.copy(), 4, coords)
    for batch, fw in zip(ups, truths):
        times = idx.apply_batch(batch)
        assert "u3" not in times  # stops after the shortcut stage
        for s, t in pairs_for(g.n, 25, seed + 1):
            assert idx.query(s, t) == pytest.approx(fw[s][t])


@pytest.mark.parametrize("seed", [0, 1])
def test_ptdp_query_exact(seed):
    g, coords, fw = small_case(seed, 20, 5)
    idx = PTDPIndex(g.copy(), 4, coords)
    for s, t in pairs_for(g.n, 40, seed):
        assert idx.query(s, t) == pytest.approx(fw[s][t])


def test_ptdp_builds_no_cross_index():
    g, coords, _ = small_case(0, 20, 5)
    idx = PTDPIndex(g.copy(), 4, coords)
    assert all(not u.lstar for u in idx.units)
    assert idx.td_post is not None


@pytest.mark.parametrize("seed", [0, 1])
def test_ptdp_maintenance(seed):
    g, coords, ups, truths = updated_case(seed, 20, 5)
    idx = PTDPIndex(g.copy(), 4, coords)
    for batch, fw in zip(ups, truths):
        times = idx.apply_batch(batch)
        assert "u4" in times and "u5" not in times  # stops after post-boundary
        for s, t in pairs_for(g.n, 25, seed + 1):
            assert idx.query(s, t) == pytest.approx(fw[s][t])
