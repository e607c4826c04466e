"""Experiment tables T1–T9 (paper Table I + Exps 1–8, Figs 10–15/17/18).

Each ``t*_rows`` function returns a list of dict rows (one printed table
each). The heavy measurements come from :mod:`repro.experiments.runner`
and are memoized, so generating several tables from the same datasets
measures once. Paper-reported reference numbers are recorded next to
ours in EXPERIMENTS.md.
"""
from __future__ import annotations

from dataclasses import replace

from repro.graphs.generator import DATASETS, random_queries, update_batches
from repro.experiments.runner import ALGOS, DEFAULTS, SLACKED, get_records, measure_index
from repro.throughput.simulator import qps_timeline


def _cfg(name: str) -> dict:
    return {**DEFAULTS, **SLACKED.get(name, {})}


# ---------------------------------------------------------------- T1 --
def t1_rows() -> list[dict]:
    """Dataset registry vs paper Table I."""
    rows = []
    for s in DATASETS.values():
        g, _ = s.build()
        rows.append(
            dict(name=s.name, paper=s.paper_name, paper_V=s.paper_n, paper_E=s.paper_m,
                 V=g.n, E=g.m, k=s.k, k_e=s.k_e, tau=s.tau)
        )
    return rows


# ---------------------------------------------------------------- T2 --
def t2_rows(names: list[str], **kw) -> list[dict]:
    """Exp 2 (Fig 11): t_c, |L|, t_q, t_u per dataset × algorithm."""
    rows = []
    for name, recs in get_records(names, **kw).items():
        for a, r in recs.items():
            rows.append(
                dict(dataset=name, algo=a, t_c_s=r.t_build, size_entries=r.size,
                     t_q_ms=r.tq * 1e3, t_u_s=r.tu)
            )
    return rows


# ---------------------------------------------------------------- T3 --
def t3_rows(names: list[str], **kw) -> list[dict]:
    """Exp 3 (Fig 12): maximum average throughput λ_q* (queries/s)."""
    rows = []
    for name, recs in get_records(names, **kw).items():
        cfg = _cfg(name)
        for a, r in recs.items():
            rows.append(dict(dataset=name, algo=a, lambda_qps=r.throughput(cfg["dt"], cfg["rq"])))
    return rows


# ---------------------------------------------------------------- T4 --
def t4_rows(names: list[str], ks=(4, 8, 16, 32, 64), **kw) -> list[dict]:
    """Exp 1 (Fig 10): effect of partition number k on PMHL."""
    rows = []
    for name in names:
        cfg = _cfg(name)
        for k, _, r in _sweep(name, "PMHL", "k", ks):
            rows.append(dict(dataset=name, k=k, t_u_s=r.tu,
                             lambda_qps=r.throughput(cfg["dt"], cfg["rq"])))
    return rows


# ---------------------------------------------------------------- T5 --
def t5_rows(names: list[str], **kw) -> list[dict]:
    """Exp 4 (Fig 13): QPS evolution over the update interval."""
    rows = []
    for name, recs in get_records(names, **kw).items():
        cfg = _cfg(name)
        for a, r in recs.items():
            for t_start, qps in qps_timeline(r.stages_for(cfg["dt"]), cfg["dt"]):
                rows.append(dict(dataset=name, algo=a, t_start_s=t_start, qps=qps))
    return rows


# ---------------------------------------------------------------- T6 --
EXP5_ALGOS = ["BiDij", "DCH", "DH2H", "N-CH-P", "P-TD-P", "PMHL", "PostMHL"]


def t6_rows(
    names: list[str],
    volumes=(50, 100, 300, 500),
    dts=(5.0, 10.0, 30.0, 60.0),
    rqs=(0.05, 0.1, 0.15, 0.2),
    **kw,
) -> list[dict]:
    """Exp 5 (Fig 14): throughput vs |U| (measured per volume), δt, R_q*
    (post-processed from the default-volume measurement)."""
    rows = []
    for name in names:
        cfg = _cfg(name)
        for v in volumes:
            recs = get_records([name], EXP5_ALGOS, volume=v, n_batches=3, **kw)[name]
            for a, r in recs.items():
                rows.append(dict(dataset=name, sweep="|U|", value=v, algo=a,
                                 lambda_qps=r.throughput(cfg["dt"], cfg["rq"])))
        recs = get_records([name], EXP5_ALGOS, volume=cfg["volume"], n_batches=3, **kw)[name]
        for dt in dts:
            for a, r in recs.items():
                rows.append(dict(dataset=name, sweep="dt", value=dt, algo=a,
                                 lambda_qps=r.throughput(dt, cfg["rq"])))
        for rq in rqs:
            for a, r in recs.items():
                rows.append(dict(dataset=name, sweep="Rq", value=rq, algo=a,
                                 lambda_qps=r.throughput(cfg["dt"], rq)))
    return rows


# ---------------------------------------------------------------- T7 --
def t7_rows(names: list[str], ps=(1, 2, 4, 8, 16, 32, 64, 160), **kw) -> list[dict]:
    """Exp 6 (Fig 15): update-time and throughput speedup vs workers p."""
    rows = []
    for name, recs in get_records(names, ["PMHL", "PostMHL"], **kw).items():
        cfg = _cfg(name)
        for a in ("PMHL", "PostMHL"):
            r = recs[a]
            base_tu = base_lam = None
            for p in ps:
                rp = replace(r, walls=r.walls_at(p))
                tu = rp.tu
                lam = rp.throughput(cfg["dt"], cfg["rq"])
                if base_tu is None:
                    base_tu, base_lam = tu, lam
                rows.append(dict(dataset=name, algo=a, p=p, t_u_s=tu,
                                 update_speedup=base_tu / tu if tu > 0 else float("inf"),
                                 lambda_qps=lam,
                                 throughput_speedup=lam / base_lam if base_lam else float("inf")))
    return rows


# ---------------------------------------------------------------- T8 --
def t8_rows(names: list[str], kes=(8, 16, 32, 64, 128), **kw) -> list[dict]:
    """Exp 7 (Fig 17): effect of expected partition number k_e (PostMHL)."""
    rows = []
    for name in names:
        cfg = _cfg(name)
        for ke, idx, r in _sweep(name, "PostMHL", "k_e", kes):
            rows.append(dict(dataset=name, k_e=ke, k_actual=idx.k, t_u_s=r.tu,
                             lambda_qps=r.throughput(cfg["dt"], cfg["rq"])))
    return rows


# ---------------------------------------------------------------- T9 --
def t9_rows(names: list[str], taus=(8, 12, 16, 24, 32), **kw) -> list[dict]:
    """Exp 8 (Fig 18): effect of bandwidth τ (PostMHL): overlay size,
    post-boundary (Q-stage-3) query time, update time, throughput."""
    rows = []
    for name in names:
        cfg = _cfg(name)
        for tau, idx, r in _sweep(name, "PostMHL", "tau", taus):
            rows.append(dict(dataset=name, tau=tau, overlay_n=idx.overlay_size(), k_actual=idx.k,
                             tq_stage3_ms=r.stage_q["postboundary"].mean * 1e3,
                             t_u_s=r.tu,
                             lambda_qps=r.throughput(cfg["dt"], cfg["rq"])))
    return rows


def _sweep(name: str, algo: str, param: str, values):
    """Yield (value, index, AlgoResult) per value of one spec parameter:
    ``algo`` rebuilt on dataset ``name`` and measured over 3 batches."""
    spec = DATASETS[name]
    cfg = _cfg(name)
    graph, coords = spec.build()
    pairs = random_queries(graph.n, cfg["n_queries"])
    batches = update_batches(graph, batches=3, volume=cfg["volume"], seed=17)
    for v in values:
        idx, tb = ALGOS[algo].build(graph.copy(), replace(spec, **{param: v}), coords, pairs)
        yield v, idx, measure_index(algo, idx, tb, batches, pairs, cfg["p"])
