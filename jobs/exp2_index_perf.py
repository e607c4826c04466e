"""T2 (paper Exp 2 / Fig 11): index performance t_c, |L|, t_q, t_u."""
from job_util import emit, parse
from repro.experiments.exp_tables import t2_rows

if __name__ == "__main__":
    args = parse("NY,GD,FLA,SC,EC,W,CTR,USA", "index performance comparison")
    rows = t2_rows(args.datasets.split(","))
    emit(rows, ["dataset", "algo", "t_c_s", "size_entries", "t_q_ms", "t_u_s"],
         "T2 — index performance (Exp 2)", args.tag or "t2_index_perf")
