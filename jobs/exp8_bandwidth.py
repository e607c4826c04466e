"""T9 (paper Exp 8 / Fig 18): effect of bandwidth τ on PostMHL."""
from job_util import emit, parse
from repro.experiments.exp_tables import t9_rows

if __name__ == "__main__":
    args = parse("NY,FLA", "PostMHL bandwidth sweep")
    rows = t9_rows(args.datasets.split(","))
    emit(rows, ["dataset", "tau", "k_actual", "overlay_n", "tq_stage3_ms", "t_u_s", "lambda_qps"],
         "T9 — PostMHL vs bandwidth τ (Exp 8)", args.tag or "t9_bandwidth")
