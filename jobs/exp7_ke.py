"""T8 (paper Exp 7 / Fig 17): effect of expected partition number k_e."""
from job_util import emit, parse
from repro.experiments.exp_tables import t8_rows

if __name__ == "__main__":
    args = parse("FLA,EC,W", "PostMHL k_e sweep")
    rows = t8_rows(args.datasets.split(","))
    emit(rows, ["dataset", "k_e", "k_actual", "t_u_s", "lambda_qps"],
         "T8 — PostMHL vs k_e (Exp 7)", args.tag or "t8_ke", args.out)
