"""T4 (paper Exp 1 / Fig 10): effect of partition number k on PMHL."""
from job_util import emit, parse
from repro.experiments.exp_tables import t4_rows

if __name__ == "__main__":
    args = parse("SC,EC,W", "effect of partition number on PMHL")
    rows = t4_rows(args.datasets.split(","))
    emit(rows, ["dataset", "k", "t_u_s", "lambda_qps"],
         "T4 — PMHL vs partition number k (Exp 1)", args.tag or "t4_partition_number")
