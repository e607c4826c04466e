"""T5 (paper Exp 4 / Fig 13): QPS evolution during the update interval."""
from job_util import emit, parse
from repro.experiments.exp_tables import t5_rows

if __name__ == "__main__":
    args = parse("NY,FLA", "QPS evolution")
    rows = t5_rows(args.datasets.split(","))
    emit(rows, ["dataset", "algo", "t_start_s", "qps"],
         "T5 — QPS evolution over the update interval (Exp 4)", args.tag or "t5_qps_evolution", args.out)
