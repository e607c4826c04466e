"""T7 (paper Exp 6 / Fig 15): speedup vs worker count p."""
from job_util import emit, parse
from repro.experiments.exp_tables import t7_rows

if __name__ == "__main__":
    args = parse("NY,FLA", "thread-count sweep (LPT-scheduled)")
    rows = t7_rows(args.datasets.split(","))
    emit(rows, ["dataset", "algo", "p", "t_u_s", "update_speedup", "lambda_qps", "throughput_speedup"],
         "T7 — update/throughput speedup vs p (Exp 6)", args.tag or "t7_threads")
