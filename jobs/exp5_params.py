"""T6 (paper Exp 5 / Fig 14): effect of |U|, δt, R_q* on throughput."""
from job_util import emit, parse
from repro.experiments.exp_tables import t6_rows

if __name__ == "__main__":
    args = parse("NY,SC", "update volume / interval / QoS sweeps")
    rows = t6_rows(args.datasets.split(","))
    emit(rows, ["dataset", "sweep", "value", "algo", "lambda_qps"],
         "T6 — throughput vs |U|, δt, R_q* (Exp 5)", args.tag or "t6_params")
