"""T3 (paper Exp 3 / Fig 12): maximum average throughput per dataset."""
from job_util import emit, parse
from repro.experiments.exp_tables import t3_rows

if __name__ == "__main__":
    args = parse("NY,GD,FLA,SC,EC,W,CTR,USA", "throughput comparison")
    rows = t3_rows(args.datasets.split(","))
    emit(rows, ["dataset", "algo", "lambda_qps"],
         "T3 — maximum average throughput λ_q* (Exp 3)", args.tag or "t3_throughput")
