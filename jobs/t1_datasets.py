"""T1 (paper Table I): dataset registry statistics."""
from job_util import emit, parse
from repro.experiments.exp_tables import t1_rows

if __name__ == "__main__":
    args = parse("", "dataset registry stats")
    emit(t1_rows(), ["name", "paper", "paper_V", "paper_E", "V", "E", "k", "k_e", "tau"],
         "T1 — datasets (lite registry vs paper Table I)", args.tag or "t1_datasets")
