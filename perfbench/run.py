"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fla-read --seed 1 --seconds 10 --trace 0

Must be started from the repository root's layout: the indexes are
imported from ``src/`` next to this directory. Without them it exits with
status 2 and prints no result. A traced run (``--trace 1``) also answers
query batches in a local Spark session and writes its spans and Spark's
scratch files to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _hooks():
    """Work counters read from the public return values of layer calls."""

    def shortcuts(tracer, res, args, kwargs):
        tracer.count("recomputed_pairs", len(res.recomputed_pairs))
        tracer.count("changed_pairs", len(res.changed_pairs))
        tracer.count("affected_owners", len(res.affected))

    def labels(tracer, dis, args, kwargs):
        td = args[0]
        roots = kwargs.get("roots")
        active = kwargs.get("active")

        def relabelled() -> int:  # evaluated after the run, off the clock
            n, stack = 0, list(td.roots if roots is None else roots)
            while stack:
                v = stack.pop()
                if active is None or v in active:
                    n += 1
                    stack.extend(td.children[v])
            return n

        tracer.count("relabelled_nodes", relabelled)

    return {"core.treedec.update_shortcuts": shortcuts, "core.treedec.build_labels": labels}


def main(argv=None) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        import repro.psp.pmhl  # noqa: F401
    except ImportError as e:
        print(f"cannot import the indexes from {os.path.join(ROOT, 'src')}: {e}", file=sys.stderr)
        return 2
    import numpy as np

    from perfbench import metrics, tracing
    from perfbench.bench import Bench
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    tracer = tracing.Tracer() if args.trace else None
    bench = Bench(wl, args.seed, args.seconds, tracer)
    with tracer.patched(hooks=_hooks()) if tracer else contextlib.nullcontext():
        raw = bench.run()
    if tracer is not None and raw.passes and not bench.tally.failed:
        bench.spark(os.path.join(HERE, "out", "spark"))

    tally = bench.tally
    if tally.failed:
        result = {}
    elif tracer is not None:
        result = metrics.per_layer(raw, wl, tracer, tracing.span_cost())
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        np.savez_compressed(
            os.path.join(out, f"trace-{wl.name}-{args.seed}.npz"),
            names=np.array(tracer.names), **tracer.table(),
        )
    else:
        result = metrics.end_to_end(raw, wl)

    shown = result | metrics.properties(raw, wl) if raw.passes else result
    for name, (value, unit, n) in sorted(shown.items()):
        print(f"{name:42s} {value:14.6g} {unit:10s} n={n}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
