"""Record the reference outputs that the correctness gate compares with.

For every workload and every input set k < REFERENCE_SEEDS this runs one
untraced pass and stores its outputs (reports outside ``meta`` plus
``kappa`` per trial), then runs one pass under cProfile and stores the
call count of every function the tracer wraps, so that a traced run can
prove that its spans saw every call.

Run from the repository root, on the commit the reference belongs to:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record.py [workload ...]

Workloads not named keep their recorded entries.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys

from tracer import Tracer
from workloads import (
    REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, failures, reference_view, run_pass,
)


def call_counts(workload, seed, smoke=False) -> dict:
    fns, methods = Tracer(spans=True).functions()
    spans = {fn.__code__: span for fn, span, _ in fns}
    spans.update({fn.__code__: span for _, _, fn, span in methods})
    labels = {(c.co_filename, c.co_firstlineno, c.co_name): s for c, s in spans.items()}
    prof = cProfile.Profile()
    prof.runcall(run_pass, workload, seed, smoke)
    stats = pstats.Stats(prof).stats
    return {labels[key]: row[1] for key, row in stats.items() if key in labels}


def main(names) -> int:
    import dyadicpara  # noqa: F401

    table = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    table["seeds"] = REFERENCE_SEEDS
    table.setdefault("workloads", {})
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entries = {}
        for k in range(REFERENCE_SEEDS):
            tracer = Tracer(spans=False)
            with tracer:
                outputs = {"reports": run_pass(workload, k), "kappas": tracer.kappas}
            bad = failures(outputs)
            if bad:
                print(f"{name} k={k}: failing checks {bad}", file=sys.stderr)
                return 1
            entries[str(k)] = {
                "outputs": reference_view(outputs),
                "call_counts": call_counts(workload, k),
            }
            print(f"{name} k={k} recorded", file=sys.stderr, flush=True)
        table["workloads"][name] = entries
    REFERENCE_PATH.write_text(json.dumps(table, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
