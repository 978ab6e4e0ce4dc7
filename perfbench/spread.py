"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--first-seed 100] [--baseline]

Runs ``run.py`` once per seed for each workload, one run at a time, and
prints per metric the median, the quartiles (``statistics.quantiles``,
n=4) and the interquartile distance as a share of the median next to the
metric's bound; the unscaled wall times behind setup_s, cold_s and
warm_s are shown as wall_setup_s, wall_cold_s and wall_warm_s.  With ``--baseline`` it also makes one traced run per
workload and writes everything to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stdout}\n{out.stderr}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        saved = json.loads((ROOT / ".bench_results" / f"{workload}-seed{seed}-trace0.json").read_text())
        values.update({k: saved[k] for k in ("wall_setup_s", "wall_cold_s", "wall_warm_s")})
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # the unscaled pass times, for comparison (see calibrate.py)
    bounds.update({f"wall_{k}": bounds[k] for k in ("setup_s", "cold_s", "warm_s")})
    table = {}
    for name in args.workloads.split(","):
        runs = [
            run(name, args.first_seed + i, spec["run_seconds"], 0) for i in range(args.runs)
        ]
        rows = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                "bound": bound, "values": values,
            }
            print(f"{name:16s} {metric:12s} median {med:9.4f}  q1 {q1:9.4f}  q3 {q3:9.4f}  "
                  f"spread {(q3 - q1) / med:6.3f}  bound {bound}", flush=True)
        table[name] = {"end_to_end": rows}
        if args.baseline:
            table[name]["per_layer"] = run(name, args.first_seed, spec["run_seconds"], 1)

    if args.baseline:
        env = json.loads((ROOT / ".bench_results" / f"{name}-seed{args.first_seed}-trace1.json").read_text())
        baseline = {
            "runs_per_workload": args.runs,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "run_seconds": spec["run_seconds"],
            "git": env["git"],
            "env": env["env"],
            "workloads": table,
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
