"""dyadicpara benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rw-d1-L12 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics of ``BENCHMARK.json``:

  setup_s      median time of ``import dyadicpara`` in fresh
               interpreters, each scaled by the host speed factor that
               the interpreter measures right after its import
  cold_s       median over the run's fresh worker processes of their
               first pass (what one CLI run pays)
  warm_s       median of the later passes in those workers
  peak_rss_mb  median of the workers' peak resident memory (ru_maxrss)

For a workload marked ``scaled`` in workloads.py, the pass times in cold_s
and warm_s are scaled to reference-host seconds: each is multiplied by the
host speed factor measured around that pass (see calibrate.py).  The
unscaled medians are printed beside them.

With ``--trace 1`` it reports the per-layer metrics from a traced run
instead (see worker.py and tracer.py).  ``--workload all`` runs every
workload in turn.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A pass fails on a failed suite check, a
raised exception or a mismatch with the recorded reference outputs; the
exit code is 1 when any pass failed, 2 when the checkout is unusable.

Every worker is a fresh process with one BLAS thread, so its memory
peak and cold caches are its own.  Details of each run (the
environment, span tables, failures) are written to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
PROBES_PER_GAP = 2
WORKERS = 8
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dyadicpara; s = time.perf_counter() - t; "
    f"import sys; sys.path.insert(0, {str(HERE)!r}); from calibrate import sample, speed_factor; "
    "k = []; [sample(k) for _ in range(3)]; print(s, speed_factor(k))"
)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0"
    )
    return env


def measure_setup(env, deadline) -> list:
    """PROBES_PER_GAP import probes: (seconds, host speed factor) each."""
    samples = []
    for _ in range(PROBES_PER_GAP):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
        if out.returncode != 0:
            raise RuntimeError(f"import dyadicpara failed:\n{out.stderr}")
        seconds, factor = map(float, out.stdout.split())
        samples.append((seconds, factor))
    return samples


def start_worker(env, deadline, name, seed, seconds, trace) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if out.returncode != 0 or not out.stdout.strip():
        raise RuntimeError(f"worker failed ({out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def run_one(spec, name, seed, seconds, trace) -> dict:
    """Traced: one worker.  Untraced: up to WORKERS fresh workers one after
    another, each making a cold and at least one warm pass, with import
    probes before, between and after them, so that the samples of every
    metric spread over the run.  The first worker gets a small share of
    the run's time; once its cost is known, the time left is split evenly
    among as many more workers as it holds to the nearest whole one, and
    each fills its share with warm passes (so a run may end up to half a
    worker's cost late)."""
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    if trace:
        result = start_worker(env, deadline, name, seed, seconds, trace)
        setup = []
    else:
        setup, workers = measure_setup(env, deadline), []
        start = time.monotonic()
        share = seconds / WORKERS
        while True:
            began = time.monotonic()
            workers.append(start_worker(env, deadline, name, seed, share, trace))
            setup += measure_setup(env, deadline)
            cost = time.monotonic() - began  # the worker with its start-up and probes
            left = seconds - (time.monotonic() - start)
            more = min(WORKERS - len(workers), round(left / cost))
            if more < 1:
                break
            share = left / more - (cost - workers[-1]["elapsed_s"])
        warm = [s for w in workers for s in w["warm"]]
        scaled_warm = [s * f for w in workers for s, f in zip(w["warm"], w["speed"][1:])]
        result = {
            "env": workers[0]["env"],
            "workers": workers,
            "cold_s": statistics.median(w["cold_s"] * w["speed"][0] for w in workers),
            "warm_s": statistics.median(scaled_warm),
            "wall_cold_s": statistics.median(w["cold_s"] for w in workers),
            "wall_warm_s": statistics.median(warm),
            "warm_n": len(warm),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            "attempted": sum(w["attempted"] for w in workers),
            "failed": sum(w["failed"] for w in workers),
            "problems": [p for w in workers for p in w["problems"]],
            "correct": all(w["correct"] for w in workers),
        }
        if len({w["digest"] for w in workers}) != 1:
            result["correct"] = False
            result["problems"].append("workers disagree on the outputs")
    result.update(workload=name, seed=seed, trace=trace, git=git_state(), setup_samples=setup)

    if trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["layers"]
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: result[k] for k in ("cold_s", "warm_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(s * f for s, f in setup)
        result["wall_setup_s"] = statistics.median(s for s, _ in setup)
    if set(values) != set(wanted):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(wanted))}")
    result["metrics"] = {k: {"value": values[k], "unit": wanted[k]} for k in wanted}

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )
    return result


def report(result):
    env, git = result["env"], result["git"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"  python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"OPENBLAS_NUM_THREADS={env['openblas_num_threads']}  nproc {env['nproc']}  "
          f"caches {env['cpu_caches']}  git {git['sha']} dirty={git['dirty']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:58s} {metric['value']:.6g} {metric['unit']}")
    if not result["trace"]:
        print(f"  cold_s is the median of {len(result['workers'])} workers, "
              f"warm_s of {result['warm_n']} passes; unscaled wall medians: "
              f"setup {result['wall_setup_s']:.6g} s, cold {result['wall_cold_s']:.6g} s, "
              f"warm {result['wall_warm_s']:.6g} s")
    print(f"  failed_frac {result['failed']}/{result['attempted']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    for key, (got, want) in result.get("trace_mismatch", {}).items():
        print(f"  TRACE MISMATCH: {key} traced {got} calls, cProfile {want}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dyadicpara" / "__init__.py").is_file():
        print(f"no dyadicpara sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        try:
            result = run_one(spec, name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        report(result)
        ok &= result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
