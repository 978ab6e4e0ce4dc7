"""Paired warm passes of two checkouts of dyadicpara in one process.

    python tools/ab_warm.py BASE CHANGE --workload rw-d1-L12 [--rounds 20]
                            [--seed 0] [--smoke]

BASE and CHANGE are checkout directories.  The package of each
(``src/dyadicpara``) is copied into a temporary directory as
``dyadicpara_base`` and ``dyadicpara_change`` and both are imported here.
A workload of ``perfbench/workloads.py`` (this checkout's) runs once per
side through ``run_pass``, the benchmark's own pass, untimed; their
reports must be equal, outside ``meta``.  Then each round times one
warm pass per side, in alternating order.  Printed: the median and the
quartiles of each side, the change's median relative to the base's, and
in how many rounds the change was faster.

Both sides share the process and its warm-up, so slow phases of a shared
host hit both alike; the benchmark itself runs fresh processes.  One BLAS
thread is used unless the environment sets another count.  Exit code 0,
or 1 when the reports differ.
"""

from __future__ import annotations

import argparse
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import importlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, run_pass  # noqa: E402

SIDES = ("base", "change")


def load(checkout: Path, side: str, into: Path):
    """The package of `checkout`, imported under the name dyadicpara_<side>."""
    name = f"dyadicpara_{side}"
    shutil.copytree(
        checkout / "src" / "dyadicpara", into / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    return importlib.import_module(name)


def timed_pass(package, workload, seed: int, smoke: bool):
    """(seconds, reports) of one `run_pass` with `package` bound as dyadicpara."""
    names = ("dyadicpara", "dyadicpara.harness")
    saved = {name: sys.modules.get(name) for name in names}
    sys.modules.update(zip(names, (package, package.harness)))
    try:
        start = time.perf_counter()
        reports = run_pass(workload, seed, smoke=smoke)
        return time.perf_counter() - start, reports
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true", help="the workload's smoke configurations")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    workload = WORKLOADS[args.workload]

    times = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        checkouts = (args.base, args.change)
        packages = [load(path, side, Path(tmp)) for path, side in zip(checkouts, SIDES)]
        # the first pass of each side fills its caches: compared, not timed
        reports = [timed_pass(p, workload, args.seed, args.smoke)[1] for p in packages]
        if reports[0] != reports[1]:
            print("the reports differ outside meta", file=sys.stderr)
            return 1
        for r in range(args.rounds):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                times[SIDES[i]].append(timed_pass(packages[i], workload, args.seed, args.smoke)[0])

    print(f"workload {args.workload}{' (smoke)' if args.smoke else ''}  seed {args.seed}  "
          f"rounds {args.rounds}  reports equal")
    for side in SIDES:
        xs = times[side]
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        print(f"  {side:6s}  median {med:.6g} s  quartiles {q1:.6g} .. {q3:.6g} s")
    base, change = (statistics.median(times[side]) for side in SIDES)
    wins = sum(c < b for b, c in zip(times["base"], times["change"]))
    print(f"  change/base median {change / base - 1.0:+.2%}; "
          f"change faster in {wins} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
