"""Benchmark workloads and the correctness gate behind ``failed_frac``.

A workload is a fixed list of harness configurations; one *pass* runs
each of them once through the public entry points ``run_suite`` and
``run_sweep``.  The benchmark's ``--seed n`` selects input set
``k = n % REFERENCE_SEEDS``; every input set has reference outputs in
``reference.json``, recorded on the commit that introduced the benchmark,
so the reference comparison is active for every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEEDS = 12
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
ACCEPTANCE_SEED = 20240817  # the seed of tests/test_acceptance.py
# float outputs agree within these, no looser than the suites' own
# tolerances (the tightest are 1e-12 relative and 1e-14 absolute)
REL_TOL = 1e-12
ABS_TOL = 1e-14
# row fields kept in the reference: the discrete class data plus the
# checked quantities; margins and norms derived from them are left out
ROW_KEYS = {"trial", "class", "labels", "size", "ok", "sum", "bound", "L", "max_ratio", "max_weak_ratio"}


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple  # ExperimentConfig keyword dicts, seed added per pass
    smoke: tuple  # the same shapes at a tiny size, for the tests
    base_seed: int = 0
    scaled: bool = False  # pass times scaled by the host speed factor (calibrate.py)


def _rw(d, L, trials, p):
    return dict(suite="restricted-weak", d=d, L=L, trials=trials, p1=p, p2=p, family="haar")


def _acceptance(smoke):
    """The C01-C12 configurations of tests/test_acceptance.py; the smoke
    variant shrinks every grid and trial count."""
    def pick(full, tiny):
        return tiny if smoke else full

    return (
        dict(suite="identities", d=1, L=pick(8, 6), trials=pick(100, 4)),
        dict(suite="norms", d=1, L=pick(6, 3), trials=pick(100, 4)),
        dict(suite="domination", d=1, L=pick(8, 4), trials=pick(100, 4)),
        dict(suite="domination", d=2, L=pick(4, 2), trials=pick(100, 4)),
        dict(suite="technical-lemma", d=2, L=pick(4, 3), trials=pick(100, 6)),
        dict(suite="localization", d=1, L=pick(8, 6), trials=1),
        dict(suite="restricted-weak", d=2, L=pick(4, 2), trials=pick(25, 2)),
        dict(suite="endpoint", d=2, L=pick(4, 2), trials=pick(25, 2)),
        dict(suite="sweep", d=1, L_list=pick((5, 7, 9), (3, 4)), trials=pick(200, 5),
             p1=2.0, p2=2.0, r=1.0),
        dict(suite="sweep", d=2, L_list=pick((3, 4, 5), (2, 3)), trials=pick(200, 5),
             p1=4.0, p2=4.0, r=2.0),
    )


# Why each workload was chosen is recorded in BENCHMARK.json.  There are
# two so that each run is long enough for steady medians on a small shared
# host: a d=2 L=7 restricted-weak workload and a domination workload at the
# resolution caps read 25-38% apart from run to run at 30 s per run, and
# their layers are still exercised by acceptance-mix at small grids.
#
# acceptance-mix spends its time in many small numpy and Python calls,
# whose speed on a shared host follows that of the calibration kernel: its
# pass times are scaled.  rw-d1-L12 spends its time in dense 4096x4096
# products, whose speed does not follow the kernel's (scaling doubled its
# pass-to-pass spread), and its single configuration leaves the kernel
# samples at the two ends of a 9 s pass: its pass times are wall times.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rw-d1-L12", (_rw(1, 12, 1, 2.0),), (_rw(1, 6, 1, 2.0),)),
        Workload("acceptance-mix", _acceptance(False), _acceptance(True),
                 base_seed=ACCEPTANCE_SEED, scaled=True),
    )
}


def input_seed(workload: Workload, seed: int) -> int:
    return workload.base_seed + seed % REFERENCE_SEEDS


def run_pass(workload: Workload, seed: int, smoke: bool = False, between=None) -> list:
    """One pass over the workload's configurations; `between`, if given,
    is called before each of them and after the last.

    Returns, per configuration, the report with ``meta`` removed, in the
    harness's own JSON encoding re-read as plain data.
    """
    from dyadicpara.harness import ExperimentConfig, report_json, run_suite, run_sweep

    out = []
    for kwargs in workload.smoke if smoke else workload.configs:
        if between is not None:
            between()
        cfg = ExperimentConfig(seed=input_seed(workload, seed), **kwargs)
        report = run_sweep(cfg) if cfg.suite == "sweep" else run_suite(cfg)[0]
        report = {k: v for k, v in report.items() if k != "meta"}
        out.append(json.loads(report_json(report)))
    if between is not None:
        between()
    return out


def failures(outputs: dict) -> list:
    """Names of the suite checks that did not pass."""
    return [
        f"{rep['suite']}/{check['id']}"
        for rep in outputs["reports"]
        for check in rep["checks"]
        if not check["ok"]
    ]


def reference_view(outputs: dict) -> dict:
    """The part of a pass's outputs that is compared with the reference."""
    reports = [
        {**rep, "rows": [{k: v for k, v in row.items() if k in ROW_KEYS} for row in rep["rows"]]}
        if "rows" in rep else rep
        for rep in outputs["reports"]
    ]
    return {"reports": reports, "kappas": outputs["kappas"]}


def load_reference(workload: Workload, seed: int, smoke: bool = False):
    if smoke or not REFERENCE_PATH.exists():
        return None
    table = json.loads(REFERENCE_PATH.read_text())["workloads"].get(workload.name, {})
    return table.get(str(seed % REFERENCE_SEEDS))


def mismatches(got, want, path="") -> list:
    """Paths where `got` differs from the reference `want`.

    Strings, booleans, integers and None must be equal; floats must agree
    within REL_TOL relative or ABS_TOL absolute.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path or "/"]
        return [m for k in sorted(want) for m in mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path or "/"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}/{i}")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got):
            return []
        ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        return [] if ok else [path]
    if type(got) is not type(want) or got != want:
        return [path]
    return []
