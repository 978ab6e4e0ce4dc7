"""The benchmark's full-size passes against their recorded reference
outputs (class labels and kappa included) and traced call counts, at
input sets 0 and 1.

At d=1 L=12 the abs-Haar transforms take the step-block path, which the
smoke-size benchmark tests never reach.  A traced pass also fails when a
public function of the package is called more or less often than the
recorded counts say, or when one is added or removed.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import dyadicpara  # noqa: E402  (the worker patches the loaded package)
from worker import Run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_rw_d1_L12_pass_matches_reference():
    run = Run(WORKLOADS["rw-d1-L12"], seed=0, smoke=False)
    assert run.reference is not None
    run.one_pass(traced=False)
    assert run.problems == []
    assert (run.attempted, run.failed) == (1, 0)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_matches_reference_and_call_counts(workload, seed):
    run = Run(WORKLOADS[workload], seed=seed, smoke=False)
    assert run.reference is not None
    _, tracer, _ = run.one_pass(traced=True)
    assert run.problems == []
    assert tracer.call_counts() == run.call_counts


def _package_caches() -> list:
    """Every functools cache bound at module level in the package, once
    each, however many modules import it."""
    caches = {}
    for info in pkgutil.walk_packages(dyadicpara.__path__, "dyadicpara."):
        for obj in vars(importlib.import_module(info.name)).values():
            if hasattr(obj, "cache_info"):
                caches[id(obj)] = obj
    return list(caches.values())


def test_warm_acceptance_pass_builds_no_profile_matrix():
    # every cache of the package (profile matrices, fold matrices, slot and
    # weight tables, weak-norm tail tables and the trial seeds among them)
    # keeps all the keys that a pass of either workload needs, so a second
    # pass misses none
    from dyadicpara import families, harness
    from workloads import run_pass

    caches = _package_caches()
    assert families._profile_matrix_cached in caches
    assert harness._trial_seed in caches
    for workload in ("acceptance-mix", "rw-d1-L12"):
        run_pass(WORKLOADS[workload], seed=0)
        misses = {f"{c.__module__}.{c.__qualname__}": c.cache_info().misses for c in caches}
        run_pass(WORKLOADS[workload], seed=0)
        assert {f"{c.__module__}.{c.__qualname__}": c.cache_info().misses for c in caches} == misses
