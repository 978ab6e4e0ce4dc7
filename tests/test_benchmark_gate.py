"""The benchmark's full-size passes against their recorded reference
outputs (class labels and kappa included) and traced call counts, at
input sets 0 and 1.

At d=1 L=12 the abs-Haar transforms take the step-block path, which the
smoke-size benchmark tests never reach.  A traced pass also fails when a
public function of the package is called more or less often than the
recorded counts say, or when one is added or removed.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import dyadicpara  # noqa: E402, F401  (the worker patches the loaded package)
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


def test_warm_acceptance_pass_builds_no_profile_matrix():
    # the C01-C12 configurations need fewer distinct profile matrices, fold
    # matrices, weight tables and weak-norm tail tables (8 keys) than each
    # cache keeps, so a pass after the first builds none
    from dyadicpara import families, signals, transforms
    from workloads import run_pass

    caches = (
        families._profile_matrix_cached,
        transforms._fold_matrix,
        transforms._weight_table,
        signals._tail_table,
    )
    run_pass(WORKLOADS["acceptance-mix"], seed=0)
    misses = [cache.cache_info().misses for cache in caches]
    run_pass(WORKLOADS["acceptance-mix"], seed=0)
    assert [cache.cache_info().misses for cache in caches] == misses
