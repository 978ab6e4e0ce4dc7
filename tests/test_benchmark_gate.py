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
    # the C01-C12 configurations need fewer distinct profile matrices than
    # the cache keeps, so a pass after the first builds none
    from dyadicpara import families
    from workloads import run_pass

    run_pass(WORKLOADS["acceptance-mix"], seed=0)
    misses = families._profile_matrix_cached.cache_info().misses
    run_pass(WORKLOADS["acceptance-mix"], seed=0)
    assert families._profile_matrix_cached.cache_info().misses == misses
