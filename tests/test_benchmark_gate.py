"""The benchmark's full-size restricted-weak pass against its recorded
reference outputs (class labels and kappa included), run untraced.

At d=1 L=12 the abs-Haar transforms take the step-block path, which the
smoke-size benchmark tests never reach.
"""

import sys
from pathlib import Path

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
