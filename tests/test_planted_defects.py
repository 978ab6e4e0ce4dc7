"""Planted defects: each must make a named check of `verify` fail.

A defect is patched into the package in-process, and the run must exit 1
("a verification check failed") and name the check that caught it.  The
runs use the acceptance seed and their full trial counts: at `d=2 L=3`
with 5 trials, only `endpoint` caught the quartered bounds below.
"""

import pytest

from dyadicpara import decomposition
from dyadicpara.cli import main

SEED = "20240817"

_QUARTERED_BOUND_RUNS = [
    ("restricted-weak", 2, 4, 25, "per-class-bounds"),
    ("restricted-weak", 1, 8, 25, "per-class-bounds"),
    ("endpoint", 2, 4, 25, "per-class-bounds"),
    ("endpoint", 1, 8, 25, "per-class-bounds"),
    ("technical-lemma", 2, 4, 100, "summation-bounds"),
]


@pytest.mark.parametrize("suite, d, L, trials, check", _QUARTERED_BOUND_RUNS)
def test_quartered_conclusion_bounds_fail_their_check(capsys, monkeypatch, suite, d, L,
                                                       trials, check):
    # every explicit-constant bound a quarter of its value: some class sum
    # must exceed it
    bound_of = decomposition._conclusion_bound

    def quartered(*args):
        bound, constant, kind = bound_of(*args)
        return bound / 4.0, constant, kind

    monkeypatch.setattr(decomposition, "_conclusion_bound", quartered)
    argv = ["verify", suite, "--d", str(d), "--L", str(L), "--trials", str(trials),
            "--seed", SEED]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert f"[FAIL] {suite}/{check}" in out.splitlines()
    assert f"first failing check: {check}" in err
