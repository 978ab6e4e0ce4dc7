"""The shared decomposition path against the two pipelines it replaced.

`pipeline_oracle` holds `restricted_weak_type_pipeline` and
`endpoint_pipeline` as they were before they shared one decomposition.
Kappa, class kinds, labels, sizes, ok flags and row order must agree
exactly, and every float of the old reports and rows to a relative 1e-12.
The shared path adds row fields (`shadow_reference` on main rows and a
restricted norm for every failing slot); those are checked against the
slots each class kind leaves failing.

A spike in the first input reaches the leftover classes only on grids
where its exceptional set stays below half the torus: d=1 from L=10 for
Haar and L=11 for the Gaussian family.  On the d=2 and d=3 grids here
every class is a main class.
"""

import math

import numpy as np
import pytest

import pipeline_oracle as oracle
from dyadicpara import (
    RestrictedWeakConfig,
    Signal,
    endpoint_pipeline,
    restricted_weak_type_pipeline,
    standard_triple,
)
from dyadicpara.harness import normalize, random_cells, random_haar

# (d, L, family, first input, reaches the leftover classes)
CASES = [
    (1, 8, "haar", "random", False),
    (1, 8, "gaussian", "random", False),
    (2, 4, "haar", "random", False),
    (2, 4, "gaussian", "random", False),
    (3, 3, "haar", "random", False),
    (3, 3, "gaussian", "random", False),
    (2, 5, "haar", "spike", False),
    (3, 4, "gaussian", "spike", False),
    (1, 10, "haar", "spike", True),
    (1, 11, "gaussian", "spike", True),
]

# failing slots (1-based) of each pipeline's class kinds
FAILING = {
    ("restricted-weak", "main"): (),
    ("restricted-weak", "leftover"): (3,),
    ("endpoint", "main"): (2,),
    ("endpoint", "leftover"): (2, 3),
}


def _spike(rng, d, L):
    values = 0.02 * rng.standard_normal((1 << L,) * d)
    values[tuple(rng.integers(0, 1 << L, size=d))] = 60.0
    return Signal(d, L, values)


def _inputs(d, L, first):
    rng = np.random.default_rng([d, L, len(first)])
    f1 = normalize(_spike(rng, d, L) if first == "spike" else random_haar(rng, d, L), 2.0)
    if first == "spike":
        # a nearly constant second input keeps its own level sets small
        g2 = Signal.constant(d, L, 1.0) + 0.05 * random_cells(rng, d, L)
    else:
        g2 = random_haar(rng, d, L)
    f2 = normalize(g2, 2.0)
    f2_sup = normalize(random_haar(rng, d, L), np.inf)
    return f1, f2, f2_sup, random_cells(rng, d, L)


def _assert_close(got, want, where):
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (where, got, want)


def _assert_same(new, old, pipeline):
    assert new["kappa"] == old["kappa"]
    shape = [(r["class"], r["labels"], r["size"], bool(r["ok"])) for r in new["classes"]]
    assert shape == [(r["class"], r["labels"], r["size"], bool(r["ok"])) for r in old["classes"]]
    for i, (got, want) in enumerate(zip(new["classes"], old["classes"])):
        failing = FAILING[pipeline, got["class"]]
        norms = {k for k in got if k.startswith("restricted_t")}
        assert norms == {f"restricted_t{j}_norm" for j in failing}
        assert ("shadow_reference" in got) == (got["class"] == "main")
        assert set(want) <= set(got)
        for key, value in want.items():
            if isinstance(value, float):
                _assert_close(got[key], value, (pipeline, i, key))
    for key, value in old.items():
        if key == "classes":
            continue
        if isinstance(value, float):
            _assert_close(new[key], value, (pipeline, key))
        else:
            assert new[key] == value, (pipeline, key)


@pytest.mark.parametrize("d, L, family, first, leftover", CASES)
def test_pipelines_match_oracle(d, L, family, first, leftover):
    spec = standard_triple(d, family)
    f1, f2, f2_sup, f3 = _inputs(d, L, first)
    runs = (
        ("restricted-weak", restricted_weak_type_pipeline,
         oracle.restricted_weak_type_pipeline, f2, 2.0),
        ("endpoint", endpoint_pipeline, oracle.endpoint_pipeline, f2_sup, float("inf")),
    )
    for pipeline, new, old, second, p2 in runs:
        cfg = RestrictedWeakConfig(p1=2.0, p2=p2, f3=f3)
        got = new(cfg, spec, f1, second)
        _assert_same(got, old(cfg, spec, f1, second), pipeline)
        kinds = {row["class"] for row in got["classes"]}
        assert kinds == ({"main", "leftover"} if leftover else {"main"})
        if leftover and family == "gaussian":
            # smooth profiles leave mass on the leftover classes
            assert any(r["sum"] > 0.0 for r in got["classes"] if r["class"] == "leftover")
