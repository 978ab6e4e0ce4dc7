"""Differential test of `lp_norm` and `weak_quasinorm` against the forms in
`norm_oracle.py`: equal results, bit for bit, on random, tie-heavy,
zero-containing and all-zero signals."""

import numpy as np
import pytest

from dyadicpara import Signal, lp_norm, signals, weak_quasinorm

from norm_oracle import lp_norm_oracle, weak_quasinorm_oracle, weak_quasinorm_sort_form

_GRIDS = [(1, 0), (1, 1), (1, 4), (1, 9), (2, 0), (2, 1), (2, 3), (2, 5), (3, 0), (3, 1), (3, 3)]


def _signals(d, L):
    """Random values, a few repeated values, the same with zeros, a single
    spike, a constant and the zero signal."""
    rng = np.random.default_rng(1000 * d + L)
    shape = ((1 << L),) * d
    random = rng.standard_normal(shape)
    ties = rng.integers(-3, 4, shape) * 0.5
    zeros = np.where(rng.random(shape) < 0.4, 0.0, random)
    spike = np.zeros(shape)
    spike.flat[rng.integers(spike.size)] = -2.5
    for values in (random, ties, zeros, spike, np.full(shape, 0.75), np.zeros(shape)):
        yield Signal(d, L, values)


@pytest.mark.parametrize("d, L", _GRIDS)
@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0, 3.7, np.inf])
def test_weak_quasinorm_equals_unique_count_form(d, L, r):
    for f in _signals(d, L):
        assert weak_quasinorm(f, r) == weak_quasinorm_oracle(f, r)


@pytest.mark.parametrize("d, L", _GRIDS)
@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0, 3.7, np.inf])
def test_weak_quasinorm_tail_table_equals_the_sort_form(d, L, r):
    for f in _signals(d, L):
        for _ in range(2):  # the second call reads the cached table
            assert weak_quasinorm(f, r) == weak_quasinorm_sort_form(f, r)
    n, cell = 1 << (d * L), 2.0 ** (-d * L)
    table = signals._tail_table(n, cell, r)
    assert signals._tail_table(n, cell, r) is table
    assert np.array_equal(table, (np.arange(n, 0, -1) * cell) ** (1.0 / r))
    with pytest.raises(ValueError):
        table[0] = 0.0


@pytest.mark.parametrize("d, L", _GRIDS)
@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, np.inf])
def test_lp_norm_equals_old_formula(d, L, p):
    for f in _signals(d, L):
        assert lp_norm(f, p) == lp_norm_oracle(f, p)


@pytest.mark.parametrize("d, L", [(1, 4), (2, 3), (3, 1)])
@pytest.mark.parametrize("scale", [1e300, -3e299, 1e-300])
def test_lp_norm_fallback_equals_old_formula(d, L, scale):
    # |f|^3 leaves the float range, so both forms take powers of |f| / max|f|
    rng = np.random.default_rng(d + L)
    f = Signal(d, L, rng.random(((1 << L),) * d) * scale)
    with np.errstate(over="ignore"):
        raw = (np.abs(f.values) ** 3.0).sum()
    assert raw == 0.0 or np.isinf(raw)
    assert lp_norm(f, 3.0) == lp_norm_oracle(f, 3.0)
    assert np.isfinite(lp_norm(f, 3.0)) and lp_norm(f, 3.0) > 0.0
