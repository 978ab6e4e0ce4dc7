"""Differential test of the fold-engine tree questions against the old walks.

`maximal_intervals_in_mask` and `bmo_norm_1param` now ask `_gather` and
`_fold_up` what `tree_walk_oracle.py` computes by a stack walk and a level
loop, and the exact greedy of `product_bmo_lower` AND-gathers a stack of
regions once per step; each must give the same list or the same float
exactly.
"""

import numpy as np
import pytest

from dyadicpara import ContractError, DyadicInterval, Signal
from dyadicpara import bmo_norm_1param, maximal_intervals_in_mask, product_bmo_lower

import region_row_oracle
import tree_walk_oracle as oracle


def _masks(rng, n):
    """Random, block-structured and non-bool masks of n cells, and the two
    constant ones."""
    blocks = np.zeros(n, dtype=bool)
    for _ in range(4):
        lo, hi = sorted(rng.integers(0, n + 1, size=2))
        blocks[lo:hi] = True
    return [
        rng.random(n) < 0.5,
        rng.random(n) < 0.95,
        blocks,
        rng.integers(-2, 3, n),
        np.where(rng.random(n) < 0.8, rng.standard_normal(n), 0.0),
        np.ones(n, dtype=bool),
        np.zeros(n, dtype=bool),
    ]


@pytest.mark.parametrize("L", range(14))
def test_maximal_intervals_equal_stack_walk(L):
    rng = np.random.default_rng(700 + L)
    for mask in _masks(rng, 1 << L):
        got = maximal_intervals_in_mask(mask)
        assert got == oracle.maximal_intervals_in_mask(mask)
        assert all(type(iv.level) is int and type(iv.position) is int for iv in got)


def test_maximal_intervals_refuse_a_2d_mask():
    # rows would otherwise be read as cells: [[T, T], [F, T]] gave [(1, 0)]
    with pytest.raises(ContractError, match="one axis"):
        maximal_intervals_in_mask(np.array([[True, True], [False, True]]))
    with pytest.raises(ContractError, match="one axis"):
        maximal_intervals_in_mask(np.array(True))


@pytest.mark.parametrize("n", [0, 3, 6])
def test_maximal_intervals_refuse_a_length_not_a_power_of_two(n):
    with pytest.raises(ContractError, match="power of two"):
        maximal_intervals_in_mask(np.ones(n, dtype=bool))


def test_maximal_intervals_take_a_list():
    mask = [True, True, False, True]
    assert maximal_intervals_in_mask(mask) == [DyadicInterval(1, 0), DyadicInterval(2, 3)]
    assert maximal_intervals_in_mask(mask) == maximal_intervals_in_mask(np.array(mask))


@pytest.mark.parametrize("L", range(14))
def test_bmo_equals_level_loop(L):
    rng = np.random.default_rng(800 + L)
    for magnitude in (1e-5, 1e-3, 1.0, 1e3, 1e5):
        f = Signal(1, L, magnitude * rng.standard_normal(1 << L))
        assert bmo_norm_1param(f) == oracle.bmo_norm_1param(f)


@pytest.mark.parametrize("d, L", [(2, 4), (3, 3)])
def test_exact_product_bmo_greedy_equals_row_oracle(d, L):
    # the largest grids within the exact-greedy budget, which the property
    # test of test_norms.py does not draw
    rng = np.random.default_rng(900 + 10 * d + L)
    for _ in range(2):
        f = Signal(d, L, rng.standard_normal(((1 << L),) * d))
        assert product_bmo_lower(f) == region_row_oracle.product_bmo_lower(f)
