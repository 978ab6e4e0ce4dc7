"""Differential tests: the tensor-native decomposition internals against the
per-rectangle oracle in `decomposition_oracle.py`.

Labels, classes, hypothesis flags and masks must be equal, not close:
every step counts or compares, so nothing is rounded differently.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadicpara import RectangleCollection, ResolutionError, Signal, lattice_rectangles
from dyadicpara import decomposition, transforms
from dyadicpara.lattice import enumerate_rectangles

import decomposition_oracle as oracle

GRIDS = [(1, 0), (1, 1), (1, 4), (1, 7), (2, 0), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2)]
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _operator_values(rng, d, L, kappa):
    """Nonnegative values with zeros, ties, and values exactly at kappa 2^l."""
    shape = ((1 << L),) * d
    values = np.abs(rng.standard_normal(shape)) * 2.0 ** rng.integers(-6, 7, shape)
    values[rng.random(shape) < 0.2] = 0.0
    exact = rng.random(shape) < 0.2
    values[exact] = kappa * 2.0 ** rng.integers(-5, 6, int(exact.sum())).astype(float)
    return Signal(d, L, values)


def _collection(rng, d, L, top):
    """Random members with side levels up to `top` (L includes one-cell sides)."""
    rects = enumerate_rectangles(d, top, cap=top)
    return RectangleCollection.of([r for r in rects if rng.random() < 0.3], L)


@SETTINGS
@given(
    grid=st.sampled_from(GRIDS),
    seed=st.integers(0, 2**32 - 1),
    kappa=st.sampled_from([1.0, 0.375, 3.0, 1e-3, 2.0**-30]),
    frac=st.sampled_from([0.01, 0.25, 0.5, 1.0]),
    clamp=st.sampled_from([0, 2, 5, 40]),
)
def test_labels_equal_oracle_property(grid, seed, kappa, frac, clamp):
    d, L = grid
    rng = np.random.default_rng(seed)
    g = _operator_values(rng, d, L, kappa)
    got = decomposition.classify_rectangles(None, None, kappa, frac, clamp, values=g)
    want = oracle.classify_rectangles(None, None, kappa, frac, clamp, values=g)
    assert got == want
    assert all(type(got[r]) is type(want[r]) for r in want)  # int or None
    assert list(got) == lattice_rectangles(d, L)


@SETTINGS
@given(
    grid=st.sampled_from(GRIDS),
    seed=st.integers(0, 2**32 - 1),
    leading=st.sampled_from([1, 2]),
    clamp=st.sampled_from([3, 40]),
)
def test_classes_equal_oracle_property(grid, seed, leading, clamp):
    d, L = grid
    rng = np.random.default_rng(seed)
    kappa = float(rng.choice([0.05, 0.5]))
    labels = [
        decomposition.classify_rectangles(
            None, None, kappa, clamp=clamp, values=_operator_values(rng, d, L, kappa)
        )
        for _ in range(leading + 1)
    ]
    lattice = lattice_rectangles(d, L)
    got = decomposition._group_classes(labels, lattice, clamp, leading)
    want = oracle._group_classes(labels, lattice, clamp, leading)
    for got_classes, want_classes in zip(got, want):
        # rows come out sorted by key; members stay in lattice order
        assert sorted(got_classes.items()) == sorted(want_classes.items())


@SETTINGS
@given(
    grid=st.sampled_from(GRIDS),
    seed=st.integers(0, 2**32 - 1),
    frac=st.floats(1e-3, 0.999),
    at_grid_level=st.booleans(),
)
def test_hypothesis_equals_oracle_property(grid, seed, frac, at_grid_level):
    # frac < 1: the oracle wraps its partition index at frac = 1
    d, L = grid
    rng = np.random.default_rng(seed)
    t = _operator_values(rng, d, L, 1.0)
    collection = _collection(rng, d, L, L if at_grid_level else max(L - 1, 0))
    thresholds = [0.0, *np.quantile(t.values, [0.5, 0.9, 0.99]), float(t.values.max())]
    for threshold in thresholds:
        got = decomposition.hypothesis_holds(t, collection, threshold, frac)
        assert got == oracle.hypothesis_holds(t, collection, threshold, frac)


@SETTINGS
@given(
    grid=st.sampled_from(GRIDS),
    seed=st.integers(0, 2**32 - 1),
    at_grid_level=st.booleans(),
    empty=st.booleans(),
)
def test_masks_equal_oracle_property(grid, seed, at_grid_level, empty):
    d, L = grid
    rng = np.random.default_rng(seed)
    collection = _collection(rng, d, L, L if at_grid_level else max(L - 1, 0))
    if empty:
        collection = RectangleCollection.of([], L)
    mask = collection.shadow_mask()
    assert np.array_equal(mask, oracle.shadow_mask(collection))
    # computed once per collection, then shared read-only
    assert collection.shadow_mask() is mask
    assert not mask.flags.writeable
    for coeff_L in (L, L + 1):
        if any(max(r.levels) >= coeff_L for r in collection.members):
            for slots in (transforms._member_slots, oracle._collection_slots):
                with pytest.raises(ResolutionError):
                    slots(collection, d, coeff_L)
            with pytest.raises(ResolutionError):
                transforms._rectangle_weights(d, coeff_L, 0.5, collection)
        else:
            want = oracle._collection_slots(collection, d, coeff_L)
            index, levels, width = transforms._member_slots(collection, d, coeff_L)
            got = np.zeros_like(want)
            got[index] = True
            assert np.array_equal(got, want)
            assert width == 1 << coeff_L and len(levels) == len(collection)
            weights = transforms._rectangle_weights(d, coeff_L, 0.5, collection)
            whole = transforms._rectangle_weights(d, coeff_L, 0.5)
            assert np.array_equal(weights, np.where(want, whole, 0.0))
