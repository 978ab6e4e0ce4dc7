"""Differential tests: the tensor-native decomposition internals against the
per-rectangle oracle in `decomposition_oracle.py`.

Labels, classes, hypothesis flags and masks must be equal, not close:
every step counts or compares, so nothing is rounded differently.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadicpara import ContractError, RectangleCollection, ResolutionError, Signal
from dyadicpara import decomposition, lattice_rectangles, lp_norm, rectangle, transforms
from dyadicpara.decomposition import FRACTION
from dyadicpara.lattice import _rectangle_tuple

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
    rects = _rectangle_tuple(d, top)
    return RectangleCollection.of([r for r in rects if rng.random() < 0.3], L)


@SETTINGS
@given(
    grid=st.sampled_from(GRIDS),
    seed=st.integers(0, 2**32 - 1),
    kappa=st.sampled_from([1.0, 0.375, 3.0, 1e-3, 2.0**-30]),
    clamp=st.sampled_from([0, 2, 5, 40]),
)
def test_labels_equal_oracle_property(grid, seed, kappa, clamp):
    d, L = grid
    rng = np.random.default_rng(seed)
    g = _operator_values(rng, d, L, kappa)
    got = decomposition.classify_rectangles(g, kappa, clamp)
    want = oracle.classify_rectangles(None, None, kappa, FRACTION, clamp, values=g)
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
        decomposition.classify_rectangles(_operator_values(rng, d, L, kappa), kappa, clamp)
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
    at_grid_level=st.booleans(),
)
def test_hypothesis_equals_oracle_property(grid, seed, at_grid_level):
    d, L = grid
    rng = np.random.default_rng(seed)
    t = _operator_values(rng, d, L, 1.0)
    collection = _collection(rng, d, L, L if at_grid_level else max(L - 1, 0))
    thresholds = [0.0, *np.quantile(t.values, [0.5, 0.9, 0.99]), float(t.values.max())]
    for threshold in thresholds:
        got = decomposition.hypothesis_holds(t, collection, threshold)
        assert got == oracle.hypothesis_holds(t, collection, threshold, FRACTION)


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


@pytest.mark.parametrize("d, L", [(1, 0), (1, 5), (2, 0), (2, 3), (3, 2)])
def test_slot_table_equals_the_old_comprehension(d, L):
    rng = np.random.default_rng(d * 10 + L)
    rects = _rectangle_tuple(d, L)
    collections = [
        RectangleCollection.of([], L),
        RectangleCollection.of(rects[:1], L),
        RectangleCollection.of(rects[-1:], L),  # every side at level L
        RectangleCollection.of([r for r in rects if rng.random() < 0.4], L),
    ]
    for collection in collections:
        levels, index, top = collection._levels_slots
        want_levels, want_slots = oracle.levels_slots(collection)
        assert levels.dtype == want_levels.dtype and np.array_equal(levels, want_levels)
        assert len(index) == want_slots.shape[1]
        for axis, slots in enumerate(index):
            assert slots.dtype == np.intp and np.array_equal(slots, want_slots[:, axis])
        assert top == (int(want_levels.max()) if collection.members else -1)
        assert not levels.flags.writeable
        assert not any(slots.flags.writeable for slots in index)
        if collection.members:  # built once: every read returns the same arrays
            assert transforms._member_slots(collection, d, L, leaves=True)[0] is index


def test_slot_table_is_never_built_for_mixed_d():
    with pytest.raises(ContractError, match="must share d"):
        RectangleCollection.of([rectangle((1, 0)), rectangle((1, 0), (1, 1))], 2)


def _ties(rng, shape):
    """Nonnegative values, as operator values are, with many ties and zeros."""
    return rng.integers(0, 4, shape).astype(float) * rng.choice([0.25, 3.0, 1e-300])


def test_block_maximum_equals_the_partition():
    rng = np.random.default_rng(7)
    for cells in range(1, 201):
        v = _ties(rng, (3, cells))
        v.flags.writeable = False
        want = oracle.mth_largest(v.copy(), FRACTION)
        got = decomposition._mth_largest(v, 1)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        owned = v.copy()
        got = decomposition._mth_largest(owned, 1, owned=True)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, L", [(1, 7), (2, 4), (3, 3)])
def test_block_maximum_over_several_cell_axes_equals_the_partition(d, L):
    rng = np.random.default_rng(d + L)
    values = _ties(rng, ((1 << L),) * d)
    values.flags.writeable = False
    for levels in itertools.product(range(L + 1), repeat=d):
        blocks = decomposition._blocks(values, L, levels)
        want = oracle.mth_largest(blocks.reshape([1 << k for k in levels] + [-1]).copy(), FRACTION)
        got = decomposition._mth_largest(blocks, d)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _label_rank(j: int) -> int:
    """The m of `_mth_largest` on one block of 2^j cells, read off its
    result on the distinct values 0 .. 2^j - 1: the m-th largest is 2^j - m."""
    n = 1 << j
    return n - int(decomposition._mth_largest(np.arange(n, dtype=float)[None], 1)[0])


@pytest.mark.parametrize("d, L", [(1, 13), (2, 9), (3, 6)])  # the resolution caps
def test_label_rank_is_the_hypothesis_rank_up_to_the_caps(d, L):
    # with leaf slots at L, the slots of 2^0 .. 2^(dL) cells; without them
    # at L + 1, those of 2^d .. 2^(d(L+1)) cells
    ranks = {}
    for top, leaves in ((L, True), (L + 1, False)):
        table = decomposition._rank_table.__wrapped__(d, top, leaves)
        for levels in itertools.product(range(top + (1 if leaves else 0)), repeat=d):
            j = sum(top - k for k in levels)
            entries = np.unique(table[tuple(slice(1 << k, 2 << k) for k in levels)])
            assert entries.size == 1
            ranks.setdefault(j, set()).add(float(entries[0]))
    assert sorted(ranks) == list(range(d * (L + 1) + 1))
    for j, entries in ranks.items():
        # 2^j is never a multiple of 100: at least 1/100 of the cells is
        # more than 1/100 of them, one cell past the old floor table
        want = (1 << j) // 100 + 1
        assert entries == {want} and _label_rank(j) == want
        assert math.floor((1 << j) * FRACTION) + 1 == want


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 4.0, np.inf])
def test_lp_norm_memo_equals_a_fresh_computation(p):
    rng = np.random.default_rng(11)
    inputs = [
        rng.standard_normal(64),
        np.zeros(64),
        rng.standard_normal(64) * 1e200,  # p = 4 leaves the float range
        rng.standard_normal(64) * 1e-200,
    ]
    for values in inputs:
        f = Signal(1, 6, values)
        assert f._memo == {}
        first, again = lp_norm(f, p), lp_norm(f, p)
        want = oracle.lp_norm(Signal(1, 6, values), p)
        assert first == again == want and math.copysign(1.0, first) == 1.0
        assert f._memo == {p: want}
        # a signal on the same values starts with an empty memo
        g = Signal(1, 6, values)
        assert g._memo == {}
        assert lp_norm(g, p) == want and f._memo == {p: want}


def test_lp_norm_memo_takes_an_array_exponent():
    values = np.random.default_rng(12).standard_normal(16)
    want = oracle.lp_norm(Signal(1, 4, values), 3.0)
    f = Signal(1, 4, values)
    assert lp_norm(f, np.array(3.0)) == want
    assert lp_norm(f, np.float64(3.0)) == lp_norm(f, 3) == want
    assert f._memo == {3.0: want}


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan])
def test_lp_norm_refuses_before_the_memo_is_read(p):
    f = Signal(1, 2, [1.0, 2.0, 3.0, 4.0])
    f._memo[p] = 1.0  # a planted entry is never read
    with pytest.raises(ContractError, match="positive"):
        lp_norm(f, p)
