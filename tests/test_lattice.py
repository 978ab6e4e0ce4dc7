import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadicpara import (
    ContractError,
    DyadicInterval,
    DyadicRectangle,
    RectangleCollection,
    ResolutionError,
    ResourceError,
    dilate,
    enumerate_intervals,
    enumerate_rectangles,
    halves,
    interval,
    maximal_intervals_in_mask,
    rectangle,
    shadow_measure,
)


@pytest.mark.parametrize(
    "parent, left, right",
    [
        ((0, 0), (1, 0), (1, 1)),
        ((1, 1), (2, 2), (2, 3)),
        ((2, 1), (3, 2), (3, 3)),
    ],
)
def test_halves_examples(parent, left, right):
    lo, hi = halves(interval(*parent))
    assert (lo.level, lo.position) == left
    assert (hi.level, hi.position) == right
    assert lo.left == interval(*parent).left
    assert hi.right == interval(*parent).right


def test_halves_partition_parent():
    for iv in enumerate_intervals(5):
        if iv.level == 5:
            continue
        lo, hi = iv.halves()
        assert lo.length == hi.length == iv.length / 2
        assert lo.right == hi.left
        assert lo.parent() == hi.parent() == iv


def test_halves_refuses_beyond_grid():
    with pytest.raises(ResolutionError):
        halves(interval(4, 3), max_level=4)


def test_interval_validation():
    with pytest.raises(ContractError):
        interval(2, 4)
    with pytest.raises(ContractError):
        interval(-1, 0)
    with pytest.raises(ContractError):
        interval(0, 0).parent()


def test_enumerate_interval_examples():
    got = {(i.level, i.position) for i in enumerate_intervals(1)}
    assert got == {(0, 0), (1, 0), (1, 1)}
    assert len(enumerate_intervals(3)) == 15


@pytest.mark.parametrize("d, L, count", [(1, 1, 3), (2, 1, 9), (1, 3, 15)])
def test_enumerate_rectangle_counts(d, L, count):
    rects = enumerate_rectangles(d, L)
    assert len(rects) == count
    assert len(set(rects)) == count


def test_enumerate_cap():
    with pytest.raises(ResourceError):
        enumerate_rectangles(2, 9)
    with pytest.raises(ResourceError):
        enumerate_rectangles(1, 4, cap=3)
    assert len(enumerate_rectangles(3, 2)) == 7**3


def _mask_of(iv, L):
    out = np.zeros(1 << L, dtype=bool)
    lo, hi = iv.cells(L)
    out[lo:hi] = True
    return out


def test_nested_or_disjoint_exhaustive():
    L = 6
    ivs = enumerate_intervals(L)
    for a, b in itertools.combinations(ivs, 2):
        ma, mb = _mask_of(a, L), _mask_of(b, L)
        overlap = bool((ma & mb).any())
        nested = a.contains(b) or b.contains(a)
        assert nested == overlap
        assert a.is_disjoint(b) == (not overlap)


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=255),
)
def test_nested_or_disjoint_property(k1, j1, k2, j2):
    a = interval(k1, j1 % (1 << k1))
    b = interval(k2, j2 % (1 << k2))
    ma, mb = _mask_of(a, 8), _mask_of(b, 8)
    overlap = bool((ma & mb).any())
    assert (a.contains(b) or b.contains(a)) == overlap


def test_shadow_examples():
    assert shadow_measure(RectangleCollection.of([], 4)) == 0.0
    nested = RectangleCollection.of(
        [rectangle((1, 0), (0, 0)), rectangle((2, 1), (1, 0))], 4
    )
    assert shadow_measure(nested) == 0.5
    split = RectangleCollection.of([rectangle((1, 0)), rectangle((1, 1))], 3)
    assert shadow_measure(split) == 1.0


def test_shadow_monotone_subadditive(rng):
    rects = enumerate_rectangles(2, 2)
    for _ in range(50):
        pick_a = [r for r in rects if rng.random() < 0.2]
        pick_b = [r for r in rects if rng.random() < 0.2]
        a = RectangleCollection.of(pick_a, 4)
        b = RectangleCollection.of(pick_a + pick_b, 4)
        both = RectangleCollection.of(pick_b, 4)
        assert a.shadow_measure() <= b.shadow_measure() + 1e-15
        assert (
            b.shadow_measure()
            <= a.shadow_measure() + both.shadow_measure() + 1e-15
        )


def test_collection_validation():
    with pytest.raises(ContractError):
        RectangleCollection.of([rectangle((0, 0)), rectangle((0, 0), (0, 0))], 3)
    with pytest.raises(ResolutionError):
        RectangleCollection.of([rectangle((5, 0))], 4)


def test_dilate_identity():
    r = rectangle((2, 1), (1, 0))
    box = dilate(r, 1.0, 4)
    assert box.mask().sum() == r.cell_count(4)
    assert box.measure == r.measure


def test_dilate_hand_example():
    # [1/4, 1/2) doubled about its center 3/8 gives [1/8, 5/8)
    box = dilate(rectangle((2, 1)), 2.0, 4)
    lo, hi = box.ranges[0]
    assert (lo / 16, hi / 16) == (1 / 8, 5 / 8)


def test_dilate_clips_to_torus():
    box = dilate(rectangle((0, 0)), 7.5, 3)
    assert box.measure == 1.0
    with pytest.raises(ContractError):
        dilate(rectangle((0, 0)), 0.5, 3)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), float("-inf")])
def test_dilate_refuses_non_finite_mu(mu):
    with pytest.raises(ContractError):
        dilate(rectangle((2, 1)), mu, 4)


def test_maximal_intervals_in_mask():
    mask = np.zeros(16, dtype=bool)
    mask[0:8] = True
    mask[10:12] = True
    mask[13] = True
    found = maximal_intervals_in_mask(mask)
    rebuilt = np.zeros(16, dtype=bool)
    for iv in found:
        lo, hi = iv.cells(4)
        assert not rebuilt[lo:hi].any()  # pairwise disjoint
        rebuilt[lo:hi] = True
    assert np.array_equal(rebuilt, mask)
    for iv in found:
        if iv.level > 0:
            plo, phi = iv.parent().cells(4)
            assert not mask[plo:phi].all()  # maximality


def test_json_round_trips():
    r = rectangle((2, 3), (0, 0))
    assert DyadicRectangle.from_json(r.to_json()) == r
    i = interval(3, 5)
    assert DyadicInterval.from_json(i.to_json()) == i
    assert r.to_json() == [[2, 3], [0, 0]]


def test_rectangle_geometry():
    r = rectangle((1, 1), (2, 0))
    assert r.measure == 2 ** -3
    assert r.cell_count(3) == 4 * 2
    assert r.contains(rectangle((2, 2), (2, 0)))
    assert not r.contains(rectangle((0, 0), (2, 0)))
