import copy
import dataclasses
import itertools
import pickle

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
from dyadicpara.lattice import _rectangle_tuple


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


@dataclasses.dataclass(frozen=True, order=True)
class _PlainInterval:
    """DyadicInterval's fields with the hash the dataclass generates."""

    level: int
    position: int


@dataclasses.dataclass(frozen=True, order=True)
class _PlainRectangle:
    axes: tuple


def _fresh_intervals(L, cls=DyadicInterval):
    return [cls(k, j) for k in range(L + 1) for j in range(1 << k)]


@pytest.mark.parametrize("d, L", [(1, 0), (1, 6), (2, 3), (3, 2)])
def test_shared_lattice_equals_a_fresh_build(d, L):
    fresh = [DyadicRectangle(c) for c in itertools.product(_fresh_intervals(L), repeat=d)]
    assert enumerate_intervals(L) == _fresh_intervals(L)
    got = enumerate_rectangles(d, L)
    assert got == fresh
    assert all(a is b for a, b in zip(got, _rectangle_tuple(d, L)))
    # every call returns a new list; emptying one leaves the next whole
    got.clear()
    enumerate_intervals(L).clear()
    assert enumerate_rectangles(d, L) == fresh
    assert enumerate_rectangles(d, L) is not enumerate_rectangles(d, L)
    assert enumerate_intervals(L) == _fresh_intervals(L)


@pytest.mark.parametrize("d, L", [(1, 6), (2, 3), (3, 2)])
def test_cached_hash_is_the_dataclass_hash(d, L):
    rects = enumerate_rectangles(d, L)
    for r in rects:
        assert hash(r) == hash((r.axes,))
        assert all(hash(a) == hash((a.level, a.position)) for a in r.axes)
    plain = [
        _PlainRectangle(tuple(_PlainInterval(a.level, a.position) for a in r.axes))
        for r in rects
    ]
    assert [hash(p) for p in plain] == [hash(r) for r in rects]
    # so sets, and the collections built on them, iterate in the same order
    assert [r.to_json() for r in frozenset(rects)] == [
        [[a.level, a.position] for a in p.axes] for p in frozenset(plain)
    ]


def test_lattice_objects_have_slots_and_hash_lazily():
    rects = _rectangle_tuple(2, 2)
    for obj in (rects[-1], rects[-1].axes[0]):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "extra", 1)
    r = rectangle((2, 1), (3, 5))
    iv = r.axes[1]
    for c in (r, pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert hash(c) == hash((c.axes,)) == hash(((interval(2, 1), interval(3, 5)),))
        assert hash(c.axes[1]) == hash(iv) == hash((3, 5))
    # a copy of a hashed object and a fresh one hash alike, and the kept
    # hash takes no part in equality, order, repr or JSON
    fresh = rectangle((2, 1), (3, 5))
    for c in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), dataclasses.replace(r), fresh):
        assert c == r and not c < r and not r < c
        assert repr(c) == repr(fresh) and "_hash" not in repr(c)
        assert c.to_json() == [[2, 1], [3, 5]]
        assert {c: 1}[r] == 1 and hash(c) == hash(r)
    # unhashed copies hash on first use, into the order of plain dataclasses
    plain = [_PlainRectangle(tuple(_PlainInterval(*a.to_json()) for a in r.axes)) for r in rects]
    want = [p.axes for p in frozenset(plain)]
    unhashed = [DyadicRectangle(tuple(DyadicInterval(*a.to_json()) for a in r.axes)) for r in rects]
    for copies in (unhashed, pickle.loads(pickle.dumps(unhashed)), copy.deepcopy(rects)):
        got = [tuple(_PlainInterval(*a.to_json()) for a in r.axes) for r in frozenset(copies)]
        assert got == want


def test_copies_keep_equality_and_hash():
    r = rectangle((2, 1), (3, 5))
    for c in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r), dataclasses.replace(r)):
        assert c == r and hash(c) == hash(r)
    iv = dataclasses.replace(r.axes[0], position=3)
    assert iv == interval(2, 3) and hash(iv) == hash((2, 3))
    moved = dataclasses.replace(r, axes=(iv,))
    assert moved == rectangle((2, 3)) and hash(moved) == hash(((iv,),))


@pytest.mark.parametrize(
    "build",
    [
        lambda: dataclasses.replace(interval(2, 1), position=4),
        lambda: dataclasses.replace(interval(2, 1), level=-1),
        lambda: DyadicRectangle(()),
        lambda: DyadicRectangle(((1, 0),)),
        lambda: dataclasses.replace(rectangle((1, 0)), axes=(interval(1, 0), (0, 0))),
    ],
    ids=["position-out-of-range", "negative-level", "no-axes", "tuple-axis", "replaced-axis"],
)
def test_invalid_intervals_and_rectangles_are_refused(build):
    with pytest.raises(ContractError):
        build()


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
