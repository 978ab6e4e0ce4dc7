"""Differential tests: per-axis dyadic spread against the level-tuple oracle.

Bit-identical where the two compute the same operations in the same order
(d = 1, every all-max operator, the eval_B weights); elsewhere the spread
sums in a nested per-axis order and must agree to 1e-12 relative.
eval_Lambda takes one exactly rounded sum over all terms where the oracle
rounds each level block first, so it is compared at 1e-12 everywhere.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadicpara import (
    AdaptedFamily,
    OperatorSpec,
    ParaproductSpec,
    RectangleCollection,
    ResolutionError,
    Signal,
    eval_B,
    eval_L,
    eval_Lambda,
    governing_operator,
    lattice_rectangles,
    rectangle,
    standard_triple,
)
from dyadicpara import families, transforms
from dyadicpara.families import KINDS
from dyadicpara.norms import _extended_square

import level_tuple_oracle as oracle

GRIDS = [(1, 5), (2, 4), (3, 3)]
COLLECTIONS = ["none", "empty", "random", "full"]


def _assert_matches(got, want, exact):
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _collection(kind, d, L, rng):
    if kind == "none":
        return None
    rects = lattice_rectangles(d, L)
    if kind == "random":
        rects = [r for r in rects if rng.random() < 0.5]
    elif kind == "empty":
        rects = []
    return RectangleCollection.of(rects, L)


def _signals(rng, d, L, count):
    shape = ((1 << L),) * d
    return [Signal(d, L, rng.standard_normal(shape) + 0.5) for _ in range(count)]


def _families(kind, d):
    yield AdaptedFamily.make(kind, d)
    if d > 1:  # a mixed zero pattern as well
        yield AdaptedFamily.make(kind, d, tuple(j % 2 == 0 for j in range(d)))


def _specs(family):
    for sigma in itertools.product(("square", "max"), repeat=family.d):
        if any(s == "square" and not z for s, z in zip(sigma, family.zero_pattern)):
            continue
        for pi in itertools.permutations(range(family.d)):
            yield OperatorSpec(family, sigma, pi)


@pytest.mark.parametrize("collection_kind", COLLECTIONS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d, L", GRIDS)
def test_governing_operator_matches_oracle(rng, d, L, kind, collection_kind):
    (f,) = _signals(rng, d, L, 1)
    collection = _collection(collection_kind, d, L, rng)
    for family in _families(kind, d):
        for spec in _specs(family):
            got = governing_operator(f, spec, collection).values
            want = oracle.governing_operator(f, spec, collection).values
            _assert_matches(got, want, d == 1 or set(spec.sigma) == {"max"})


def _paraproduct_specs(d):
    yield standard_triple(d, "haar")
    yield standard_triple(d, "gaussian")
    # trilinear, all four kinds; Haar output reconstructs by the cascade
    yield ParaproductSpec(
        (
            AdaptedFamily.smooth_bump(d),
            AdaptedFamily.abs_haar(d),
            AdaptedFamily.smooth(d),
            AdaptedFamily.haar(d),
        )
    )
    yield ParaproductSpec(
        (
            AdaptedFamily.haar(d),
            AdaptedFamily.abs_haar(d),
            AdaptedFamily.haar(d),
            AdaptedFamily.smooth(d),
        )
    )


@pytest.mark.parametrize("collection_kind", COLLECTIONS)
@pytest.mark.parametrize("d, L", GRIDS)
def test_paraproducts_match_oracle(rng, d, L, collection_kind):
    collection = _collection(collection_kind, d, L, rng)
    for spec in _paraproduct_specs(d):
        fs = _signals(rng, d, L, spec.n + 1)
        _assert_matches(
            eval_B(spec, fs[:-1], collection).values,
            oracle.eval_B(spec, fs[:-1], collection).values,
            exact=True,
        )
        _assert_matches(
            eval_L(spec, fs, collection).values,
            oracle.eval_L(spec, fs, collection).values,
            exact=d == 1,
        )
        _assert_matches(
            eval_Lambda(spec, fs, collection),
            oracle.eval_Lambda(spec, fs, collection),
            exact=False,
        )


@pytest.mark.parametrize("d, L", GRIDS)
def test_extended_square_matches_oracle(rng, d, L):
    for f in _signals(rng, d, L, 3):
        _assert_matches(_extended_square(f), oracle._extended_square(f), d == 1)


@pytest.mark.parametrize("d, L", [(1, 4), (2, 3)])
def test_collection_finer_than_lattice_refused(rng, d, L):
    fs = _signals(rng, d, L, 3)
    finest = RectangleCollection.of([rectangle(*[(L, 0)] * d)], L)
    spec = standard_triple(d, "haar")
    with pytest.raises(ResolutionError):
        governing_operator(fs[0], OperatorSpec.all_max(spec.families[0]), finest)
    with pytest.raises(ResolutionError):
        eval_L(spec, fs, finest)
    with pytest.raises(ResolutionError):
        eval_B(spec, fs[:2], finest)


# grids on both sides of transforms._SMALL_SIZE_MAX, where the per-axis
# kernels switch from one gather or product to the level cascade
PROPERTY_GRIDS = [(1, 5), (1, 11), (2, 3), (2, 6), (3, 2), (3, 4)]


def _drawn_collection(data, d, L, rng):
    kind = data.draw(st.sampled_from(COLLECTIONS + ["sparse"]), label="collection")
    if kind != "sparse":
        return _collection(kind, d, L, rng)
    rects = [r for r in lattice_rectangles(d, L) if rng.random() < 0.05]
    return RectangleCollection.of(rects, L)


def _drawn_family(data, d):
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    zeros = data.draw(st.tuples(*[st.booleans()] * d), label="zero_pattern")
    return AdaptedFamily.make(kind, d, zeros)


def _property_case(test):
    """Runs `test(data, d, L, rng)` on a drawn grid and seed; the profile
    matrices of a d=1 L=11 grid (32 MiB each) are dropped afterwards."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def run(data):
        d, L = data.draw(st.sampled_from(PROPERTY_GRIDS), label="grid")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        try:
            test(data, d, L, rng)
        finally:
            if (1 << L) > transforms._SMALL_SIZE_MAX:
                families._profile_matrix_cached.cache_clear()

    run.__name__ = test.__name__
    return run


@_property_case
def test_governing_operator_matches_oracle_property(data, d, L, rng):
    family = _drawn_family(data, d)
    sigma = tuple(
        data.draw(st.sampled_from(["square", "max"] if zero else ["max"]), label=f"sigma{j}")
        for j, zero in enumerate(family.zero_pattern)
    )
    pi = tuple(data.draw(st.permutations(range(d)), label="pi"))
    spec = OperatorSpec(family, sigma, pi)
    collection = _drawn_collection(data, d, L, rng)
    (f,) = _signals(rng, d, L, 1)
    got = governing_operator(f, spec, collection).values
    want = oracle.governing_operator(f, spec, collection).values
    _assert_matches(got, want, d == 1 or set(sigma) == {"max"})


@_property_case
def test_eval_L_matches_oracle_property(data, d, L, rng):
    n = data.draw(st.integers(2, 3), label="n")
    slots = [_drawn_family(data, d) for _ in range(n + 1)]
    # every coordinate needs two mean-zero slots: flag the first two of a
    # drawn slot order
    patterns = [list(fam.zero_pattern) for fam in slots]
    for j in range(d):
        for v in data.draw(st.permutations(range(n + 1)), label=f"zero slots {j}")[:2]:
            patterns[v][j] = True
    spec = ParaproductSpec(
        tuple(AdaptedFamily.make(fam.kind, d, tuple(p)) for fam, p in zip(slots, patterns))
    )
    collection = _drawn_collection(data, d, L, rng)
    fs = _signals(rng, d, L, n + 1)
    got = eval_L(spec, fs, collection).values
    want = oracle.eval_L(spec, fs, collection).values
    _assert_matches(got, want, d == 1)
