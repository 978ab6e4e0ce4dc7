"""Differential oracle for the per-object memos.

Each signal has one memo, `_memo`: `transforms.coefficients` keeps its
coefficient field per family there, `signals.lp_norm` its norm per
exponent, and `decomposition.hypothesis_holds` its failing slots per
(threshold, leaves).  `operators.governing_operator` keeps each
field's whole-lattice output per (sigma, pi) in `_outputs`, and every later
output of it is a view that shares its memo.  A memo hit must equal, bit
for bit, a fresh computation on a copy of the signal (a new object with an
empty memo), must still make every public call, and must not outlive its
object.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest

from dyadicpara import (
    AdaptedFamily,
    OperatorSpec,
    RectangleCollection,
    Signal,
    coefficients,
    decomposition,
    governing_operator,
    lattice_rectangles,
    operators,
    signals,
    transforms,
)
from dyadicpara.decomposition import FRACTION
from dyadicpara.lattice import _rectangle_tuple
from dyadicpara.operators import MAX, SQUARE

_FAMILIES = {
    "haar": AdaptedFamily.haar,
    "abs-haar": AdaptedFamily.abs_haar,
    "smooth": AdaptedFamily.smooth,
    "smooth-mixed": lambda d: AdaptedFamily.smooth(d, zero_pattern=[a % 2 == 0 for a in range(d)]),
    "bump": AdaptedFamily.smooth_bump,
    "haar-mixed": lambda d: AdaptedFamily.make("haar", d, [a % 2 == 1 for a in range(d)]),
}

# d=1 on both sides of transforms._fold_by_product (n = 2^8 the last product)
_GRIDS = [(1, 8), (1, 9), (2, 4), (3, 3)]

_ANALYSIS = ("_step_analysis_axis", "_matrix_axis")


def _specs(family):
    """Every sigma the zero pattern allows, each with the identity and the
    reversed nesting order."""
    d = family.d
    choices = [(MAX, SQUARE) if z else (MAX,) for z in family.zero_pattern]
    for sigma in itertools.product(*choices):
        for pi in dict.fromkeys([tuple(range(d)), tuple(range(d))[::-1]]):
            yield OperatorSpec(family, sigma, pi)


def _inputs(d, L):
    rng = np.random.default_rng(1000 * d + L)
    shape = ((1 << L),) * d
    return [rng.standard_normal(shape), (rng.random(shape) < 0.3) * 1.0]


@pytest.fixture
def counted(monkeypatch):
    """Records calls of `profile_matrix` and of the per-axis analyses."""
    calls = []
    profile_matrix = transforms.AdaptedFamily.profile_matrix

    def counted_matrix(self, axis, L):
        calls.append("profile_matrix")
        return profile_matrix(self, axis, L)

    monkeypatch.setattr(transforms.AdaptedFamily, "profile_matrix", counted_matrix)
    for name in _ANALYSIS:
        def wrapper(*args, _name=name, _fn=getattr(transforms, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(transforms, name, wrapper)
    return calls


@pytest.mark.parametrize("kind", _FAMILIES)
@pytest.mark.parametrize("d, L", _GRIDS)
def test_coefficient_memo_hit_equals_fresh_field(counted, kind, d, L):
    family = _FAMILIES[kind](d)
    fetches = [] if family.is_orthonormal_basis else ["profile_matrix"] * d
    for values in _inputs(d, L):
        f = Signal(d, L, values)
        first = coefficients(f, family)
        counted.clear()
        hit = coefficients(f, family)
        assert hit is first
        assert counted == fetches  # the fetches stay, no analysis runs
        fresh = coefficients(Signal(d, L, f.values), family)
        assert fresh is not hit
        assert np.array_equal(hit.tensor, fresh.tensor)
        assert hit.tensor.strides == fresh.tensor.strides


@pytest.mark.parametrize("kind", _FAMILIES)
@pytest.mark.parametrize("d, L", _GRIDS)
def test_operator_memo_hit_equals_fresh_operator(kind, d, L):
    family = _FAMILIES[kind](d)
    for values in _inputs(d, L):
        f = Signal(d, L, values)
        field = coefficients(f, family)
        for spec in _specs(family):
            first = governing_operator(f, spec)
            hit = governing_operator(f, spec)
            assert hit is not first
            # the first output is kept, its cells shared read-only: every
            # output, the kept one too, holds a view of them that cannot
            # be made writeable
            assert field._outputs[(spec.sigma, spec.pi)] is first
            assert hit.values is not first.values
            assert np.shares_memory(hit.values, first.values)
            for out in (first, hit):
                with pytest.raises(ValueError):
                    out.values.flags.writeable = True
            fresh = governing_operator(Signal(d, L, f.values), spec)
            assert np.array_equal(hit.values, fresh.values)
            assert np.array_equal(first.values, fresh.values)
        assert len(field._outputs) == len(list(_specs(family)))


@pytest.mark.parametrize("d, L", [(1, 9), (2, 4), (3, 3)])
def test_collection_bypasses_the_operator_memo(d, L):
    family = AdaptedFamily.haar(d)
    rects = lattice_rectangles(d, L)
    collection = RectangleCollection.of(rects[::3], L)
    for values in _inputs(d, L):
        f = Signal(d, L, values)
        for spec in _specs(family):
            governing_operator(f, spec)  # fills the memo of the whole lattice
            field = coefficients(f, family)
            kept = dict(field._outputs)
            got = governing_operator(f, spec, collection=collection)
            assert field._outputs == kept
            fresh = governing_operator(Signal(d, L, f.values), spec, collection=collection)
            assert np.array_equal(got.values, fresh.values)
            assert not np.array_equal(got.values, governing_operator(f, spec).values)


def test_memos_die_with_their_signal():
    family = AdaptedFamily.abs_haar(2)
    f = Signal(2, 4, _inputs(2, 4)[0])
    field = coefficients(f, family)
    spec = OperatorSpec.all_max(family)
    governing_operator(f, spec)
    field_ref = weakref.ref(field)
    output_ref = weakref.ref(field._outputs[(spec.sigma, spec.pi)])
    del field
    gc.collect()
    assert field_ref() is not None  # the signal keeps its field
    del f
    gc.collect()
    assert field_ref() is None
    assert output_ref() is None


# -- the level-set memo of `decomposition.hypothesis_holds` ------------------


def _count_and_compare(t_values, collection, threshold, frac):
    """`hypothesis_holds` before its memo and its one rank: the exceedances
    add-gathered to coefficient layout, each member's count compared with
    its allowance, floor(frac * cells)."""
    L = t_values.L
    index, levels, width = transforms._member_slots(collection, t_values.d, L, leaves=True)
    count = (t_values.values > threshold).astype(float)
    for axis in range(t_values.d):
        count = transforms._gather(count, axis, L, np.add, leaves=width > 1 << L)
    allowed = np.floor(np.ldexp(1.0, (L - levels).sum(axis=1)) * frac)
    return bool((count[index] <= allowed).all())


def _collections(rng, d, L):
    """Empty, single-member and random collections, each without a member at
    level L (no leaf slots) and with one (leaf slots)."""
    for top in (L - 1, L):
        rects = _rectangle_tuple(d, top)
        deepest = [r for r in rects if max(r.levels) == top]
        yield RectangleCollection.of([], L)
        yield RectangleCollection.of([deepest[rng.integers(len(deepest))]], L)
        picked = rng.choice(len(rects), size=min(len(rects), 40), replace=False)
        yield RectangleCollection.of([rects[i] for i in picked] + deepest[:1], L)


def _thresholds(rng, t):
    """Zero, quantiles and cell values themselves, so that ties occur."""
    cells = t.values.ravel()
    return [
        0.0,
        *np.quantile(cells, [0.5, 0.99]).tolist(),
        *cells[rng.integers(cells.size, size=3)].tolist(),
        float(cells.max()),
    ]


@pytest.mark.parametrize("d, L", [(1, 8), (2, 4), (3, 3)])
def test_hypothesis_memo_hit_equals_fresh_count(d, L):
    rng = np.random.default_rng(10 * d + L)
    family = AdaptedFamily.abs_haar(d)
    for values in _inputs(d, L):
        f = Signal(d, L, values)
        for spec in _specs(family):
            first = governing_operator(f, spec)
            memo = first._memo
            collections = list(_collections(rng, d, L))
            thresholds = _thresholds(rng, first)
            cases = list(itertools.product(collections, thresholds))
            for collection, threshold in cases:
                decomposition.hypothesis_holds(first, collection, threshold)
            stored = len(memo)
            # a later whole-lattice output is a new signal with the same memo
            hit = governing_operator(f, spec)
            assert hit is not first and hit._memo is memo
            for collection, threshold in cases:
                got = decomposition.hypothesis_holds(hit, collection, threshold)
                fresh_t = Signal(d, L, hit.values)
                fresh = decomposition.hypothesis_holds(fresh_t, collection, threshold)
                assert fresh_t._memo is not memo
                want = _count_and_compare(hit, collection, threshold, FRACTION)
                assert got == fresh == want
            assert len(memo) == stored  # every verdict above was a memo hit
            assert {leaves for _, leaves in memo} == {False, True}


@pytest.mark.parametrize("d, L", [(1, 8), (2, 4), (3, 3)])
def test_memo_entries_are_read_only_booleans(d, L):
    f = Signal(d, L, _inputs(d, L)[0])
    t = governing_operator(f, OperatorSpec.all_max(AdaptedFamily.abs_haar(d)))
    for collection in _collections(np.random.default_rng(d), d, L):
        decomposition.hypothesis_holds(t, collection, float(np.median(t.values)))
    for (_, leaves), over in t._memo.items():
        assert over.dtype == bool and not over.flags.writeable
        assert over.shape == (((2 if leaves else 1) << L),) * d
        with pytest.raises(ValueError):
            over[(0,) * d] = True


@pytest.mark.parametrize("d, L", [(1, 8), (2, 4), (3, 3)])
def test_restricted_output_never_sees_the_whole_lattice_memo(d, L):
    rng = np.random.default_rng(d + L)
    family = AdaptedFamily.abs_haar(d)
    f = Signal(d, L, _inputs(d, L)[0])
    spec = OperatorSpec.all_max(family)
    whole = governing_operator(f, spec)
    # an operator restricts to members above the grid level only
    collections = [
        c for c in _collections(rng, d, L) if all(max(r.levels) < L for r in c.members)
    ]
    for collection in collections:
        decomposition.hypothesis_holds(whole, collection, float(np.median(whole.values)))
    signals.lp_norm(whole, 2.0)
    coefficients(whole, family)
    kept = dict(whole._memo)
    for collection in collections:
        restricted = operators.restricted_operator(f, spec, collection)
        assert restricted._memo == {}
        threshold = float(np.median(restricted.values))
        got = decomposition.hypothesis_holds(restricted, collection, threshold)
        assert got == _count_and_compare(restricted, collection, threshold, FRACTION)
        assert restricted._memo is not whole._memo
    assert whole._memo == kept
    assert governing_operator(f, spec)._memo is whole._memo


def test_level_set_memo_dies_with_its_field():
    family = AdaptedFamily.abs_haar(2)
    f = Signal(2, 4, _inputs(2, 4)[0])
    t = governing_operator(f, OperatorSpec.all_max(family))
    collection = RectangleCollection.of(lattice_rectangles(2, 4)[::5], 4)
    decomposition.hypothesis_holds(t, collection, 0.5)
    (entry,) = t._memo.values()
    # the field of an output lives in the same memo
    refs = [weakref.ref(entry), weakref.ref(coefficients(t, family))]
    del entry, t
    gc.collect()
    assert all(ref() is not None for ref in refs)  # the field keeps its output
    del f
    gc.collect()
    assert all(ref() is None for ref in refs)


# -- what the views of a kept output share ------------------------------------


def _refuse_norm(*args):
    raise AssertionError("lp_norm recomputed on a shared memo")


@pytest.mark.parametrize("d, L", [(1, 9), (2, 4), (3, 3)])
def test_views_share_norms_and_fields(counted, monkeypatch, d, L):
    family, other = AdaptedFamily.abs_haar(d), AdaptedFamily.smooth(d)
    f = Signal(d, L, _inputs(d, L)[0])
    spec = OperatorSpec.all_max(family)
    first = governing_operator(f, spec)
    norms = {p: signals.lp_norm(first, p) for p in (1.0, 2.0, np.inf)}
    fields = {fam: coefficients(first, fam) for fam in (family, other)}
    fresh_t = Signal(d, L, first.values)
    want = {p: signals.lp_norm(fresh_t, p) for p in norms}
    monkeypatch.setattr(signals, "_lp_norm", _refuse_norm)
    counted.clear()
    hit = governing_operator(f, spec)
    assert hit is not first and hit._memo is first._memo
    assert {p: signals.lp_norm(hit, p) for p in norms} == norms == want
    for fam, field in fields.items():
        assert coefficients(hit, fam) is field
    assert counted and not set(counted) & set(_ANALYSIS)  # fetches only

