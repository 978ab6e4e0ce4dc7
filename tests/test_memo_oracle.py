"""Differential oracle for the per-object memos.

`transforms.coefficients` keeps each signal's coefficient field per family,
and `operators.governing_operator` keeps each field's whole-lattice cell
array per (sigma, pi).  A memo hit must equal, bit for bit, a fresh
computation on a copy of the signal (a new object with empty memos), must
still make every public call, and must not outlive its object.
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
    governing_operator,
    lattice_rectangles,
    operators,
    transforms,
)
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
            assert not np.shares_memory(hit.values, field._cells[(spec.sigma, spec.pi)])
            fresh = governing_operator(Signal(d, L, f.values), spec)
            assert np.array_equal(hit.values, fresh.values)
            assert np.array_equal(first.values, fresh.values)
        assert len(field._cells) == len(list(_specs(family)))


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
            kept = dict(field._cells)
            got = governing_operator(f, spec, collection=collection)
            assert field._cells == kept
            fresh = governing_operator(Signal(d, L, f.values), spec, collection=collection)
            assert np.array_equal(got.values, fresh.values)
            assert not np.array_equal(got.values, governing_operator(f, spec).values)


def _refuse(*args):
    raise AssertionError("coefficients called despite an explicit field")


@pytest.mark.parametrize("d, L", [(1, 9), (2, 4), (3, 3)])
def test_explicit_field_bypasses_the_signal_memo(monkeypatch, d, L):
    family = AdaptedFamily.haar(d)
    f_values, g_values = _inputs(d, L)
    f = Signal(d, L, f_values)
    g_field = coefficients(Signal(d, L, g_values), family)
    specs = list(_specs(family))
    want = [governing_operator(Signal(d, L, g_values), spec).values for spec in specs]
    for spec in specs:
        governing_operator(f, spec)  # f keeps its own field and cells
    monkeypatch.setattr(operators, "coefficients", _refuse)
    for spec, w in zip(specs, want):
        assert np.array_equal(governing_operator(f, spec, field=g_field).values, w)


def test_memos_die_with_their_signal():
    family = AdaptedFamily.abs_haar(2)
    f = Signal(2, 4, _inputs(2, 4)[0])
    field = coefficients(f, family)
    spec = OperatorSpec.all_max(family)
    governing_operator(f, spec)
    field_ref = weakref.ref(field)
    cells_ref = weakref.ref(field._cells[(spec.sigma, spec.pi)])
    del field
    gc.collect()
    assert field_ref() is not None  # the signal keeps its field
    del f
    gc.collect()
    assert field_ref() is None
    assert cells_ref() is None
