"""Differential test of the per-axis fold engine against the old cascades.

`_spread`, `_gather`, the Haar analysis and synthesis (`_step_analysis_axis`
and `_step_synthesis_axis` on a mean-zero axis) move an axis through
`_fold_up` or `_fold_down`; each must equal its cascade in `cascade_oracle.py`
bit for bit, dtype included.  The |h| synthesis of an axis without the zero
flag is the add-spread of its slots scaled by 2^(k/2), the same operations.
The table paths for small tensors are switched off here, so the fold runs at
every size.
"""

import numpy as np
import pytest

from dyadicpara import AdaptedFamily, Signal, coefficients, transforms

import cascade_oracle as oracle

# (d, L): L = 0 and 1, and grids on both sides of transforms._SMALL_SIZE_MAX
_GRIDS = [
    (1, 0), (1, 1), (1, 10), (1, 11),
    (2, 0), (2, 1), (2, 5), (2, 6),
    (3, 0), (3, 1), (3, 3), (3, 4),
]


@pytest.fixture
def fold_only(monkeypatch):
    monkeypatch.setattr(transforms, "_SMALL_SIZE_MAX", 0)


def _inputs(d, L, axis, width):
    """Float, bool and intp tensors with `width` slots along `axis`."""
    rng = np.random.default_rng(100 * d + 10 * L + axis)
    shape = [1 << L] * d
    shape[axis] = width
    return (
        rng.standard_normal(shape),
        rng.random(shape) < 0.5,
        rng.integers(-9, 10, shape),
    )


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_grids_straddle_the_small_size_bound():
    sizes = {d: [1 << (d * L) for dd, L in _GRIDS if dd == d] for d in (1, 2, 3)}
    for d, grid_sizes in sizes.items():
        assert min(grid_sizes) <= transforms._SMALL_SIZE_MAX < max(grid_sizes)


@pytest.mark.parametrize("d, L", _GRIDS)
@pytest.mark.parametrize("leaves", [False, True])
def test_spread_equals_cascade(fold_only, d, L, leaves):
    n = 1 << L
    for axis in range(d):
        real, flags, _ = _inputs(d, L, axis, 2 * n if leaves else n)
        for values, op in ((real, np.add), (real, np.maximum), (flags, np.logical_or)):
            coeffs, tail = np.split(values, 2, axis=axis) if leaves else (values, None)
            want = oracle._spread_cascade(coeffs, axis, L, op)
            if leaves:
                want = op(want, tail)
            _assert_same(transforms._spread(values, axis, L, op), want)


@pytest.mark.parametrize("d, L", _GRIDS)
@pytest.mark.parametrize("leaves", [False, True])
def test_gather_equals_cascade(fold_only, d, L, leaves):
    for axis in range(d):
        real, flags, counts = _inputs(d, L, axis, 1 << L)
        cases = ((real, np.add), (counts, np.add), (flags, np.logical_and))
        for cells, op in cases:
            want = oracle._gather_cascade(cells, axis, L, op)
            if leaves:
                want = np.concatenate([want, cells], axis=axis)
            _assert_same(transforms._gather(cells, axis, L, op, leaves=leaves), want)


@pytest.mark.parametrize("d, L", _GRIDS)
def test_haar_analysis_and_synthesis_equal_cascade(fold_only, d, L):
    for axis in range(d):
        real, flags, _ = _inputs(d, L, axis, 1 << L)
        # both Haar moves act on real values (the cascades cast their
        # result to the input dtype), so an indicator comes as 0/1 floats
        for values in (real, flags * 1.0):
            # the cascade scales by 1/n inside, the step analysis takes
            # input already scaled by the cell measure
            got = transforms._step_analysis_axis(values * (1.0 / (1 << L)), axis, L, True)
            want = oracle._haar_analysis_cascade(values, axis, L)
            _assert_same(got, want)
            assert got.strides == want.strides
            got = transforms._step_synthesis_axis(values, axis, L, True)
            _assert_same(got, oracle._haar_synthesis_cascade(values, axis, L))


def level_scaled(values, axis, L):
    """`values` with slot 2^k + j of `axis` times 2^(k/2), the mean slot
    times 1: the steps that the |h| synthesis adds in."""
    scales = [1.0] + [2.0 ** (k / 2.0) for k in range(L) for _ in range(1 << k)]
    shape = [1] * values.ndim
    shape[axis] = 1 << L
    return values * np.reshape(scales, shape)


@pytest.mark.parametrize("d, L", _GRIDS)
def test_step_synthesis_equals_level_scaled_spread(fold_only, d, L):
    for axis in range(d):
        real, flags, _ = _inputs(d, L, axis, 1 << L)
        for values in (real, flags * 1.0):
            got = transforms._step_synthesis_axis(values, axis, L, False)
            want = oracle._spread_cascade(level_scaled(values, axis, L), axis, L, np.add)
            _assert_same(got, want)


@pytest.mark.parametrize("L", range(9))
def test_fold_matrices_equal_the_old_tables(L):
    n = 1 << L
    interval = np.zeros((n, n))
    interval[transforms._ancestor_slots(L), np.arange(n)] = 1.0
    haar = oracle._haar_analysis_cascade(np.eye(n), 0, L)
    for pair, want in ((transforms._op_pair(np.add), interval), (transforms._haar_pair, haar)):
        matrix = transforms._fold_matrix(L, pair)
        # the Haar table held the 1/n that the analysis input now carries
        _assert_same(matrix * (2.0**-L if pair is transforms._haar_pair else 1.0), want)
        assert matrix.flags.c_contiguous and not matrix.flags.writeable
    # a step profile matrix is the fold's matrix with row 0 zeroed
    for zero, pair in ((False, transforms._step_pair), (True, transforms._haar_pair)):
        want = np.array(AdaptedFamily.make("abs-haar", 1, (zero,)).profile_matrix(0, L))
        want[0] = 1.0
        _assert_same(transforms._fold_matrix(L, pair), want)


# strides of the coefficient tensor: C order, as the folds leave them
@pytest.mark.parametrize(
    "family, d, L, strides",
    [
        (AdaptedFamily.haar, 2, 9, (4096, 8)),
        (AdaptedFamily.haar, 3, 4, (2048, 128, 8)),
        (AdaptedFamily.abs_haar, 2, 9, (4096, 8)),
        (AdaptedFamily.abs_haar, 3, 4, (2048, 128, 8)),
    ],
)
def test_coefficients_keep_their_memory_layout(family, d, L, strides):
    f = Signal(d, L, np.random.default_rng(d * L).standard_normal(((1 << L),) * d))
    field = coefficients(f, family(d))
    assert field.tensor.strides == strides
    if family is AdaptedFamily.haar:
        want = f.values
        for axis in range(d):
            want = oracle._haar_analysis_cascade(want, axis, L)
        assert np.array_equal(field.tensor, want)


def _layouts(shape, seed):
    """A C-ordered tensor, a Fortran-ordered one and a strided view."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(shape)
    wide = rng.standard_normal(tuple(2 * n for n in shape))
    return c, np.asfortranarray(c), wide[(slice(None, None, 2),) * len(shape)]


@pytest.mark.parametrize("d, L", [(2, 0), (2, 1), (2, 4), (3, 0), (3, 1), (3, 3)])
def test_folds_match_their_moveaxis_form(d, L):
    # values and strides, for every axis and every pairing the engine uses
    ups = (transforms._haar_pair, transforms._step_pair, transforms._op_pair(np.add))
    downs = (transforms._haar_children, transforms._step_children, transforms._op_pair(np.maximum))
    for axis in range(d):
        for values in _layouts(((1 << L),) * d, 10 * d + L + axis):
            for pair in ups:
                got = transforms._fold_up(values, axis, L, pair)
                want = oracle._fold_up_moveaxis(values, axis, L, pair)
                _assert_same(got, want)
                assert got.strides == want.strides
            for children in downs:
                got = transforms._fold_down(values, axis, L, children)
                want = oracle._fold_down_moveaxis(values, axis, L, children)
                _assert_same(got, want)
                assert got.strides == want.strides

