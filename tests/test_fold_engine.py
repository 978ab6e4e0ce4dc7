"""Differential test of the per-axis fold engine against the old cascades.

`_gather` and the Haar analysis (`_step_analysis_axis` on a mean-zero axis)
move an axis through `_fold_up`, and `_spread` through its own level loop;
the Haar synthesis (`_step_synthesis_axis` on a mean-zero axis) is the
add-spread of signed child slots.  Each must equal its cascade in
`cascade_oracle.py` bit for bit, dtype included.  The |h| synthesis of an
axis without the zero flag is the add-spread of its slots scaled by
2^(k/2), the same operations.  The table paths for small tensors are
switched off here, so the fold runs at every size.
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
    interval[transforms._ancestor_slots(L, False), np.arange(n)] = 1.0
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


def _layouts(shape, seed, flags=False):
    """A C-ordered tensor, a Fortran-ordered one, a strided view and a
    read-only copy; of floats, or of bools with `flags`."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(shape)
    wide = rng.standard_normal(tuple(2 * n for n in shape))
    if flags:
        c, wide = c > 0, wide > 0
    frozen = c.copy()
    frozen.flags.writeable = False
    return c, np.asfortranarray(c), wide[(slice(None, None, 2),) * len(shape)], frozen


# each pairing of `_fold_up` and each op of `_spread`, in place, beside the
# value-returning pairing of the old fold; the Haar synthesis (zero flag
# set) beside the old fold with the Haar children
_UPS = [
    (transforms._haar_pair, oracle._haar_pair, False),
    (transforms._step_pair, oracle._step_pair, False),
] + [
    (transforms._op_pair(op), oracle._op_pair(op), flags)
    for op, flags in (
        (np.add, False), (np.maximum, False), (np.logical_or, True), (np.logical_and, True)
    )
]
_DOWNS = [
    (op, oracle._op_pair(op), flags)
    for op, flags in (
        (np.add, False), (np.maximum, False), (np.logical_or, True), (np.logical_and, True)
    )
]


@pytest.mark.parametrize(
    "d, L", [(1, 0), (1, 1), (1, 6), (2, 0), (2, 1), (2, 4), (3, 0), (3, 1), (3, 3)]
)
def test_folds_match_their_moveaxis_form(fold_only, d, L):
    # values and strides, for every axis and every pairing or op the engine
    # uses, each against its old form; no input is ever written
    for axis in range(d):
        shape, seed = ((1 << L),) * d, 10 * d + L + axis
        for real, flags in zip(_layouts(shape, seed), _layouts(shape, seed, flags=True)):
            for fold, old_fold, cases in (
                (transforms._fold_up, oracle._fold_up_moveaxis, _UPS),
                (transforms._spread, oracle._fold_down_moveaxis, _DOWNS),
                (
                    transforms._step_synthesis_axis,
                    oracle._fold_down_moveaxis,
                    [(True, oracle._haar_children, False)],
                ),
            ):
                for pair, old_pair, on_flags in cases:
                    values = flags if on_flags else real
                    before = values.copy()
                    got = fold(values, axis, L, pair)
                    want = old_fold(values, axis, L, old_pair)
                    _assert_same(got, want)
                    # at L = 0 the old fold returns a view of its input; the
                    # Haar synthesis returns a new array, of its own strides
                    if L or fold is not transforms._step_synthesis_axis:
                        assert got.strides == want.strides
                    _assert_same(values, before)
                    if L:
                        assert not np.shares_memory(got, values)


@pytest.mark.parametrize("d, L", _GRIDS)
@pytest.mark.parametrize("size_max", [0, 1 << 10])
def test_haar_synthesis_keeps_every_signed_zero(monkeypatch, d, L, size_max):
    # -0.0 beside the mean and x + (-y) for x - y: the fold over signed
    # child slots gives the cascade's bytes, the sign of every zero
    # included.  The gather (size_max 2^10, on the small grids) equals it
    # in value: numpy starts an add-reduction from +0.0, so a cell whose
    # terms are all -0.0 gets +0.0 there.
    monkeypatch.setattr(transforms, "_HAAR_MATRIX_MAX_N", 0)
    monkeypatch.setattr(transforms, "_SMALL_SIZE_MAX", size_max)
    rng = np.random.default_rng(10 * d + L)
    shape = ((1 << L),) * d
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    mixed = np.where(rng.random(shape) < 0.5, zeros, rng.standard_normal(shape))
    for values in (zeros, -zeros, np.full(shape, 0.0), np.full(shape, -0.0), mixed):
        before = values.tobytes()
        for axis in range(d):
            got = transforms._step_synthesis_axis(values, axis, L, True)
            want = oracle._haar_synthesis_cascade(values, axis, L)
            if values.size > size_max:
                assert got.tobytes() == want.tobytes()
            assert np.array_equal(got, want)
            assert values.tobytes() == before
