import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicpara import (
    AdaptedFamily,
    CoefficientField,
    ContractError,
    RectangleCollection,
    ResolutionError,
    Signal,
    UnsupportedFamilyError,
    coefficients,
    lattice_rectangles,
    lp_norm,
    families,
    reconstruct,
    rectangle,
    transforms,
)
from dyadicpara.transforms import (
    _matrix_axis,
    _rectangle_weights,
    _step_analysis_axis,
    _weight_table,
)

import cascade_oracle


def _haar_signal(rect, L, d=1):
    fam = AdaptedFamily.haar(d)
    return Signal(d, L, fam.rectangle_profile(rect, L))


def test_single_haar_coefficient():
    f = _haar_signal(rectangle((1, 0)), 4)
    field = coefficients(f, AdaptedFamily.haar(1))
    for r in lattice_rectangles(1, 4):
        expected = 1.0 if r == rectangle((1, 0)) else 0.0
        assert field.rectangle_coefficient(r) == pytest.approx(expected, abs=1e-14)


def test_constant_annihilated_by_zeros():
    field = coefficients(Signal.constant(1, 4, 1.0), AdaptedFamily.haar(1))
    assert field.oscillatory_energy() == pytest.approx(0.0, abs=1e-28)
    assert field.tensor[0] == pytest.approx(1.0)


def test_abs_haar_coefficients_of_one():
    field = coefficients(Signal.constant(1, 4, 1.0), AdaptedFamily.abs_haar(1))
    for r in lattice_rectangles(1, 4):
        k = r.axes[0].level
        assert field.rectangle_coefficient(r) == pytest.approx(
            2.0 ** (-k / 2), rel=1e-12
        )


@pytest.mark.parametrize("d, L", [(1, 5), (2, 3)])
def test_direct_inner_product_oracle(rng, d, L):
    fam = AdaptedFamily.haar(d)
    f = Signal(d, L, rng.standard_normal(((1 << L),) * d))
    field = coefficients(f, fam)
    for r in lattice_rectangles(d, L):
        direct = float(np.sum(f.values * fam.rectangle_profile(r, L))) * f.cell_measure
        assert field.rectangle_coefficient(r) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("d, L", [(1, 6), (2, 4)])
def test_round_trip_and_parseval(rng, d, L):
    fam = AdaptedFamily.haar(d)
    for _ in range(20):
        f = Signal(d, L, rng.standard_normal(((1 << L),) * d))
        field = coefficients(f, fam)
        back = reconstruct(field)
        scale = float(np.abs(f.values).max())
        assert np.abs(back.values - f.values).max() <= 1e-12 * scale
        assert field.energy() == pytest.approx(lp_norm(f, 2.0) ** 2, rel=1e-12)


def test_reconstruct_basis_element():
    d, L = 2, 3
    tensor = np.zeros((8, 8))
    tensor[(1 << 1) + 1, (1 << 0) + 0] = 1.0
    field = CoefficientField(d, L, AdaptedFamily.haar(2), tensor)
    got = reconstruct(field)
    want = AdaptedFamily.haar(2).rectangle_profile(rectangle((1, 1), (0, 0)), L)
    assert np.abs(got.values - want).max() < 1e-12


def test_reconstruct_zero_field():
    field = CoefficientField(1, 3, AdaptedFamily.haar(1), np.zeros(8))
    assert not reconstruct(field).values.any()


def test_reconstruct_requires_orthonormal():
    field = coefficients(Signal.constant(1, 3, 1.0), AdaptedFamily.abs_haar(1))
    with pytest.raises(UnsupportedFamilyError):
        reconstruct(field)


def test_resolution_guard():
    field = coefficients(Signal.constant(1, 3, 1.0), AdaptedFamily.haar(1))
    with pytest.raises(ResolutionError):
        field.rectangle_coefficient(rectangle((3, 0)))


def test_field_json_round_trip(rng):
    f = Signal(2, 2, rng.standard_normal((4, 4)))
    field = coefficients(f, AdaptedFamily.haar(2))
    data = field.to_json()
    clone = CoefficientField.from_json(data)
    assert np.allclose(clone.tensor, field.tensor)
    assert np.abs(reconstruct(clone).values - f.values).max() < 1e-12
    # entries hold only all-oscillatory rectangles; the rest are mean blocks
    for key, _ in data["entries"]:
        assert all(part is not None for part in key)
    assert any(any(part is None for part in key) for key, _ in data["mean_blocks"])


def test_field_json_of_a_numpy_bool_zero_pattern(rng):
    # numpy.bool_ entries are stored as bool, so json.dumps writes them
    family = AdaptedFamily.make("haar", 2, np.array([True, False]))
    field = coefficients(Signal(2, 2, rng.standard_normal((4, 4))), family)
    clone = CoefficientField.from_json(json.loads(json.dumps(field.to_json())))
    assert clone.family == family
    assert np.array_equal(clone.tensor, field.tensor)


@pytest.mark.parametrize(
    "key, error",
    [
        ([[1, 2]], ContractError),  # position outside level 1
        ([[0, -1]], ContractError),  # negative position
        ([[3, 0]], ResolutionError),  # no slot at level L
        ([[1]], ContractError),  # not a (level, position) pair
        ([[0, 0], [0, 0]], ContractError),  # two parts at d=1
        ([[1.9, 0.5]], ContractError),  # fractional, not truncated into slot 2
        ([[True, 0]], ContractError),  # a bool is not a level
    ],
)
def test_field_json_rejects_malformed_keys(key, error):
    data = coefficients(Signal.zeros(1, 3), AdaptedFamily.haar(1)).to_json()
    data["entries"] = [[key, 1.0]]
    with pytest.raises(error):
        CoefficientField.from_json(data)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_field_json_rejects_non_finite_coefficients(value):
    data = coefficients(Signal.zeros(1, 3), AdaptedFamily.haar(1)).to_json()
    data["entries"] = [[[[1, 0]], value]]
    with pytest.raises(ContractError):
        CoefficientField.from_json(data)


def test_field_json_rejects_duplicate_keys():
    data = coefficients(Signal.zeros(1, 3), AdaptedFamily.haar(1)).to_json()
    data["entries"] = [[[[1, 0]], 1.0], [[[1, 0]], 2.0]]
    with pytest.raises(ContractError):
        CoefficientField.from_json(data)
    data["entries"] = []
    data["mean_blocks"] = [[[None], 1.0], [[None], 1.0]]
    with pytest.raises(ContractError):
        CoefficientField.from_json(data)


def test_mean_blocks_complete_reconstruction(rng):
    f = Signal(2, 3, rng.standard_normal((8, 8)) + 5.0)
    field = coefficients(f, AdaptedFamily.haar(2))
    assert field.oscillatory_energy() < field.energy()
    assert np.abs(reconstruct(field).values - f.values).max() < 1e-11


def _scaled_matrix_oracle(f, family):
    """Dense analysis that scales each profile matrix by 2^-L per axis."""
    values = f.values.astype(float)
    for axis in range(f.d):
        matrix = family.profile_matrix(axis, f.L) * 2.0**-f.L
        values = np.moveaxis(np.tensordot(matrix, values, axes=(1, axis)), 0, axis)
    return values


def _oracle_inputs(rng, shape):
    inputs = [rng.standard_normal(shape) * scale for scale in (1e-6, 1.0, 1e5)]
    return inputs + [(rng.random(shape) < 0.5) * 1.0, np.ones(shape)]


_DENSE_FAMILIES = [
    lambda d: AdaptedFamily.abs_haar(d),
    lambda d: AdaptedFamily.smooth(d),
    lambda d: AdaptedFamily.smooth(d, zero_pattern=[a % 2 == 0 for a in range(d)]),
    lambda d: AdaptedFamily.smooth_bump(d),
    lambda d: AdaptedFamily.make("haar", d, [a % 2 == 1 for a in range(d)]),
]


@pytest.mark.parametrize("make", _DENSE_FAMILIES)
@pytest.mark.parametrize("d, L", [(1, 7), (2, 5), (3, 3)])
def test_dense_transform_matches_scaled_matrix_oracle(rng, make, d, L):
    family = make(d)
    for values in _oracle_inputs(rng, ((1 << L),) * d):
        f = Signal(d, L, values)
        want = _scaled_matrix_oracle(f, family)
        assert np.array_equal(coefficients(f, family).tensor, want)


def _transform_peak(family, L):
    """tracemalloc peak of one d=1 transform with its matrix cached."""
    family.profile_matrix(0, L)  # warm the cache
    f = Signal(1, L, np.ones(1 << L))
    tracemalloc.start()
    try:
        coefficients(f, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_dense_transform_makes_no_matrix_copy():
    n = 1 << 11
    assert _transform_peak(AdaptedFamily.abs_haar(1), 11) < n * n * 8 // 8


def test_smooth_dense_transform_makes_no_matrix_copy():
    # smooth families keep the dense product at every size
    n = 1 << 11
    assert _transform_peak(AdaptedFamily.smooth(1), 11) < n * n * 8 // 8


def _dense_oracle(f, family):
    """`coefficients` of a non-orthonormal family through the dense
    per-axis product, at every grid size."""
    tensor = f.values * f.cell_measure
    for axis in range(f.d):
        tensor = _matrix_axis(tensor, axis, family.profile_matrix(axis, f.L))
    return tensor


def _signed_step(d):
    """A step family with signed rows on some axes.  At d=1 a haar family
    with its zero flag is the orthonormal basis (the cascade), so the
    flagged step family there is abs-haar with the flag set."""
    return AdaptedFamily.make("haar" if d > 1 else "abs-haar", d, [a % 2 == 0 for a in range(d)])


_STEP_FAMILIES = [AdaptedFamily.abs_haar, _signed_step]


def _abs_step_axis(a, axis, mean_row=False):
    """|M|·a along one axis for a nonnegative a, with M a step matrix
    (entries ±2^(k/2-L) on the cells of (k, j), no matrix built) whose row
    0 is the Haar mean row 2^-L when `mean_row` is set and 0 otherwise."""
    L = a.shape[axis].bit_length() - 1
    a = np.moveaxis(a, axis, -1)
    first = a.sum(-1, keepdims=True) * 2.0**-L if mean_row else np.zeros(a.shape[:-1] + (1,))
    sums = [first]
    sums += [a.reshape(a.shape[:-1] + (1 << k, -1)).sum(-1) * 2.0 ** (k / 2 - L) for k in range(L)]
    return np.moveaxis(np.concatenate(sums, axis=-1), -1, axis)


def _step_scale(values):
    """max of |M|·|values| with the step matrix |M| on every axis: the
    scale of the rounding error of either order of summation.  It is
    max|dense| for abs-haar on nonnegative input; signed rows on a constant
    input have exact coefficients 0, so there max|dense| is itself rounding
    noise."""
    a = np.abs(values)
    for axis in range(values.ndim):
        a = _abs_step_axis(a, axis)
    return a.max()


@pytest.fixture
def drop_profile_matrices():
    yield
    families._profile_matrix_cached.cache_clear()  # d=1 L=13: 32 MiB resident of 512


# every step grid on the fold side of transforms._fold_by_product up to the caps
_FOLD_GRIDS = [(1, 9), (1, 10), (1, 11), (1, 12), (1, 13), (2, 6), (2, 7), (2, 8), (2, 9),
               (3, 4), (3, 5), (3, 6)]


@pytest.mark.parametrize("make", _STEP_FAMILIES)
@pytest.mark.parametrize("d, L", _FOLD_GRIDS)
def test_step_blocks_match_dense_oracle(rng, drop_profile_matrices, make, d, L):
    family = make(d)
    for values in _oracle_inputs(rng, ((1 << L),) * d):
        assert not transforms._fold_by_product(values, L)
        f = Signal(d, L, values)
        want = _dense_oracle(f, family)
        got = coefficients(f, family).tensor
        assert np.abs(got - want).max() <= 1e-12 * _step_scale(values)


@pytest.mark.parametrize("make", _STEP_FAMILIES)
def test_step_blocks_below_crossover_match_dense(rng, make):
    d, L = 3, 6
    family = make(d)
    for values in _oracle_inputs(rng, ((1 << L),) * d):
        want = got = values * 2.0 ** (-d * L)
        for axis in range(d):
            matrix = family.profile_matrix(axis, L)
            want = _matrix_axis(want, axis, matrix)
            got = _step_analysis_axis(got, axis, L, family.zero_pattern[axis])
            np.moveaxis(got, axis, 0)[0] = 0.0  # row 0 of a step profile matrix
        assert np.abs(got - want).max() <= 1e-12 * _step_scale(values)


@pytest.mark.parametrize(
    "family, L, helper",
    [
        (AdaptedFamily.abs_haar(1), 9, "_step_analysis_axis"),
        (AdaptedFamily.abs_haar(1), 8, "_step_analysis_axis"),
        (AdaptedFamily.smooth(1), 9, "_matrix_axis"),
        (AdaptedFamily.make("haar", 2, (True, False)), 9, "_step_analysis_axis"),
        (AdaptedFamily.smooth_bump(2), 9, "_matrix_axis"),
        (AdaptedFamily.make("haar", 3, (False, True, False)), 6, "_step_analysis_axis"),
    ],
)
def test_coefficients_reads_one_matrix_per_axis(monkeypatch, family, L, helper):
    calls = []
    profile_matrix = AdaptedFamily.profile_matrix

    def counted_matrix(self, axis, L):
        calls.append(("profile_matrix", axis))
        return profile_matrix(self, axis, L)

    monkeypatch.setattr(AdaptedFamily, "profile_matrix", counted_matrix)
    running = []  # the product inside a small step analysis is not recorded
    for name in ("_step_analysis_axis", "_matrix_axis"):
        def counted(values, axis, *rest, _name=name, _fn=getattr(transforms, name)):
            if not running:
                calls.append((_name, axis))
            running.append(_name)
            try:
                return _fn(values, axis, *rest)
            finally:
                running.pop()

        monkeypatch.setattr(transforms, name, counted)
    f = Signal.zeros(family.d, L)
    fetches = [("profile_matrix", axis) for axis in range(family.d)]
    first = coefficients(f, family)
    assert calls == fetches + [(helper, axis) for axis in range(family.d)]
    # a second call on the same signal fetches every matrix again (the
    # public call count) and serves the field it kept
    calls.clear()
    assert coefficients(f, family) is first
    assert calls == fetches


@pytest.mark.parametrize("make", [AdaptedFamily.haar, AdaptedFamily.abs_haar, _signed_step])
@pytest.mark.parametrize("d, L", [(1, 8), (1, 9), (2, 5), (2, 6), (3, 3), (3, 4)])
def test_step_fields_read_no_matrix_entry(monkeypatch, rng, make, d, L):
    # grids on both sides of transforms._fold_by_product
    family = make(d)
    inputs = _oracle_inputs(rng, ((1 << L),) * d)
    want = [coefficients(Signal(d, L, values), family).tensor for values in inputs]
    fetched = []

    def nan_matrix(self, axis, L):
        fetched.append(axis)
        matrix = np.full((1 << L, 1 << L), np.nan)
        matrix.flags.writeable = False
        return matrix

    monkeypatch.setattr(AdaptedFamily, "profile_matrix", nan_matrix)
    for values, w in zip(inputs, want):
        fetched.clear()
        assert np.array_equal(coefficients(Signal(d, L, values), family).tensor, w)
        # the fetch stays for every family but the orthonormal basis
        assert fetched == ([] if family.is_orthonormal_basis else list(range(d)))


# (d, L, one call): grids on both sides of transforms._SMALL_SIZE_MAX
_KERNEL_GRIDS = [
    (1, 5, True), (1, 10, True), (1, 11, False),
    (2, 3, True), (2, 5, True), (2, 6, False),
    (3, 2, True), (3, 3, True), (3, 4, False),
]


@pytest.mark.parametrize("d, L, small", _KERNEL_GRIDS)
def test_small_spread_and_synthesis_equal_cascade(monkeypatch, rng, d, L, small):
    assert ((1 << (d * L)) <= transforms._SMALL_SIZE_MAX) == small
    # the synthesis by product sums in another order: it is held to a bound
    # in test_product_synthesis_matches_cascade.  Off, the synthesis takes
    # the spread of signed child slots, by gather or fold, both bit for bit.
    monkeypatch.setattr(transforms, "_HAAR_MATRIX_MAX_N", 0)
    # every slot holds a value, the mean slots included
    for values in _oracle_inputs(rng, ((1 << L),) * d):
        for axis in range(d):
            for op in (np.add, np.maximum):
                got = transforms._spread(values, axis, L, op)
                assert np.array_equal(got, cascade_oracle._spread_cascade(values, axis, L, op))
            got = transforms._step_synthesis_axis(values, axis, L, True)
            assert np.array_equal(got, cascade_oracle._haar_synthesis_cascade(values, axis, L))
            # the |h| synthesis: the table path equals the fold at every size
            paths = []
            for size_max in (0, 1 << (d * L)):
                with monkeypatch.context() as m:
                    m.setattr(transforms, "_SMALL_SIZE_MAX", size_max)
                    paths.append(transforms._step_synthesis_axis(values, axis, L, False))
            assert np.array_equal(paths[0], paths[1])


@pytest.mark.parametrize("d, L", [(1, 0), (1, 1), (1, 5), (1, 10), (2, 0), (2, 3), (2, 5), (3, 2)])
def test_leaf_row_take_equals_split_then_op(rng, d, L):
    # at gather size an axis of 2^(L+1) slots takes one slot table whose
    # last row is the leaf slots: the same as spreading the first 2^L slots
    # and applying op to the leaves
    assert (1 << (d * L)) <= transforms._SMALL_SIZE_MAX
    assert np.array_equal(transforms._ancestor_slots(L, True)[-1], np.arange(1 << L, 2 << L))
    for axis in range(d):
        shape = [1 << L] * d
        shape[axis] = 2 << L
        real = rng.standard_normal(shape)
        for values, op in ((real, np.add), (real, np.maximum), (real > 0, np.logical_or)):
            coeffs, leaves = np.split(values, 2, axis=axis)
            want = op(transforms._spread(coeffs, axis, L, op), leaves)
            got = transforms._spread(values, axis, L, op)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _interval_reduce(cells, axis, L, op):
    """Slot by slot: the `op`-reduction of the cells of each interval, the
    whole axis for the mean slot."""
    out = np.empty_like(cells)
    for idx in range(1 << L):
        k, j = transforms.index_interval(idx) or (0, 0)
        lo, hi = j << (L - k), (j + 1) << (L - k)
        src = np.take(cells, range(lo, hi), axis=axis)
        np.moveaxis(out, axis, 0)[idx] = op.reduce(src, axis=axis)
    return out


@settings(max_examples=60, deadline=None)
@given(
    grid=st.sampled_from([(1, 0), (1, 1), (1, 6), (2, 1), (2, 3), (2, 5), (3, 2), (3, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gather_equals_interval_reduction_property(grid, seed):
    d, L = grid
    rng = np.random.default_rng(seed)
    shape = ((1 << L),) * d
    cases = [
        (rng.integers(-9, 10, shape), np.add),
        (rng.random(shape) < rng.choice([0.5, 0.9, 1.0]), np.logical_and),
    ]
    for cells, op in cases:
        for axis in range(d):
            want = _interval_reduce(cells, axis, L, op)
            got = transforms._gather(cells, axis, L, op)
            assert got.dtype == cells.dtype
            assert np.array_equal(got, want)
            # leaf slots 2^L + j hold the cells themselves
            got = transforms._gather(cells, axis, L, op, leaves=True)
            assert np.array_equal(got, np.concatenate([want, cells], axis=axis))


# (d, L, matrix product): grids on both sides of both analysis bounds
_ANALYSIS_GRIDS = [
    (1, 8, True), (1, 9, False), (2, 5, True), (2, 6, False), (3, 3, True), (3, 4, False),
]


@pytest.mark.parametrize("d, L, matrix", _ANALYSIS_GRIDS)
def test_small_haar_analysis_matches_cascade(rng, d, L, matrix):
    for values in _oracle_inputs(rng, ((1 << L),) * d):
        assert transforms._fold_by_product(values, L) == matrix
        for axis in range(d):
            got = _step_analysis_axis(values * 2.0**-L, axis, L, True)
            want = cascade_oracle._haar_analysis_cascade(values, axis, L)
            scale = _abs_step_axis(np.abs(values), axis, mean_row=True).max()
            assert np.abs(got - want).max() <= 1e-12 * scale


def _abs_h_synthesis(coeffs, axis, L):
    """Sum over slots of coeffs times |h|, by the add cascade of the slots
    scaled by 2^(k/2) (1 for the mean slot).  Of |coeffs| it is |M^T|·|c|,
    with M either step matrix: the scale of the rounding error of either
    order of summation."""
    levels = np.zeros(1 << L)
    levels[1:] = np.repeat(np.arange(L), 1 << np.arange(L))
    scales = (2.0 ** (levels / 2.0)).reshape((1 << L,) + (1,) * (coeffs.ndim - axis - 1))
    return cascade_oracle._spread_cascade(coeffs * scales, axis, L, np.add)


@pytest.mark.parametrize("d, L", [(1, 1), (1, 5), (1, 8), (2, 3), (2, 5), (3, 2), (3, 3)])
@pytest.mark.parametrize("zero", [True, False])
def test_product_synthesis_matches_cascade(rng, d, L, zero):
    # one product with the transposed analysis matrix
    matrix = transforms._fold_matrix(L, transforms._haar_pair if zero else transforms._step_pair).T
    for values in _oracle_inputs(rng, ((1 << L),) * d):
        assert transforms._fold_by_product(values, L)
        for axis in range(d):
            got = transforms._step_synthesis_axis(values, axis, L, zero)
            assert np.array_equal(got, _matrix_axis(values, axis, matrix))
            if zero:
                want = cascade_oracle._haar_synthesis_cascade(values, axis, L)
            else:
                want = _abs_h_synthesis(values, axis, L)
            scale = _abs_h_synthesis(np.abs(values), axis, L).max()
            assert np.abs(got - want).max() <= 1e-12 * scale


def test_small_tensor_tables_stay_small():
    """Every table the one-call paths can cache, each level count once."""
    small_L = range(transforms._SMALL_SIZE_MAX.bit_length())
    total = sum(
        transforms._ancestor_slots(L, leaves).nbytes for L in small_L for leaves in (False, True)
    )
    pairs = (transforms._haar_pair, transforms._step_pair, transforms._op_pair(np.add))
    total += sum(
        transforms._fold_matrix(L, pair).nbytes
        for L in small_L
        if (1 << L) <= transforms._HAAR_MATRIX_MAX_N
        for pair in pairs
    )
    assert total <= 3 << 20


@pytest.mark.parametrize("d, L", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("power", [0.5, 1.0, 1.5])
def test_rectangle_weights_equal_scalar_powers(rng, d, L, power):
    lattice = lattice_rectangles(d, L)
    members = [r for r in lattice if rng.random() < 0.5]
    collection = RectangleCollection.of(members, L - 1)

    def level(i):
        return (i.bit_length() - 1) if i else 0

    slots = {tuple((1 << a.level) + a.position for a in r.axes) for r in members}
    for means, col in ((False, None), (True, None), (False, collection)):
        for _ in range(2):  # the second call reads the cached table
            if means:  # the mean slots count as level 0, as `norms` reads them
                got = _weight_table(d, L, power, True)
            else:
                got = _rectangle_weights(d, L, power, col)
            for idx in np.ndindex(got.shape):
                kept = idx in slots if col is not None else means or min(idx) > 0
                want = 2.0 ** (sum(level(i) for i in idx) * power) if kept else 0.0
                assert got[idx] == want


def test_rectangle_weight_tables_are_shared_read_only():
    table = _rectangle_weights(2, 4, 0.5)
    assert _rectangle_weights(2, 4, 0.5) is table
    with pytest.raises(ValueError):
        table[1, 1] = 0.0
    collection = RectangleCollection.of([rectangle((0, 0), (1, 1))], 3)
    masked = _rectangle_weights(2, 4, 0.5, collection)
    masked[1, 3] = 7.0  # a fresh array, not the table
    assert table[1, 3] == 2.0**0.5
