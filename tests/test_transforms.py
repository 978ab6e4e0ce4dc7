import tracemalloc

import numpy as np
import pytest

from dyadicpara import (
    AdaptedFamily,
    CoefficientField,
    ContractError,
    ResolutionError,
    Signal,
    UnsupportedFamilyError,
    coefficients,
    lattice_rectangles,
    lp_norm,
    reconstruct,
    rectangle,
)


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


@pytest.mark.parametrize(
    "key, error",
    [
        ([[1, 2]], ContractError),  # position outside level 1
        ([[0, -1]], ContractError),  # negative position
        ([[3, 0]], ResolutionError),  # no slot at level L
        ([[1]], ContractError),  # not a (level, position) pair
        ([[0, 0], [0, 0]], ContractError),  # two parts at d=1
    ],
)
def test_field_json_rejects_malformed_keys(key, error):
    data = coefficients(Signal.zeros(1, 3), AdaptedFamily.haar(1)).to_json()
    data["entries"] = [[key, 1.0]]
    with pytest.raises(error):
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
    shape = ((1 << L),) * d
    inputs = [rng.standard_normal(shape) * scale for scale in (1e-6, 1.0, 1e5)]
    inputs += [rng.random(shape) < 0.5, np.ones(shape, dtype=bool)]
    for values in inputs:
        f = Signal(d, L, values.astype(float))
        want = _scaled_matrix_oracle(f, family)
        assert np.array_equal(coefficients(f, family).tensor, want)


def test_dense_transform_makes_no_matrix_copy():
    L = 11
    n = 1 << L
    family = AdaptedFamily.abs_haar(1)
    family.profile_matrix(0, L)  # warm the cache
    f = Signal(1, L, np.ones(n))
    tracemalloc.start()
    try:
        coefficients(f, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 // 8
