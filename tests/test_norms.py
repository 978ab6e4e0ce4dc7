import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadicpara import (
    AdaptedFamily,
    ContractError,
    Signal,
    bmo_norm_1param,
    coefficients,
    conditional_expectation,
    h1_norm,
    lattice_rectangles,
    lp_norm,
    product_bmo_lower,
    rectangle,
)
from dyadicpara.norms import energy_in_region

import region_row_oracle as oracle


def _haar_signal(rect, L, d=1):
    fam = AdaptedFamily.haar(d)
    return Signal(d, L, fam.rectangle_profile(rect, L))


def test_h1_examples():
    assert h1_norm(_haar_signal(rectangle((0, 0)), 4)) == pytest.approx(2.0, rel=1e-12)
    assert h1_norm(Signal.zeros(1, 4)) == 0.0
    hh = _haar_signal(rectangle((0, 0), (0, 0)), 3, d=2)
    assert h1_norm(hh) == pytest.approx(2.0, rel=1e-12)


def test_bmo_examples():
    assert bmo_norm_1param(_haar_signal(rectangle((0, 0)), 3)) == pytest.approx(1.0)
    assert bmo_norm_1param(Signal.constant(1, 3, 3.0)) == pytest.approx(0.0, abs=1e-13)
    f = _haar_signal(rectangle((1, 0)), 3)
    assert bmo_norm_1param(f) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def _oracle_bmo(f):
    field = coefficients(f, AdaptedFamily.haar(1))
    best = 0.0
    for J in lattice_rectangles(1, f.L):
        jiv = J.axes[0]
        energy = 0.0
        for I in lattice_rectangles(1, f.L):
            if jiv.contains(I.axes[0]):
                energy += field.rectangle_coefficient(I) ** 2
        best = max(best, energy / jiv.length)
    return np.sqrt(best)


def test_bmo_against_oracle(rng):
    for _ in range(20):
        f = Signal(1, 3, rng.standard_normal(8))
        assert bmo_norm_1param(f) == pytest.approx(_oracle_bmo(f), rel=1e-12)


def test_bmo_sup_bound(rng):
    for _ in range(100):
        f = Signal(1, 5, rng.uniform(-1.0, 1.0, 32))
        assert bmo_norm_1param(f) <= 2.0 * lp_norm(f, np.inf) * (1 + 1e-12)


def test_bmo_needs_d1():
    with pytest.raises(ContractError):
        bmo_norm_1param(Signal.zeros(2, 2))


def test_product_bmo_single_rectangle():
    f = _haar_signal(rectangle((0, 0), (0, 0)), 3, d=2)
    assert product_bmo_lower(f) == pytest.approx(1.0, rel=1e-10)
    # a half-measure rectangle gains the 1/|U| weighting
    g = _haar_signal(rectangle((1, 0), (0, 0)), 3, d=2)
    assert product_bmo_lower(g) == pytest.approx(np.sqrt(2.0), rel=1e-10)


def test_product_bmo_constant():
    assert product_bmo_lower(Signal.constant(2, 2, 5.0)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_product_bmo_one_cell_grid():
    # L = 0 has no lattice rectangle; this used to raise ValueError
    assert product_bmo_lower(Signal.constant(2, 0, 3.0)) == 0.0


def test_product_bmo_needs_d2():
    with pytest.raises(ContractError):
        product_bmo_lower(Signal.zeros(1, 3))


def test_region_energies_at_d2_L8_stay_small():
    # the row path needed 255^2 rectangles x 2^16 cells: 4 GiB of rows
    f = _haar_signal(rectangle((5, 9), (7, 100)), 8, d=2)
    tracemalloc.start()
    try:
        lower = product_bmo_lower(f)
        energy = energy_in_region(f, np.ones((256, 256), dtype=bool))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert energy == pytest.approx(1.0, rel=1e-12)
    assert lower == pytest.approx(2.0**6, rel=1e-10)  # 1 / sqrt(2^-12)


def test_rectangle_row_matrix_below_cap_runs():
    f = _haar_signal(rectangle((3, 5), (6, 1)), 7, d=2)  # 127^2 x 2^14: 252 MiB
    region = np.ones((128, 128), dtype=bool)
    assert energy_in_region(f, region) == pytest.approx(1.0, rel=1e-12)


def test_region_energy_temporary_stays_small(rng):
    f = Signal(2, 6, rng.standard_normal((64, 64)))
    mask = rng.random((64, 64)) < 0.7
    _, energies, rows = oracle._rectangle_energy_rows(f)
    flat = mask.ravel()
    inside = oracle._rows_inside(rows, flat)
    assert np.array_equal(inside, ~np.any(rows & ~flat, axis=1))
    want = float(energies[inside].sum())
    del rows
    tracemalloc.start()
    try:
        got = energy_in_region(f, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 1.25 * 63 * 63 * 64 * 64  # the row matrix and a quarter


@pytest.mark.parametrize("shape", [(4096,), (64, 63), (64, 64, 1)])
def test_region_mask_needs_grid_shape(shape):
    with pytest.raises(ContractError, match="region mask"):
        energy_in_region(Signal.zeros(2, 6), np.ones(shape, dtype=bool))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    grid=st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2)]),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.3, 0.7, 0.9, 1.0]),
)
def test_region_energies_equal_row_oracle_property(grid, seed, density):
    # d=2 L=5 is the first grid past the exact-greedy budget
    d, L = grid
    rng = np.random.default_rng(seed)
    f = Signal(d, L, rng.standard_normal(((1 << L),) * d))
    mask = rng.random(((1 << L),) * d) < density
    assert energy_in_region(f, mask) == oracle.energy_in_region(f, mask)
    assert product_bmo_lower(f) == oracle.product_bmo_lower(f)


def test_product_bmo_disjoint_pair():
    # two unit coefficients on disjoint quarter-measure rectangles
    f = _haar_signal(rectangle((1, 0), (1, 0)), 3, d=2) + _haar_signal(
        rectangle((1, 1), (1, 1)), 3, d=2
    )
    assert product_bmo_lower(f) >= 2.0 - 1e-10


def _oracle_product_bmo(f):
    rects = lattice_rectangles(f.d, f.L)
    best = 0.0
    for bits in range(1, 1 << len(rects)):
        mask = np.zeros(((1 << f.L),) * f.d, dtype=bool)
        for i, r in enumerate(rects):
            if bits >> i & 1:
                mask[r.cell_slices(f.L)] = True
        best = max(best, energy_in_region(f, mask) / mask.mean())
    return np.sqrt(best)


def test_product_bmo_within_oracle(rng):
    # exhaustive union search over the 9-rectangle lattice at L=2
    for _ in range(5):
        f = Signal(2, 2, rng.standard_normal((4, 4)))
        lower = product_bmo_lower(f)
        oracle = _oracle_product_bmo(f)
        assert lower <= oracle * (1 + 1e-12)
        assert lower >= 0.5 * oracle  # the greedy is not wildly loose here


def test_h1_contraction_under_averaging(rng):
    worst = 0.0
    for _ in range(100):
        f = Signal(1, 5, rng.standard_normal(32))
        ivs = [iv for iv in (rectangle((2, 1)).axes[0], rectangle((1, 1)).axes[0])]
        ef = conditional_expectation(f, ivs)
        hf = h1_norm(f)
        if hf > 0:
            worst = max(worst, h1_norm(ef) / hf)
    assert worst <= 4.0


def test_h1_positive_for_nonzero(rng):
    f = Signal(2, 3, rng.standard_normal((8, 8)) + 2.0)
    assert h1_norm(f) >= lp_norm(f, 1.0)
