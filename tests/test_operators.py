import itertools
import math

import numpy as np
import pytest

from dyadicpara import (
    AdaptedFamily,
    ContractError,
    OperatorSpec,
    RectangleCollection,
    Signal,
    coefficients,
    conditional_expectation,
    governing_operator,
    interval,
    lattice_rectangles,
    lp_norm,
    maximal_function,
    rectangle,
    restricted_operator,
    square_function,
)

import level_tuple_oracle as oracle
from dyadicpara.operators import _above_dyadic


def _haar_signal(rect, L, d=1):
    fam = AdaptedFamily.haar(d)
    return Signal(d, L, fam.rectangle_profile(rect, L))


# -- square function --------------------------------------------------------


def test_square_single_coefficient():
    f = _haar_signal(rectangle((0, 0)), 3)
    s = square_function(f, AdaptedFamily.haar(1))
    assert np.allclose(s.values, 1.0)


def test_square_kills_constants():
    s = square_function(Signal.constant(2, 3, 4.0), AdaptedFamily.haar(2))
    assert np.allclose(s.values, 0.0)


def test_square_two_term_example():
    f = _haar_signal(rectangle((0, 0)), 3) + _haar_signal(rectangle((1, 0)), 3)
    s = square_function(f, AdaptedFamily.haar(1))
    assert np.allclose(s.values[:4], math.sqrt(3.0))
    assert np.allclose(s.values[4:], 1.0)


def test_square_requires_zeros():
    with pytest.raises(ContractError):
        square_function(Signal.zeros(1, 3), AdaptedFamily.abs_haar(1))


def _oracle_square(f, fam):
    field = coefficients(f, fam)
    n = 1 << f.L
    acc = np.zeros(f.values.shape)
    for r in lattice_rectangles(f.d, f.L):
        c = field.rectangle_coefficient(r)
        acc[r.cell_slices(f.L)] += c * c / r.measure
    return np.sqrt(acc)


@pytest.mark.parametrize("d, L", [(1, 4), (2, 3)])
def test_square_against_oracle(rng, d, L):
    fam = AdaptedFamily.haar(d)
    for _ in range(10):
        f = Signal(d, L, rng.standard_normal(((1 << L),) * d))
        got = square_function(f, fam).values
        want = _oracle_square(f, fam)
        assert np.abs(got - want).max() <= 1e-12 * max(want.max(), 1.0)


# -- maximal function -------------------------------------------------------


def test_maximal_of_constant():
    m = maximal_function(Signal.constant(1, 4, 1.0), AdaptedFamily.abs_haar(1))
    assert np.allclose(m.values, 1.0, rtol=1e-12)


def test_maximal_half_indicator():
    f = Signal.indicator(rectangle((1, 0)), 3)
    m = maximal_function(f, AdaptedFamily.abs_haar(1))
    assert np.allclose(m.values[:4], 1.0, rtol=1e-12)
    assert np.allclose(m.values[4:], 0.5, rtol=1e-12)


def test_maximal_zero():
    m = maximal_function(Signal.zeros(2, 3), AdaptedFamily.abs_haar(2))
    assert not m.values.any()


def _oracle_maximal(f, fam):
    field = coefficients(f, fam)
    acc = np.zeros(f.values.shape)
    for r in lattice_rectangles(f.d, f.L):
        c = abs(field.rectangle_coefficient(r)) / math.sqrt(r.measure)
        sl = r.cell_slices(f.L)
        acc[sl] = np.maximum(acc[sl], c)
    return acc


def test_maximal_against_oracle(rng):
    fam = AdaptedFamily.abs_haar(1)
    for _ in range(10):
        f = Signal(1, 4, rng.standard_normal(16))
        got = maximal_function(f, fam).values
        want = _oracle_maximal(f, fam)
        assert np.abs(got - want).max() <= 1e-12


# -- governing operators ----------------------------------------------------


def test_governing_collapses_to_maximal(rng):
    fam = AdaptedFamily.abs_haar(1)
    f = Signal(1, 5, rng.standard_normal(32))
    a = governing_operator(f, OperatorSpec.all_max(fam)).values
    b = maximal_function(f, fam).values
    assert np.array_equal(a, b)


def test_rectangle_maximal_below_nested_composition(rng):
    # the rectangle supremum never exceeds one-axis maximal functions
    # applied in succession (averages factor through the axes)
    fam1 = AdaptedFamily.abs_haar(1)

    def axis_maximal(values, axis):
        moved = np.moveaxis(values, axis, -1)
        out = np.stack(
            [maximal_function(Signal(1, 3, row), fam1).values for row in moved]
        )
        return np.moveaxis(out, -1, axis)

    for _ in range(20):
        f = Signal(2, 3, rng.standard_normal((8, 8)))
        rect_sup = maximal_function(f, AdaptedFamily.abs_haar(2)).values
        composed = axis_maximal(axis_maximal(f.values, 1), 0)
        assert np.all(rect_sup <= composed * (1 + 1e-12) + 1e-15)


def test_governing_single_tensor_coefficient():
    f = _haar_signal(rectangle((0, 0), (0, 0)), 3, d=2)
    t = governing_operator(f, OperatorSpec.all_square(AdaptedFamily.haar(2)))
    assert np.allclose(t.values, 1.0)


def test_square_positions_need_zeros():
    with pytest.raises(ContractError):
        OperatorSpec(AdaptedFamily.abs_haar(2), ("square", "max"))
    with pytest.raises(ContractError):
        OperatorSpec.from_letters("XY", AdaptedFamily.haar(2))
    with pytest.raises(ContractError):
        OperatorSpec(AdaptedFamily.haar(2), ("max",))
    with pytest.raises(ContractError):
        OperatorSpec(AdaptedFamily.haar(2), ("max", "max"), pi=(0, 0))


def test_sup_inside_sum_dominated(rng):
    # the sup-inside variant never exceeds the sum-outside variant
    fam = AdaptedFamily.haar(2)
    inner_sup = OperatorSpec(fam, ("max", "square"))
    outer_sup = OperatorSpec(fam, ("max", "square"), pi=(1, 0))
    for _ in range(20):
        f = Signal(2, 3, rng.standard_normal((8, 8)))
        a = governing_operator(f, inner_sup).values
        b = governing_operator(f, outer_sup).values
        assert np.all(a <= b * (1 + 1e-12) + 1e-15)


def _oracle_governing(f, spec):
    field = coefficients(f, spec.family)
    L, d = f.L, f.d
    n = 1 << L
    out = np.zeros(f.values.shape)
    for idx in itertools.product(range(n), repeat=d):
        A = np.zeros((L,) * d)
        for levels in itertools.product(range(L), repeat=d):
            pos = tuple(idx[a] >> (L - levels[a]) for a in range(d))
            r = rectangle(*zip(levels, pos))
            A[levels] = abs(field.rectangle_coefficient(r)) / math.sqrt(r.measure)
        remaining = list(range(d))
        arr = A
        for coord in reversed(spec.pi):
            ax = remaining.index(coord)
            if spec.sigma[coord] == "square":
                arr = np.sqrt(np.sum(arr**2, axis=ax))
            else:
                arr = np.max(arr, axis=ax)
            remaining.pop(ax)
        out[idx] = arr
    return out


@pytest.mark.parametrize(
    "sigma, pi",
    [
        (("square", "max"), (0, 1)),
        (("max", "square"), (0, 1)),
        (("max", "square"), (1, 0)),
    ],
)
def test_governing_mixed_against_oracle(rng, sigma, pi):
    fam = AdaptedFamily.haar(2)
    spec = OperatorSpec(fam, sigma, pi)
    f = Signal(2, 3, rng.standard_normal((8, 8)))
    got = governing_operator(f, spec).values
    want = _oracle_governing(f, spec)
    assert np.abs(got - want).max() <= 1e-12


# -- restricted operators ---------------------------------------------------


def test_restricted_full_equals_unrestricted(rng):
    fam = AdaptedFamily.haar(1)
    spec = OperatorSpec.all_square(fam)
    f = Signal(1, 4, rng.standard_normal(16))
    full = RectangleCollection.of(lattice_rectangles(1, 4), 4)
    a = restricted_operator(f, spec, full).values
    b = governing_operator(f, spec).values
    assert np.abs(a - b).max() <= 1e-14


def test_restricted_empty_is_zero(rng):
    spec = OperatorSpec.all_square(AdaptedFamily.haar(1))
    f = Signal(1, 4, rng.standard_normal(16))
    out = restricted_operator(f, spec, RectangleCollection.of([], 4))
    assert not out.values.any()


def test_restricted_disjoint_support_exact_zero():
    spec = OperatorSpec.all_square(AdaptedFamily.haar(1))
    col = RectangleCollection.of([rectangle((1, 0)), rectangle((2, 1))], 4)
    f = Signal.indicator(rectangle((1, 1)), 4)  # supported off the shadow
    out = restricted_operator(f, spec, col)
    assert not out.values.any()


# -- conditional expectation ------------------------------------------------


def test_condexp_empty_is_identity(rng):
    f = Signal(1, 4, rng.standard_normal(16))
    assert np.array_equal(conditional_expectation(f, []).values, f.values)


def test_condexp_hand_example():
    f = Signal(1, 2, np.array([1 / 8, 3 / 8, 5 / 8, 7 / 8]))
    out = conditional_expectation(f, [interval(1, 0)])
    assert np.array_equal(out.values, np.array([1 / 4, 1 / 4, 5 / 8, 7 / 8]))


def test_condexp_fixes_constants():
    f = Signal.constant(1, 3, 2.5)
    out = conditional_expectation(f, [interval(1, 1), interval(2, 0)])
    assert np.array_equal(out.values, f.values)


def test_condexp_rejects_overlap():
    with pytest.raises(ContractError):
        conditional_expectation(
            Signal.zeros(1, 3), [interval(1, 0), interval(2, 1)]
        )


def test_condexp_rejects_nested_pair_apart_in_input():
    # the nested pair (1, 1) ⊃ (3, 7) is neither adjacent in the input nor first
    ivs = [interval(3, 7), interval(2, 0), interval(3, 2), interval(1, 1)]
    with pytest.raises(ContractError, match=r"\[1, 1\] and \[3, 7\] overlap"):
        conditional_expectation(Signal.zeros(1, 4), ivs)
    with pytest.raises(ContractError, match="overlap"):
        conditional_expectation(Signal.zeros(1, 4), [interval(2, 3), interval(2, 3)])


def test_condexp_exact_properties(rng):
    for _ in range(50):
        f = Signal(1, 5, rng.standard_normal(32))
        ivs = [interval(2, 1), interval(1, 1), interval(5, 1)]
        ef = conditional_expectation(f, ivs)
        assert abs(ef.integral() - f.integral()) <= 1e-15 * max(abs(f.integral()), 1)
        eef = conditional_expectation(ef, ivs)
        assert np.array_equal(eef.values, ef.values)  # bitwise idempotent
        for p in (1.0, 2.0, 4.0, np.inf):
            assert lp_norm(ef, p) <= lp_norm(f, p) * (1 + 1e-12)


def test_condexp_needs_one_parameter():
    with pytest.raises(ContractError):
        conditional_expectation(Signal.zeros(2, 2), [])


def test_mixed_operator_at_resolution_cap(rng):
    # mixed norms run at every resolution a Signal accepts, d=3 L=6 included
    spec = OperatorSpec(AdaptedFamily.haar(3), ("max", "square", "square"))
    big = governing_operator(Signal(3, 6, rng.standard_normal((64,) * 3)), spec)
    assert big.values.shape == (64,) * 3
    assert np.isfinite(big.values).all()
    f = Signal(3, 3, rng.standard_normal((8,) * 3))
    got = governing_operator(f, spec).values
    want = oracle.governing_operator(f, spec).values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _exact_density_above(mask, j):
    """Cells lying in a lattice rectangle where the mask's density exceeds
    2^-j, in integer arithmetic."""
    d, L = mask.ndim, mask.shape[0].bit_length() - 1
    out = np.zeros(mask.shape, dtype=bool)
    for levels in itertools.product(range(L), repeat=d):
        widths = [1 << (L - k) for k in levels]
        shape = [s for k, w in zip(levels, widths) for s in (1 << k, w)]
        counts = mask.astype(np.int64).reshape(shape).sum(axis=tuple(range(1, 2 * d, 2)))
        above = (counts << j) > math.prod(widths)
        for axis, w in enumerate(widths):
            above = np.repeat(above, w, axis=axis)
        out |= above
    return out


@pytest.mark.parametrize("d, L", [(1, 8), (1, 10), (1, 12), (2, 6), (2, 9)])
def test_indicator_maximal_function_decides_dyadic_ties_exactly(rng, d, L):
    # both transform paths (the dense product below 2^9 cells per axis, the
    # step blocks from there) round exact dyadic densities by a few ulps
    family = AdaptedFamily.abs_haar(d)
    for fill in (0.5, 0.1):
        mask = rng.random(((1 << L),) * d) < fill
        values = maximal_function(Signal.from_mask(mask), family).values
        for j in range(1, 7):
            got = _above_dyadic(values, 2.0**-j)
            assert np.array_equal(got, _exact_density_above(mask, j))
