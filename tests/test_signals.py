import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicpara import (
    AdaptedFamily,
    CoefficientField,
    ContractError,
    ExponentTuple,
    Signal,
    conjugate_exponent,
    lp_norm,
    rectangle,
    weak_quasinorm,
)
from dyadicpara import OperatorSpec, coefficients, eval_B, eval_L, governing_operator, reconstruct
from dyadicpara import standard_triple
from dyadicpara.harness import random_cells, random_haar
from dyadicpara.lattice import level_cap
from dyadicpara.signals import _Adopted


def test_lp_examples():
    assert lp_norm(Signal.constant(1, 4, 1.0), 3.0) == 1.0
    half = Signal.indicator(rectangle((1, 0)), 4)
    assert lp_norm(half, 2.0) == pytest.approx(2 ** -0.5, rel=1e-15)
    haar = Signal(1, 4, AdaptedFamily.haar(1).axis_profile(0, 0, 0, 4))
    assert lp_norm(haar, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert lp_norm(haar, np.inf) == 1.0


@pytest.mark.parametrize("c, p", [(10.0, 400.0), (1e-5, 100.0), (-1e200, 2.0)])
def test_lp_no_overflow_or_underflow(c, p):
    assert lp_norm(Signal.constant(1, 4, c), p) == abs(c)
    half = c * Signal.indicator(rectangle((1, 0)), 4)
    assert lp_norm(half, p) == pytest.approx(abs(c) * 0.5 ** (1 / p), rel=1e-14)


def test_lp_in_range_unchanged(rng):
    # the fallback only replaces an inf or 0.0 result; finite values stay exact
    for p in (0.5, 1.0, 2.0, 3.7, 40.0):
        for d, L in ((1, 6), (2, 3)):
            scale = 10.0 ** rng.integers(-3, 4)
            f = Signal(d, L, rng.standard_normal(((1 << L),) * d) * scale)
            a = np.abs(f.values)
            assert lp_norm(f, p) == float((np.sum(a**p) * f.cell_measure) ** (1.0 / p))


def test_lp_contract():
    with pytest.raises(ContractError):
        lp_norm(Signal.zeros(1, 2), 0.0)


@pytest.mark.parametrize("norm", [lp_norm, weak_quasinorm])
@pytest.mark.parametrize("exponent", [0.0, -1.0, float("nan")])
def test_norms_refuse_an_exponent_that_is_not_positive(norm, exponent):
    with pytest.raises(ContractError):
        norm(Signal.constant(1, 2, 1.0), exponent)


def test_weak_examples():
    quarter = Signal.indicator(rectangle((2, 0)), 4)
    assert weak_quasinorm(quarter, 0.5) == pytest.approx(1 / 16, rel=1e-15)
    assert weak_quasinorm(Signal.zeros(2, 2), 3.0) == 0.0
    assert weak_quasinorm(Signal.constant(1, 3, 2.5), 1.0) == pytest.approx(2.5)


def test_weak_below_strong(rng):
    for _ in range(200):
        f = Signal(1, 5, rng.standard_normal(32))
        for r in (1.0, 1.5, 2.0):
            assert weak_quasinorm(f, r) <= lp_norm(f, r) * (1 + 1e-12)


def test_weak_sup_attained_on_values(rng):
    # sweeping strictly between realized values never beats the reported sup
    f = Signal(1, 4, np.abs(rng.standard_normal(16)))
    got = weak_quasinorm(f, 1.0)
    lam = np.linspace(1e-9, float(np.abs(f.values).max()), 997)
    meas = [(np.abs(f.values) > t).mean() for t in lam]
    brute = max(t * m for t, m in zip(lam, meas))
    assert brute <= got * (1 + 1e-12)


def test_holder(rng):
    for _ in range(200):
        f = Signal(1, 5, rng.standard_normal(32))
        g = Signal(1, 5, rng.standard_normal(32))
        for p in (1.5, 2.0, 4.0):
            q = conjugate_exponent(p)
            assert abs(f.pointwise_mul(g).integral()) <= lp_norm(f, p) * lp_norm(
                g, q
            ) * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_weak_product_constant_four(seed):
    rng = np.random.default_rng(seed)
    f = Signal(1, 4, rng.standard_normal(16))
    g = Signal(1, 4, rng.standard_normal(16))
    lhs = weak_quasinorm(f.pointwise_mul(g), 0.5)
    rhs = 4.0 * weak_quasinorm(f, 1.0) * weak_quasinorm(g, 1.0)
    assert lhs <= rhs * (1 + 1e-12)


def test_exponent_tuple():
    assert ExponentTuple((2.0, 2.0)).r == pytest.approx(1.0)
    assert ExponentTuple((4.0, 4.0)).r == pytest.approx(2.0)
    assert ExponentTuple((2.0, np.inf)).r == pytest.approx(2.0)
    assert ExponentTuple((np.inf,)).r == np.inf
    with pytest.raises(ContractError):
        ExponentTuple((1.0, 2.0))
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(np.inf) == 1.0
    assert conjugate_exponent(1.0) == np.inf


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0, -np.inf, float("nan")])
def test_conjugate_exponent_refuses_p_below_one_and_nan(p):
    with pytest.raises(ContractError):
        conjugate_exponent(p)


@pytest.mark.parametrize(
    "values", [np.array([1.0 + 2.0j, 0.0]), np.zeros(2, dtype=complex), [1j, 0.0]]
)
def test_signal_and_field_refuse_complex_values(values):
    with pytest.raises(ContractError, match="real"):
        Signal(1, 1, values)
    with pytest.raises(ContractError, match="real"):
        CoefficientField(1, 1, AdaptedFamily.haar(1), values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 7])
def test_field_refuses_any_non_finite_coefficient(where, bad):
    tensor = np.zeros(8)
    tensor[where] = bad
    with pytest.raises(ContractError, match="finite"):
        CoefficientField(1, 3, AdaptedFamily.haar(1), tensor)
    with pytest.raises(ContractError, match="finite"):
        CoefficientField(2, 2, AdaptedFamily.abs_haar(2), np.resize(tensor, (4, 4)))
    tensor[where] = np.finfo(float).max
    field = CoefficientField(1, 3, AdaptedFamily.haar(1), tensor)
    assert field.tensor[where] == np.finfo(float).max


def test_field_refuses_a_family_of_another_parameter_count():
    with pytest.raises(ContractError, match="parameter counts"):
        CoefficientField(1, 2, AdaptedFamily.haar(2), np.zeros(4))
    with pytest.raises(ContractError, match="parameter counts"):
        CoefficientField(2, 1, AdaptedFamily.abs_haar(1), np.zeros((2, 2)))


def test_signal_contracts():
    with pytest.raises(ContractError):
        Signal(1, 3, np.array([1.0, np.nan] + [0.0] * 6))
    with pytest.raises(ContractError):
        Signal(1, 3, np.zeros(7))
    with pytest.raises(ContractError):
        Signal.constant(1, 20, 1.0)  # beyond the resolution cap


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("d, L, where", [(1, 3, 0), (1, 3, 7), (2, 2, 5), (1, 0, 0)])
def test_signal_refuses_any_non_finite_value(d, L, where, bad):
    values = np.zeros(1 << (d * L))
    values[where] = bad
    with pytest.raises(ContractError, match="finite"):
        Signal(d, L, values)
    values[where] = np.finfo(float).max
    assert Signal(d, L, values).values.ravel()[where] == np.finfo(float).max


@pytest.mark.parametrize(
    "d, L, shape",
    [(2, 2, (2, 8)), (2, 2, (16, 1)), (1, 4, (4, 4)), (2, 2, (2, 2, 4)), (1, 0, ())],
)
def test_signal_refuses_a_misshapen_values_array(d, L, shape):
    # the size fits, the shape is neither flat nor the grid
    with pytest.raises(ContractError, match="shape"):
        Signal(d, L, np.zeros(shape))


def test_signal_copies_its_values():
    v = np.zeros(8)
    s = Signal(1, 3, v)
    v[0] = 5.0
    assert s.values[0] == 0.0
    assert v.flags.writeable
    # the copy owns its memory, and the signal holds a view of it
    with pytest.raises(ValueError):
        s.values.flags.writeable = True


def test_field_copies_its_tensor():
    t = np.arange(16.0).reshape(4, 4)
    c = CoefficientField(2, 2, AdaptedFamily.haar(2), t)
    t[0, 0] = 99.0
    assert c.tensor[0, 0] == 0.0
    assert t.flags.writeable
    assert not c.tensor.flags.writeable
    with pytest.raises(ValueError):
        c.tensor.flags.writeable = True


# -- arrays the package allocates are adopted, with the constructor's checks --


def test_adopted_values_are_refused_as_copied_ones_are():
    with np.errstate(over="ignore"), pytest.raises(ContractError, match="finite"):
        Signal(1, 1, [1e308, 1.0]) * 10.0
    f = Signal(1, 3, np.arange(8.0))
    with pytest.raises(ContractError, match=r"got shape \(8, 8\)"):
        f.restrict(np.ones((8, 8), dtype=bool))  # broadcasts to another grid
    top = level_cap(1) + 1
    with pytest.raises(ContractError, match="outside"):
        Signal(1, top + 1, _Adopted(np.zeros(2 << top)))
    with pytest.raises(ContractError, match="outside"):
        Signal.zeros(1, top + 1)
    with pytest.raises(ContractError, match="d must be"):
        Signal(0, 1, _Adopted(np.zeros(2)))
    with pytest.raises(ContractError, match="shape"):
        CoefficientField(1, 2, AdaptedFamily.haar(1), _Adopted(np.zeros(8)))


def test_adopted_values_take_the_copy_path_layout():
    a = np.arange(16.0).reshape(4, 4).T  # not C order: a C copy is made
    f = Signal(2, 2, _Adopted(a))
    assert f.values.flags.c_contiguous and np.array_equal(f.values, a)
    flat = np.arange(16.0)
    g = Signal(2, 2, _Adopted(flat))
    assert g.values.shape == (4, 4) and np.shares_memory(g.values, flat)
    # the array owning the memory is frozen too: no view can write to it
    assert not flat.flags.writeable
    with pytest.raises(ValueError):
        g.values.flags.writeable = True


def _frozen_float(arr, c_order):
    return (
        arr.dtype == np.float64
        and not arr.flags.writeable
        and (arr.flags.c_contiguous or not c_order)
    )


@pytest.mark.parametrize("d, L", [(1, 9), (2, 4), (3, 3)])
def test_internal_outputs_are_read_only_float64(d, L):
    rng = np.random.default_rng(d + L)
    spec = standard_triple(d)
    f1, f2, f3 = random_cells(rng, d, L), random_haar(rng, d, L), random_haar(rng, d, L)
    signals = [f1, f2, eval_B(spec, (f1, f2)), eval_L(spec, (f1, f2, f3))]
    fields = [coefficients(f, fam) for f, fam in zip((f1, f2, f3), spec.families)]
    signals.append(reconstruct(fields[1]))
    signals += [governing_operator(f1, OperatorSpec.all_max(spec.families[0])) for _ in "ab"]
    for s in signals:
        assert _frozen_float(s.values, c_order=True)
    for c in fields:
        assert _frozen_float(c.tensor, c_order=False)


_FIELD_STRIDES = {  # the strides of the copying constructor
    (2, 9): {"haar": (4096, 8), "smooth": (8, 4096)},
    (3, 4): {"haar": (2048, 128, 8), "smooth": (128, 8, 2048)},
}


@pytest.mark.parametrize("d, L", sorted(_FIELD_STRIDES))
@pytest.mark.parametrize(
    "kind, family",
    [
        ("haar", AdaptedFamily.haar),
        ("haar", AdaptedFamily.abs_haar),
        ("haar", lambda d: AdaptedFamily.make("haar", d, [a % 2 == 1 for a in range(d)])),
        ("smooth", AdaptedFamily.smooth),
        ("smooth", AdaptedFamily.smooth_bump),
    ],
)
def test_adopted_fields_keep_the_copied_layout(d, L, kind, family):
    f = random_cells(np.random.default_rng(1), d, L)
    fam = family(d)
    field = coefficients(f, fam)
    assert field.tensor.strides == _FIELD_STRIDES[d, L][kind]
    assert CoefficientField(d, L, fam, field.tensor).tensor.strides == field.tensor.strides


def test_signals_and_fields_compare_by_identity():
    a, b = Signal(1, 1, [0.0, 0.0]), Signal(1, 1, [1.0, 1.0])
    assert a != b and hash(a) != hash(b)
    assert a == a and Signal(1, 1, [0.0, 0.0]) != a
    haar = AdaptedFamily.haar(1)
    fa, fb = CoefficientField(1, 1, haar, [0.0, 0.0]), CoefficientField(1, 1, haar, [1.0, 1.0])
    assert fa != fb and hash(fa) != hash(fb)
    assert len({a, b, fa, fb}) == 4


def _field_json(d, L):
    return {
        "d": d,
        "L": L,
        "family": {"kind": "haar", "zero_pattern": [True] * d},
        "mean_blocks": [],
        "entries": [],
    }


CONSTRUCTORS = {
    "zeros": lambda d, L: Signal.zeros(d, L),
    "constant": lambda d, L: Signal.constant(d, L, 1.0),
    "indicator": lambda d, L: Signal.indicator(rectangle(*[(0, 0)] * d), L),
    "random_haar": lambda d, L: random_haar(np.random.default_rng(0), d, L),
    "random_cells": lambda d, L: random_cells(np.random.default_rng(0), d, L),
    "field": lambda d, L: CoefficientField(d, L, AdaptedFamily.haar(d), np.zeros(1)),
    "field_json": lambda d, L: CoefficientField.from_json(_field_json(d, L)),
}


@pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
@pytest.mark.parametrize("d", [1, 2])
def test_constructors_check_resolution_first(make, d):
    # range-checked before any 2^L grid is formed: a negative L used to
    # fail in the shift, and a huge one in the allocation
    for L in (-1, level_cap(d) + 2, 40):
        with pytest.raises(ContractError, match="resolution"):
            make(d, L)


def test_signal_immutable_and_arithmetic():
    f = Signal.constant(1, 2, 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 3.0
    g = (f + f) * 0.25 - f
    assert np.allclose(g.values, -1.0)
    assert abs(f).values[0] == 2.0
    assert (-f).values[0] == -2.0
    with pytest.raises(ContractError):
        f + Signal.constant(1, 3, 1.0)


def test_integral_exact():
    f = Signal(1, 3, np.arange(8, dtype=float))
    assert f.integral() == sum(range(8)) / 8


def test_io_round_trips(tmp_path, rng):
    f = Signal(2, 3, rng.standard_normal((8, 8)))
    p_csv = tmp_path / "sig.csv"
    f.save_csv(p_csv)
    assert np.array_equal(Signal.load_csv(p_csv, 2, 3).values, f.values)
    p_json = tmp_path / "sig.json"
    f.save_json(p_json)
    assert np.array_equal(Signal.load_json(p_json).values, f.values)
    data = json.loads(p_json.read_text())
    assert data["d"] == 2 and data["L"] == 3 and len(data["values"]) == 64


def test_restrict_and_masks():
    f = Signal.constant(2, 2, 3.0)
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, :] = True
    g = f.restrict(mask)
    assert g.integral() == pytest.approx(3.0 / 4)
    assert Signal.from_mask(mask).integral() == pytest.approx(0.25)
