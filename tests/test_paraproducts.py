import itertools
import math

import numpy as np
import pytest

from dyadicpara import (
    AdaptedFamily,
    ContractError,
    ParaproductSpec,
    RectangleCollection,
    ResolutionError,
    Signal,
    domination_check,
    eval_B,
    eval_L,
    eval_Lambda,
    haar_surgery,
    lattice_rectangles,
    rectangle,
    slot_operator_specs,
    standard_triple,
)
from dyadicpara.harness import surgery_corpus
from dyadicpara.paraproducts import _abs_product
from dyadicpara.transforms import _rectangle_weights


def _haar_signal(rect, L, d=1):
    fam = AdaptedFamily.haar(d)
    return Signal(d, L, fam.rectangle_profile(rect, L))


def test_census_accepts_standard_and_rejects_violations():
    standard_triple(1, "haar")
    standard_triple(2, "gaussian")
    with pytest.raises(ContractError):
        standard_triple(1, "abs-haar")
    with pytest.raises(ContractError):
        ParaproductSpec(
            (
                AdaptedFamily.abs_haar(2),
                AdaptedFamily.haar(2),
                AdaptedFamily("haar", 2, (True, False)),
            )
        )


def test_zero_slots_census(triple2):
    assert triple2.zero_slots(0) == (1, 2)
    assert triple2.zero_slots(1) == (1, 2)
    assert triple2.n == 2 and triple2.d == 2


def test_eval_b_single_term(triple1):
    one = Signal.constant(1, 4, 1.0)
    h = _haar_signal(rectangle((0, 0)), 4)
    out = eval_B(triple1, (one, h))
    assert np.abs(out.values - h.values).max() <= 1e-12


def test_eval_b_zero_slot(triple1, rng):
    f = Signal(1, 4, rng.standard_normal(16))
    assert not eval_B(triple1, (f, Signal.zeros(1, 4))).values.any()


def test_eval_b_mean_zero_annihilates(triple1):
    one = Signal.constant(1, 4, 1.0)
    out = eval_B(triple1, (one, one))
    assert np.abs(out.values).max() <= 1e-14


def test_multilinearity(triple1, rng):
    f, g, h = (Signal(1, 5, rng.standard_normal(32)) for _ in range(3))
    a, b = 1.3, -2.7
    lhs = eval_B(triple1, (a * f + b * g, h))
    rhs = a * eval_B(triple1, (f, h)) + b * eval_B(triple1, (g, h))
    scale = max(np.abs(rhs.values).max(), 1.0)
    assert np.abs(lhs.values - rhs.values).max() <= 1e-12 * scale


def test_lambda_examples(triple1, rng):
    one = Signal.constant(1, 4, 1.0)
    h = _haar_signal(rectangle((0, 0)), 4)
    assert eval_Lambda(triple1, (one, h, h)) == pytest.approx(1.0, rel=1e-12)
    assert eval_Lambda(triple1, (one, Signal.zeros(1, 4), h)) == 0.0
    for _ in range(20):
        fs = [Signal(1, 4, rng.standard_normal(16)) for _ in range(3)]
        pairing = abs(
            float(np.sum(eval_B(triple1, fs[:2]).values * fs[2].values))
            * fs[0].cell_measure
        )
        assert pairing <= eval_Lambda(triple1, fs) * (1 + 1e-10) + 1e-15


def test_eval_l_examples(triple1):
    one = Signal.constant(1, 4, 1.0)
    h = _haar_signal(rectangle((0, 0)), 4)
    out = eval_L(triple1, (one, h, h))
    assert np.allclose(out.values, 1.0)
    assert not eval_L(triple1, (Signal.zeros(1, 4),) * 3).values.any()


@pytest.mark.parametrize("d, L", [(1, 5), (2, 3)])
def test_fubini_identity(rng, d, L):
    spec = standard_triple(d, "haar")
    for _ in range(20):
        fs = [Signal(d, L, rng.standard_normal(((1 << L),) * d)) for _ in range(3)]
        lam = eval_Lambda(spec, fs)
        assert eval_L(spec, fs).integral() == pytest.approx(lam, rel=1e-12, abs=1e-15)


def test_restricted_lambda_splits(triple1, rng):
    L = 4
    fs = [Signal(1, L, rng.standard_normal(16)) for _ in range(3)]
    lat = lattice_rectangles(1, L)
    half_a = RectangleCollection.of(lat[::2], L)
    half_b = RectangleCollection.of(lat[1::2], L)
    total = eval_Lambda(triple1, fs)
    split = eval_Lambda(triple1, fs, collection=half_a) + eval_Lambda(
        triple1, fs, collection=half_b
    )
    assert split == pytest.approx(total, rel=1e-12)
    assert eval_Lambda(triple1, fs, collection=RectangleCollection.of([], L)) == 0.0


def _whole_tensor_lambda(spec, fs, collection=None):
    """`eval_Lambda` over the whole coefficient tensor, masked by the
    weights, with every term summed: the form before it read only the
    members' slots and left out the zeros."""
    d, L = fs[0].d, fs[0].L
    terms = _abs_product(spec, fs) * _rectangle_weights(
        d, L, (spec.n - 1) / 2.0, collection
    )
    return math.fsum(terms.ravel().tolist())


@pytest.mark.parametrize("d, L", [(1, 6), (2, 3), (3, 2), (1, 1), (2, 1), (2, 4), (3, 3)])
def test_lambda_equals_whole_tensor_fsum(rng, d, L):
    """Summing only the members' nonzero terms gives the whole-tensor fsum
    bit for bit, sign of zero included."""
    fs = [Signal(d, L, rng.standard_normal(((1 << L),) * d)) for _ in range(3)]
    sparse = Signal(d, L, np.where(rng.random(((1 << L),) * d) < 0.2, 1.0, 0.0))
    lat = lattice_rectangles(d, L)
    for spec, inputs in itertools.product(
        (standard_triple(d, "haar"), standard_triple(d, "gaussian")),
        (fs, [fs[0], sparse, fs[2]], [fs[0], Signal.zeros(d, L), fs[1]]),
    ):
        collections = [None, RectangleCollection.of([], L), RectangleCollection.of(lat, L)]
        collections += [
            RectangleCollection.of([r for r in lat if rng.random() < p], L)
            for p in (0.1, 0.5, 0.9)
        ]
        for collection in collections:
            got = eval_Lambda(spec, inputs, collection=collection)
            assert got.hex() == _whole_tensor_lambda(spec, inputs, collection).hex()


@pytest.mark.parametrize("d, L", [(1, 3), (2, 2), (3, 2)])
def test_lambda_on_member_slots_refuses_as_the_whole_tensor(rng, d, L):
    spec = standard_triple(d, "haar")
    fs = [Signal(d, L, rng.standard_normal(((1 << L),) * d)) for _ in range(3)]
    coarse = rectangle(*[(0, 0)] * d)
    # a member at level L has no coefficient slot
    finer = RectangleCollection.of([coarse, rectangle(*[(0, 0)] * (d - 1) + [(L, 1)])], L)
    # a member with another parameter count
    other_d = RectangleCollection.of([rectangle(*[(0, 0)] * (d % 3 + 1))], L)
    for collection, error in ((finer, ResolutionError), (other_d, ContractError)):
        for form in (eval_Lambda, _whole_tensor_lambda):
            with pytest.raises(error):
                form(spec, fs, collection=collection)


def test_slot_operators_from_census():
    t1, t2, t3 = slot_operator_specs(standard_triple(2, "haar"))
    assert t1.sigma == ("max", "max")
    assert t2.sigma == ("square", "square")
    assert t3.sigma == ("square", "square")
    s1, s2, s3 = slot_operator_specs(standard_triple(1, "haar"))
    assert s1.sigma == ("max",) and s2.sigma == ("square",)


def test_alternative_zero_assignment(rng):
    # zeros in slots 1 and 3 instead of the usual 2 and 3: the operator
    # choice follows the census and the majorant bound still holds
    spec = ParaproductSpec(
        (AdaptedFamily.haar(1), AdaptedFamily.abs_haar(1), AdaptedFamily.haar(1))
    )
    t1, t2, t3 = slot_operator_specs(spec)
    assert t1.sigma == ("square",)
    assert t2.sigma == ("max",)
    assert t3.sigma == ("square",)
    for _ in range(10):
        fs = [Signal(1, 5, rng.standard_normal(32)) for _ in range(3)]
        assert domination_check(spec, *fs)["max_violation"] <= 1e-10


@pytest.mark.parametrize("d, L", [(1, 6), (2, 4)])
def test_domination(rng, d, L):
    spec = standard_triple(d, "haar")
    for _ in range(20):
        fs = [Signal(d, L, rng.standard_normal(((1 << L),) * d)) for _ in range(3)]
        report = domination_check(spec, *fs)
        assert report["max_violation"] <= 1e-10


def test_domination_single_term_equality(triple1):
    one = Signal.constant(1, 4, 1.0)
    h = _haar_signal(rectangle((0, 0)), 4)
    report = domination_check(triple1, one, h, h)
    # one surviving term: the majorant matches it exactly on its support
    assert report["max_violation"] <= 1e-12
    assert report["max_lhs"] == pytest.approx(report["max_rhs"], rel=1e-10)


def test_surgery_identity(rng):
    spec = standard_triple(1, "haar")
    for trial in range(5):
        f1, f2 = surgery_corpus(rng, 6)
        out = haar_surgery(spec, f1, f2)
        off = ~out["F"]
        assert out["F"].any() and off.any()
        scale = max(np.abs(out["full"].values).max(), 1e-300)
        assert np.abs(out["cut"].values - out["full"].values)[off].max() <= 1e-12 * scale
        for iv in out["intervals"]:
            lo, hi = iv.cells(6)
            assert out["F"][lo:hi].all()
        # averaging preserves the inputs off the excised region
        assert np.array_equal(out["g1"].values[off], f1.values[off])
        # the cut keeps exactly the intervals not inside F
        outside = [r for r in lattice_rectangles(1, 6) if not out["F"][r.cell_slices(6)].all()]
        assert out["kept"] == RectangleCollection.of(outside, 6)


def test_spec_json_round_trip(triple2):
    data = triple2.to_json()
    clone = ParaproductSpec.from_json(data)
    assert clone == triple2
    assert data["n"] == 2 and data["d"] == 2 and len(data["slots"]) == 3


@pytest.mark.parametrize("d", [2.7, 2.0, True, "2", None])
def test_spec_json_refuses_a_d_that_is_not_an_integer(triple2, d):
    # int() read 2.7 as 2 and true as 1
    data = {**triple2.to_json(), "d": d}
    with pytest.raises(TypeError):
        ParaproductSpec.from_json(data)


def test_spec_json_refuses_a_zero_pattern_that_is_not_boolean(triple2):
    data = triple2.to_json()
    data["slots"][1]["zero_pattern"] = ["no", True]
    with pytest.raises(ContractError, match="zero pattern"):
        ParaproductSpec.from_json(data)


def test_wrong_arity(triple1):
    with pytest.raises(ContractError):
        eval_B(triple1, (Signal.zeros(1, 3),))
    with pytest.raises(ContractError):
        eval_Lambda(triple1, (Signal.zeros(1, 3),) * 2)
    with pytest.raises(ContractError):
        eval_B(triple1, (Signal.zeros(1, 3), Signal.zeros(1, 4)))



@pytest.mark.parametrize("d, L", [(1, 10), (1, 11), (2, 5), (2, 6), (3, 3), (3, 4)])
@pytest.mark.parametrize("zero", [False, True], ids=["abs-haar", "haar-mixed"])
def test_step_output_fetches_no_profile_matrix(monkeypatch, rng, d, L, zero):
    # grids on both sides of transforms._SMALL_SIZE_MAX; Haar inputs fetch
    # no matrix either, so a fetch could only come from the synthesis
    out = AdaptedFamily.make(
        "haar" if zero else "abs-haar", d, [zero and j % 2 == 1 for j in range(d)]
    )
    assert not out.is_orthonormal_basis
    spec = ParaproductSpec((AdaptedFamily.haar(d), AdaptedFamily.haar(d), out))
    fs = [Signal(d, L, rng.standard_normal(((1 << L),) * d)) for _ in range(2)]
    want = eval_B(spec, fs).values

    def refuse(self, axis, L):
        raise AssertionError("profile matrix fetched")

    monkeypatch.setattr(AdaptedFamily, "profile_matrix", refuse)
    fresh = [Signal(d, L, f.values) for f in fs]
    assert np.array_equal(eval_B(spec, fresh).values, want)
