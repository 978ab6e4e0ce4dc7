import math
from fractions import Fraction

import numpy as np
import pytest

from dyadicpara import (
    AdaptedFamily,
    CalibrationError,
    ContractError,
    OperatorSpec,
    RectangleCollection,
    RestrictedWeakConfig,
    Signal,
    build_exceptional_sets,
    classify_rectangles,
    endpoint_pipeline,
    eval_Lambda,
    governing_operator,
    lattice_rectangles,
    localization_experiment,
    rectangle,
    restricted_weak_type_pipeline,
    shadow_layer_decay,
    slot_operator_specs,
    sum_over,
    technical_lemma_check,
)
from dyadicpara import decomposition
from dyadicpara.decomposition import hypothesis_holds
from dyadicpara.harness import normalize, random_cells, random_haar


# -- classification ---------------------------------------------------------


def test_classify_constant_one():
    labels = classify_rectangles(Signal.constant(1, 4, 1.0), 1.0)
    assert set(labels.values()) == {-1}


def test_classify_zero_sentinel():
    labels = classify_rectangles(Signal.zeros(1, 4), 1.0)
    assert set(labels.values()) == {None}


def test_classify_hand_example():
    tf = Signal(1, 4, 4.0 * Signal.indicator(rectangle((2, 0)), 4).values)
    labels = classify_rectangles(tf, 1.0)
    assert labels[rectangle((0, 0))] == 1


def test_classify_monotone_in_kappa(rng):
    tf = Signal(1, 5, np.abs(rng.standard_normal(32)))
    lab1 = classify_rectangles(tf, 1.0)
    lab2 = classify_rectangles(tf, 2.0)
    for r, l1 in lab1.items():
        l2 = lab2[r]
        if l1 is None:
            assert l2 is None
        else:
            assert l2 is None or l2 <= l1


def test_classify_clamps():
    tf = Signal.constant(1, 3, 2.0**50)
    labels = classify_rectangles(tf, 1.0, clamp=10)
    assert set(labels.values()) == {10}


def test_label_consistent_with_hypothesis(rng):
    # hypothesis at threshold kappa 2^(label+1) always holds, by maximality
    tf = Signal(2, 3, np.abs(rng.standard_normal((8, 8))))
    labels = classify_rectangles(tf, 1.0)
    for r, lab in labels.items():
        ell = -40 if lab is None else lab
        col = RectangleCollection.of([r], 3)
        assert hypothesis_holds(tf, col, 2.0 ** (ell + 1))


# -- exceptional sets -------------------------------------------------------


def test_exceptional_sets_constants(triple2):
    t1, t2, _ = slot_operator_specs(triple2)
    one = Signal.constant(2, 4, 1.0)
    state = build_exceptional_sets(one, one, 2.0, 2.0, t1, t2, kappa=2.0)
    assert not state.omega_ell
    assert not state.omega.any() and not state.omega_tilde.any()
    assert state.nu == pytest.approx(0.5)


def test_exceptional_sets_zero_inputs(triple2):
    t1, t2, _ = slot_operator_specs(triple2)
    zero = Signal.zeros(2, 4)
    state = build_exceptional_sets(zero, zero, 2.0, 2.0, t1, t2)
    assert state.kappa == 1.0
    assert not state.omega.any()


def test_exceptional_sets_spiky_calibrates(rng, triple2):
    t1, t2, _ = slot_operator_specs(triple2)
    vals = np.zeros((64, 64))
    vals[11, 47] = 1.0
    f1 = normalize(Signal(2, 6, vals), 2.0)
    f2 = normalize(random_haar(rng, 2, 6), 2.0)
    state = build_exceptional_sets(f1, f2, 2.0, 2.0, t1, t2)
    assert state.omega_tilde_measure < 0.5
    assert state.kappa <= 2.0**20


def test_calibration_failure_raises(triple2):
    t1, t2, _ = slot_operator_specs(triple2)
    one = Signal.constant(2, 4, 1.0)
    with pytest.raises(CalibrationError):
        build_exceptional_sets(one, one, 2.0, 2.0, t1, t2, kappa_limit=0.5)


def test_covered_rectangles_inside_inflated_set(rng, triple2):
    # any lattice rectangle fully inside the union lands inside the
    # thickened set, which is what the vanishing argument needs; pin a
    # kappa where the union is nonempty so the check is not vacuous
    t1, t2, _ = slot_operator_specs(triple2)
    vals = 0.02 * rng.standard_normal((32, 32))
    vals[3, 3] = 40.0
    f1 = normalize(Signal(2, 5, vals), 2.0)
    f2 = normalize(random_haar(rng, 2, 5), 2.0)
    state = build_exceptional_sets(f1, f2, 2.0, 2.0, t1, t2, kappa=8.0)
    inside = [
        r
        for r in lattice_rectangles(2, 5)
        if state.omega[r.cell_slices(5)].all()
    ]
    assert inside, "expected covered rectangles at the pinned kappa"
    for r in inside:
        assert state.omega_tilde[r.cell_slices(5)].all()


# -- Sum and the summation bounds -------------------------------------------


def test_sum_over_identities(triple1, rng):
    L = 4
    fs = [Signal(1, L, rng.standard_normal(16)) for _ in range(3)]
    lat = lattice_rectangles(1, L)
    assert sum_over(RectangleCollection.of([], L), triple1, *fs) == 0.0
    assert sum_over(
        RectangleCollection.of(lat, L), triple1, *fs
    ) == pytest.approx(eval_Lambda(triple1, fs), rel=1e-12)
    one = Signal.constant(1, L, 1.0)
    h = Signal(1, L, AdaptedFamily.haar(1).rectangle_profile(rectangle((0, 0)), L))
    single = RectangleCollection.of([rectangle((0, 0))], L)
    assert sum_over(single, triple1, one, h, h) == pytest.approx(1.0, rel=1e-12)


def test_technical_lemma_empty(triple2):
    res = technical_lemma_check(
        RectangleCollection.of([], 4),
        triple2,
        [Signal.zeros(2, 4)] * 3,
        (1.0, 1.0, 1.0),
        (True, True, True),
    )
    assert res["ok"] and res["sum"] == 0.0 and res["bound"] == 0.0


def _quantile_max(t_values, collection):
    worst = 0.0
    for r in collection.members:
        block = t_values.values[r.cell_slices(t_values.L)].ravel()
        m = math.floor(block.size * 0.01) + 1
        worst = max(
            worst, float(np.partition(block, block.size - m)[block.size - m])
        )
    return worst


@pytest.mark.parametrize("pattern", [0, 1, 2])
def test_technical_lemma_conclusions(rng, triple2, pattern):
    tspecs = slot_operator_specs(triple2)[:3]
    lat = lattice_rectangles(2, 4)
    for _ in range(10):
        fs = [random_cells(rng, 2, 4) for _ in range(3)]
        idx = rng.choice(len(lat), size=25, replace=False)
        col = RectangleCollection.of([lat[i] for i in idx], 4)
        t_vals = [governing_operator(f, t) for f, t in zip(fs, tspecs)]
        qs = [_quantile_max(t, col) for t in t_vals]
        lambdas = list(qs)
        flags = [True, True, True]
        if pattern >= 1 and qs[2] > 0:
            lambdas[2] = 0.9 * qs[2]
            flags[2] = False
        if pattern == 2 and qs[1] > 0:
            lambdas[1] = 0.9 * qs[1]
            flags[1] = False
        res = technical_lemma_check(
            col, triple2, fs, tuple(lambdas), tuple(flags), op_specs=tspecs
        )
        assert res["ok"]
        expected = {3: "all-hold", 2: "one-fails", 1: "two-fail"}[sum(flags)]
        assert res["conclusion"] == expected
        assert res["constant"] == pytest.approx(100.0 / (100.0 - sum(flags)))


def test_technical_lemma_flag_mismatch(triple2, rng):
    lat = lattice_rectangles(2, 4)
    col = RectangleCollection.of(lat[:5], 4)
    fs = [random_cells(rng, 2, 4) for _ in range(3)]
    with pytest.raises(ContractError):
        technical_lemma_check(col, triple2, fs, (1e9, 1e9, 1e9), (True, True, False))


def test_technical_lemma_needs_one_hypothesis(triple2, rng):
    lat = lattice_rectangles(2, 4)
    col = RectangleCollection.of(lat[:5], 4)
    fs = [
        Signal(2, 4, np.abs(random_cells(rng, 2, 4).values) + 1.0) for _ in range(3)
    ]
    with pytest.raises(ContractError):
        technical_lemma_check(col, triple2, fs, (0.0, 0.0, 0.0), (False, False, False))


@pytest.mark.parametrize("collection_L, signal_L", [(4, 3), (3, 4)])
def test_technical_lemma_refuses_a_collection_at_another_L(
    triple1, rng, monkeypatch, collection_L, signal_L
):
    # a d=1 collection at L=4 with signals at L=3 died with numpy's broadcast
    # ValueError; it is refused before any operator is computed
    col = RectangleCollection.of(lattice_rectangles(1, 3)[:5], collection_L)
    fs = [random_cells(rng, 1, signal_L) for _ in range(3)]
    monkeypatch.setattr(decomposition, "governing_operator", _no_operator)
    with pytest.raises(ContractError, match="L=") as refused:
        technical_lemma_check(col, triple1, fs, (1e9, 1e9, 1e9), (True, True, True))
    assert "operator" not in str(refused.value)
    # an empty collection has no resolution to disagree with
    monkeypatch.undo()
    empty = RectangleCollection.of([], collection_L)
    res = technical_lemma_check(empty, triple1, fs, (1e9, 1e9, 1e9), (True, True, True))
    assert res["sum"] == 0.0 and res["good_set_measure"] is None


def _no_operator(*args, **kwargs):
    raise AssertionError("operator computed before the refusal")


def test_good_set_fraction(triple2, rng):
    # with all hypotheses held, the good set covers >= 97/100 of every member
    tspecs = slot_operator_specs(triple2)[:3]
    lat = lattice_rectangles(2, 4)
    fs = [random_cells(rng, 2, 4) for _ in range(3)]
    idx = rng.choice(len(lat), size=30, replace=False)
    col = RectangleCollection.of([lat[i] for i in idx], 4)
    t_vals = [governing_operator(f, t) for f, t in zip(fs, tspecs)]
    qs = [_quantile_max(t, col) for t in t_vals]
    res = technical_lemma_check(col, triple2, fs, tuple(qs), (True, True, True))
    good = col.shadow_mask().copy()
    for t, lam in zip(t_vals, qs):
        good &= t.values <= lam
    for r in col.members:
        sl = r.cell_slices(4)
        assert good[sl].mean() >= 0.97


# -- localization ------------------------------------------------------------


def test_localization_haar_exact_zero():
    res = localization_experiment(
        OperatorSpec.all_square(AdaptedFamily.haar(1)), (2.0, 4.0, 8.0), 8
    )
    assert res["all_zero"]
    assert all(e["norm"] == 0.0 for e in res["entries"])


def test_localization_smooth_decay():
    res = localization_experiment(
        OperatorSpec.all_square(AdaptedFamily.smooth(1)), (2.0, 4.0, 8.0), 8
    )
    assert res["slope"] is not None
    assert res["slope"] <= -4.0


def test_localization_zero_signal():
    def builder(mu):
        col = RectangleCollection.of([rectangle((3, 4))], 8)
        return col, Signal.zeros(1, 8)

    res = localization_experiment(
        OperatorSpec.all_square(AdaptedFamily.haar(1)), (2.0, 4.0), 8, builder=builder
    )
    assert res["all_zero"]


def test_localization_support_violation():
    def builder(mu):
        col = RectangleCollection.of([rectangle((3, 4))], 8)
        return col, Signal.constant(1, 8, 1.0)

    with pytest.raises(ContractError):
        localization_experiment(
            OperatorSpec.all_square(AdaptedFamily.haar(1)),
            (2.0,),
            8,
            builder=builder,
        )


@pytest.mark.parametrize("mu", [float("nan"), float("inf")])
def test_localization_refuses_non_finite_mu(mu):
    with pytest.raises(ContractError):
        localization_experiment(OperatorSpec.all_square(AdaptedFamily.haar(1)), (2.0, mu), 8)


def test_shadow_layer_decay(rng):
    lat = lattice_rectangles(1, 6)
    idx = rng.choice(len(lat), size=10, replace=False)
    col = RectangleCollection.of([lat[i] for i in idx], 6)
    res = shadow_layer_decay(
        OperatorSpec.all_square(AdaptedFamily.haar(1)), col, Signal.constant(1, 6, 1.0)
    )
    assert np.isfinite(res["ratio"]) and res["ratio"] >= 0.0
    assert res["shadow"] == col.shadow_measure()
    empty = shadow_layer_decay(
        OperatorSpec.all_square(AdaptedFamily.haar(1)),
        RectangleCollection.of([], 6),
        Signal.constant(1, 6, 1.0),
    )
    assert empty["total"] == 0.0


# -- pipelines ---------------------------------------------------------------


def test_pipeline_normalization_contract(triple2, rng):
    f = random_haar(rng, 2, 4)
    cfg = RestrictedWeakConfig(p1=2.0, p2=2.0)
    with pytest.raises(ContractError):
        restricted_weak_type_pipeline(cfg, triple2, f, f)


def test_pipeline_random_trials(triple2, rng):
    for _ in range(5):
        f1 = normalize(random_haar(rng, 2, 4), 2.0)
        f2 = normalize(random_haar(rng, 2, 4), 2.0)
        cfg = RestrictedWeakConfig(p1=2.0, p2=2.0, f3=random_cells(rng, 2, 4))
        rep = restricted_weak_type_pipeline(cfg, triple2, f1, f2)
        assert rep["omega_tilde_measure"] < 0.5
        assert rep["e3_prime_measure"] >= 0.5
        assert rep["all_class_bounds_ok"]
        assert rep["pairing_le_total"]
        assert rep["finite"]
        assert rep["partition_defect"] <= 1e-12 * max(rep["total"], 1.0)
        assert rep["e3_prime_convention"] == "complement-of-inflated-set"


def test_pipeline_zero_inputs_trivial(triple2):
    # all-zero slot data: every class sum vanishes and checks pass
    zero = Signal.zeros(2, 4)
    one_norm = normalize(Signal.constant(2, 4, 1.0), 2.0)
    cfg = RestrictedWeakConfig(p1=2.0, p2=2.0, f3=zero)
    rep = restricted_weak_type_pipeline(cfg, triple2, one_norm, one_norm)
    assert rep["total"] == 0.0
    assert rep["all_class_bounds_ok"]


def test_pipeline_spike_produces_vanishing_leftovers(triple1, rng):
    # a tall spike forces positive labels; with compactly supported
    # profiles the third input vanishes on those rectangles, so every
    # leftover class carries exactly zero mass
    vals = 0.02 * rng.standard_normal(1024)
    vals[517] = 60.0
    f1 = normalize(Signal(1, 10, vals), 2.0)
    f2 = normalize(random_haar(rng, 1, 10), 2.0)
    cfg = RestrictedWeakConfig(p1=2.0, p2=2.0, f3=random_cells(rng, 1, 10))
    rep = restricted_weak_type_pipeline(cfg, triple1, f1, f2)
    leftovers = [row for row in rep["classes"] if row["class"] == "leftover"]
    assert leftovers, "expected at least one positive-label class"
    assert all(row["sum"] == 0.0 for row in leftovers)
    assert rep["all_class_bounds_ok"]


def test_endpoint_pipeline(triple2, rng):
    for _ in range(3):
        f1 = normalize(random_haar(rng, 2, 4), 2.0)
        f2 = normalize(random_haar(rng, 2, 4), np.inf)
        cfg = RestrictedWeakConfig(p1=2.0, p2=float("inf"), f3=random_cells(rng, 2, 4))
        rep = endpoint_pipeline(cfg, triple2, f1, f2)
        assert rep["omega_tilde_measure"] < 0.5
        assert rep["e3_prime_measure"] >= 0.5
        assert rep["all_class_bounds_ok"]
        assert np.isfinite(rep["max_localization_constant"])
        assert rep["nu"] == pytest.approx(0.5)


def test_endpoint_requires_sup_normalization(triple2, rng):
    f1 = normalize(random_haar(rng, 2, 4), 2.0)
    f2 = random_haar(rng, 2, 4) * 3.0
    cfg = RestrictedWeakConfig(p1=2.0, p2=float("inf"))
    with pytest.raises(ContractError):
        endpoint_pipeline(cfg, triple2, f1, f2)


@pytest.mark.parametrize("p2", [2.0, 4.0])
def test_endpoint_refuses_finite_p2(triple2, rng, p2):
    # the endpoint measures ||f2||_p2 and builds nu from p2, so a finite
    # p2 would silently run a different variant
    f1 = normalize(random_haar(rng, 2, 4), 2.0)
    f2 = normalize(random_haar(rng, 2, 4), np.inf)
    cfg = RestrictedWeakConfig(p1=2.0, p2=p2)
    with pytest.raises(ContractError, match="p2 = inf"):
        endpoint_pipeline(cfg, triple2, f1, f2)


def test_endpoint_spike_produces_vanishing_leftovers(triple1, rng):
    # the positive-label branch of the endpoint variant: a tall spike in
    # the first slot yields leftover classes whose mass vanishes exactly
    # for compactly supported profiles
    vals = 0.02 * rng.standard_normal(1024)
    vals[517] = 60.0
    f1 = normalize(Signal(1, 10, vals), 2.0)
    f2 = normalize(random_haar(rng, 1, 10), np.inf)
    cfg = RestrictedWeakConfig(p1=2.0, p2=float("inf"), f3=random_cells(rng, 1, 10))
    rep = endpoint_pipeline(cfg, triple1, f1, f2)
    leftovers = [row for row in rep["classes"] if row["class"] == "leftover"]
    assert leftovers, "expected at least one positive-label class"
    assert all(row["sum"] == 0.0 for row in leftovers)
    assert rep["all_class_bounds_ok"]


# -- contracts of the tensor-native classification ----------------------------


@pytest.mark.parametrize("d, L", [(1, 0), (1, 1), (1, 5), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2)])
def test_labels_come_in_lattice_order(rng, d, L):
    # _group_classes reads the label vectors in this order
    tf = Signal(d, L, np.abs(rng.standard_normal(((1 << L),) * d)))
    labels = classify_rectangles(tf, 0.5)
    assert list(labels) == lattice_rectangles(d, L)


@pytest.mark.parametrize("kappa", [0, 0.0, -1.0, float("nan"), float("inf"), -float("inf"), "x", None])
def test_classify_refuses_bad_kappa(kappa):
    with pytest.raises(ContractError, match="kappa"):
        classify_rectangles(Signal(1, 4, np.arange(16.0)), kappa)


def test_classify_tiny_kappa_clamps_instead_of_overflowing():
    # q / kappa overflows at kappa = 1e-320; the log-difference search does not
    tf = Signal(1, 4, np.arange(16.0))
    labels = classify_rectangles(tf, 1e-320, clamp=40)
    assert set(labels.values()) == {40}
    labels = classify_rectangles(tf, 1e300, clamp=40)
    assert set(labels.values()) == {-40}


def _exact_label(q, kappa, clamp):
    """The largest l with kappa * 2^l < q, in rational arithmetic, clamped."""
    if not q > 0.0:
        return None
    ratio = Fraction(q) / Fraction(kappa)
    ell = ratio.numerator.bit_length() - ratio.denominator.bit_length() + 1  # 2^ell > ratio
    while Fraction(2) ** ell >= ratio:
        ell -= 1
    return max(min(ell, clamp), -clamp)


def test_classify_labels_a_subnormal_quantile_exactly():
    # kappa * 2^-1074 = 0.75 * 5e-324 rounds to 5e-324 itself, which the
    # comparison against ldexp(kappa, l) took for "not below q"
    tf = Signal(1, 1, np.array([5e-324, 5e-324]))
    labels = classify_rectangles(tf, 0.75, clamp=1100)
    assert list(labels.values()) == [-1074] == [_exact_label(5e-324, 0.75, 1100)]


@pytest.mark.parametrize("kappa", [0.75, 0.1, 3.0, 1e-3, 2.0**-30, 5e-324, 1e300])
@pytest.mark.parametrize("clamp", [0, 2, 40, 1100])
def test_greatest_levels_equal_exact_rational_labels(rng, kappa, clamp):
    # random floats across the whole exponent range, subnormals included,
    # and the finite powers kappa * 2^l with both their neighbours
    q = np.ldexp(rng.random(400), rng.integers(-1080, 1025, 400))
    with np.errstate(over="ignore"):
        powers = np.ldexp(kappa, np.arange(-1100, 1100, 7))
    powers = powers[np.isfinite(powers)]
    q = np.concatenate([q, powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    q = np.concatenate([q, [0.0, -0.0, -1.0, 5e-324, np.finfo(float).max]])
    got = decomposition._greatest_levels(q, kappa, clamp)
    assert got == [_exact_label(v, kappa, clamp) for v in q.tolist()]


@pytest.mark.parametrize("clamp", [-1, 2.5, 3.0, "3", None, True, np.float64(4.0)])
def test_classify_refuses_bad_clamp(clamp):
    with pytest.raises(ContractError, match="clamp"):
        classify_rectangles(Signal(1, 4, np.arange(16.0)), 1.0, clamp=clamp)


@pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan")])
def test_exceptional_sets_refuse_bad_kappa(triple2, kappa):
    t1, t2, _ = slot_operator_specs(triple2)
    one = Signal.constant(2, 4, 1.0)
    with pytest.raises(ContractError, match="kappa"):
        build_exceptional_sets(one, one, 2.0, 2.0, t1, t2, kappa=kappa)


@pytest.mark.parametrize("kappa", [0.0, -1.0])
@pytest.mark.parametrize(
    "pipeline, p2", [(restricted_weak_type_pipeline, 2.0), (endpoint_pipeline, np.inf)]
)
def test_pipelines_refuse_bad_kappa(triple1, rng, pipeline, p2, kappa):
    # both used to die with OverflowError inside the level-set loop
    f1 = normalize(random_haar(rng, 1, 4), 2.0)
    f2 = normalize(random_haar(rng, 1, 4), p2)
    cfg = RestrictedWeakConfig(p1=2.0, p2=p2, kappa=kappa)
    with pytest.raises(ContractError, match="kappa"):
        pipeline(cfg, triple1, f1, f2)
