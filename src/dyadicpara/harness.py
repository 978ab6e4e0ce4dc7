"""Experiment harness: seeded signal corpus, verification suites, sweeps.

Every suite is a pure function of an ExperimentConfig; per-trial random
streams are derived from (seed, trial index), so reports are bit-identical
for identical configs regardless of execution order.  Each check row
carries a stable identifier, a pass flag, and the measured margin.
"""

from __future__ import annotations

import csv
import datetime
import functools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .decomposition import (
    RestrictedWeakConfig,
    _hypothesis_threshold,
    endpoint_pipeline,
    localization_experiment,
    restricted_weak_type_pipeline,
    shadow_layer_decay,
    technical_lemma_check,
)
from .errors import ContractError
from .families import AdaptedFamily
from .lattice import DyadicInterval, DyadicRectangle, RectangleCollection, _json_index
from .norms import bmo_norm_1param, energy_in_region, h1_norm, product_bmo_lower
from .operators import (
    OperatorSpec,
    conditional_expectation,
    governing_operator,
    square_function,
)
from .paraproducts import (
    domination_check,
    eval_B,
    eval_L,
    eval_Lambda,
    haar_surgery,
    slot_operator_specs,
    standard_triple,
)
from .signals import (
    Signal,
    _Adopted,
    _check_resolution,
    _holder_exponent,
    conjugate_exponent,
    lp_norm,
    weak_quasinorm,
)
from .transforms import CoefficientField, coefficients, lattice_rectangles, reconstruct


@dataclass
class ExperimentConfig:
    suite: str = "identities"
    d: int = 1
    L: int = 6
    L_list: tuple = ()
    trials: int = 100
    seed: int = 0
    p1: float = 2.0
    p2: float = 2.0
    r: Optional[float] = None  # None: Hoelder's exponent 1/(1/p1 + 1/p2)
    family: str = "haar"
    out: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
        # an exponent that is not > 0 has no Hoelder exponent: `_check_config`
        # refuses it before it reads r
        if self.r is None and self.p1 > 0 and self.p2 > 0:
            self.r = _holder_exponent((self.p1, self.p2))

    def to_json(self):
        data = asdict(self)
        data["L_list"] = list(self.L_list)
        return data

    @classmethod
    def from_json(cls, data) -> "ExperimentConfig":
        """Raises TypeError for data that is not an object, an integer field
        holding anything but an integer, an exponent that is not a real
        number and an `out` that is neither null nor a string; ValueError
        for a key that names no field and a `format` other than json or
        csv."""
        if not isinstance(data, dict):
            raise TypeError("an experiment config is a JSON object")
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        kwargs = dict(data)
        for name in ("d", "L", "trials", "seed"):
            if name in kwargs:
                kwargs[name] = _json_index(kwargs[name])
        if "L_list" in kwargs:
            kwargs["L_list"] = tuple(_json_index(x) for x in kwargs["L_list"])
        for name in ("p1", "p2", "r"):
            if name in kwargs:
                kwargs[name] = _json_real(kwargs[name])
        if not isinstance(kwargs.get("out"), (str, type(None))):
            raise TypeError(f"out must be null or a path, got {kwargs['out']!r}")
        if kwargs.get("format", "json") not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {kwargs['format']!r}")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_json(json.loads(Path(path).read_text()))


def _json_real(value) -> float:
    """A JSON number as a float: TypeError for a bool or a non-number,
    ValueError for an integer past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{value} is out of range") from exc


# ---------------------------------------------------------------------------
# Signal corpus
# ---------------------------------------------------------------------------


def generate_signal(kind: str, d: int, L: int, seed: int = 0, params=None) -> Signal:
    """Deterministic test signals; identical arguments give identical data."""
    _check_resolution(d, L)
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    params = dict(params or {})
    if kind == "constant":
        return Signal.constant(d, L, float(params.get("c", 1.0)))
    if kind in ("indicator", "bump"):
        rect = DyadicRectangle.from_json(params["rect"])
        if rect.d != d:
            raise ContractError(f"a d={d} signal needs a rect of {d} intervals, got {rect.d}")
        if kind == "indicator":
            return Signal.indicator(rect, L)
        return Signal(d, L, AdaptedFamily.smooth_bump(d).rectangle_profile(rect, L))
    rng = np.random.default_rng(seed)
    if kind == "random-cells":
        return random_cells(rng, d, L)
    if kind == "random-haar":
        return random_haar(rng, d, L)
    raise ContractError(f"unknown signal kind {kind!r}")


def random_haar(rng: np.random.Generator, d: int, L: int) -> Signal:
    _check_resolution(d, L)
    tensor = rng.standard_normal(((1 << L),) * d)
    return reconstruct(CoefficientField(d, L, AdaptedFamily.haar(d), _Adopted(tensor)))


def random_cells(rng: np.random.Generator, d: int, L: int) -> Signal:
    _check_resolution(d, L)
    return Signal(d, L, _Adopted(rng.standard_normal(((1 << L),) * d)))


def normalize(f: Signal, p: float) -> Signal:
    n = lp_norm(f, p)
    if n == 0.0:
        raise ContractError("cannot normalize the zero signal")
    return f * (1.0 / n)


class _SeedWords:
    """The seed words of one trial, handed to `PCG64` in place of its
    SeedSequence.  `PCG64` reads exactly `generate_state(4, np.uint64)`
    from its seed sequence, so these words give it the state that
    `SeedSequence([seed, trial])` would.  Registered as a
    `numpy.random.bit_generator.ISeedSequence` on the first cache miss,
    so that importing the package does not import `numpy.random`.  Any
    other request raises, so a numpy that seeds `PCG64` differently fails
    loudly instead of drawing another stream.

    Holding the words instead of the SeedSequence itself saves its
    `generate_state` on every call: 1.4 against 5.6 µs per generator on
    numpy 2.4.6 on a shared 2-vCPU x86_64 host (timeit, best of 7).  Time
    in `_trial_rng` over a warm acceptance-mix pass (3027 generators,
    medians of 6 passes): 12.5 ms with the words, 30 ms with a cached
    SeedSequence, 50 ms with `default_rng`."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise NotImplementedError(
                f"the cached seed words are 4 uint64 words, not {n_words} {np.dtype(dtype)}"
            )
        return self.words


# bounded: one acceptance-mix pass (every suite and both sweeps at the
# C01-C12 sizes) seeds 1476 distinct (seed, trial) keys, which take about
# 0.5 MiB here with the cache's own bookkeeping (360 bytes per key)
@functools.lru_cache(maxsize=4096)
def _trial_seed(seed: int, trial: int) -> _SeedWords:
    np.random.bit_generator.ISeedSequence.register(_SeedWords)  # a no-op once done
    words = np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64)
    words.flags.writeable = False
    return _SeedWords(words)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """A new generator whose state is that of
    `np.random.default_rng([seed, trial])`, drawing the same stream.  The
    SeedSequence hashing is done once per key and process (`_trial_seed`).
    Its seed sequence does not support `spawn`, which no package code
    uses."""
    return np.random.Generator(np.random.PCG64(_trial_seed(seed, trial)))


# ---------------------------------------------------------------------------
# Check bookkeeping
# ---------------------------------------------------------------------------


def _check(checks, check_id, ok, **data):
    row = {"id": check_id, "ok": bool(ok)}
    row.update(data)
    checks.append(row)


def _report(cfg: ExperimentConfig, checks, extra=None) -> dict:
    report = {
        "meta": {
            "tool": "dyadicpara",
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        "config": cfg.to_json(),
        "suite": cfg.suite,
        "checks": checks,
        "passed": all(c["ok"] for c in checks),
    }
    if extra:
        report.update(extra)
    return report


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_identities(cfg: ExperimentConfig) -> dict:
    checks = []
    d, L = cfg.d, cfg.L
    haar = AdaptedFamily.haar(d)

    worst_rt = 0.0
    worst_pv = 0.0
    worst_direct = 0.0
    worst_sq = 0.0
    lattice = lattice_rectangles(d, L)
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        f = random_cells(rng, d, L)
        field = coefficients(f, haar)
        back = reconstruct(field)
        scale = max(float(np.abs(f.values).max()), 1e-300)
        worst_rt = max(worst_rt, float(np.abs(back.values - f.values).max()) / scale)
        l2sq = lp_norm(f, 2.0) ** 2
        worst_pv = max(worst_pv, abs(field.energy() - l2sq) / max(l2sq, 1e-300))
        s = square_function(f, haar)
        osc = field.oscillatory_energy()
        worst_sq = max(
            worst_sq, abs(lp_norm(s, 2.0) ** 2 - osc) / max(osc, 1e-300)
        )
        if trial < 5:
            # direct inner products as an independent oracle for the cascade
            for i in rng.choice(len(lattice), size=min(10, len(lattice)), replace=False):
                rect = lattice[i]
                direct = float(
                    (f.values * haar.rectangle_profile(rect, L)).sum()
                ) * f.cell_measure
                worst_direct = max(
                    worst_direct, abs(field.rectangle_coefficient(rect) - direct)
                )
    _check(checks, "haar-round-trip", worst_rt <= 1e-12, max_rel_error=worst_rt)
    _check(checks, "parseval", worst_pv <= 1e-12, max_rel_defect=worst_pv)
    _check(checks, "cascade-vs-direct", worst_direct <= 1e-12, max_abs_defect=worst_direct)
    _check(checks, "square-l2-energy", worst_sq <= 1e-12, max_rel_defect=worst_sq)

    spec = standard_triple(d, "haar")
    worst_fub = 0.0
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, 10_000 + trial)
        fs = [random_cells(rng, d, L) for _ in range(3)]
        lam = eval_Lambda(spec, fs)
        integ = eval_L(spec, fs).integral()
        worst_fub = max(worst_fub, abs(lam - integ) / max(lam, 1e-300))
    _check(checks, "sublinear-fubini", worst_fub <= 1e-12, max_rel_defect=worst_fub)

    n_seq = max(10 * cfg.trials, 100)
    seq_viol = 0
    prod_viol = 0
    for trial in range(n_seq):
        rng = _trial_rng(cfg.seed, 20_000 + trial)
        a = np.abs(rng.standard_normal((3, 40)))
        lhs = float((a[0] * a[1] * a[2]).sum())
        rhs = float(a[0].max() * math.sqrt(a[1].dot(a[1])) * math.sqrt(a[2].dot(a[2])))
        if lhs > rhs * (1 + 1e-12):
            seq_viol += 1
        fg_d, fg_L = 1, 6
        f = random_cells(rng, fg_d, fg_L)
        g = random_cells(rng, fg_d, fg_L)
        lhs2 = weak_quasinorm(f.pointwise_mul(g), 0.5)
        rhs2 = 4.0 * weak_quasinorm(f, 1.0) * weak_quasinorm(g, 1.0)
        if lhs2 > rhs2 * (1 + 1e-12):
            prod_viol += 1
    _check(checks, "sequence-holder", seq_viol == 0, instances=n_seq, violations=seq_viol)
    _check(
        checks,
        "weak-product-constant-4",
        prod_viol == 0,
        instances=n_seq,
        violations=prod_viol,
    )

    if d == 1:
        checks.extend(_conditional_expectation_checks(cfg))
        checks.extend(_surgery_checks(cfg))
    return _report(cfg, checks)


def _random_disjoint_intervals(rng, L):
    picked = []
    for _ in range(rng.integers(1, 6)):
        k = int(rng.integers(0, L + 1))
        j = int(rng.integers(0, 1 << k))
        cand = DyadicInterval(k, j)
        if all(cand.is_disjoint(x) for x in picked):
            picked.append(cand)
    return picked


def _conditional_expectation_checks(cfg: ExperimentConfig):
    checks = []
    L = cfg.L
    worst_int = 0.0
    idempotent = True
    contraction_ok = True
    worst_h1_ratio = 0.0
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, 30_000 + trial)
        f = random_cells(rng, 1, L)
        ivs = _random_disjoint_intervals(rng, L)
        ef = conditional_expectation(f, ivs)
        # defect measured against the mass, not the (possibly cancelling) mean
        worst_int = max(
            worst_int,
            abs(ef.integral() - f.integral()) / max(lp_norm(f, 1.0), 1e-300),
        )
        eef = conditional_expectation(ef, ivs)
        if not np.array_equal(eef.values, ef.values):
            idempotent = False
        for p in (1.0, 2.0, 4.0, np.inf):
            if lp_norm(ef, p) > lp_norm(f, p) * (1 + 1e-12):
                contraction_ok = False
        hf = h1_norm(f)
        if hf > 0:
            worst_h1_ratio = max(worst_h1_ratio, h1_norm(ef) / hf)
    _check(checks, "condexp-integral", worst_int <= 1e-14, max_rel_defect=worst_int)
    _check(checks, "condexp-idempotent", idempotent)
    _check(checks, "condexp-contraction", contraction_ok)
    _check(
        checks,
        "condexp-h1-ratio",
        worst_h1_ratio <= 4.0,
        max_ratio=worst_h1_ratio,
    )
    return checks


def surgery_corpus(rng, L: int):
    """Small background plus one planted spike per input, which keeps the
    thickened exceptional set nonempty yet proper in every draw."""
    n = 1 << L
    v1 = 0.35 * rng.standard_normal(n)
    v2 = 0.35 * rng.standard_normal(n)
    v1[int(rng.integers(0, n))] = 8.0
    v2[int(rng.integers(0, n))] = -6.0
    return Signal(1, L, _Adopted(v1)), Signal(1, L, _Adopted(v2))


def _surgery_checks(cfg: ExperimentConfig):
    checks = []
    L = cfg.L
    spec = standard_triple(1, "haar")
    worst = 0.0
    nontrivial = 0
    trials = max(cfg.trials // 2, 1)
    for trial in range(trials):
        rng = _trial_rng(cfg.seed, 40_000 + trial)
        f1, f2 = surgery_corpus(rng, L)
        out = haar_surgery(spec, f1, f2)
        off = ~out["F"]
        if off.any() and out["F"].any():
            nontrivial += 1
        diff = np.abs(out["cut"].values - out["full"].values)[off]
        scale = max(float(np.abs(out["full"].values).max()), 1e-300)
        if diff.size:
            worst = max(worst, float(diff.max()) / scale)
    _check(
        checks,
        "surgery-cut-identity",
        worst <= 1e-12 and nontrivial == trials,
        max_rel_defect=worst,
        nontrivial_sets=nontrivial,
        trials=trials,
    )
    return checks


def suite_norms(cfg: ExperimentConfig) -> dict:
    checks = []
    L = cfg.L
    holder_ok = True
    weak_ok = True
    bmo_ok = True
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        f = random_cells(rng, 1, L)
        g = random_cells(rng, 1, L)
        for p in (1.5, 2.0, 3.0):
            q = conjugate_exponent(p)
            pairing = abs(f.pointwise_mul(g).integral())
            if pairing > lp_norm(f, p) * lp_norm(g, q) * (1 + 1e-12):
                holder_ok = False
        for r in (1.0, 2.0):
            if weak_quasinorm(f, r) > lp_norm(f, r) * (1 + 1e-12):
                weak_ok = False
        if bmo_norm_1param(f) > 2.0 * lp_norm(f, np.inf) * (1 + 1e-12):
            bmo_ok = False
    _check(checks, "holder-pairing", holder_ok, trials=cfg.trials)
    _check(checks, "weak-below-strong", weak_ok, trials=cfg.trials)
    _check(checks, "bmo-sup-bound", bmo_ok, trials=cfg.trials)

    # certified lower bound never exceeds the exhaustive oracle (tiny grid)
    rng = _trial_rng(cfg.seed, 999)
    f2 = random_haar(rng, 2, 2)
    lower = product_bmo_lower(f2)
    oracle = _product_bmo_oracle(f2)
    _check(
        checks,
        "product-bmo-certified",
        lower <= oracle * (1 + 1e-12),
        lower=lower,
        oracle=oracle,
    )
    return _report(cfg, checks)


def _product_bmo_oracle(f: Signal) -> float:
    """Exhaustive supremum over unions of lattice rectangles."""
    rects = lattice_rectangles(f.d, f.L)
    best = 0.0
    for bits in range(1, 1 << len(rects)):
        mask = np.zeros(((1 << f.L),) * f.d, dtype=bool)
        for i, r in enumerate(rects):
            if bits >> i & 1:
                mask[r.cell_slices(f.L)] = True
        measure = float(mask.mean())
        if measure == 0.0:
            continue
        best = max(best, energy_in_region(f, mask) / measure)
    return math.sqrt(best)


def suite_domination(cfg: ExperimentConfig) -> dict:
    checks = []
    d, L = cfg.d, cfg.L
    spec = standard_triple(d, cfg.family)
    worst = 0.0
    chain_ok = True
    p3 = 1.0 / max(1.0 - 1.0 / cfg.p1 - 1.0 / cfg.p2, 0.0) if (
        1.0 / cfg.p1 + 1.0 / cfg.p2 < 1.0
    ) else None
    tspecs = slot_operator_specs(spec)[:3]
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        fs = [random_cells(rng, d, L) for _ in range(3)]
        report = domination_check(spec, *fs)
        worst = max(worst, report["max_violation"])
        pairing = abs(
            float((eval_B(spec, fs[:2]).values * fs[2].values).sum())
            * fs[0].cell_measure
        )
        lam = eval_Lambda(spec, fs)
        mss = [governing_operator(f, t) for f, t in zip(fs, tspecs)]
        integ = mss[0].pointwise_mul(mss[1]).pointwise_mul(mss[2]).integral()
        links = [pairing <= lam * (1 + 1e-10), lam <= integ * (1 + 1e-10)]
        if p3 is not None:
            prod = (
                lp_norm(mss[0], cfg.p1) * lp_norm(mss[1], cfg.p2) * lp_norm(mss[2], p3)
            )
            links.append(integ <= prod * (1 + 1e-10))
        if not all(links):
            chain_ok = False
    _check(checks, "pointwise-domination", worst <= 1e-10, max_violation=worst)
    _check(checks, "holder-chain", chain_ok, trials=cfg.trials)

    if d == 2:
        iter_ok = True
        fam = AdaptedFamily.haar(2)
        m1s2 = OperatorSpec(fam, ("max", "square"))
        s2m1 = OperatorSpec(fam, ("max", "square"), pi=(1, 0))
        for trial in range(min(cfg.trials, 25)):
            rng = _trial_rng(cfg.seed, 50_000 + trial)
            f = random_cells(rng, 2, L)
            a = governing_operator(f, m1s2).values
            b = governing_operator(f, s2m1).values
            if (a > b * (1 + 1e-10) + 1e-300).any():
                iter_ok = False
        _check(checks, "sup-inside-sum-monotonicity", iter_ok)
    return _report(cfg, checks)


# technical-lemma trial t fails the hypothesis in t % _LEMMA_PATTERNS slots
# (none, slot 3, slots 2 and 3), so every conclusion needs that many trials
_LEMMA_PATTERNS = 3


def suite_technical_lemma(cfg: ExperimentConfig) -> dict:
    checks = []
    d, L = cfg.d, cfg.L
    spec = standard_triple(d, cfg.family)
    tspecs = slot_operator_specs(spec)[:3]
    lattice = lattice_rectangles(d, L)
    violations = 0
    realized = {"all-hold": 0, "one-fails": 0, "two-fail": 0}
    margins = []
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        fs = [random_cells(rng, d, L) for _ in range(3)]
        size = int(rng.integers(1, min(40, len(lattice))))
        idx = rng.choice(len(lattice), size=size, replace=False)
        collection = RectangleCollection.of([lattice[i] for i in idx], L)
        t_vals = [governing_operator(f, t) for f, t in zip(fs, tspecs)]
        qs = [_hypothesis_threshold(t, collection) for t in t_vals]
        pattern = trial % _LEMMA_PATTERNS
        lambdas = list(qs)
        flags = [True, True, True]
        if pattern >= 1 and qs[2] > 0:
            lambdas[2] = 0.9 * qs[2]
            flags[2] = False
        if pattern == 2 and qs[1] > 0:
            lambdas[1] = 0.9 * qs[1]
            flags[1] = False
        result = technical_lemma_check(
            collection, spec, fs, tuple(lambdas), tuple(flags), op_specs=tspecs
        )
        realized[result["conclusion"]] += 1
        margins.append(result["margin"])
        if not result["ok"]:
            violations += 1
    empty = technical_lemma_check(
        RectangleCollection.of([], L), spec,
        [Signal.zeros(d, L)] * 3, (1.0, 1.0, 1.0), (True, True, True),
        op_specs=tspecs,
    )
    _check(checks, "empty-collection", empty["ok"] and empty["sum"] == 0.0)
    _check(
        checks,
        "summation-bounds",
        violations == 0,
        trials=cfg.trials,
        violations=violations,
        realized=realized,
        min_margin=min(margins) if margins else None,
    )
    _check(
        checks,
        "all-conclusions-exercised",
        all(v > 0 for v in realized.values()),
        realized=realized,
    )
    return _report(cfg, checks)


def suite_localization(cfg: ExperimentConfig) -> dict:
    checks = []
    L = cfg.L
    mus = (2.0, 4.0, 8.0)
    haar_spec = OperatorSpec.all_square(AdaptedFamily.haar(1))
    res_haar = localization_experiment(haar_spec, mus, L)
    _check(
        checks,
        "compact-support-vanishes",
        res_haar["all_zero"],
        entries=res_haar["entries"],
    )
    smooth_spec = OperatorSpec.all_square(AdaptedFamily.smooth(1))
    res_smooth = localization_experiment(smooth_spec, mus, L)
    _check(
        checks,
        "smooth-tail-decay",
        res_smooth["slope"] is not None and res_smooth["slope"] <= -4.0,
        slope=res_smooth["slope"],
        entries=res_smooth["entries"],
    )

    rng = _trial_rng(cfg.seed, 0)
    lattice = lattice_rectangles(1, L)
    idx = rng.choice(len(lattice), size=min(12, len(lattice)), replace=False)
    collection = RectangleCollection.of([lattice[i] for i in idx], L)
    layered = shadow_layer_decay(
        haar_spec, collection, Signal.constant(1, L, 1.0)
    )
    _check(
        checks,
        "layered-shadow-ratio",
        np.isfinite(layered["ratio"]),
        ratio=layered["ratio"],
        layers=len(layered["layers"]),
    )
    return _report(cfg, checks)


def _pipeline_trials(cfg: ExperimentConfig, pipeline, p2: float):
    """One `pipeline` run per trial on normalized random-Haar inputs, f1 in
    L^p1 and f2 in L^p2, with a random third input.  Returns the reports
    and their class rows, each row tagged with its trial."""
    d, L = cfg.d, cfg.L
    spec = standard_triple(d, cfg.family)
    reports = []
    class_table = []
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        f1 = normalize(random_haar(rng, d, L), cfg.p1)
        f2 = normalize(random_haar(rng, d, L), p2)
        rw = RestrictedWeakConfig(p1=cfg.p1, p2=p2, f3=random_cells(rng, d, L))
        report = pipeline(rw, spec, f1, f2)
        reports.append(report)
        class_table.extend({"trial": trial, **row} for row in report["classes"])
    return reports, class_table


def suite_restricted_weak(cfg: ExperimentConfig) -> dict:
    checks = []
    reports, class_table = _pipeline_trials(cfg, restricted_weak_type_pipeline, cfg.p2)
    kappas = [r["kappa"] for r in reports]
    _check(checks, "calibration", all(r["omega_tilde_measure"] < 0.5 for r in reports),
           kappa_range=[min(kappas), max(kappas)])
    _check(checks, "support-set-large", all(r["e3_prime_measure"] >= 0.5 for r in reports))
    _check(checks, "per-class-bounds", all(r["all_class_bounds_ok"] for r in reports),
           trials=cfg.trials)
    _check(checks, "pairing-below-total", all(r["pairing_le_total"] for r in reports))
    _check(checks, "total-finite", all(r["finite"] for r in reports))
    partition_ok = all(r["partition_defect"] <= 1e-12 * max(r["total"], 1.0) for r in reports)
    _check(checks, "class-partition-exact", partition_ok)
    return _report(cfg, checks, extra={"rows": class_table})


def suite_endpoint(cfg: ExperimentConfig) -> dict:
    checks = []
    reports, class_table = _pipeline_trials(cfg, endpoint_pipeline, np.inf)
    consts = [r["max_localization_constant"] for r in reports]
    _check(checks, "calibration", all(r["omega_tilde_measure"] < 0.5 for r in reports))
    _check(checks, "support-set-large", all(r["e3_prime_measure"] >= 0.5 for r in reports))
    _check(checks, "per-class-bounds", all(r["all_class_bounds_ok"] for r in reports),
           trials=cfg.trials)
    _check(checks, "total-finite", all(r["finite"] for r in reports))
    _check(checks, "localization-constant-finite", all(np.isfinite(c) for c in consts),
           max_constant=max(consts, default=0.0))
    return _report(cfg, checks, extra={"rows": class_table})


SUITES = {
    "identities": suite_identities,
    "norms": suite_norms,
    "domination": suite_domination,
    "technical-lemma": suite_technical_lemma,
    "localization": suite_localization,
    "restricted-weak": suite_restricted_weak,
    "endpoint": suite_endpoint,
}
SUITE_NAMES = tuple(SUITES)


@dataclass(frozen=True)
class _SuiteRow:
    least_L: tuple  # the least L at d=1 and at d >= 2
    reads: tuple  # those of `_ROW_FIELDS` the run reads; the rest keep their defaults
    d: Optional[int] = None  # the only d the run runs at, None for any
    trials: int = 1  # the least trial count


_ROW_FIELDS = ("family", "p1", "p2")

# one row per suite and one for the sweep, whose every level is held to least_L
_SUITE_ROWS = {
    # at d=1 and L < 3 the planted spike of `surgery_corpus` alone thickens
    # the exceptional set to the whole grid, so no surgery trial is nontrivial
    "identities": _SuiteRow(least_L=(3, 0), reads=()),
    "norms": _SuiteRow(least_L=(0, 0), reads=(), d=1),
    # with no rectangle, as at L=0, every check of these three passes vacuously
    "domination": _SuiteRow(least_L=(1, 1), reads=_ROW_FIELDS),
    "restricted-weak": _SuiteRow(least_L=(1, 1), reads=_ROW_FIELDS),
    # runs at p2 = inf
    "endpoint": _SuiteRow(least_L=(1, 1), reads=("family", "p1")),
    # each trial draws a collection of 1 to len(lattice) - 1 rectangles
    "technical-lemma": _SuiteRow(least_L=(2, 2), reads=("family",), trials=_LEMMA_PATTERNS),
    # below L=6 `one_sided_support_builder` puts its interval at level 2,
    # whose mu=8 dilation covers the torus: the smooth-tail-decay slope is
    # then fitted through two points and fails by construction
    "localization": _SuiteRow(least_L=(6, 6), reads=(), d=1),
    # a one-cell grid has no rectangles, so its ratio is 0 by construction
    "sweep": _SuiteRow(least_L=(1, 1), reads=_ROW_FIELDS),
}


def _check_config(cfg: ExperimentConfig, suite: str, levels):
    """Refuses a configuration no trial can run on, that passes or fails
    by construction, or that sets a field the run does not read, before
    any trial.  `suite` is the suite run, "sweep" for `run_sweep`."""
    if suite == "sweep" and len(levels) < 2:
        raise ContractError("a sweep needs at least two resolutions")
    if cfg.trials < 1:
        raise ContractError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.seed < 0:  # numpy's SeedSequence takes non-negative integers only
        raise ContractError(f"seed must be >= 0, got {cfg.seed}")
    for name in ("p1", "p2", "r"):
        # NaN compares false, so it would skip every inequality it enters
        if not getattr(cfg, name) > 0:
            raise ContractError(f"{name} must be > 0, got {getattr(cfg, name)}")
    holder = _holder_exponent((cfg.p1, cfg.p2))
    if not math.isclose(cfg.r, holder, rel_tol=1e-12):
        # B: L^p1 x L^p2 -> L^r holds at Hoelder's exponent only, so r is
        # not a free parameter
        raise ContractError(
            f"r must be Hoelder's exponent r = 1/(1/p1 + 1/p2) = {holder!r}, got {cfg.r!r}"
        )
    row = _SUITE_ROWS[suite]
    if row.d is not None and cfg.d != row.d:
        raise ContractError(f"{suite} runs at d={row.d} only, got d={cfg.d}")
    for L in levels:
        _check_resolution(cfg.d, L)
    if cfg.trials < row.trials:
        raise ContractError(f"{suite} needs trials >= {row.trials}, got {cfg.trials}")
    least_L = row.least_L[cfg.d > 1]
    if min(levels) < least_L:
        raise ContractError(f"{suite} at d={cfg.d} needs L >= {least_L}, got L={min(levels)}")
    if suite == "sweep" and any(b <= a for a, b in zip(levels, levels[1:])):
        # the growth factor compares the first and the last resolution: a
        # repeat reads 1 by construction, and an unsorted list compares two
        # resolutions that are not the extremes
        raise ContractError(
            f"a sweep needs strictly increasing resolutions, got L_list={list(levels)}"
        )
    for name in _ROW_FIELDS:
        default = ExperimentConfig.__dataclass_fields__[name].default
        if name not in row.reads and getattr(cfg, name) != default:
            raise ContractError(
                f"{suite} does not read {name}, which must keep its default {default!r}, "
                f"got {getattr(cfg, name)!r}"
            )


def run_suite(cfg: ExperimentConfig):
    """Run one named suite; returns (report, exit_code)."""
    if cfg.suite not in SUITES:
        raise KeyError(cfg.suite)
    _check_config(cfg, cfg.suite, [cfg.L])
    report = SUITES[cfg.suite](cfg)
    write_report(report, cfg)
    if report["passed"]:
        return report, 0
    first_bad = next(c["id"] for c in report["checks"] if not c["ok"])
    report["first_failure"] = first_bad
    return report, 1


# ---------------------------------------------------------------------------
# Resolution sweep
# ---------------------------------------------------------------------------


def run_sweep(cfg: ExperimentConfig) -> dict:
    """Operator-norm ratio stability across resolutions.

    For each L, draws `trials` normalized random-coefficient pairs, records
    the largest ||B(f1, f2)||_r / (||f1||_p1 ||f2||_p2) plus the weak-norm
    variant, and reports the growth factor between the extreme resolutions.
    """
    _check_config(cfg, "sweep", cfg.L_list)
    spec = standard_triple(cfg.d, cfg.family)
    rows = []
    skipped = 0
    for L in cfg.L_list:
        best = 0.0
        best_weak = 0.0
        for trial in range(cfg.trials):
            rng = _trial_rng(cfg.seed, trial)
            f1 = random_haar(rng, cfg.d, L)
            f2 = random_haar(rng, cfg.d, L)
            if lp_norm(f1, cfg.p1) == 0.0 or lp_norm(f2, cfg.p2) == 0.0:
                skipped += 1
                continue
            f1 = normalize(f1, cfg.p1)
            f2 = normalize(f2, cfg.p2)
            b = eval_B(spec, (f1, f2))
            best = max(best, lp_norm(b, cfg.r))
            best_weak = max(best_weak, weak_quasinorm(b, cfg.r))
        rows.append({"L": L, "max_ratio": best, "max_weak_ratio": best_weak})
    lo = rows[0]["max_ratio"]
    hi = rows[-1]["max_ratio"]
    factor = hi / lo if lo > 0 else float("inf")
    checks = []
    _check(checks, "ratio-stability", factor <= 1.5, growth_factor=factor)
    report = _report(cfg, checks, extra={"rows": rows, "skipped": skipped})
    write_report(report, cfg)
    return report


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_report(report: dict, cfg: ExperimentConfig):
    """Write `report` to `cfg.out` (and its rows beside it as CSV), making
    missing parent directories; an OSError while writing is a
    `ContractError` ("cannot write <out>")."""
    if not cfg.out:
        return
    out = Path(cfg.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report_json(report) + "\n")
        if cfg.format == "csv":
            rows = report.get("rows") or report.get("checks") or []
            if rows:
                keys = sorted({k for row in rows for k in row})
                with out.with_suffix(".csv").open("w", newline="") as fh:
                    writer = csv.DictWriter(fh, fieldnames=keys)
                    writer.writeheader()
                    for row in rows:
                        writer.writerow({k: _csv_cell(row.get(k)) for k in keys})
    except OSError as exc:
        raise ContractError(f"cannot write {cfg.out}: {exc}") from exc


def _csv_cell(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return value
