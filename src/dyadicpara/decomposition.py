"""Exceptional sets, rectangle classification, and the class-by-class
summation bounds behind the restricted-weak-type verification.

The pipeline mirrors a proof by decomposition: calibrate a threshold kappa
so the inflated level sets of the governing operators cover less than half
the torus, excise that region from the support of the third input, label
every rectangle by the largest dyadic threshold its operator values exceed
on a 1/100 fraction, and bound the coefficient mass of each label class by
explicit constants times shadow measures and restricted operator norms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CalibrationError, ContractError
from .families import AdaptedFamily
from .lattice import (
    DyadicInterval,
    DyadicRectangle,
    RectangleCollection,
    _rectangle_tuple,
    dilate,
)
from .operators import OperatorSpec, _above_dyadic, governing_operator, restricted_operator
from .paraproducts import ParaproductSpec, eval_B, eval_Lambda, slot_operator_specs
from .signals import Signal, _Adopted, lp_norm
from .transforms import _gather, _member_slots, lattice_rectangles

FRACTION = 0.01  # bad-set fraction per hypothesis
OMEGA_FRACTION = 0.01  # threshold scale in the level-set union
DEFAULT_CLAMP = 40
KAPPA_LIMIT = float(2**20)
_TOL = 1e-10  # relative slack of every bound comparison


# ---------------------------------------------------------------------------
# Rectangle classification
# ---------------------------------------------------------------------------


def _blocks(values: np.ndarray, L: int, levels) -> np.ndarray:
    """A view of the grid `values` with axes (j_1 .. j_d, the cells of a
    block): the cells of the rectangle at `levels` and positions j sit at
    index j."""
    d = values.ndim
    shape = [n for k in levels for n in (1 << k, 1 << (L - k))]
    order = [2 * a for a in range(d)] + [2 * a + 1 for a in range(d)]
    return values.reshape(shape).transpose(order)


def _rank(cells: int) -> int:
    """m(R) = ceil(FRACTION * cells of R): T exceeds t on at least FRACTION
    of R iff it does on m(R) cells, iff the m(R)-th largest value of T on R
    exceeds t.  No count 2^j with j < 59 makes FRACTION * 2^j an integer,
    so "more than FRACTION of R", the failing hypothesis, is "at least m(R)
    cells" as well."""
    return math.ceil(cells * FRACTION)


def _mth_largest(blocks: np.ndarray, cell_axes: int, owned: bool = False) -> np.ndarray:
    """Per block, the m-th largest of its cells, m = `_rank(cells)`.  The
    last `cell_axes` axes of `blocks` hold the cells of a block.  At m = 1
    (every block of at most 100 cells) that is the block maximum, read in
    place; otherwise the cells are partitioned in a copy, or in `blocks`
    itself when the caller `owned` it."""
    lead = blocks.shape[: blocks.ndim - cell_axes]
    cells = math.prod(blocks.shape[len(lead) :])
    m = _rank(cells)
    if m == 1:
        return blocks.max(axis=tuple(range(len(lead), blocks.ndim)))
    v = (blocks if owned else blocks.copy()).reshape(lead + (cells,))
    v.partition(cells - m, axis=-1)
    return v[..., cells - m]


def _quantile_tensor(values: np.ndarray, L: int) -> np.ndarray:
    """A coefficient-layout tensor: at the slot of each rectangle R below
    the grid level, the m-th largest cell value on R (`_mth_largest`); the
    mean slots are left unset."""
    d = values.ndim
    q = np.empty(values.shape)
    for levels in itertools.product(range(L), repeat=d):
        q[tuple(slice(1 << k, 2 << k) for k in levels)] = _mth_largest(
            _blocks(values, L, levels), d
        )
    return q


def _positive(name: str, value) -> float:
    """`value` as a finite float > 0; a ContractError otherwise."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not (0.0 < number < math.inf):
        raise ContractError(f"{name} must be finite and > 0, got {value!r}")
    return number


def _greatest_levels(q: np.ndarray, kappa: float, clamp: int) -> list:
    """Per quantile, the largest integer l with kappa * 2^l < q, clamped to
    [-clamp, clamp]; None where q <= 0 (no level set reaches the fraction).

    Exact, from the binary exponents: with q = mq 2^eq and kappa = mk 2^ek,
    mantissas in [1/2, 1), kappa 2^l < q holds for every l < eq - ek, for
    no l > eq - ek, and at l = eq - ek iff mk < mq.  No power of two is
    formed, so nothing overflows or rounds.  q is finite, as the values of
    a Signal are.
    """
    positive = q > 0.0
    mq, eq = np.frexp(np.where(positive, q, 1.0))
    mk, ek = math.frexp(kappa)
    labels = np.clip(eq - ek - (mk >= mq), -clamp, clamp).astype(object)
    labels[~positive] = None
    return labels.tolist()


def classify_rectangles(values: Signal, kappa: float, clamp: int = DEFAULT_CLAMP) -> dict:
    """Label each lattice rectangle with the greatest l such that
    |R intersect {values > kappa 2^l}| >= FRACTION |R|  (None if no l
    works).  `values` is an operator output: a caller holding a signal
    passes `governing_operator(f, op)`.

    The quantiles fill one coefficient-layout tensor, every level tuple
    below L; its rectangle slots in row-major order are the rectangles in
    `lattice_rectangles` order, which is the order of the returned dict.
    """
    kappa = _positive("kappa", kappa)
    if isinstance(clamp, bool) or not isinstance(clamp, (int, np.integer)) or clamp < 0:
        raise ContractError(f"clamp must be an integer >= 0, got {clamp!r}")
    d, L = values.d, values.L
    if L == 0:
        return {}
    q = _quantile_tensor(values.values, L)
    labels = _greatest_levels(q[(slice(1, None),) * d].ravel(), kappa, clamp)
    return dict(zip(_rectangle_tuple(d, L - 1), labels))


def hypothesis_holds(
    t_values: Signal, collection: RectangleCollection, threshold: float
) -> bool:
    """True iff |R intersect {T > threshold}| <= FRACTION |R| for all
    members, that is, iff T exceeds the threshold on fewer than m(R) cells
    of each member R (`_rank`).

    The exceedances are add-gathered to coefficient layout (with leaf slots
    when a member sits at the grid level), and the slots whose count
    reaches m(R) are marked once per (threshold, leaves) in the signal's
    memo, so each member reads its verdict at its slot."""
    L = t_values.L
    index, _, width = _member_slots(collection, t_values.d, L, leaves=True)
    leaves = width > 1 << L
    key = (threshold, leaves)
    over = t_values._memo.get(key)
    if over is None:
        count = (t_values.values > threshold).astype(float)
        for axis in range(t_values.d):
            count = _gather(count, axis, L, np.add, leaves=leaves)
        over = count >= _rank_table(t_values.d, L, leaves)
        over.flags.writeable = False
        t_values._memo[key] = over
    return not over[index].any()


@functools.lru_cache(maxsize=4)
def _rank_table(d: int, L: int, leaves: bool) -> np.ndarray:
    """m(R) (`_rank`) at the slot of each rectangle R of a coefficient
    tensor, leaf slots with `leaves`; the mean slot counts as level 0, and
    no member sits there."""
    slots = np.arange((2 if leaves else 1) << L)
    cells = L - (np.frexp(np.maximum(slots, 1))[1] - 1)  # L - level
    exponent = sum(cells.reshape((-1,) + (1,) * (d - 1 - axis)) for axis in range(d))
    out = np.array([_rank(1 << j) for j in range(d * L + 1)], dtype=float)[exponent]
    out.flags.writeable = False
    return out


def _hypothesis_threshold(t: Signal, collection: RectangleCollection) -> float:
    """The least threshold at which `hypothesis_holds` does (0 for no
    member): the largest over members R of the m-th largest value of T on
    R, m = `_rank(cells)`.  The members are grouped by level tuple,
    and each group's blocks are gathered in one copy and partitioned."""
    index, levels, _ = _member_slots(collection, t.d, t.L, leaves=True)
    positions = np.stack(index, axis=-1) - np.left_shift(1, levels)
    groups = {}
    for key, position in zip(map(tuple, levels.tolist()), positions.tolist()):
        groups.setdefault(key, []).append(position)
    tops = [
        _mth_largest(
            _blocks(t.values, t.L, key)[tuple(zip(*members))], t.d, owned=True
        )
        for key, members in groups.items()
    ]
    return float(np.concatenate(tops).max()) if tops else 0.0


# ---------------------------------------------------------------------------
# Exceptional sets
# ---------------------------------------------------------------------------


@dataclass
class DecompositionState:
    kappa: float
    nu: float
    p1: float
    p2: float
    t_values: tuple  # governing operator outputs used to build the sets
    omega_ell: dict  # level index -> boolean grid
    omega: np.ndarray
    omega_tilde: np.ndarray

    @property
    def omega_measure(self) -> float:
        return float(self.omega.mean())

    @property
    def omega_tilde_measure(self) -> float:
        return float(self.omega_tilde.mean())


def _omega_sets(t_values, kappa, nu, t0_spec):
    """Level sets of the operator data and their maximal inflation."""
    grid_shape = t_values[0].values.shape
    top = max(float(t.values.max()) for t in t_values)
    omega_ell = {}
    ell = 0
    while math.ldexp(kappa, ell) < top:
        mask = np.zeros(grid_shape, dtype=bool)
        for t in t_values:
            mask |= t.values > math.ldexp(kappa, ell)
        omega_ell[ell] = mask
        ell += 1
    omega = np.zeros(grid_shape, dtype=bool)
    for ell, mask in omega_ell.items():
        inflated = governing_operator(Signal.from_mask(mask), t0_spec)
        omega |= inflated.values > OMEGA_FRACTION * 2.0 ** (-nu * ell)
    if omega.any():
        spread = governing_operator(Signal.from_mask(omega), t0_spec)
        omega_tilde = _above_dyadic(spread.values, 0.5)
    else:
        omega_tilde = np.zeros(grid_shape, dtype=bool)
    return omega_ell, omega, omega_tilde


def build_exceptional_sets(
    f1: Signal,
    f2: Signal,
    p1: float,
    p2: float,
    t1: OperatorSpec,
    t2: Optional[OperatorSpec],
    kappa: Optional[float] = None,
    kappa_limit: float = KAPPA_LIMIT,
) -> DecompositionState:
    """Calibrate kappa by doubling from 1 until the inflated exceptional
    set covers less than half the torus and return all level-set data.

    Passing t2=None builds the sets from the first input alone (the
    bounded-second-input endpoint variant).
    """
    if kappa is not None:
        kappa = _positive("kappa", kappa)
    nu = min(p1, p2) / 4.0
    t0_spec = OperatorSpec.all_max(AdaptedFamily.abs_haar(f1.d))
    t_list = [governing_operator(f1, t1)]
    if t2 is not None:
        t_list.append(governing_operator(f2, t2))

    def state_at(k):
        omega_ell, omega, omega_tilde = _omega_sets(t_list, k, nu, t0_spec)
        return DecompositionState(
            kappa=k,
            nu=nu,
            p1=p1,
            p2=p2,
            t_values=tuple(t_list),
            omega_ell=omega_ell,
            omega=omega,
            omega_tilde=omega_tilde,
        )

    if kappa is not None:
        return state_at(kappa)
    k = 1.0
    while k <= kappa_limit:
        state = state_at(k)
        if state.omega_tilde_measure < 0.5:
            return state
        k *= 2.0
    raise CalibrationError(
        f"no kappa <= {kappa_limit} shrinks the exceptional set below 1/2"
    )


# ---------------------------------------------------------------------------
# Sum over a collection and the principal summation bounds
# ---------------------------------------------------------------------------


def sum_over(collection: RectangleCollection, spec: ParaproductSpec, f1, f2, f3) -> float:
    """sum_{R in O} |R| prod_v |<f_v, phi_(v,R)>| / sqrt(|R|)."""
    return eval_Lambda(spec, (f1, f2, f3), collection=collection)


def _conclusion_bound(
    holding,
    lambdas,
    shadow: float,
    restricted_norms: dict,
) -> tuple:
    """Explicit-constant bound given which hypotheses hold.

    m holding hypotheses remove m bad sets of fraction 1/100 each, leaving
    a good fraction (100 - m)/100 of every rectangle; each failing slot
    contributes its restricted L^2 norm through one Cauchy-Schwarz, and
    the shadow enters to the power 1, 1/2, or 0 as the number of failing
    slots grows from 0 to 2.
    """
    m = len(holding)
    if m == 0:
        raise ContractError("at least one hypothesis must hold")
    failing = [j for j in range(3) if j not in holding]
    constant = 100.0 / (100.0 - m)
    bound = constant
    for j in holding:
        bound *= lambdas[j]
    if len(failing) == 0:
        bound *= shadow
        kind = "all-hold"
    elif len(failing) == 1:
        bound *= math.sqrt(shadow) * restricted_norms[failing[0]]
        kind = "one-fails"
    else:
        bound *= restricted_norms[failing[0]] * restricted_norms[failing[1]]
        kind = "two-fail"
    return bound, constant, kind


def technical_lemma_check(
    collection: RectangleCollection,
    spec: ParaproductSpec,
    fs,
    lambdas,
    hypothesis_flags,
    op_specs=None,
) -> dict:
    """Verify the summation bound selected by the hypothesis pattern.

    The flags state, per slot, whether |R cut {T_j f_j > lambda_j}| stays
    below |R|/100 for every member; they are re-measured here and any
    mismatch is a contract error.  The applicable conclusion then bounds
    Sum(collection) by the explicit constant 100/(100 - #holding) times
    the held thresholds and, per failing slot, a restricted L^2 norm.
    """
    if len(fs) != 3 or len(lambdas) != 3 or len(hypothesis_flags) != 3:
        raise ContractError("the bilinear lemma takes three slots")
    if len(collection) and any(f.L != collection.L for f in fs):
        raise ContractError(
            f"collection at L={collection.L} but signals at L={[f.L for f in fs]}"
        )
    ops = tuple(op_specs) if op_specs is not None else slot_operator_specs(spec)
    t_vals = [governing_operator(f, op) for f, op in zip(fs, ops)]
    measured = tuple(
        hypothesis_holds(t, collection, lam) for t, lam in zip(t_vals, lambdas)
    )
    if measured != tuple(bool(b) for b in hypothesis_flags):
        raise ContractError(
            f"hypothesis flags {tuple(hypothesis_flags)} disagree with "
            f"measured level sets {measured}"
        )
    holding = [j for j in range(3) if measured[j]]
    result = _class_bound(collection, spec, fs, ops, lambdas, holding)
    result["good_set_measure"] = None
    if len(collection):
        good = collection.shadow_mask().copy()
        for j in holding:
            good &= t_vals[j].values <= lambdas[j]
        result["good_set_measure"] = float(good.mean())
    return result


def _class_bound(collection, spec, fs, ops, lambdas, holding) -> dict:
    """Sum(collection) against the conclusion selected by the holding slots:
    the shadow measure, one restricted L^2 norm per failing slot, and the
    explicit constant of `_conclusion_bound`.  The hypotheses themselves
    are the caller's to check."""
    shadow = collection.shadow_measure()
    restricted_norms = {
        j: lp_norm(restricted_operator(fs[j], ops[j], collection), 2.0)
        for j in range(3)
        if j not in holding
    }
    total = sum_over(collection, spec, *fs)
    bound, constant, kind = _conclusion_bound(holding, lambdas, shadow, restricted_norms)
    return {
        "conclusion": kind,
        "constant": constant,
        "sum": total,
        "bound": bound,
        "margin": bound - total,
        "ok": total <= bound * (1.0 + _TOL) + 1e-300,
        "shadow": shadow,
        "holding": holding,
        "restricted_norms": restricted_norms,
    }


# ---------------------------------------------------------------------------
# Localization experiments
# ---------------------------------------------------------------------------


def one_sided_support_builder(L: int):
    """Default d=1 scenario: one centered interval, data far to its right.

    Returns a builder mapping mu to (collection, signal) where the signal
    is the indicator of all cells beyond the outward-rounded mu-dilation,
    taken one-sided so odd profile tails cannot cancel.
    """
    k = max(2, L // 2)
    rect = DyadicRectangle((DyadicInterval(k, 1 << (k - 1)),))
    collection = RectangleCollection.of([rect], L)

    def build(mu: float):
        box = dilate(rect, mu, L)
        n = 1 << L
        values = np.zeros(n)
        lo, hi = box.ranges[0]
        if hi < n:
            values[hi:] = 1.0
        else:
            values[:lo] = 1.0
        return collection, Signal(1, L, _Adopted(values))

    return build


def localization_experiment(
    op_spec: OperatorSpec,
    mus,
    L: int,
    builder=None,
) -> dict:
    """Restricted-operator decay against the dilation factor.

    For every mu the builder must produce a collection and a signal whose
    support misses the mu-dilation of each member (checked; violations are
    contract errors).  Reports ||T_O f||_2 / ||f||_2 per mu and the fitted
    log2-log2 slope; families with compactly supported profiles come out
    identically zero.
    """
    if builder is None:
        if op_spec.d != 1:
            raise ContractError("the default builder is one-parameter")
        builder = one_sided_support_builder(L)
    entries = []
    for mu in mus:
        collection, f = builder(mu)
        for rect in collection.members:
            box = dilate(rect, mu, L)
            region = f.values[box.slices()]
            if region.size and np.any(region != 0.0):
                raise ContractError(
                    f"support overlaps the {mu}-dilation of {rect.to_json()}"
                )
        norm = lp_norm(restricted_operator(f, op_spec, collection), 2.0)
        denom = lp_norm(f, 2.0)
        entries.append(
            {"mu": mu, "norm": norm, "ratio": norm / denom if denom else 0.0}
        )
    xs = [math.log2(e["mu"]) for e in entries if e["ratio"] > 0.0]
    ys = [math.log2(e["ratio"]) for e in entries if e["ratio"] > 0.0]
    slope = None
    if len(xs) >= 2:
        slope = float(np.polyfit(xs, ys, 1)[0])
    return {
        "entries": entries,
        "slope": slope,
        "all_zero": all(e["ratio"] == 0.0 for e in entries),
    }


def shadow_layer_decay(
    op_spec: OperatorSpec,
    collection: RectangleCollection,
    f: Signal,
) -> dict:
    """Layered restricted norms against the shadow measure.

    Splits a bounded f into layers along the level sets of the maximal
    function of the shadow indicator (thresholds 2^-1, 2^-2, ...) and
    reports sum_k ||T_O f_k||_2 against |sh(O)|^(1/2) ||f||_inf.
    """
    t0_spec = OperatorSpec.all_max(AdaptedFamily.abs_haar(f.d))
    shadow_mask = collection.shadow_mask()
    shadow = collection.shadow_measure()
    if shadow == 0.0:
        return {"layers": [], "total": 0.0, "ratio": 0.0, "shadow": 0.0}
    spread = governing_operator(Signal.from_mask(shadow_mask), t0_spec).values
    layers = []
    prev = np.zeros_like(shadow_mask)
    total = 0.0
    for k in range(4 * f.L + 9):
        mask = _above_dyadic(spread, 2.0 ** (-1 - k))
        ring = mask & ~prev
        prev = mask
        if ring.any():
            fk = f.restrict(ring)
            nk = lp_norm(restricted_operator(fk, op_spec, collection), 2.0)
            layers.append({"k": k, "norm": nk, "measure": float(ring.mean())})
            total += nk
        if mask.all():
            break
    sup = lp_norm(f, np.inf)
    denom = math.sqrt(shadow) * sup
    return {
        "layers": layers,
        "total": total,
        "shadow": shadow,
        "ratio": total / denom if denom else 0.0,
    }


# ---------------------------------------------------------------------------
# Restricted-weak-type pipelines
# ---------------------------------------------------------------------------


@dataclass
class RestrictedWeakConfig:
    p1: float
    p2: float
    f3: Optional[Signal] = None  # bounded profile; defaults to 1
    kappa: Optional[float] = None
    clamp: int = DEFAULT_CLAMP


def _group_classes(labels_list, lattice, clamp, leading: int):
    """Split rectangles into main classes (all `leading` front labels <= 0,
    keyed by the full label vector) and leftover classes keyed by the front
    labels whenever one of them is positive.

    Every label dict lists the rectangles of `lattice` in its order.  One
    stable sort of the stacked label vectors groups them, so each class
    lists its rectangles in lattice order."""
    if not lattice:
        return {}, {}
    ells = np.array([list(lab.values()) for lab in labels_list], dtype=float)
    ells = np.nan_to_num(ells, nan=-clamp).astype(np.int64)  # None -> -clamp
    ells[leading:, (ells[:leading] > 0).any(axis=0)] = 0  # leftover: front labels only
    order = np.lexsort(ells)
    ells = ells[:, order]
    starts = np.flatnonzero(np.diff(ells, axis=1).any(axis=0)) + 1
    keys = ells[:, np.r_[0, starts]].T.tolist()
    main, leftover = {}, {}
    for key, members in zip(keys, np.split(order, starts)):
        rects = [lattice[i] for i in members.tolist()]
        if all(e <= 0 for e in key[:leading]):
            main[tuple(key)] = rects
        else:
            leftover[tuple(key[:leading])] = rects
    return main, leftover


def _decompose(
    cfg: RestrictedWeakConfig, spec: ParaproductSpec, f1: Signal, f2: Signal, leading: int
):
    """The decomposition behind both pipelines.

    Slots 0..leading-1 build the exceptional sets; those slots and slot 2
    are labelled.  A main class holds its hypothesis in every labelled
    slot, a leftover class only in the leading slots; every failing slot
    enters its bound through a restricted L^2 norm.  Returns the shared
    report, the exceptional-set state, the restricted third input and the
    measured input norms.
    """
    if spec.d != f1.d:
        raise ContractError("pipeline needs a spec matching the inputs")
    norms = []
    for f, p, name in ((f1, cfg.p1, "f1"), (f2, cfg.p2, "f2")):
        nrm = lp_norm(f, p)
        if abs(nrm - 1.0) > 1e-8:
            raise ContractError(f"{name} must be normalized in L^{p}; got {nrm}")
        norms.append(nrm)
    d, L = f1.d, f1.L

    ops = slot_operator_specs(spec)
    state = build_exceptional_sets(
        f1, f2, cfg.p1, cfg.p2, ops[0], ops[1] if leading == 2 else None, kappa=cfg.kappa
    )
    kappa = state.kappa
    if state.omega_tilde_measure >= 0.5:
        raise CalibrationError("inflated exceptional set still covers half the torus")

    e3_prime = ~state.omega_tilde  # E_3 is the whole torus, so E_3' is the complement
    base = cfg.f3 if cfg.f3 is not None else Signal.constant(d, L, 1.0)
    f3 = Signal(d, L, _Adopted(np.clip(base.values, -1.0, 1.0))).restrict(e3_prime)
    fs = (f1, f2, f3)
    labelled = list(range(leading)) + [2]
    t_values = dict(enumerate(state.t_values))
    t_values[2] = governing_operator(f3, ops[2])
    labels = [classify_rectangles(t_values[j], kappa, clamp=cfg.clamp) for j in labelled]
    main, leftover = _group_classes(labels, lattice_rectangles(d, L), cfg.clamp, leading)

    rows = []
    for kind, classes in (("main", main), ("leftover", leftover)):
        holding = labelled if kind == "main" else labelled[:leading]
        for ells, rects in sorted(classes.items()):
            collection = RectangleCollection.of(rects, L)
            lambdas = [None] * 3
            for j, e in zip(labelled, ells):
                lambdas[j] = kappa * 2.0 ** (e + 1)
            if len(holding) == 3:
                check = technical_lemma_check(
                    collection, spec, fs, lambdas, (True, True, True), op_specs=ops
                )
            else:
                for j in holding:
                    if not hypothesis_holds(t_values[j], collection, lambdas[j]):
                        raise ContractError(f"hypothesis {j + 1} fails on {kind} class {ells}")
                check = _class_bound(collection, spec, fs, ops, lambdas, holding)
            row = {
                "class": kind,
                "labels": list(ells),
                "size": len(rects),
                **{k: check[k] for k in ("sum", "shadow", "bound", "margin", "ok")},
            }
            for j, norm in check["restricted_norms"].items():
                row[f"restricted_t{j + 1}_norm"] = norm
            if kind == "main":
                row["shadow_reference"] = min(
                    2.0 ** (-p * e) for p, e in zip((cfg.p1, cfg.p2), ells[:leading])
                )
            rows.append(row)

    total = math.fsum(row["sum"] for row in rows)
    whole = eval_Lambda(spec, fs)
    report = {
        "kappa": kappa,
        "nu": state.nu,
        "omega_tilde_measure": state.omega_tilde_measure,
        "e3_prime_measure": float(e3_prime.mean()),
        "e3_prime_convention": "complement-of-inflated-set",
        "classes": rows,
        "total": total,
        "partition_defect": abs(total - whole),
        "all_class_bounds_ok": all(row["ok"] for row in rows),
        "finite": bool(np.isfinite(total)),
    }
    return report, state, f3, norms


def restricted_weak_type_pipeline(
    cfg: RestrictedWeakConfig,
    spec: ParaproductSpec,
    f1: Signal,
    f2: Signal,
) -> dict:
    """Full decomposition run for normalized inputs on the unit torus.

    Requires ||f1||_p1 = ||f2||_p2 = 1; E_3 is the whole torus.  Builds the
    exceptional sets from both inputs, restricts the third input to the
    complement of the inflated set, classifies every rectangle, and checks
    the explicit summation bound of each class.  Returns the per-class
    table, the total mass, and the duality pairing comparisons.
    """
    report, state, f3, _ = _decompose(cfg, spec, f1, f2, leading=2)
    total = report["total"]
    b_out = eval_B(spec, (f1, f2))
    pairing = abs(float(np.sum(b_out.values * f3.values)) * f1.cell_measure)
    pairing_abs = float(np.sum(np.abs(b_out.values) * np.abs(f3.values))) * f1.cell_measure
    # absolute slack for cancellation dust when the pairing is near zero
    slack = _TOL * max(total, lp_norm(b_out, 1.0), 1.0)
    return {
        **report,
        "omega_measure": state.omega_measure,
        "pairing": pairing,
        "pairing_le_total": pairing <= total + slack,
        "pairing_abs": pairing_abs,
        "pairing_abs_le_total": pairing_abs <= total + slack,
    }


def endpoint_pipeline(
    cfg: RestrictedWeakConfig,
    spec: ParaproductSpec,
    f1: Signal,
    f2: Signal,
) -> dict:
    """Bounded-second-input variant: ||f2||_inf = 1 (cfg.p2 = inf) replaces
    the L^p2 normalization, the exceptional sets are built from the first
    input alone, and the second slot enters every bound through its
    restricted L^2 norm, reported also as a multiple of |sh|^(1/2) ||f2||_inf.
    """
    if cfg.p2 != float("inf"):
        raise ContractError(f"the endpoint variant needs p2 = inf, got {cfg.p2}")
    report, _, _, (_, sup2) = _decompose(cfg, spec, f1, f2, leading=1)
    constants = [
        row["restricted_t2_norm"] / (math.sqrt(row["shadow"]) * sup2)
        for row in report["classes"]
        if row["shadow"] > 0
    ]
    return {**report, "max_localization_constant": max(constants, default=0.0)}
