"""The two decomposition pipelines as they were before they shared one
path, kept as a differential oracle.

`restricted_weak_type_pipeline` and `endpoint_pipeline` each repeated the
normalisation, the calibration, the third input, the classification and
the class loop, and computed their leftover bounds by hand.  The bodies
are copied unchanged, except that the writes to the exceptional-set state
fields `labels` and `lambdas`, which nothing read and which are gone, are
dropped, and so is the check of an E_3 mask: the pipelines take only the
whole torus, so E_3' is the complement of the inflated set.  The options
that became constants are read as such: `classify_rectangles` takes the
operator output, and the bound tolerance, once `cfg.tol`, is `_TOL`.
"""

from __future__ import annotations

import math

import numpy as np

from dyadicpara.decomposition import (
    _TOL,
    RestrictedWeakConfig,
    _group_classes,
    build_exceptional_sets,
    classify_rectangles,
    hypothesis_holds,
    sum_over,
    technical_lemma_check,
)
from dyadicpara.errors import CalibrationError, ContractError
from dyadicpara.lattice import RectangleCollection
from dyadicpara.operators import governing_operator, restricted_operator
from dyadicpara.paraproducts import ParaproductSpec, eval_B, eval_Lambda, slot_operator_specs
from dyadicpara.signals import Signal, lp_norm
from dyadicpara.transforms import lattice_rectangles


def restricted_weak_type_pipeline(
    cfg: RestrictedWeakConfig,
    spec: ParaproductSpec,
    f1: Signal,
    f2: Signal,
) -> dict:
    """Full decomposition run for normalized inputs on the unit torus.

    Requires ||f1||_p1 = ||f2||_p2 = 1; E_3 is the whole torus.  Builds the
    exceptional sets, restricts the third input to the complement of the
    inflated set, classifies every rectangle, and checks the explicit
    summation bound of each class.  Returns the per-class table, the total
    mass, and the duality pairing comparisons.
    """
    if spec.d != f1.d:
        raise ContractError("pipeline needs a bilinear spec matching the inputs")
    for f, p, name in ((f1, cfg.p1, "f1"), (f2, cfg.p2, "f2")):
        nrm = lp_norm(f, p)
        if abs(nrm - 1.0) > 1e-8:
            raise ContractError(f"{name} must be normalized in L^{p}; got {nrm}")
    d, L = f1.d, f1.L

    t1, t2, t3 = slot_operator_specs(spec)[:3]
    state = build_exceptional_sets(f1, f2, cfg.p1, cfg.p2, t1, t2, kappa=cfg.kappa)
    kappa = state.kappa
    if state.omega_tilde_measure >= 0.5:
        raise CalibrationError("inflated exceptional set still covers half the torus")

    e3_prime = ~state.omega_tilde
    base = cfg.f3 if cfg.f3 is not None else Signal.constant(d, L, 1.0)
    f3 = Signal(d, L, np.clip(base.values, -1.0, 1.0)).restrict(e3_prime)

    labels1 = classify_rectangles(state.t_values[0], kappa, clamp=cfg.clamp)
    labels2 = classify_rectangles(state.t_values[1], kappa, clamp=cfg.clamp)
    labels3 = classify_rectangles(governing_operator(f3, t3), kappa, clamp=cfg.clamp)
    lattice = lattice_rectangles(d, L)
    main, leftover = _group_classes(
        [labels1, labels2, labels3], lattice, cfg.clamp, leading=2
    )

    rows = []
    all_ok = True
    total_parts = []
    for ells, rects in sorted(main.items()):
        collection = RectangleCollection.of(rects, L)
        lambdas = tuple(kappa * 2.0 ** (e + 1) for e in ells)
        check = technical_lemma_check(
            collection, spec, (f1, f2, f3), lambdas, (True, True, True),
            op_specs=(t1, t2, t3),
        )
        row = {
            "class": "main",
            "labels": list(ells),
            "size": len(rects),
            "sum": check["sum"],
            "shadow": check["shadow"],
            "bound": check["bound"],
            "margin": check["margin"],
            "ok": check["ok"],
            "shadow_reference": min(
                2.0 ** (-cfg.p1 * ells[0]), 2.0 ** (-cfg.p2 * ells[1])
            ),
        }
        rows.append(row)
        all_ok &= check["ok"]
        total_parts.append(check["sum"])

    for ells, rects in sorted(leftover.items()):
        collection = RectangleCollection.of(rects, L)
        lambdas = tuple(kappa * 2.0 ** (e + 1) for e in ells)
        t3_norm = lp_norm(restricted_operator(f3, t3, collection), 2.0)
        shadow = collection.shadow_measure()
        for j, (tv, lam) in enumerate(zip(state.t_values, lambdas)):
            if not hypothesis_holds(tv, collection, lam):
                raise ContractError(
                    f"leading hypothesis {j + 1} fails on leftover class {ells}"
                )
        total = sum_over(collection, spec, f1, f2, f3)
        bound = (100.0 / 98.0) * lambdas[0] * lambdas[1] * math.sqrt(shadow) * t3_norm
        ok = total <= bound * (1.0 + _TOL) + 1e-300
        rows.append(
            {
                "class": "leftover",
                "labels": list(ells),
                "size": len(rects),
                "sum": total,
                "shadow": shadow,
                "bound": bound,
                "margin": bound - total,
                "ok": ok,
                "restricted_t3_norm": t3_norm,
            }
        )
        all_ok &= ok
        total_parts.append(total)

    total = math.fsum(total_parts)
    whole = eval_Lambda(spec, (f1, f2, f3))
    b_out = eval_B(spec, (f1, f2))
    pairing = abs(
        float(np.sum(b_out.values * f3.values)) * f1.cell_measure
    )
    pairing_abs = float(np.sum(np.abs(b_out.values) * np.abs(f3.values))) * f1.cell_measure
    # absolute slack for cancellation dust when the pairing is near zero
    slack = _TOL * max(total, lp_norm(b_out, 1.0), 1.0)

    return {
        "kappa": kappa,
        "nu": state.nu,
        "omega_measure": state.omega_measure,
        "omega_tilde_measure": state.omega_tilde_measure,
        "e3_prime_measure": float(e3_prime.mean()),
        "e3_prime_convention": "complement-of-inflated-set",
        "classes": rows,
        "total": total,
        "partition_defect": abs(total - whole),
        "pairing": pairing,
        "pairing_le_total": pairing <= total + slack,
        "pairing_abs": pairing_abs,
        "pairing_abs_le_total": pairing_abs <= total + slack,
        "all_class_bounds_ok": bool(all_ok),
        "finite": bool(np.isfinite(total)),
    }


def endpoint_pipeline(
    cfg: RestrictedWeakConfig,
    spec: ParaproductSpec,
    f1: Signal,
    f2: Signal,
) -> dict:
    """Bounded-second-input variant: ||f2||_inf = 1 replaces the L^p2
    normalization, the exceptional sets are built from the first input
    alone, and the second slot enters every bound through its restricted
    L^2 norm, reported also as a multiple of |sh|^(1/2) ||f2||_inf.
    """
    if spec.d != f1.d:
        raise ContractError("pipeline needs a bilinear spec matching the inputs")
    if abs(lp_norm(f1, cfg.p1) - 1.0) > 1e-8:
        raise ContractError("f1 must be normalized in L^p1")
    sup2 = lp_norm(f2, np.inf)
    if abs(sup2 - 1.0) > 1e-8:
        raise ContractError("f2 must be normalized in L^inf")
    d, L = f1.d, f1.L

    t1, t2, t3 = slot_operator_specs(spec)[:3]
    state = build_exceptional_sets(
        f1, f2, cfg.p1, float("inf"), t1, None, kappa=cfg.kappa
    )
    kappa = state.kappa
    if state.omega_tilde_measure >= 0.5:
        raise CalibrationError("inflated exceptional set still covers half the torus")

    e3_prime = ~state.omega_tilde
    base = cfg.f3 if cfg.f3 is not None else Signal.constant(d, L, 1.0)
    f3 = Signal(d, L, np.clip(base.values, -1.0, 1.0)).restrict(e3_prime)

    t3_values = governing_operator(f3, t3)
    labels1 = classify_rectangles(state.t_values[0], kappa, clamp=cfg.clamp)
    labels3 = classify_rectangles(t3_values, kappa, clamp=cfg.clamp)
    lattice = lattice_rectangles(d, L)
    main, leftover = _group_classes([labels1, labels3], lattice, cfg.clamp, leading=1)

    rows = []
    all_ok = True
    total_parts = []
    localization_constants = []
    for key, rects in sorted(list(main.items()) + list(leftover.items())):
        is_main = key in main
        collection = RectangleCollection.of(rects, L)
        shadow = collection.shadow_measure()
        t2_norm = lp_norm(restricted_operator(f2, t2, collection), 2.0)
        if shadow > 0:
            localization_constants.append(t2_norm / (math.sqrt(shadow) * sup2))
        total = sum_over(collection, spec, f1, f2, f3)
        lam1 = kappa * 2.0 ** (key[0] + 1)
        if not hypothesis_holds(state.t_values[0], collection, lam1):
            raise ContractError(f"first-slot hypothesis fails on class {key}")
        if is_main:
            ell3 = key[1]
            lam3 = kappa * 2.0 ** (ell3 + 1)
            if not hypothesis_holds(t3_values, collection, lam3):
                raise ContractError(f"third-slot hypothesis fails on class {key}")
            bound = (100.0 / 98.0) * lam1 * lam3 * math.sqrt(shadow) * t2_norm
        else:
            t3_norm = lp_norm(restricted_operator(f3, t3, collection), 2.0)
            bound = (100.0 / 99.0) * lam1 * t2_norm * t3_norm
        ok = total <= bound * (1.0 + _TOL) + 1e-300
        rows.append(
            {
                "class": "main" if is_main else "leftover",
                "labels": list(key),
                "size": len(rects),
                "sum": total,
                "shadow": shadow,
                "bound": bound,
                "margin": bound - total,
                "ok": ok,
                "restricted_t2_norm": t2_norm,
            }
        )
        all_ok &= ok
        total_parts.append(total)

    total = math.fsum(total_parts)
    whole = eval_Lambda(spec, (f1, f2, f3))
    return {
        "kappa": kappa,
        "nu": state.nu,
        "omega_tilde_measure": state.omega_tilde_measure,
        "e3_prime_measure": float(e3_prime.mean()),
        "e3_prime_convention": "complement-of-inflated-set",
        "classes": rows,
        "total": total,
        "partition_defect": abs(total - whole),
        "all_class_bounds_ok": bool(all_ok),
        "max_localization_constant": max(localization_constants, default=0.0),
        "finite": bool(np.isfinite(total)),
    }
