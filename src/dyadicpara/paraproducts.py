"""n-linear rectangle paraproducts and their sublinear majorants.

With coefficient products c_v(R) = <f_v, phi_(v,R)> over the rectangle
lattice, the three objects are

    B(f_1..f_n)   = sum_R |R|^(-(n-1)/2) phi_(n+1,R) prod_v c_v(R)
    Lambda(f_1..f_(n+1)) = sum_R |R|^(-(n-1)/2) prod_v |c_v(R)|
    L(f_1..f_(n+1))(x)   = sum_R |R|^(-(n+1)/2) prod_v |c_v(R)| 1_R(x)

so that integral(L) = Lambda term by term.  Every coordinate must carry at
least two mean-zero slots; violating specs are refused outright.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError
from .families import AdaptedFamily
from .lattice import RectangleCollection, _json_index, maximal_intervals_in_mask
from .operators import (
    MAX,
    SQUARE,
    OperatorSpec,
    _above_dyadic,
    conditional_expectation,
    governing_operator,
    maximal_function,
)
from .signals import Signal, _Adopted
from .transforms import (
    CoefficientField,
    _member_slots,
    _per_rectangle,
    _rectangle_weights,
    _spread,
    _synthesis,
    _weight_table,
    coefficients,
    lattice_rectangles,
    reconstruct,
)


@dataclass(frozen=True)
class ParaproductSpec:
    """Slot families for an n-linear form: n input slots plus one output."""

    families: tuple

    def __post_init__(self):
        if len(self.families) < 3:
            raise ContractError("need at least 3 slots (bilinear case)")
        ds = {fam.d for fam in self.families}
        if len(ds) != 1:
            raise ContractError("all slot families must share d")
        for j in range(self.d):
            if len(self.zero_slots(j)) < 2:
                raise ContractError(
                    f"coordinate {j} has fewer than two mean-zero slots"
                )

    @property
    def n(self) -> int:
        return len(self.families) - 1

    @property
    def d(self) -> int:
        return self.families[0].d

    def zero_slots(self, coord: int) -> tuple:
        """Slots (0-based) whose family is mean zero in the coordinate."""
        return tuple(
            v for v, fam in enumerate(self.families) if fam.zero_pattern[coord]
        )

    def to_json(self):
        return {
            "n": self.n,
            "d": self.d,
            "slots": [
                {"kind": fam.kind, "zero_pattern": list(fam.zero_pattern)}
                for fam in self.families
            ],
        }

    @classmethod
    def from_json(cls, data) -> "ParaproductSpec":
        fams = tuple(
            AdaptedFamily.make(s["kind"], _json_index(data["d"]), tuple(s["zero_pattern"]))
            for s in data["slots"]
        )
        return cls(fams)


def standard_triple(d: int, kind: str = "haar") -> ParaproductSpec:
    """Bilinear spec with zeros in slots 2 and 3 of every coordinate.

    kind selects the profile flavour: 'haar' pairs an |h| first slot with
    Haar oscillatory slots, 'gaussian' the bump/smooth analogues.  Any other
    kind is passed through to all three slots, which lets callers exercise
    the census rejection.
    """
    if kind == "haar":
        fams = (
            AdaptedFamily.abs_haar(d),
            AdaptedFamily.haar(d),
            AdaptedFamily.haar(d),
        )
    elif kind == "gaussian":
        fams = (
            AdaptedFamily.smooth_bump(d),
            AdaptedFamily.smooth(d),
            AdaptedFamily.smooth(d),
        )
    else:
        fams = tuple(AdaptedFamily.make(kind, d) for _ in range(3))
    return ParaproductSpec(fams)


def _slot_fields(spec: ParaproductSpec, fs) -> list:
    if len(fs) > len(spec.families):
        raise ContractError("more signals than slots")
    d, L = fs[0].d, fs[0].L
    for f in fs:
        if (f.d, f.L) != (d, L):
            raise ContractError("all inputs must share the grid")
    if d != spec.d:
        raise ContractError("signal and spec parameter counts differ")
    return [coefficients(f, fam) for f, fam in zip(fs, spec.families)]


def eval_B(
    spec: ParaproductSpec,
    fs,
    collection: Optional[RectangleCollection] = None,
) -> Signal:
    """The n-linear paraproduct, reassembled against the last slot one
    axis at a time."""
    if len(fs) != spec.n:
        raise ContractError(f"expected {spec.n} input signals")
    fields = _slot_fields(spec, fs)
    d, L = fs[0].d, fs[0].L
    out_family = spec.families[-1]
    weights = fields[0].tensor
    for field in fields[1:]:
        weights = weights * field.tensor
    weights = weights * _rectangle_weights(d, L, (spec.n - 1) / 2.0, collection)

    if out_family.is_orthonormal_basis:
        # the same synthesis, through `reconstruct`, whose call count the
        # benchmark pins: the branch can go once counts are unpinned (ROADMAP item 1)
        return reconstruct(CoefficientField(d, L, out_family, _Adopted(weights)))
    return Signal(d, L, _Adopted(_synthesis(weights, out_family, L)))


def _abs_product(spec, fs, index=...) -> np.ndarray:
    """prod_v |c_v| at the `index` slots of the coefficient tensors, by
    default at every slot."""
    fields = _slot_fields(spec, fs)
    prod = np.abs(fields[0].tensor[index])
    for field in fields[1:]:
        prod = prod * np.abs(field.tensor[index])
    return prod


def eval_Lambda(
    spec: ParaproductSpec,
    fs,
    collection: Optional[RectangleCollection] = None,
) -> float:
    """The scalar sublinear form over n+1 signals."""
    if len(fs) != spec.n + 1:
        raise ContractError(f"expected {spec.n + 1} input signals")
    d, L = fs[0].d, fs[0].L
    # the rectangle slots, or only the members' slots: a mean slot or a
    # rectangle outside the collection weighs 0 in the whole tensor
    if collection is None:
        index = (slice(1, None),) * d
    else:
        index = _member_slots(collection, d, L)[0]
    weights = _weight_table(d, L, (spec.n - 1) / 2.0, False)[index]
    terms = _abs_product(spec, fs, index) * weights
    # every term is >= +0, so leaving out the zeros keeps fsum's exact sum
    return math.fsum(terms[terms != 0].tolist())


def eval_L(
    spec: ParaproductSpec,
    fs,
    collection: Optional[RectangleCollection] = None,
) -> Signal:
    """The pointwise sublinear operator; integral(eval_L) == eval_Lambda."""
    if len(fs) != spec.n + 1:
        raise ContractError(f"expected {spec.n + 1} input signals")
    d, L = fs[0].d, fs[0].L
    acc = _abs_product(spec, fs) * _rectangle_weights(
        d, L, (spec.n + 1) / 2.0, collection
    )
    for axis in range(d):
        acc = _spread(acc, axis, L, np.add)
    return Signal(d, L, _Adopted(acc))


# ---------------------------------------------------------------------------
# Governing-operator domination
# ---------------------------------------------------------------------------


def slot_operator_specs(spec: ParaproductSpec) -> tuple:
    """One governing operator per slot, derived from the zero census.

    In each coordinate the first two mean-zero slots aggregate with the
    square norm and every other slot with the supremum; all slots share the
    identity nesting so the per-coordinate Hoelder argument applies.
    """
    specs = []
    for v, fam in enumerate(spec.families):
        sigma = tuple(
            SQUARE if v in spec.zero_slots(j)[:2] else MAX for j in range(spec.d)
        )
        specs.append(OperatorSpec(fam, sigma))
    return tuple(specs)


def domination_check(spec: ParaproductSpec, f1, f2, f3) -> dict:
    """Verify pointwise eval_L <= prod_k T_k f_k on the whole grid."""
    if spec.n != 2:
        raise ContractError("the domination check is bilinear")
    fs = (f1, f2, f3)
    lhs = eval_L(spec, fs).values
    tspecs = slot_operator_specs(spec)[:3]
    rhs = np.ones_like(lhs)
    for f, tspec in zip(fs, tspecs):
        rhs = rhs * governing_operator(f, tspec).values
    scale = max(float(rhs.max()), 1e-300)
    gap = lhs - rhs
    return {
        "max_violation": float(max(gap.max(), 0.0) / scale),
        "max_lhs": float(lhs.max()),
        "max_rhs": float(rhs.max()),
        "operators": ["".join("S" if s == SQUARE else "M" for s in t.sigma) for t in tspecs],
    }


# ---------------------------------------------------------------------------
# Exceptional-set surgery for the bilinear Haar paraproduct (d = 1)
# ---------------------------------------------------------------------------


def haar_surgery(spec: ParaproductSpec, f1: Signal, f2: Signal) -> dict:
    """Build the exceptional set F and averaged inputs for the cut identity.

    E collects where either slot maximal function exceeds one, F thickens E
    through the maximal function of its indicator, and each input is
    averaged over the maximal dyadic intervals inside F.  The identity under
    test: the paraproduct restricted to intervals not inside F, applied to
    the averaged inputs, agrees with the full paraproduct off F.
    """
    if spec.d != 1 or spec.n != 2:
        raise ContractError("surgery is for bilinear one-parameter specs")
    L = f1.L
    mf = AdaptedFamily.abs_haar(1)
    m1 = maximal_function(f1, mf).values
    m2 = maximal_function(f2, mf).values
    e_mask = (m1 > 1.0) | (m2 > 1.0)
    m_ind = maximal_function(Signal.from_mask(e_mask), mf).values
    f_mask = _above_dyadic(m_ind, 0.5)
    pieces = maximal_intervals_in_mask(f_mask)
    g1 = conditional_expectation(f1, pieces)
    g2 = conditional_expectation(f2, pieces)
    inside = _per_rectangle(f_mask, L, np.logical_and)
    kept = RectangleCollection.of(itertools.compress(lattice_rectangles(1, L), ~inside), L)
    return {
        "E": e_mask,
        "F": f_mask,
        "intervals": pieces,
        "g1": g1,
        "g2": g2,
        "kept": kept,
        "full": eval_B(spec, (f1, f2)),
        "cut": eval_B(spec, (g1, g2), collection=kept),
    }
