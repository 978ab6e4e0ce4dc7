"""Square, maximal, and mixed governing operators over the rectangle lattice.

Every operator aggregates the normalized coefficient field

    a_R(x) = |<f, phi_R>| / sqrt(|R|) * 1_R(x)

over the rectangles addressable at the signal's resolution.  The square
function takes an l^2 norm over all rectangles, the maximal function a
supremum, and the general governing operator applies one l^2 or l^sup norm
per coordinate in a prescribed nesting order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError
from .families import AdaptedFamily
from .lattice import RectangleCollection
from .signals import Signal, _Adopted, _shared_view
from .transforms import _rectangle_weights, _spread, coefficients

SQUARE = "square"
MAX = "max"


@dataclass(frozen=True)
class OperatorSpec:
    """Per-coordinate choice of square/max plus the nesting permutation.

    `pi` lists 0-based coordinates from the outermost norm to the
    innermost; `sigma[j]` chooses the norm applied along coordinate j.
    Square coordinates require the family to be mean zero there.
    """

    family: AdaptedFamily
    sigma: tuple
    pi: Optional[tuple] = None

    def __post_init__(self):
        if len(self.sigma) != self.family.d:
            raise ContractError("sigma must list one choice per coordinate")
        for s in self.sigma:
            if s not in (SQUARE, MAX):
                raise ContractError(f"unknown norm choice {s!r}")
        pi = tuple(range(self.family.d)) if self.pi is None else tuple(self.pi)
        if sorted(pi) != list(range(self.family.d)):
            raise ContractError("pi must be a permutation of the coordinates")
        object.__setattr__(self, "pi", pi)
        for j, s in enumerate(self.sigma):
            if s == SQUARE and not self.family.zero_pattern[j]:
                raise ContractError(
                    f"square norm in coordinate {j} requires a zero there"
                )

    @property
    def d(self) -> int:
        return self.family.d

    @classmethod
    def all_max(cls, family: AdaptedFamily) -> "OperatorSpec":
        return cls(family, (MAX,) * family.d)

    @classmethod
    def all_square(cls, family: AdaptedFamily) -> "OperatorSpec":
        return cls(family, (SQUARE,) * family.d)

    @classmethod
    def from_letters(cls, letters: str, family: AdaptedFamily, pi=None):
        table = {"S": SQUARE, "M": MAX}
        try:
            sigma = tuple(table[ch] for ch in letters.upper())
        except KeyError as exc:
            raise ContractError(f"bad operator letter in {letters!r}") from exc
        return cls(family, sigma, pi)


def square_function(f: Signal, family: AdaptedFamily) -> Signal:
    """Pointwise l^2 aggregation; needs zeros in every coordinate."""
    if not all(family.zero_pattern):
        raise ContractError("the square function requires zeros in every coordinate")
    return governing_operator(f, OperatorSpec.all_square(family))


def maximal_function(f: Signal, family: AdaptedFamily) -> Signal:
    """Pointwise supremum of |<f, phi_R>| / sqrt(|R|) over R containing x."""
    return governing_operator(f, OperatorSpec.all_max(family))


# The abs-Haar maximal function of an indicator takes dyadic values,
# multiples of 2^-(dL) with dL <= 18, but the 2^(k/2) normalisations leave a
# few ulps of rounding on them, to either side depending on the order of
# summation.  Raising a dyadic threshold by far less than 2^-(dL) decides an
# exact tie as exact arithmetic does: not above.
_TIE_SLACK = 2.0**-30


def _above_dyadic(values: np.ndarray, threshold: float) -> np.ndarray:
    """values > threshold, for the maximal function of an indicator."""
    return values > threshold * (1.0 + _TIE_SLACK)


def governing_operator(
    f: Signal,
    spec: OperatorSpec,
    collection: Optional[RectangleCollection] = None,
) -> Signal:
    if spec.d != f.d:
        raise ContractError("operator and signal parameter counts differ")
    field = coefficients(f, spec.family)
    d, L = f.d, f.L
    # the output over the whole lattice is kept on the field per norm choice
    # and nesting order; each later call gets a read-only view of its cells
    # that shares its memo
    key = (tuple(spec.sigma), spec.pi)
    kept = field._outputs.get(key) if collection is None else None
    if kept is not None:
        return _shared_view(kept)
    acc = np.abs(field.tensor) * _rectangle_weights(d, L, 0.5, collection)

    # innermost norm first; a run of square coordinates sums squares
    # through all of its axes and takes one square root when it ends
    order = spec.pi[::-1]
    for i, coord in enumerate(order):
        if spec.sigma[coord] == MAX:
            acc = _spread(acc, coord, L, np.maximum)
            continue
        if i == 0 or spec.sigma[order[i - 1]] == MAX:
            acc = acc**2
        acc = _spread(acc, coord, L, np.add)
        if i == d - 1 or spec.sigma[order[i + 1]] == MAX:
            acc = np.sqrt(acc)
    out = Signal(d, L, _Adopted(acc))
    if collection is None:
        field._outputs[key] = out
    return out


def restricted_operator(
    f: Signal, spec: OperatorSpec, collection: RectangleCollection
) -> Signal:
    """Same aggregation, but only over rectangles in the collection."""
    return governing_operator(f, spec, collection=collection)


def conditional_expectation(f: Signal, intervals) -> Signal:
    """Average f over each interval of a disjoint family; identity elsewhere.

    Block sums use exact (correctly rounded) accumulation, which makes the
    operation idempotent bit-for-bit and preserves the integral.
    """
    if f.d != 1:
        raise ContractError("conditional expectation is one-parameter only")
    intervals = list(intervals)
    # dyadic intervals nest or are disjoint: sorted by left end, wider first,
    # an interval that contains another also contains its successor
    ordered = sorted(intervals, key=lambda iv: (iv.left, iv.level))
    for a, b in zip(ordered, ordered[1:]):
        if not a.is_disjoint(b):
            raise ContractError(
                f"intervals {a.to_json()} and {b.to_json()} overlap"
            )
    out = f.values.copy()
    for iv in intervals:
        lo, hi = iv.cells(f.L)
        out[lo:hi] = math.fsum(out[lo:hi]) / (hi - lo)
    return Signal(1, f.L, _Adopted(out))
