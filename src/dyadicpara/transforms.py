"""Coefficient transforms between signals and rectangle coefficients.

The coefficient tensor of a resolution-L signal has shape (2^L,)^d.  Along
each axis, flat index 2^k + j addresses the interval (level k, position j)
for 0 <= k <= L-1, and index 0 addresses the axis-constant (mean) slot.
Entries whose indices are all >= 1 are rectangle coefficients; the rest are
mean blocks.  For the orthonormal Haar family the full tensor is an
orthogonal change of basis, so Parseval and exact reconstruction hold; for
the other families only rectangle coefficients are populated.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, ResolutionError, UnsupportedFamilyError
from .families import AdaptedFamily
from .lattice import DyadicInterval, DyadicRectangle, enumerate_rectangles
from .signals import Signal


def lattice_levels(L: int) -> range:
    """Interval levels whose profiles are representable at resolution L."""
    return range(L)


def lattice_rectangles(d: int, L: int, cap=None) -> list:
    """All rectangles addressable by a resolution-L coefficient tensor."""
    if L < 1:
        return []
    return enumerate_rectangles(d, L - 1, cap=cap)


def flat_index(level: int, position: int) -> int:
    return (1 << level) + position


def index_interval(idx: int):
    """Inverse of flat_index; index 0 is the mean slot (returns None)."""
    if idx == 0:
        return None
    level = idx.bit_length() - 1
    return level, idx - (1 << level)


@dataclass(frozen=True)
class CoefficientField:
    d: int
    L: int
    family: AdaptedFamily
    tensor: np.ndarray = field(compare=False)

    def __post_init__(self):
        arr = np.asarray(self.tensor, dtype=float)
        if arr.shape != ((1 << self.L),) * self.d:
            raise ContractError("coefficient tensor has the wrong shape")
        arr.flags.writeable = False
        object.__setattr__(self, "tensor", arr)

    @property
    def has_mean_blocks(self) -> bool:
        return self.family.is_orthonormal_basis

    def rectangle_coefficient(self, rect: DyadicRectangle) -> float:
        idx = tuple(flat_index(a.level, a.position) for a in rect.axes)
        if any(a.level >= self.L for a in rect.axes):
            raise ResolutionError(
                f"rectangle {rect.to_json()} has no profile at resolution {self.L}"
            )
        return float(self.tensor[idx])

    def energy(self) -> float:
        return float(np.sum(self.tensor**2))

    def oscillatory_energy(self) -> float:
        sub = self.tensor[(slice(1, None),) * self.d]
        return float(np.sum(sub**2))

    def to_json(self):
        entries = []
        mean_blocks = []
        for idx in itertools.product(range(1 << self.L), repeat=self.d):
            v = float(self.tensor[idx])
            if v == 0.0:
                continue
            key = [None if i == 0 else list(index_interval(i)) for i in idx]
            if all(i >= 1 for i in idx):
                entries.append([key, v])
            else:
                mean_blocks.append([key, v])
        return {
            "d": self.d,
            "L": self.L,
            "family": {
                "kind": self.family.kind,
                "zero_pattern": list(self.family.zero_pattern),
            },
            "mean_blocks": mean_blocks,
            "entries": entries,
        }

    def save_json(self, path):
        Path(path).write_text(json.dumps(self.to_json()))

    @classmethod
    def from_json(cls, data) -> "CoefficientField":
        d, L = int(data["d"]), int(data["L"])
        fam = AdaptedFamily.make(
            data["family"]["kind"], d, tuple(data["family"]["zero_pattern"])
        )
        tensor = np.zeros(((1 << L),) * d)
        seen = set()
        for key, v in list(data["entries"]) + list(data["mean_blocks"]):
            if len(key) != d:
                raise ContractError(f"coefficient key {key} needs {d} parts")
            idx = tuple(_key_slot(part, L) for part in key)
            if idx in seen:
                raise ContractError(f"duplicate coefficient key {key}")
            seen.add(idx)
            tensor[idx] = float(v)
        return cls(d, L, fam, tensor)

    @classmethod
    def load_json(cls, path) -> "CoefficientField":
        return cls.from_json(json.loads(Path(path).read_text()))


def _key_slot(part, L: int) -> int:
    """Flat index of one JSON key part: None is the mean slot, otherwise a
    dyadic interval whose level lies below the resolution."""
    if part is None:
        return 0
    try:
        iv = DyadicInterval.from_json(part)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"malformed interval key {part!r}") from exc
    if iv.level >= L:
        raise ResolutionError(
            f"interval {iv.to_json()} has no coefficient slot at resolution {L}"
        )
    return flat_index(iv.level, iv.position)


# ---------------------------------------------------------------------------
# Per-axis dyadic spread and rectangle weights in coefficient layout
# ---------------------------------------------------------------------------


def _spread(coeffs: np.ndarray, axis: int, L: int, op) -> np.ndarray:
    """Move one axis from coefficient layout to cells, coarse to fine.

    Every cell receives the `op`-aggregate (np.add or np.maximum) of the
    mean slot and of the slots of all intervals containing it, in that
    order: run = op(run, block_k), then each entry covers both halves of
    its interval.  O(2^L) per fiber.
    """
    a = np.moveaxis(coeffs, axis, -1)
    run = a[..., 0:1]
    for k in range(L):
        run = np.repeat(op(run, a[..., (1 << k) : (1 << (k + 1))]), 2, axis=-1)
    return np.moveaxis(run, -1, axis)


def _rectangle_weights(
    d: int, L: int, power: float, collection=None, means: bool = False
) -> np.ndarray:
    """2^(power * sum of levels) per slot of a coefficient tensor.

    Mean slots count as level 0 when `means` is set and weigh 0 otherwise;
    with a collection, rectangles outside it weigh 0 as well.  The powers
    come from a table of Python floats, so each weight equals the scalar
    2.0 ** (levels_sum * power) bit for bit.  Without a collection (or with
    `means`) the result is a shared read-only array.
    """
    weights = _weight_table(d, L, power, means)
    if means or collection is None:
        return weights
    return np.where(_collection_slots(collection, d, L), weights, 0.0)


@functools.lru_cache(maxsize=32)
def _weight_table(d: int, L: int, power: float, means: bool) -> np.ndarray:
    table = np.array([2.0 ** (s * power) for s in range(d * L + 1)])
    levels = np.zeros(1 << L, dtype=np.intp)
    levels[1:] = np.repeat(np.arange(L), 1 << np.arange(L))
    weights = table[functools.reduce(np.add.outer, [levels] * d)]
    if not means:
        rect = functools.reduce(np.logical_and.outer, [np.arange(1 << L) > 0] * d)
        weights = np.where(rect, weights, 0.0)
    weights.flags.writeable = False
    return weights


def _collection_slots(collection, d: int, L: int) -> np.ndarray:
    """Boolean coefficient-layout tensor marking the collection's members."""
    if collection.members and collection.d != d:
        raise ContractError("collection and signal parameter counts differ")
    rows = []
    for rect in collection.members:
        if max(rect.levels) >= L:
            raise ResolutionError(
                f"rectangle {rect.to_json()} is finer than the coefficient "
                f"lattice at resolution {L}"
            )
        rows.append([(1 << a.level) + a.position for a in rect.axes])
    keep = np.zeros(((1 << L),) * d, dtype=bool)
    keep[tuple(np.array(rows, dtype=np.intp).reshape(-1, d).T)] = True
    return keep


# ---------------------------------------------------------------------------
# Fast Haar cascade (orthonormal analysis/synthesis along one axis)
# ---------------------------------------------------------------------------


def _haar_analysis_axis(values: np.ndarray, axis: int, L: int) -> np.ndarray:
    """Orthonormal Haar analysis along one axis in O(2^L) per fiber.

    Output fiber layout: index 0 the mean coefficient, index 2^k + j the
    coefficient against h_(k,j).
    """
    a = np.moveaxis(values, axis, -1)
    n = a.shape[-1]
    out = np.empty_like(a)
    integ = a * (1.0 / n)  # cell integrals
    for k in range(L - 1, -1, -1):
        even = integ[..., 0::2]
        odd = integ[..., 1::2]
        out[..., (1 << k) : (1 << (k + 1))] = (even - odd) * 2.0 ** (k / 2.0)
        integ = even + odd
    out[..., 0] = integ[..., 0]
    return np.moveaxis(out, -1, axis)


def _haar_synthesis_axis(coeffs: np.ndarray, axis: int, L: int) -> np.ndarray:
    a = np.moveaxis(coeffs, axis, -1)
    vals = a[..., 0:1]
    for k in range(L):
        block = a[..., (1 << k) : (1 << (k + 1))] * 2.0 ** (k / 2.0)
        up = np.empty(a.shape[:-1] + (1 << (k + 1),), dtype=a.dtype)
        up[..., 0::2] = vals + block
        up[..., 1::2] = vals - block
        vals = up
    return np.moveaxis(vals, -1, axis)


def _dense_analysis_axis(
    values: np.ndarray, axis: int, matrix: np.ndarray
) -> np.ndarray:
    """Contract one axis with the cached profile matrix, read in place."""
    moved = np.tensordot(matrix, values, axes=(1, axis))
    return np.moveaxis(moved, 0, axis)


# axis length from which a step family's diagonal blocks beat the dense
# product (measured with one BLAS thread: at d=1 the blocks win from 2^9,
# at d=2 from 2^8; d=3 grids stop at 2^6)
_STEP_BLOCKS_MIN_N = 1 << 9


def _step_analysis_axis(
    values: np.ndarray, axis: int, matrix: np.ndarray
) -> np.ndarray:
    """`_dense_analysis_axis` for a step-profile matrix, reading only the
    entries that can be nonzero.

    Row 2^k + j of a step matrix vanishes outside the 2^(L-k) cells of
    interval (k, j), so level k is the diagonal of the rows 2^k .. 2^(k+1)-1
    cut into 2^k column groups: n·L entries per axis instead of n².
    """
    n = matrix.shape[0]
    pre = int(np.prod(values.shape[:axis], dtype=np.intp))
    a = values.reshape(pre, n, -1)
    out = np.zeros(a.shape)
    for k in range(n.bit_length() - 1):
        m, w = 1 << k, n >> k
        block = matrix[m : 2 * m].reshape(m, m, w).diagonal(axis1=0, axis2=1)
        out[:, m : 2 * m] = np.einsum("pjcq,cj->pjq", a.reshape(pre, m, w, -1), block)
    return out.reshape(values.shape)


def coefficients(f: Signal, family: AdaptedFamily) -> CoefficientField:
    """Inner products of f against every representable rectangle profile.

    The orthonormal Haar family uses the per-axis cascade and also fills
    the mean blocks; other families contract with per-axis profile matrices
    (step families on large grids read only their diagonal blocks) and
    populate rectangle entries only.
    """
    if family.d != f.d:
        raise ContractError("family and signal parameter counts differ")
    tensor = f.values.astype(float)
    if family.is_orthonormal_basis:
        for axis in range(f.d):
            tensor = _haar_analysis_axis(tensor, axis, f.L)
    else:
        step_blocks = not family.is_smooth and (1 << f.L) >= _STEP_BLOCKS_MIN_N
        analysis = _step_analysis_axis if step_blocks else _dense_analysis_axis
        # the cell measure is a power of two, so scaling the input once
        # instead of each matrix rounds every product the same way (outside
        # the subnormal range)
        tensor = tensor * f.cell_measure
        for axis in range(f.d):
            matrix = family.profile_matrix(axis, f.L)
            tensor = analysis(tensor, axis, matrix)
    return CoefficientField(f.d, f.L, family, tensor)


def reconstruct(c: CoefficientField) -> Signal:
    """Synthesis inverse of `coefficients`, Haar families only."""
    if not c.family.is_orthonormal_basis:
        raise UnsupportedFamilyError(
            "reconstruction requires the orthonormal haar family"
        )
    values = c.tensor.astype(float)
    for axis in range(c.d):
        values = _haar_synthesis_axis(values, axis, c.L)
    return Signal(c.d, c.L, values)
