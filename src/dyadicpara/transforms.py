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
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, ResolutionError, UnsupportedFamilyError
from .families import AdaptedFamily
from .lattice import DyadicInterval, DyadicRectangle, _json_index, enumerate_rectangles
from .signals import Signal, _check_resolution, _real


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


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Fields compare and hash by identity.  The tensor is copied on
    construction, keeping its memory layout, and kept read-only.  `_cells`
    holds the cell array that `operators.governing_operator` aggregates
    from this field per (sigma, pi), over the whole lattice; it lives
    exactly as long as the field."""

    d: int
    L: int
    family: AdaptedFamily
    tensor: np.ndarray
    _cells: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        _check_resolution(self.d, self.L)
        if self.family.d != self.d:
            raise ContractError("family and field parameter counts differ")
        arr = np.array(_real(self.tensor, "coefficients"), dtype=float)
        if arr.shape != ((1 << self.L),) * self.d:
            raise ContractError("coefficient tensor has the wrong shape")
        arr.flags.writeable = False
        object.__setattr__(self, "tensor", arr)

    def rectangle_coefficient(self, rect: DyadicRectangle) -> float:
        idx = tuple(flat_index(a.level, a.position) for a in rect.axes)
        if any(a.level >= self.L for a in rect.axes):
            raise ResolutionError(
                f"rectangle {rect.to_json()} has no profile at resolution {self.L}"
            )
        return float(self.tensor[idx])

    def energy(self) -> float:
        return float((self.tensor**2).sum())

    def oscillatory_energy(self) -> float:
        sub = self.tensor[(slice(1, None),) * self.d]
        return float((sub**2).sum())

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
        d, L = _json_index(data["d"]), _json_index(data["L"])
        _check_resolution(d, L)
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
            if not math.isfinite(tensor[idx]):
                raise ContractError(f"coefficient {v!r} at key {key} is not finite")
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
# The per-axis fold engine, dyadic spread and gather, and rectangle weights
# ---------------------------------------------------------------------------


def _fold_up(values: np.ndarray, axis: int, L: int, pair) -> np.ndarray:
    """Move one axis from cells to coefficient layout, fine to coarse.

    At each level k from L-1 down to 0, `pair(even, odd, k, slots)` writes
    the level-k slots of the even and odd entries of the run (the cells at
    first) into `slots`, a view of the output, and returns the run passed
    on; the mean slot takes the last run.  The input is never written.
    O(2^L) per fiber; the output keeps the memory layout of `values`."""
    front, back = _axis_to_front(values.ndim, axis)
    run = values.transpose(front)
    out = np.empty_like(run)
    for k in range(L - 1, -1, -1):
        run = pair(run[0::2], run[1::2], k, out[1 << k : 2 << k])
    out[0] = run[0]
    return out.transpose(back)


def _fold_down(coeffs: np.ndarray, axis: int, L: int, children) -> np.ndarray:
    """Move one axis from coefficient layout to cells, coarse to fine.

    The run starts as the mean slot; at each level k from 0 to L-1,
    `children(run, block, k, left, right)` writes the left and the right
    child of every entry of the run and the level-k slots into `left` and
    `right`, the even and odd rows of the next run.  The runs alternate
    between the output and one spare of half its length, so that the last
    lands in the output.  O(2^L) per fiber; each level writes whole
    hyperplanes of a leading-axis view, in the dtype of `coeffs`."""
    front, back = _axis_to_front(coeffs.ndim, axis)
    a = coeffs.transpose(front)
    out = np.empty(a.shape, dtype=a.dtype)
    runs = (out, np.empty_like(out[: len(out) >> 1]))
    run = a[0:1]
    for k in range(L):
        nxt = runs[(L - 1 - k) & 1][: 2 << k]
        children(run, a[1 << k : 2 << k], k, nxt[0::2], nxt[1::2])
        run = nxt
    return run.transpose(back)


@functools.cache
def _axis_to_front(ndim: int, axis: int) -> tuple:
    """The permutations that np.moveaxis(x, axis, 0) and its inverse
    np.moveaxis(y, 0, axis) pass to `transpose`, which costs a fraction of
    `moveaxis` per call."""
    others = tuple(i for i in range(ndim) if i != axis)
    back = tuple(range(1, axis + 1)) + (0,) + tuple(range(axis + 1, ndim))
    return (axis,) + others, back


@functools.cache
def _op_pair(op):
    """The pairing of `_gather`, one per op for `_fold_matrix` to key on:
    op(even, odd) is the slots and the run passed on."""
    def pair(even, odd, k, slots):
        return op(even, odd, out=slots)
    return pair


@functools.cache
def _op_children(op):
    """The children of `_spread`: op(run, block) is both children."""
    def children(run, block, k, left, right):
        np.copyto(right, op(run, block, out=left))
    return children


def _haar_pair(even, odd, k, slots):  # of cell integrals: difference stored, sum carried
    np.multiply(even - odd, 2.0 ** (k / 2.0), out=slots)
    return even + odd


def _haar_children(run, block, k, left, right):
    scaled = np.multiply(block, 2.0 ** (k / 2.0), out=right)
    np.add(run, scaled, out=left)
    np.subtract(run, scaled, out=right)


def _spread(coeffs: np.ndarray, axis: int, L: int, op) -> np.ndarray:
    """Move one axis from coefficient layout to cells, coarse to fine.

    Every cell receives the `op`-aggregate (np.add, np.maximum or
    np.logical_or) of the mean slot and of the slots of all intervals
    containing it, in that order.  An axis of 2^(L+1) slots also holds one
    leaf slot 2^L + j per cell j, folded in last.  A small tensor gathers
    those L+1 slots per cell in one call and folds them along the level
    axis; that axis is never the innermost one, so numpy folds it in order
    and the result equals the fold's bit for bit.
    """
    if coeffs.shape[axis] == 2 << L:
        coeffs, leaves = np.split(coeffs, 2, axis=axis)
        return op(_spread(coeffs, axis, L, op), leaves)
    if coeffs.size <= _SMALL_SIZE_MAX:
        return op.reduce(coeffs.take(_ancestor_slots(L), axis=axis), axis=axis)
    return _fold_down(coeffs, axis, L, _op_children(op))


def _gather(cells: np.ndarray, axis: int, L: int, op, leaves: bool = False) -> np.ndarray:
    """Move one axis from cells to coefficient layout, fine to coarse: the
    mirror of `_spread`.  Slot 2^k + j receives the `op`-aggregate (np.add
    or np.logical_and, in the dtype of `cells`) of the cells of interval
    (k, j), and the mean slot that of the whole axis.  With `leaves` the
    axis gets 2^(L+1) slots, and leaf slot 2^L + j holds cell j.  An
    add-gather that `_fold_by_product` admits is one product with the 0/1
    `_fold_matrix`, exact for integer counts."""
    pair = _op_pair(op)
    if op is np.add and _fold_by_product(cells, L):
        out = _matrix_axis(cells, axis, _fold_matrix(L, pair))
        out = out.astype(cells.dtype, copy=False)
    else:
        out = _fold_up(cells, axis, L, pair)
    return np.concatenate([out, cells], axis=axis) if leaves else out


def _per_rectangle(cells: np.ndarray, L: int, op) -> np.ndarray:
    """The `op`-aggregate of each lattice rectangle's cells, in
    `lattice_rectangles` order: the rectangle slots of the gathered tensor,
    raveled row-major.  With np.logical_and it tells which rectangles lie
    inside a region, since a rectangle does when all its cells do."""
    for axis in range(cells.ndim):
        cells = _gather(cells, axis, L, op)
    return cells[(slice(1, None),) * cells.ndim].ravel()


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
    index = _member_slots(collection, d, L)[0]
    out = np.zeros_like(weights)
    out[index] = weights[index]
    return out


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


def _member_slots(collection, d: int, L: int, leaves: bool = False) -> tuple:
    """(index, levels, width): the slots 2^k + j of the members in a d-axis
    coefficient tensor of resolution L, as d index arrays with one entry
    per member; the members' levels k, one row each; and the axis length
    the slots need, 2^(L+1) when a member sits at level L (its slot is a
    leaf slot) and 2^L otherwise.  Refuses a member with another d, or one
    finer than the tensor: at level L without `leaves`, past L with."""
    if not collection.members:
        return (np.empty(0, dtype=np.intp),) * d, np.empty((0, d), dtype=np.intp), 1 << L
    if collection.d != d:
        raise ContractError("collection and tensor parameter counts differ")
    levels, slots = collection._levels_slots
    top = int(levels.max())
    if top >= L + leaves:
        rect = min(r for r in collection.members if max(r.levels) >= L + leaves)
        raise ResolutionError(f"rectangle {rect.to_json()} has no slot at resolution L={L}")
    return tuple(slots.T), levels, (2 if top == L else 1) << L


# ---------------------------------------------------------------------------
# Per-axis analysis and synthesis, and the size rule of the small-tensor paths
# ---------------------------------------------------------------------------

# Tensor size (entries) up to which a per-axis move is one gather (spread,
# synthesis) or one matrix product (analysis) instead of the level fold,
# whose cost there is numpy call overhead.  Measured with one BLAS thread,
# µs per call on axis 0 (best of 9 x 500 calls; runs on the shared 2-vCPU
# host move by up to 40%), level loop -> one call:
#
#   shape         spread      synthesis    analysis
#   (256,)        34 -> 9.3   44 -> 9.3    43 -> 14
#   (512,)        36 -> 15    55 -> 22     59 -> 107
#   (1024,)       41 -> 25    49 -> 32
#   (2048,)       42 -> 57    97 -> 56
#   (4096,)       58 -> 80    118 -> 161
#   (16, 16)      32 -> 3.0   31 -> 6.5    32 -> 3.4
#   (32, 32)      29 -> 6.8   46 -> 21     59 -> 7.1
#   (8, 8, 8)     34 -> 3.4   29 -> 13     39 -> 6.5
#
# The gather holds L+1 entries per cell, so it loses on long axes: at d=1
# the spread from 2^11 cells, synthesis from 2^12.  (64, 64) and
# (16, 16, 16) still win, but size alone decides, and 2^10 covers every
# grid of the C01-C12 configurations.
_SMALL_SIZE_MAX = 1 << 10
# At d=1 the analysis product is a matrix-vector product that reads all n²
# entries of the matrix; it loses from n = 2^9 (table above).  The same
# bound holds for the add-gather's interval matrix: µs per call, all axes
# of a 0/1 tensor, level loop -> products: (16, 16) 31 -> 5.9, (256,) 17 ->
# 11, (8, 8, 8) 51 -> 10.
_HAAR_MATRIX_MAX_N = 1 << 8


# the small-tensor tables are keyed by L <= 10, the fold matrices of the
# three pairings by L <= 8: about 2.3 MiB at most, together
_SMALL_L_COUNT = _SMALL_SIZE_MAX.bit_length()


def _fold_by_product(values: np.ndarray, L: int) -> bool:
    """The size rule of every fine-to-coarse move (the step analysis and the
    add-gather): one product with the cached `_fold_matrix`, or `_fold_up`."""
    return values.size <= _SMALL_SIZE_MAX and (1 << L) <= _HAAR_MATRIX_MAX_N


@functools.lru_cache(maxsize=_SMALL_L_COUNT)
def _ancestor_slots(L: int) -> np.ndarray:
    """(L+1, 2^L) slot table: row 0 the mean slot, row k+1 the slot of each
    cell's level-k interval."""
    cells = np.arange(1 << L)
    levels = np.arange(L)[:, None]
    table = np.zeros((L + 1, 1 << L), dtype=np.intp)
    table[1:] = (1 << levels) + (cells >> (L - levels))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=_SMALL_L_COUNT)
def _synthesis_scales(L: int) -> np.ndarray:
    """The Haar profile of each entry of `_ancestor_slots` at its cell:
    2^(k/2) for an interval at level k, negated on the right half of the
    interval; 1 for the mean slot."""
    cells = np.arange(1 << L)
    scales = np.ones((L + 1, 1 << L))
    for k in range(L):
        scales[k + 1] = 2.0 ** (k / 2.0)
        scales[k + 1, (cells >> (L - k - 1)) & 1 == 1] *= -1.0
    scales.flags.writeable = False
    return scales


@functools.lru_cache(maxsize=3 * _SMALL_L_COUNT)
def _fold_matrix(L: int, pair) -> np.ndarray:
    """A fine-to-coarse fold as an n x n matrix, `_fold_up` by `pair`
    applied to the identity.  By `_op_pair(np.add)` row 2^k + j marks the
    cells of interval (k, j) and row 0 every cell; by `_step_pair` or
    `_haar_pair` it is the step profile matrix with row 0 all ones."""
    matrix = _fold_up(np.eye(1 << L), 0, L, pair)
    matrix.flags.writeable = False
    return matrix


def _step_pair(even, odd, k, slots):  # the integral of each interval, times 2^(k/2)
    run = even + odd
    np.multiply(run, 2.0 ** (k / 2.0), out=slots)
    return run


def _step_analysis_axis(values: np.ndarray, axis: int, L: int, zero: bool) -> np.ndarray:
    """Step-family analysis along one axis of `values` already scaled by
    the cell measure: slot 2^k + j the coefficient against h_(k,j) on an
    axis flagged mean zero (`_haar_pair`), against |h_(k,j)| on any other
    (`_step_pair`); slot 0 the integral.  A small tensor takes one product
    with the fold's matrix, which sums in another order than the fold."""
    pair = _haar_pair if zero else _step_pair
    if _fold_by_product(values, L):
        return _matrix_axis(values, axis, _fold_matrix(L, pair))
    return _fold_up(values, axis, L, pair)


def _step_synthesis_axis(coeffs: np.ndarray, axis: int, L: int, zero: bool) -> np.ndarray:
    """Step-family synthesis along one axis, the twin of
    `_step_analysis_axis`: each cell gets the mean slot plus every level-k
    slot times h_(k,j) at the cell (`_haar_children`) on an axis flagged
    mean zero, times |h_(k,j)| = 2^(k/2) on any other.  The latter is the
    add-spread of the slots scaled by 2^(k/2).  A small tensor on a
    mean-zero axis sums its cells' `_ancestor_slots` times
    `_synthesis_scales` coarse to fine, as `_spread` does: bit for bit the
    fold's result."""
    if not zero:
        shape = (1 << L,) + (1,) * (coeffs.ndim - axis - 1)
        scales = _weight_table(1, L, 0.5, True).reshape(shape)
        return _spread(coeffs * scales, axis, L, np.add)
    if coeffs.size <= _SMALL_SIZE_MAX:
        trailing = (1,) * (coeffs.ndim - axis - 1)
        scales = _synthesis_scales(L).reshape((L + 1, 1 << L) + trailing)
        terms = coeffs.take(_ancestor_slots(L), axis=axis) * scales
        return np.add.reduce(terms, axis=axis)
    return _fold_down(coeffs, axis, L, _haar_children)


def _matrix_axis(values: np.ndarray, axis: int, matrix: np.ndarray) -> np.ndarray:
    """Contract one axis with a cached matrix, read in place: the product
    that np.tensordot forms, without its Python overhead.  Analysis passes
    a profile matrix, synthesis its transpose."""
    front, back = _axis_to_front(values.ndim, axis)
    moved = values.transpose(front)
    out = np.dot(matrix, moved.reshape(len(matrix), -1)).reshape(moved.shape)
    return out.transpose(back)


def _synthesis(tensor: np.ndarray, family: AdaptedFamily, L: int) -> np.ndarray:
    """Sum over slots of tensor[slot] times the family's profile of that
    slot, one axis at a time: a step axis by `_step_synthesis_axis`, a
    smooth one by one product with the transposed profile matrix.  A mean
    slot is the constant 1 on a step axis and nothing on a smooth one (row
    0 of the matrix); only the orthonormal Haar family fills mean slots."""
    for axis in range(tensor.ndim):
        if family.is_smooth:
            tensor = _matrix_axis(tensor, axis, family.profile_matrix(axis, L).T)
        else:
            tensor = _step_synthesis_axis(tensor, axis, L, family.zero_pattern[axis])
    return tensor


def coefficients(f: Signal, family: AdaptedFamily) -> CoefficientField:
    """Inner products of f against every representable rectangle profile.

    Smooth families contract each axis with their profile matrix; step
    families go through `_step_analysis_axis` and read no matrix entry.
    Only the orthonormal Haar family keeps its mean blocks, so that its
    full tensor is an orthogonal change of basis.  The field is derived
    once per signal and family and kept on the signal; every other family
    fetches its profile matrices on every call all the same.
    """
    if family.d != f.d:
        raise ContractError("family and signal parameter counts differ")
    matrices = []
    if not family.is_orthonormal_basis:
        matrices = [family.profile_matrix(axis, f.L) for axis in range(f.d)]
    if family in f._fields:
        return f._fields[family]
    # the cell measure is a power of two: scaling the input once rounds every
    # product as scaling each matrix would (outside the subnormal range)
    tensor = f.values * f.cell_measure
    for axis in range(f.d):
        if family.is_smooth:
            tensor = _matrix_axis(tensor, axis, matrices[axis])
        else:
            tensor = _step_analysis_axis(tensor, axis, f.L, family.zero_pattern[axis])
            if not family.is_orthonormal_basis:
                tensor[(slice(None),) * axis + (0,)] = 0.0
    out = f._fields[family] = CoefficientField(f.d, f.L, family, tensor)
    return out


def reconstruct(c: CoefficientField) -> Signal:
    """Synthesis inverse of `coefficients`, Haar families only."""
    if not c.family.is_orthonormal_basis:
        raise UnsupportedFamilyError("reconstruction requires the orthonormal haar family")
    return Signal(c.d, c.L, _synthesis(c.tensor, c.family, c.L))
