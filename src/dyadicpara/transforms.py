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
from .lattice import DyadicInterval, DyadicRectangle, _json_index, enumerate_rectangles
from .signals import Signal, _Adopted, _check_resolution, _frozen, _real


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
    construction, keeping its memory layout, and kept read-only; a tensor
    the package has just computed is adopted (`signals._Adopted`) with the
    same checks and no copy.  `_outputs` keeps the signal that
    `operators.governing_operator` aggregates from this field over the
    whole lattice, per (sigma, pi); it lives exactly as long as the field."""

    d: int
    L: int
    family: AdaptedFamily
    tensor: np.ndarray
    _outputs: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        _check_resolution(self.d, self.L)
        if self.family.d != self.d:
            raise ContractError("family and field parameter counts differ")
        if isinstance(self.tensor, _Adopted):
            arr = np.asarray(self.tensor.array, dtype=float)
        else:
            arr = np.array(_real(self.tensor, "coefficients"), dtype=float)
            # an adopted tensor is not scanned: what overflows in it is
            # refused when it reaches a signal
            if np.count_nonzero(np.isfinite(arr)) != arr.size:
                raise ContractError("coefficients must be finite")
        if arr.shape != ((1 << self.L),) * self.d:
            raise ContractError("coefficient tensor has the wrong shape")
        object.__setattr__(self, "tensor", _frozen(arr))

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


def _haar_pair(even, odd, k, slots):  # of cell integrals: difference stored, sum carried
    np.multiply(even - odd, 2.0 ** (k / 2.0), out=slots)
    return even + odd


def _spread(coeffs: np.ndarray, axis: int, L: int, op) -> np.ndarray:
    """Move one axis from coefficient layout to cells, coarse to fine.

    Every cell receives the `op`-aggregate (np.add, np.maximum or
    np.logical_or) of the mean slot and of the slots of all intervals
    containing it, in that order.  An axis of 2^(L+1) slots also holds one
    leaf slot 2^L + j per cell j, folded in last.  A small tensor gathers
    those slots per cell through `_ancestor_slots` in one call and folds
    them along the level axis; that axis is never the innermost one, so
    numpy folds it in order and the result equals the fold's bit for bit,
    but for one sign: numpy starts an add-reduction from +0.0, so a cell
    whose terms are all -0.0 gets +0.0.

    The fold starts its run as the mean slot; at each level k it writes
    op(run, level-k slots) into both children of each entry, the even and
    odd rows of the next run.  The runs alternate between the output and
    one spare of half its length, so that the last lands in the output.
    O(2^L) per fiber, in the dtype of `coeffs`; the input is never written.
    """
    leaves = coeffs.shape[axis] == 2 << L
    if coeffs.size >> leaves <= _SMALL_SIZE_MAX:
        return op.reduce(coeffs.take(_ancestor_slots(L, leaves), axis=axis), axis=axis)
    front, back = _axis_to_front(coeffs.ndim, axis)
    a = coeffs.transpose(front)
    out = np.empty((1 << L,) + a.shape[1:], dtype=a.dtype)
    runs = (out, np.empty_like(out[: len(out) >> 1]))
    run = a[0:1]
    for k in range(L):
        nxt = runs[(L - 1 - k) & 1][: 2 << k]
        np.copyto(nxt[1::2], op(run, a[1 << k : 2 << k], out=nxt[0::2]))
        run = nxt
    if leaves:
        run = op(run, a[1 << L :], out=out)
    return run.transpose(back)


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
    levels, index, top = collection._levels_slots
    if top >= L + leaves:
        rect = min(r for r in collection.members if max(r.levels) >= L + leaves)
        raise ResolutionError(f"rectangle {rect.to_json()} has no slot at resolution L={L}")
    return index, levels, (2 if top == L else 1) << L


# ---------------------------------------------------------------------------
# Per-axis analysis and synthesis, and the size rule of the small-tensor paths
# ---------------------------------------------------------------------------

# Tensor size (entries) up to which a per-axis move is one gather (spread,
# synthesis) or one matrix product (analysis) instead of the level fold,
# whose cost there is numpy call overhead.  Measured with one BLAS thread,
# µs per call on axis 0 (best of 9 x 500 calls; runs on the shared 2-vCPU
# host move by up to 40%), level loop -> one call.  The synthesis column is
# the Haar synthesis, the spread of 2^(L+1) signed child slots; the last
# column is that gather -> one product with the transposed fold matrix, on
# a mean-zero axis / on any other (the |h| spread of 2^L slots):
#
#   shape         spread      synthesis    analysis     synthesis by product
#   (256,)        9.5 -> 3.4  12 -> 6.0    12 -> 7.8    6.0 -> 7.7 / 4.3 -> 7.8
#   (512,)        11 -> 5.8   14 -> 9.0    14 -> 38
#   (1024,)       12 -> 11    16 -> 15
#   (2048,)       14 -> 22    19 -> 27
#   (4096,)       17 -> 47    23 -> 58
#   (16, 16)      7.7 -> 1.8  12 -> 5.9    9.7 -> 1.4   5.9 -> 1.4 / 3.3 -> 1.4
#   (32, 32)      10 -> 3.6   16 -> 8.9    14 -> 2.0    9.5 -> 2.0 / 5.8 -> 2.0
#   (8, 8, 8)     6.5 -> 2.1  12 -> 6.9    7.9 -> 1.5   7.0 -> 1.5 / 3.7 -> 1.5
#
# The gather holds L+1 entries per cell (L+2 with leaf slots), so it loses
# on long axes: at d=1 the spread and the synthesis from 2^11 cells.
# (64, 64) and (16, 16, 16) still win, but size alone decides, and 2^10
# covers every grid of the C01-C12 configurations.
_SMALL_SIZE_MAX = 1 << 10
# At d=1 the analysis product is a matrix-vector product that reads all n²
# entries of the matrix; it loses from n = 2^9 (table above).  The same
# bound holds for the add-gather's interval matrix: µs per call, all axes
# of a 0/1 tensor, level loop -> products: (16, 16) 31 -> 5.9, (256,) 17 ->
# 11, (8, 8, 8) 51 -> 10.  The synthesis product loses to the gather at
# (256,) alone, but the bound is kept so that one rule covers all three.
_HAAR_MATRIX_MAX_N = 1 << 8


# the slot tables are keyed by L <= 10 and the leaf flag, the fold
# matrices of the three pairings by L <= 8: about 2.3 MiB at most, together
_SMALL_L_COUNT = _SMALL_SIZE_MAX.bit_length()


def _fold_by_product(values: np.ndarray, L: int) -> bool:
    """The size rule of the step analysis and the add-gather (one product
    with the cached `_fold_matrix`, or `_fold_up`) and of the step synthesis
    (one product with its transpose)."""
    return values.size <= _SMALL_SIZE_MAX and (1 << L) <= _HAAR_MATRIX_MAX_N


@functools.lru_cache(maxsize=2 * _SMALL_L_COUNT)
def _ancestor_slots(L: int, leaves: bool) -> np.ndarray:
    """(L+1, 2^L) slot table: row 0 the mean slot, row k+1 the slot of each
    cell's level-k interval; with `leaves` one more row, leaf slot 2^L + j
    of each cell j."""
    cells = np.arange(1 << L)
    levels = np.arange(L + leaves)[:, None]
    table = np.zeros((L + 1 + leaves, 1 << L), dtype=np.intp)
    table[1:] = (1 << levels) + (cells >> (L - levels))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=3 * _SMALL_L_COUNT)
def _fold_matrix(L: int, pair) -> np.ndarray:
    """A fine-to-coarse fold as an n x n matrix, `_fold_up` by `pair`
    applied to the identity.  By `_op_pair(np.add)` row 2^k + j marks the
    cells of interval (k, j) and row 0 every cell; by `_step_pair` or
    `_haar_pair` it is the step profile matrix with row 0 all ones, and its
    transpose the step synthesis."""
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
    slot times h_(k,j) at the cell on an axis flagged mean zero, times
    |h_(k,j)| = 2^(k/2) on any other.  A tensor that `_fold_by_product`
    admits takes one product with the transpose of the analysis's
    `_fold_matrix`, which sums in another order than the fold.  Otherwise
    the slots, scaled by 2^(k/2), are add-spread.  On a mean-zero axis
    h_(k,j) is +2^(k/2) on the left child of (k,j) and -2^(k/2) on the
    right, so the spread runs over 2^(L+1) signed child slots: slot 2i
    holds scaled slot i and slot 2i+1 its negation, except that slot 1
    holds -0.0 beside the mean in slot 0.  As x - y == x + (-y) and
    x + (-0.0) == x, each cell is the Haar cascade's run ± block·2^(k/2)
    bit for bit."""
    if _fold_by_product(coeffs, L):
        return _matrix_axis(coeffs, axis, _fold_matrix(L, _haar_pair if zero else _step_pair).T)
    shape = (1 << L,) + (1,) * (coeffs.ndim - axis - 1)
    scales = _weight_table(1, L, 0.5, True).reshape(shape)
    if not zero:
        return _spread(coeffs * scales, axis, L, np.add)
    lead = (slice(None),) * axis
    signed = np.empty(coeffs.shape[:axis] + (2 << L,) + coeffs.shape[axis + 1 :])
    scaled = np.multiply(coeffs, scales, out=signed[lead + (slice(0, None, 2),)])
    np.negative(scaled, out=signed[lead + (slice(1, None, 2),)])
    signed[lead + (1,)] = -0.0
    return _spread(signed, axis, L, np.add)


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
    out = f._memo.get(family)
    if out is not None:
        return out
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
    out = f._memo[family] = CoefficientField(f.d, f.L, family, _Adopted(tensor))
    return out


def reconstruct(c: CoefficientField) -> Signal:
    """Synthesis inverse of `coefficients`, Haar families only."""
    if not c.family.is_orthonormal_basis:
        raise UnsupportedFamilyError("reconstruction requires the orthonormal haar family")
    return Signal(c.d, c.L, _Adopted(_synthesis(c.tensor, c.family, c.L)))
