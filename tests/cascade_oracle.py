"""The per-axis level cascades, kept as a differential oracle.

`transforms` used to move an axis between cells and coefficient layout with
four separate level loops, each along a trailing-axis view.  It now runs
the two moves to coefficient layout through `_fold_up` with the pairing as
a parameter, and both moves to cells through `_spread`: the Haar synthesis
is the add-spread of signed child slots.  These copies of the old cascades,
unchanged, serve the tests: every move must equal its cascade bit for bit.
The folds are kept here in their np.moveaxis form as well, `_fold_up` and
the coarse-to-fine `_fold_down` that `_spread` and the Haar synthesis once
ran through, so that the spelled-out transposes can be checked against
them, strides included, together with the pairings as they were before
they wrote into the fold's output: each returned its two blocks, which the
fold copied or interleaved into place.
"""

from __future__ import annotations

import numpy as np


def _spread_cascade(coeffs: np.ndarray, axis: int, L: int, op) -> np.ndarray:
    """`_spread` level by level: run = op(run, block_k), then each entry
    covers both halves of its interval.  O(2^L) per fiber."""
    a = np.moveaxis(coeffs, axis, -1)
    run = a[..., 0:1]
    for k in range(L):
        run = np.repeat(op(run, a[..., (1 << k) : (1 << (k + 1))]), 2, axis=-1)
    return np.moveaxis(run, -1, axis)


def _gather_cascade(cells: np.ndarray, axis: int, L: int, op) -> np.ndarray:
    """`_gather` level by level, pairing neighbours.  O(2^L) per fiber."""
    run = np.moveaxis(cells, axis, -1)
    out = np.empty_like(run)
    for k in range(L - 1, -1, -1):
        run = op(run[..., 0::2], run[..., 1::2])
        out[..., (1 << k) : (1 << (k + 1))] = run
    out[..., 0] = run[..., 0]
    return np.moveaxis(out, -1, axis)


def _haar_analysis_cascade(values: np.ndarray, axis: int, L: int) -> np.ndarray:
    """The orthonormal Haar analysis in O(2^L) per fiber, fine to coarse."""
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


def _haar_synthesis_cascade(coeffs: np.ndarray, axis: int, L: int) -> np.ndarray:
    a = np.moveaxis(coeffs, axis, -1)
    vals = a[..., 0:1]
    for k in range(L):
        block = a[..., (1 << k) : (1 << (k + 1))] * 2.0 ** (k / 2.0)
        up = np.empty(a.shape[:-1] + (1 << (k + 1),), dtype=a.dtype)
        up[..., 0::2] = vals + block
        up[..., 1::2] = vals - block
        vals = up
    return np.moveaxis(vals, -1, axis)


def _fold_up_moveaxis(values: np.ndarray, axis: int, L: int, pair) -> np.ndarray:
    """`transforms._fold_up` as it was written with np.moveaxis."""
    run = np.moveaxis(values, axis, 0)
    out = np.empty_like(run)
    for k in range(L - 1, -1, -1):
        out[1 << k : 2 << k], run = pair(run[0::2], run[1::2], k)
    out[0] = run[0]
    return np.moveaxis(out, 0, axis)


def _fold_down_moveaxis(coeffs: np.ndarray, axis: int, L: int, children) -> np.ndarray:
    """The coarse-to-fine fold as it was written with np.moveaxis: by
    `_op_pair(op)` the fold of `transforms._spread`, by `_haar_children`
    the Haar synthesis."""
    a = np.moveaxis(coeffs, axis, 0)
    run = a[0:1]
    for k in range(L):
        left, right = children(run, a[1 << k : 2 << k], k)
        run = np.empty((2 * len(left),) + left.shape[1:], dtype=left.dtype)
        run[0::2] = left
        run[1::2] = right
    return np.moveaxis(run, 0, axis)


def _op_pair(op):
    """`transforms._op_pair(op)`, and the children of the fold of
    `transforms._spread`, returning values: op(a, b) is both blocks, the
    slots and the run, or the two children."""
    def pair(a, b, k):
        run = op(a, b)
        return run, run
    return pair


def _haar_pair(even, odd, k):
    return (even - odd) * 2.0 ** (k / 2.0), even + odd


def _step_pair(even, odd, k):
    run = even + odd
    return run * 2.0 ** (k / 2.0), run


def _haar_children(run, block, k):
    block = block * 2.0 ** (k / 2.0)
    return run + block, run - block
