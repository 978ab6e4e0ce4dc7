"""Level-tuple reference implementations, kept as a differential oracle.

These are the original loops over all L^d per-axis level tuples that the
per-axis dyadic spread in `dyadicpara` replaced.  They are slow and, for
mixed norms, materialize an (L,)*d + grid field, so they serve only as a
reference for the tests at small resolutions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dyadicpara import ContractError, ResolutionError, Signal
from dyadicpara.families import AdaptedFamily
from dyadicpara.operators import SQUARE
from dyadicpara.paraproducts import _slot_fields
from dyadicpara.transforms import CoefficientField, coefficients, reconstruct


def _level_tuples(d: int, L: int):
    return itertools.product(range(L), repeat=d)


def _level_block(field: CoefficientField, levels: tuple) -> np.ndarray:
    """Coefficients of all rectangles with the given per-axis levels."""
    slices = tuple(slice(1 << k, 1 << (k + 1)) for k in levels)
    return field.tensor[slices]


def _upsample(block: np.ndarray, levels, L: int) -> np.ndarray:
    out = block
    for axis, k in enumerate(levels):
        out = np.repeat(out, 1 << (L - k), axis=axis)
    return out


def _collection_masks(collection, d: int, L: int) -> dict:
    """Per level tuple, a boolean membership array over positions."""
    masks = {}
    for rect in collection.members:
        levels = rect.levels
        if max(levels) >= L:
            raise ResolutionError(
                f"rectangle {rect.to_json()} is finer than the coefficient "
                f"lattice at resolution {L}"
            )
        if levels not in masks:
            masks[levels] = np.zeros([1 << k for k in levels], dtype=bool)
        masks[levels][tuple(a.position for a in rect.axes)] = True
    return masks


def governing_operator(f, spec, collection=None, field=None):
    if spec.d != f.d:
        raise ContractError("operator and signal parameter counts differ")
    if field is None:
        field = coefficients(f, spec.family)
    d, L = f.d, f.L
    masks = None if collection is None else _collection_masks(collection, d, L)
    grid = (1 << L,) * d

    # uniform sigma reduces in-place; mixed sigma materializes one field
    # per level tuple and contracts in the prescribed nesting order
    uniform = len(set(spec.sigma)) == 1
    acc = np.zeros(grid) if uniform else np.zeros((L,) * d + grid)

    for levels in _level_tuples(d, L):
        block = np.abs(_level_block(field, levels))
        scale = 2.0 ** (sum(levels) / 2.0)
        if masks is not None:
            sel = masks.get(levels)
            block = np.zeros_like(block) if sel is None else block * sel
        contrib = _upsample(block, levels, L) * scale
        if uniform and spec.sigma[0] == SQUARE:
            acc += contrib**2
        elif uniform:
            np.maximum(acc, contrib, out=acc)
        else:
            acc[levels] = contrib

    if uniform:
        return Signal(d, L, np.sqrt(acc) if spec.sigma[0] == SQUARE else acc)

    # innermost norm first: traverse the permutation from the inside out
    remaining = list(range(d))
    for coord in reversed(spec.pi):
        axis = remaining.index(coord)
        if spec.sigma[coord] == SQUARE:
            acc = np.sqrt(np.sum(acc**2, axis=axis))
        else:
            acc = np.max(acc, axis=axis)
        remaining.pop(axis)
    return Signal(d, L, acc)


def eval_B(spec, fs, collection=None):
    if len(fs) != 2:
        raise ContractError("expected 2 input signals")
    fields = _slot_fields(spec, fs)
    d, L = fs[0].d, fs[0].L
    n = 2
    out_family = spec.families[-1]
    masks = None if collection is None else _collection_masks(collection, d, L)

    weights = np.zeros(((1 << L),) * d)
    for levels in _level_tuples(d, L):
        prod = _level_block(fields[0], levels).copy()
        for field in fields[1:]:
            prod = prod * _level_block(field, levels)
        if masks is not None:
            sel = masks.get(levels)
            prod = np.zeros_like(prod) if sel is None else prod * sel
        scale = 2.0 ** (sum(levels) * (n - 1) / 2.0)
        slices = tuple(slice(1 << k, 1 << (k + 1)) for k in levels)
        weights[slices] = prod * scale

    if out_family.is_orthonormal_basis:
        return reconstruct(CoefficientField(d, L, out_family, weights))
    out = np.zeros(((1 << L),) * d)
    for levels in _level_tuples(d, L):
        slices = tuple(slice(1 << k, 1 << (k + 1)) for k in levels)
        block = weights[slices]
        if not np.any(block):
            continue
        synth = block
        for axis in range(d):
            mat = out_family.profile_matrix(axis, L)[slices[axis]]
            synth = np.moveaxis(np.tensordot(synth, mat, axes=(axis, 0)), -1, axis)
        out += synth
    return Signal(d, L, out)


def _abs_products(spec, fs, collection):
    fields = _slot_fields(spec, fs)
    d, L = fs[0].d, fs[0].L
    masks = None if collection is None else _collection_masks(collection, d, L)
    for levels in _level_tuples(d, L):
        prod = np.abs(_level_block(fields[0], levels))
        for field in fields[1:]:
            prod = prod * np.abs(_level_block(field, levels))
        if masks is not None:
            sel = masks.get(levels)
            prod = np.zeros_like(prod) if sel is None else prod * sel
        yield levels, prod


def eval_Lambda(spec, fs, collection=None) -> float:
    if len(fs) != 3:
        raise ContractError("expected 3 input signals")
    n = 2
    terms = []
    for levels, prod in _abs_products(spec, fs, collection):
        scale = 2.0 ** (sum(levels) * (n - 1) / 2.0)
        terms.append(float(prod.sum()) * scale)
    return math.fsum(terms)


def eval_L(spec, fs, collection=None):
    if len(fs) != 3:
        raise ContractError("expected 3 input signals")
    d, L = fs[0].d, fs[0].L
    n = 2
    acc = np.zeros(((1 << L),) * d)
    for levels, prod in _abs_products(spec, fs, collection):
        scale = 2.0 ** (sum(levels) * (n + 1) / 2.0)
        acc += _upsample(prod, levels, L) * scale
    return Signal(d, L, acc)


def _extended_square(f) -> np.ndarray:
    field = coefficients(f, AdaptedFamily.haar(f.d))
    L, d = f.L, f.d
    acc = np.zeros(((1 << L),) * d)
    # extended per-axis slots: -1 denotes the mean block (support [0,1))
    for levels in itertools.product(range(-1, L), repeat=d):
        slices = tuple(
            slice(0, 1) if k < 0 else slice(1 << k, 1 << (k + 1)) for k in levels
        )
        block = field.tensor[slices]
        inv_measure = 2.0 ** sum(max(k, 0) for k in levels)
        up = block**2 * inv_measure
        for axis, k in enumerate(levels):
            up = np.repeat(up, 1 << (L - max(k, 0)), axis=axis)
        acc += up
    return np.sqrt(acc)
