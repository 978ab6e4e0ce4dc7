"""The per-rectangle decomposition internals, kept as a differential oracle.

`classify_rectangles` used to build one `DyadicRectangle` and one scalar
label per lattice rectangle, `_group_classes` keyed a dict by the label
tuple of each rectangle, `hypothesis_holds` took one `np.partition` per
member, and `shadow_mask` and `_collection_slots` looped over the members.
The package now does each of these on coefficient-layout tensors; these
copies of the old functions, unchanged (the method `shadow_mask` as a
function of the collection), serve the tests.

Three smaller pieces are kept the same way: the slot table that
`RectangleCollection._levels_slots` built before it kept the index tuple
and the top level, `_mth_largest` before its block-maximum shortcut at
m = 1, and `lp_norm` before it kept its result on the signal.

One known difference: at `frac * cells >= cells - 1` the old
`hypothesis_holds` reads the partition at index `-1`, the largest value, so
with `frac = 1` it can report a hypothesis that always holds as failing.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from dyadicpara.decomposition import DEFAULT_CLAMP, FRACTION
from dyadicpara.errors import ContractError, ResolutionError
from dyadicpara.lattice import DyadicInterval, DyadicRectangle, RectangleCollection
from dyadicpara.operators import OperatorSpec, governing_operator
from dyadicpara.signals import Signal


def _block_quantiles(values: np.ndarray, levels, L: int, frac: float) -> np.ndarray:
    """Per rectangle of the level tuple, the m-th largest cell value with
    m = ceil(frac * cells); exceeding threshold t on >= frac of R is
    equivalent to this quantile exceeding t."""
    d = values.ndim
    shape = []
    for k in levels:
        shape.extend([1 << k, 1 << (L - k)])
    v = values.reshape(shape)
    order = [2 * a for a in range(d)] + [2 * a + 1 for a in range(d)]
    v = np.transpose(v, order).reshape([1 << k for k in levels] + [-1])
    cells = v.shape[-1]
    m = math.ceil(cells * frac)
    return np.partition(v, cells - m, axis=-1)[..., cells - m]


def _greatest_level(q: float, kappa: float, clamp: int) -> Optional[int]:
    """Largest integer l with kappa * 2^l < q, clamped to [-clamp, clamp];
    None when q <= 0 (no level set reaches the fraction)."""
    if q <= 0.0:
        return None
    ell = int(math.floor(math.log2(q / kappa)))
    while kappa * 2.0**ell >= q:
        ell -= 1
    while kappa * 2.0 ** (ell + 1) < q:
        ell += 1
    return max(min(ell, clamp), -clamp)


def classify_rectangles(
    f: Signal,
    op: OperatorSpec,
    kappa: float,
    frac: float = FRACTION,
    clamp: int = DEFAULT_CLAMP,
    values: Optional[Signal] = None,
) -> dict:
    """Label each lattice rectangle with the greatest l such that
    |R intersect {T f > kappa 2^l}| >= frac * |R|  (None if no l works)."""
    g = values if values is not None else governing_operator(f, op)
    labels = {}
    for levels in itertools.product(range(g.L), repeat=g.d):
        qs = _block_quantiles(g.values, levels, g.L, frac)
        for pos in itertools.product(*[range(1 << k) for k in levels]):
            rect = DyadicRectangle(
                tuple(DyadicInterval(k, p) for k, p in zip(levels, pos))
            )
            labels[rect] = _greatest_level(float(qs[pos]), kappa, clamp)
    return labels


def _effective(label: Optional[int], clamp: int) -> int:
    return -clamp if label is None else label


def _member_quantiles(t_values: Signal, collection: RectangleCollection, frac: float = FRACTION):
    """Per member R, the m-th largest value of T on R with
    m = floor(frac * cells) + 1: |R intersect {T > t}| <= frac |R| iff this
    quantile is <= t.  Lazy, so a caller may stop at the first member."""
    for rect in collection.members:
        block = t_values.values[rect.cell_slices(t_values.L)].ravel()
        m = math.floor(block.size * frac) + 1
        yield float(np.partition(block, block.size - m)[block.size - m])


def hypothesis_holds(
    t_values: Signal,
    collection: RectangleCollection,
    threshold: float,
    frac: float = FRACTION,
) -> bool:
    """True iff |R intersect {T > threshold}| <= frac |R| for all members."""
    return not any(q > threshold for q in _member_quantiles(t_values, collection, frac))


def _group_classes(labels_list, lattice, clamp, leading: int):
    """Split rectangles into main classes (all `leading` front labels <= 0,
    keyed by the full label vector) and leftover classes keyed by the front
    labels whenever one of them is positive."""
    main, leftover = {}, {}
    for rect in lattice:
        ells = tuple(_effective(lab[rect], clamp) for lab in labels_list)
        if all(e <= 0 for e in ells[:leading]):
            main.setdefault(ells, []).append(rect)
        else:
            leftover.setdefault(ells[:leading], []).append(rect)
    return main, leftover


def shadow_mask(collection: RectangleCollection) -> np.ndarray:
    """Boolean grid marking every cell covered by some member."""
    d = collection.d if collection.members else 1
    out = np.zeros(((1 << collection.L),) * d, dtype=bool)
    for r in collection.members:
        out[r.cell_slices(collection.L)] = True
    return out


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


def levels_slots(collection: RectangleCollection) -> tuple:
    """(levels, slots): per member and axis, the interval level k and its
    slot 2^k + j."""
    d = collection.d or 1
    axes = [a for r in collection.members for a in r.axes]
    levels = np.array([a.level for a in axes], dtype=np.intp).reshape(-1, d)
    positions = np.array([a.position for a in axes], dtype=np.intp).reshape(-1, d)
    return levels, (1 << levels) + positions


def mth_largest(v: np.ndarray, frac: float) -> np.ndarray:
    """Over the last axis of `v` (a copy, partitioned in place), the m-th
    largest value, m = ceil(frac * length), which exceeds a threshold t iff
    t is exceeded on >= frac of the entries."""
    cells = v.shape[-1]
    m = math.ceil(cells * frac)
    v.partition(cells - m, axis=-1)
    return v[..., cells - m]


def lp_norm(f: Signal, p: float) -> float:
    """(integral |f|^p)^(1/p) with cell-measure weighting; p=inf gives sup."""
    if not p > 0:  # also refuses NaN
        raise ContractError("exponent p must be positive")
    a = np.abs(f.values)
    if math.isinf(p):
        return float(a.max()) if a.size else 0.0
    with np.errstate(over="ignore"):
        value = float(((a**p).sum() * f.cell_measure) ** (1.0 / p))
    if value == 0.0 or math.isinf(value):
        # a**p may have left the float range: take powers of |f| / max|f|
        m = float(a.max())
        if m > 0.0:
            value = m * float((((a / m) ** p).sum() * f.cell_measure) ** (1.0 / p))
    return value
