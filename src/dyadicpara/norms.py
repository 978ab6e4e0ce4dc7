"""Dyadic H^1, dyadic BMO, and a certified product-BMO lower bound."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .families import AdaptedFamily
from .signals import Signal, _Adopted, lp_norm
from .transforms import _fold_up, _gather, _per_rectangle, _spread, _weight_table
from .transforms import coefficients, lattice_rectangles


def _extended_square(f: Signal) -> np.ndarray:
    """Square function including the mean blocks as a coarsest-scale layer.

    Mean slots enter with the full axis as their support, so the
    aggregation covers the complete orthonormal decomposition and the H^1
    norm below stays faithful for signals that are not mean zero.
    """
    field = coefficients(f, AdaptedFamily.haar(f.d))
    acc = field.tensor**2 * _weight_table(f.d, f.L, 1.0, True)
    for axis in range(f.d):
        acc = _spread(acc, axis, f.L, np.add)
    return np.sqrt(acc)


def h1_norm(f: Signal) -> float:
    """||f||_1 plus the L^1 norm of the complete Haar square function."""
    sq = Signal(f.d, f.L, _Adopted(_extended_square(f)))
    return lp_norm(f, 1.0) + lp_norm(sq, 1.0)


def bmo_norm_1param(f: Signal) -> float:
    """sup over dyadic J of (|J|^-1 sum_{I in J} <f, h_I>^2)^(1/2)."""
    if f.d != 1:
        raise ContractError("one-parameter BMO norm needs d = 1")
    energy = coefficients(f, AdaptedFamily.haar(1)).tensor ** 2

    def pair(even, odd, k, slots):  # the coefficient energy of each interval's subtree
        np.add(energy[1 << k : 2 << k], even, out=slots)
        return np.add(slots, odd, out=slots)

    cum = _fold_up(np.zeros(1 << f.L), 0, f.L, pair)
    weighted = cum[1:] * _weight_table(1, f.L, 1.0, False)[1:]
    return float(np.sqrt(weighted.max(initial=0.0)))


def _rectangle_energies(f: Signal):
    """Lattice rectangles and the squared Haar coefficient of each."""
    field = coefficients(f, AdaptedFamily.haar(f.d))
    rects = lattice_rectangles(f.d, f.L)
    return rects, np.array([field.rectangle_coefficient(r) ** 2 for r in rects])


def energy_in_region(f: Signal, mask: np.ndarray) -> float:
    """Sum of squared Haar coefficients of rectangles inside the region."""
    region = np.asarray(mask, dtype=bool)
    if region.shape != f.values.shape:
        raise ContractError(f"region mask shape {region.shape} is not the grid's")
    _, energies = _rectangle_energies(f)
    return float(energies[_per_rectangle(region, f.L, np.logical_and)].sum())


# exact-marginal greedy only below this n_rects^2 * n_cells budget
_EXACT_GREEDY_OPS = 1 << 26
_GREEDY_STEPS = 16


def product_bmo_lower(f: Signal) -> float:
    """Certified lower bound for the product-BMO norm of f.

    Maximizes (|U|^-1 sum_{R in U} <f, h_R>^2)^(1/2) over single lattice
    rectangles and over greedy unions grown by the rectangle with the best
    marginal energy per added measure, for at most `_GREEDY_STEPS` steps.  The
    true norm takes a supremum over all finite-measure sets, so every
    region visited certifies a lower bound; grids too large for the exact
    marginal computation fall back to ranking candidates by their own
    energy per measure, which stays certified.
    """
    if f.d < 2:
        raise ContractError("the product norm needs d >= 2")
    rects, energies = _rectangle_energies(f)
    if not rects:  # a one-cell grid (L = 0) has no rectangle coefficients
        return 0.0
    L, cell = f.L, f.cell_measure
    counts = _per_rectangle(np.ones(f.values.shape, dtype=np.intp), L, np.add)

    def inside_energy(mask):
        return float(energies[_per_rectangle(mask, L, np.logical_and)].sum())

    def region_value(mask):
        covered = int(mask.sum())
        return inside_energy(mask) / (covered * cell) if covered else 0.0

    def inside_each(regions):  # `_per_rectangle` of each region of a stack
        for axis in range(1, f.d + 1):
            regions = _gather(regions, axis, L, np.logical_and)
        return regions[(slice(None),) + (slice(1, None),) * f.d].reshape(len(regions), -1)

    marked = np.zeros(f.values.shape, dtype=bool)
    exact = len(rects) ** 2 * marked.size <= _EXACT_GREEDY_OPS

    # single rectangles; own coefficient alone already certifies a bound
    best = float(np.max(energies / (counts * cell)))
    if exact:
        # every candidate's cells, one grid per rectangle: a one-hot at its
        # slot, OR-spread to the cells as a collection's shadow is
        n = len(rects)
        shapes = np.zeros((n,) + marked.shape, dtype=bool)
        slots = np.unravel_index(np.arange(n), ((1 << L) - 1,) * f.d)
        shapes[(np.arange(n),) + tuple(s + 1 for s in slots)] = True
        for axis in range(1, f.d + 1):
            shapes = _spread(shapes, axis, L, np.logical_or)
        # summed row by row, as `inside_energy` sums: a product rounds otherwise
        singles =[energies[row].sum() for row in inside_each(shapes)]
        best = max(best, float(np.max(singles / (counts * cell))))

    current = 0.0
    for _ in range(_GREEDY_STEPS):
        added = _per_rectangle((~marked).astype(np.intp), L, np.add)
        if exact:
            # which rectangles lie inside marked ∪ R, per candidate R
            gains = inside_each(shapes | marked) @ energies - current
        else:
            gains = np.where(added > 0, energies, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                added > 0, gains / added, np.where(gains > 0, np.inf, 0.0)
            )
        pick = int(np.argmax(ratio))
        if ratio[pick] <= 0.0:
            break
        marked[rects[pick].cell_slices(L)] = True
        current = inside_energy(marked)
        best = max(best, region_value(marked))
        if marked.all():
            break
    return float(np.sqrt(best))
