"""Dyadic H^1, dyadic BMO, and a certified product-BMO lower bound."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .families import AdaptedFamily
from .signals import Signal, lp_norm
from .transforms import _per_rectangle, _rectangle_weights, _spread
from .transforms import coefficients, lattice_rectangles


def _extended_square(f: Signal) -> np.ndarray:
    """Square function including the mean blocks as a coarsest-scale layer.

    Mean slots enter with the full axis as their support, so the
    aggregation covers the complete orthonormal decomposition and the H^1
    norm below stays faithful for signals that are not mean zero.
    """
    field = coefficients(f, AdaptedFamily.haar(f.d))
    acc = field.tensor**2 * _rectangle_weights(f.d, f.L, 1.0, means=True)
    for axis in range(f.d):
        acc = _spread(acc, axis, f.L, np.add)
    return np.sqrt(acc)


def h1_norm(f: Signal) -> float:
    """||f||_1 plus the L^1 norm of the complete Haar square function."""
    sq = Signal(f.d, f.L, _extended_square(f))
    return lp_norm(f, 1.0) + lp_norm(sq, 1.0)


def bmo_norm_1param(f: Signal) -> float:
    """sup over dyadic J of (|J|^-1 sum_{I in J} <f, h_I>^2)^(1/2)."""
    if f.d != 1:
        raise ContractError("one-parameter BMO norm needs d = 1")
    field = coefficients(f, AdaptedFamily.haar(1))
    L = f.L
    best = 0.0
    cum = None
    # bottom-up cumulative coefficient energy per interval
    for k in range(L - 1, -1, -1):
        own = field.tensor[(1 << k) : (1 << (k + 1))] ** 2
        cum = own if cum is None else own + cum[0::2] + cum[1::2]
        best = max(best, float(cum.max()) * 2.0**k)
    return float(np.sqrt(best))


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


def product_bmo_lower(f: Signal, budget: int = 16) -> float:
    """Certified lower bound for the product-BMO norm of f.

    Maximizes (|U|^-1 sum_{R in U} <f, h_R>^2)^(1/2) over single lattice
    rectangles and over greedy unions grown by the rectangle with the best
    marginal energy per added measure, for at most `budget` steps.  The
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

    def with_rect(mask, rect):
        grown = mask.copy()
        grown[rect.cell_slices(L)] = True
        return grown

    marked = np.zeros(f.values.shape, dtype=bool)
    exact = len(rects) ** 2 * marked.size <= _EXACT_GREEDY_OPS

    # single rectangles; own coefficient alone already certifies a bound
    best = float(np.max(energies / (counts * cell)))
    if exact:
        best = max(best, max(region_value(with_rect(marked, r)) for r in rects))

    current = 0.0
    for _ in range(max(budget, 0)):
        added = _per_rectangle((~marked).astype(np.intp), L, np.add)
        if exact:
            covered = np.array(
                [_per_rectangle(with_rect(marked, r), L, np.logical_and) for r in rects]
            )
            gains = covered @ energies - current
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
