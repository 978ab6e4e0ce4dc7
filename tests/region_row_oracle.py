"""The rectangle-by-cell row path of the region energies, kept as a
differential oracle.

`energy_in_region` and `product_bmo_lower` used to test "rectangle inside the
region" against one boolean row of cells per lattice rectangle, an
`n_rects x n_cells` matrix that reaches 4 GiB at d=2 L=8.  The package now
gathers each region to coefficient layout one axis at a time; these copies of
the old functions, unchanged, serve the tests at small resolutions.
"""

from __future__ import annotations

import numpy as np

from dyadicpara import ContractError, ResourceError, Signal
from dyadicpara.families import AdaptedFamily
from dyadicpara.transforms import coefficients, lattice_rectangles


def _rectangle_energy_rows(f: Signal):
    """Squared Haar coefficient and boolean cell row of each lattice rectangle."""
    n_bytes = ((1 << f.L) - 1) ** f.d << (f.d * f.L)
    if n_bytes > _ROW_MATRIX_BYTES:
        raise ResourceError(
            f"the rectangle-by-cell matrix at d={f.d} L={f.L} needs "
            f"{n_bytes} bytes, over the cap of {_ROW_MATRIX_BYTES}"
        )
    field = coefficients(f, AdaptedFamily.haar(f.d))
    rects = lattice_rectangles(f.d, f.L)
    energies = np.array([field.rectangle_coefficient(r) ** 2 for r in rects])
    rows = np.zeros((len(rects),) + f.values.shape, dtype=bool)
    for row, r in zip(rows, rects):
        row[r.cell_slices(f.L)] = True
    return rects, energies, rows.reshape(len(rects), f.values.size)


def _rows_inside(rows: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Which cell rows lie inside the flat region mask.

    Tested over row chunks of at most _INSIDE_CHUNK_BYTES, so the boolean
    temporary stays small next to the row matrix; a matrix within one
    chunk is tested in a single expression.
    """
    outside = ~flat
    step = max(1, _INSIDE_CHUNK_BYTES // rows.shape[1])
    inside = np.empty(len(rows), dtype=bool)
    for i in range(0, len(rows), step):
        inside[i : i + step] = ~np.any(rows[i : i + step] & outside, axis=1)
    return inside


def energy_in_region(f: Signal, mask: np.ndarray) -> float:
    """Sum of squared Haar coefficients of rectangles inside the region."""
    _, energies, rows = _rectangle_energy_rows(f)
    flat = np.asarray(mask, dtype=bool).ravel()
    return float(energies[_rows_inside(rows, flat)].sum())


# exact-marginal greedy only below this n_rects^2 * n_cells budget
_EXACT_GREEDY_OPS = 1 << 26
# largest n_rects x n_cells boolean matrix the region energies may build
_ROW_MATRIX_BYTES = 1 << 30
# largest rows-by-cells temporary of one inside-the-region test
_INSIDE_CHUNK_BYTES = 1 << 21


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
    _, energies, rows = _rectangle_energy_rows(f)
    n_rects, n_cells = rows.shape
    cell = f.cell_measure
    counts = rows.sum(axis=1)

    def inside_energy(mask):
        return float(energies[_rows_inside(rows, mask)].sum())

    def region_value(mask):
        covered = int(mask.sum())
        return inside_energy(mask) / (covered * cell) if covered else 0.0

    exact = n_rects * n_rects * n_cells <= _EXACT_GREEDY_OPS

    # single rectangles; own coefficient alone already certifies a bound
    best = float(np.max(energies / (counts * cell))) if n_rects else 0.0
    if exact:
        best = max(best, max(region_value(rows[i]) for i in range(n_rects)))

    marked = np.zeros(n_cells, dtype=bool)
    current = 0.0
    for _ in range(max(budget, 0)):
        added = (~marked & rows).sum(axis=1)
        if exact:
            trial = marked | rows
            covered = ~np.any(rows[None, :, :] & ~trial[:, None, :], axis=2)
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
        marked = marked | rows[pick]
        current = inside_energy(marked)
        best = max(best, region_value(marked))
        if marked.all():
            break
    return float(np.sqrt(best))
