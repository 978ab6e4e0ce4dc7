"""The hand-written dyadic tree walks, kept as a differential oracle.

`lattice.maximal_intervals_in_mask` used to find the maximal intervals of a
mask by a stack walk over `DyadicInterval` objects, and `norms.bmo_norm_1param`
summed the coefficient energy of each interval's subtree in its own level
loop.  Both now ask the fold engine: one AND-gather with leaf slots, and one
`_fold_up`.  These copies of the old functions, unchanged, serve the tests:
each new form must equal its walk exactly.
"""

from __future__ import annotations

import numpy as np

from dyadicpara import ContractError, DyadicInterval, Signal
from dyadicpara.families import AdaptedFamily
from dyadicpara.transforms import coefficients


def maximal_intervals_in_mask(mask: np.ndarray) -> list:
    """Maximal dyadic intervals fully covered by a 1-d boolean cell mask.

    The returned intervals are pairwise disjoint and their union is exactly
    the marked set.
    """
    n = mask.shape[0]
    L = int(n).bit_length() - 1
    if (1 << L) != n:
        raise ContractError("mask length must be a power of two")
    found = []
    stack = [DyadicInterval(0, 0)]
    while stack:
        node = stack.pop()
        lo, hi = node.cells(L)
        covered = bool(mask[lo:hi].all())
        if covered:
            found.append(node)
        elif node.level < L and mask[lo:hi].any():
            stack.extend(node.halves())
    return sorted(found)


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
