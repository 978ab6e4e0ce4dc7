"""The L^p norm and the weak-L^r quasinorm as they were first written,
kept as a differential oracle.

`signals.weak_quasinorm` now finds its maximum with one sort instead of a
count of every distinct value, and `signals.lp_norm` reduces with the array
method; both must equal these copies exactly.  The one-sort form is kept as
well, as it was before it read its measure factors from a cached table.
"""

from __future__ import annotations

import math

import numpy as np


def lp_norm_oracle(f, p: float) -> float:
    a = np.abs(f.values)
    if np.isinf(p):
        return float(a.max()) if a.size else 0.0
    with np.errstate(over="ignore"):
        value = float((np.sum(a**p) * f.cell_measure) ** (1.0 / p))
    if value == 0.0 or math.isinf(value):
        m = float(a.max())
        if m > 0.0:
            value = m * float((np.sum((a / m) ** p) * f.cell_measure) ** (1.0 / p))
    return value


def weak_quasinorm_oracle(f, r: float) -> float:
    """max over distinct values a > 0 of a * |{|f| >= a}|^(1/r), from the
    suffix sums of the value counts."""
    a = np.abs(f.values).ravel()
    vals, counts = np.unique(a, return_counts=True)
    if vals[-1] == 0.0:
        return 0.0
    suffix = np.cumsum(counts[::-1])[::-1] * f.cell_measure
    keep = vals > 0
    return float(np.max(vals[keep] * suffix[keep] ** (1.0 / r)))


def weak_quasinorm_sort_form(f, r: float) -> float:
    """max over i of a[i] * ((n - i) cells)^(1/r), with |f| sorted ascending."""
    a = np.sort(np.abs(f.values), axis=None)
    measure = np.arange(a.size, 0, -1) * f.cell_measure
    return float((a * measure ** (1.0 / r)).max())
