"""Discrete signals on uniform 2^L grids with L^p and weak-L^r norms.

A signal stores one value per grid cell of the unit torus [0, 1)^d
(row-major over axes); every cell has measure 2^(-dL).  Values are copied
on construction and kept read-only, so signals can be shared freely.
Inside the package, an array just allocated for a new signal is adopted
instead (`_Adopted`): it passes the same checks, without the copy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .lattice import DEFAULT_LEVEL_CAPS, DyadicRectangle, _json_index, level_cap


def _grid_shape(d: int, L: int) -> tuple:
    return ((1 << L),) * d


def _real(values, what: str) -> np.ndarray:
    """`values` as an array, refused if complex: a float conversion would
    drop the imaginary part with no more than a warning."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise ContractError(f"{what} must be real, got dtype {arr.dtype}")
    return arr


def _check_resolution(d: int, L: int):
    """The range check of `Signal`, for callers about to form a 2^L grid.
    It reads the cap table as `level_cap` does, so that it adds no second
    public call per signal."""
    if d < 1:
        raise ContractError("parameter count d must be >= 1")
    top = DEFAULT_LEVEL_CAPS.get(d, 3) + 1
    if not 0 <= L <= top:
        raise ContractError(f"resolution L={L} outside [0, {top}] for d={d}")


class _Adopted(NamedTuple):
    """An array that the package has just allocated, handed to `Signal` or
    `CoefficientField` in place of values to copy: no one else holds it,
    so the constructor checks it and makes it read-only, together with the
    array that owns its memory, without copying it (unless a signal needs
    it in C order).  `checked` marks a read-only view of cells that have
    already passed a signal's checks: then only the range check runs."""

    array: np.ndarray
    checked: bool = False


def _frozen(arr: np.ndarray) -> np.ndarray:
    """`arr` made read-only, and the array that owns its memory with it, so
    that no view of it can be made writeable again.  An array that owns its
    memory could be, so a view of it is returned in its place."""
    arr.flags.writeable = False
    if arr.base is None:
        return arr.view()
    if isinstance(arr.base, np.ndarray):
        arr.base.flags.writeable = False
    return arr


def _signal_values(d: int, L: int, values) -> np.ndarray:
    """The checks of every signal's values: d and L in range (read through
    `level_cap`); then, unless the values are adopted cells that have
    passed them already, float64 in C order (copied, or adopted with a copy
    only when it is not), 2^(dL) of them, flat or on the grid, all finite.
    The array is returned read-only."""
    if d < 1:
        raise ContractError("parameter count d must be >= 1")
    if not 0 <= L <= level_cap(d) + 1:
        raise ContractError(f"resolution L={L} outside [0, {level_cap(d) + 1}] for d={d}")
    if isinstance(values, _Adopted):
        if values.checked:
            return values.array
        arr = np.ascontiguousarray(values.array, dtype=float)
    else:
        arr = np.array(_real(values, "signal values"), dtype=float, order="C")
    grid = _grid_shape(d, L)
    if arr.shape != grid:
        if arr.shape != (1 << (d * L),):
            raise ContractError(
                f"need 2^{d * L} values, flat or of shape {grid}, got shape {arr.shape}"
            )
        arr = arr.reshape(grid)
    # count_nonzero skips the Python wrapper of ndarray.all
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ContractError("signal values must be finite")
    return _frozen(arr)


@dataclass(frozen=True, eq=False)
class Signal:
    """Signals compare and hash by identity.  `_memo` holds what is derived
    from the values: the coefficient field per family
    (`transforms.coefficients`), the `lp_norm` per exponent, and the level
    sets of `decomposition.hypothesis_holds` per (threshold, frac, leaves).
    Keys of these kinds never compare equal.  The memo lives exactly as
    long as the signal, or is shared with the views of a kept operator
    output (`_shared_view`)."""

    d: int
    L: int
    values: np.ndarray
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", _signal_values(self.d, self.L, self.values))

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, d: int, L: int) -> "Signal":
        _check_resolution(d, L)
        return cls(d, L, _Adopted(np.zeros(_grid_shape(d, L))))

    @classmethod
    def constant(cls, d: int, L: int, c: float) -> "Signal":
        _check_resolution(d, L)
        return cls(d, L, _Adopted(np.full(_grid_shape(d, L), float(c))))

    @classmethod
    def indicator(cls, rect: DyadicRectangle, L: int) -> "Signal":
        _check_resolution(rect.d, L)
        out = np.zeros(_grid_shape(rect.d, L))
        out[rect.cell_slices(L)] = 1.0
        return cls(rect.d, L, _Adopted(out))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Signal":
        mask = np.asarray(mask)
        d = mask.ndim
        L = int(mask.shape[0]).bit_length() - 1
        return cls(d, L, _Adopted(mask.astype(float)))

    # -- basic geometry ------------------------------------------------

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (-self.d * self.L)

    def integral(self) -> float:
        """Correctly rounded integral over the torus."""
        return math.fsum(self.values.ravel()) * self.cell_measure

    # -- arithmetic (all return new signals) ---------------------------

    def _like(self, values: np.ndarray) -> "Signal":
        """A signal on the same grid, adopting `values`, a new array."""
        return Signal(self.d, self.L, _Adopted(values))

    def _check_peer(self, other: "Signal"):
        if (self.d, self.L) != (other.d, other.L):
            raise ContractError("signals live on different grids")

    def __add__(self, other: "Signal") -> "Signal":
        self._check_peer(other)
        return self._like(self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        self._check_peer(other)
        return self._like(self.values - other.values)

    def __mul__(self, scalar: float) -> "Signal":
        return self._like(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Signal":
        return self._like(-self.values)

    def __abs__(self) -> "Signal":
        return self._like(np.abs(self.values))

    def pointwise_mul(self, other: "Signal") -> "Signal":
        self._check_peer(other)
        return self._like(self.values * other.values)

    def restrict(self, mask: np.ndarray) -> "Signal":
        """Zero the signal outside the boolean mask."""
        return self._like(np.where(mask, self.values, 0.0))

    # -- serialization --------------------------------------------------

    def save_csv(self, path):
        Path(path).write_text(
            "\n".join(repr(float(v)) for v in self.values.ravel()) + "\n"
        )

    @classmethod
    def load_csv(cls, path, d: int, L: int) -> "Signal":
        raw = [float(line) for line in Path(path).read_text().split() if line]
        return cls(d, L, np.array(raw))

    def to_json(self):
        return {"d": self.d, "L": self.L, "values": self.values.ravel().tolist()}

    @classmethod
    def from_json(cls, data) -> "Signal":
        return cls(_json_index(data["d"]), _json_index(data["L"]), np.array(data["values"]))

    def save_json(self, path):
        Path(path).write_text(json.dumps(self.to_json()))

    @classmethod
    def load_json(cls, path) -> "Signal":
        return cls.from_json(json.loads(Path(path).read_text()))


def _shared_view(kept: Signal) -> Signal:
    """A new signal on a read-only view of `kept`'s cells, which numpy
    refuses to make writeable, sharing `kept`'s memo: the values are
    equal, so is everything derived from them."""
    out = Signal(kept.d, kept.L, _Adopted(kept.values.view(), checked=True))
    object.__setattr__(out, "_memo", kept._memo)
    return out


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def lp_norm(f: Signal, p: float) -> float:
    """(integral |f|^p)^(1/p) with cell-measure weighting; p=inf gives sup.
    Kept on the signal per exponent, so a second call reads the first."""
    if not p > 0:  # also refuses NaN
        raise ContractError("exponent p must be positive")
    key = float(p)  # a 0-d array exponent is not hashable
    value = f._memo.get(key)
    if value is None:
        value = f._memo[key] = _lp_norm(f, p)
    return value


def _lp_norm(f: Signal, p: float) -> float:
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


def weak_quasinorm(f: Signal, r: float) -> float:
    """sup over lambda of lambda * |{|f| > lambda}|^(1/r).

    The distribution function of a grid signal is a right-continuous step
    function, so the supremum is attained as lambda increases to one of the
    realized values; it equals max over values a of a * |{|f| >= a}|^(1/r).

    One sort finds it: with |f| sorted ascending as a[0..n-1], the set
    {|f| >= a[i]} holds at least n - i cells, exactly n - i at the first of
    equal values, so the products a[i] * ((n - i) cells)^(1/r) reach the
    same maximum.  Zeros contribute 0, and an all-zero signal gives 0.
    """
    if not r > 0:  # also refuses NaN
        raise ContractError("exponent r must be positive")
    a = np.sort(np.abs(f.values), axis=None)
    return float((a * _tail_table(a.size, f.cell_measure, r)).max())


@functools.lru_cache(maxsize=16)
def _tail_table(n: int, cell: float, r: float) -> np.ndarray:
    """((n - i) cells)^(1/r) for i = 0..n-1, the measure factor of
    `weak_quasinorm`, read-only.  At most 16 pairs of grid and exponent
    are kept, 8 bytes per cell each (2 MiB at d=2 L=9)."""
    table = (np.arange(n, 0, -1) * cell) ** (1.0 / r)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class ExponentTuple:
    """Input exponents p_v in (1, inf] and the derived target index."""

    ps: tuple

    def __post_init__(self):
        for p in self.ps:
            if not p > 1:
                raise ContractError("every exponent must lie in (1, inf]")

    @property
    def r(self) -> float:
        return _holder_exponent(self.ps)


def _holder_exponent(ps) -> float:
    """Hoelder's exponent r of 1/r = sum of 1/p over `ps`, an infinite p
    adding 0: inf when every p is infinite."""
    inv = sum(0.0 if math.isinf(p) else 1.0 / p for p in ps)
    return 1.0 / inv if inv else math.inf


def conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1, for p in [1, inf]."""
    if not p >= 1:  # also refuses NaN
        raise ContractError(f"conjugate exponent needs p in [1, inf], got {p}")
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return float("inf")
    return p / (p - 1.0)
