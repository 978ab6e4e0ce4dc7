"""Discrete signals on uniform 2^L grids with L^p and weak-L^r norms.

A signal stores one value per grid cell of the unit torus [0, 1)^d
(row-major over axes); every cell has measure 2^(-dL).  Values are copied
on construction and kept read-only, so signals can be shared freely.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass(frozen=True, eq=False)
class Signal:
    """Signals compare and hash by identity.  `_fields` holds the
    coefficient field of each family that `transforms.coefficients` has
    derived from this signal; it lives exactly as long as the signal."""

    d: int
    L: int
    values: np.ndarray
    _fields: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.d < 1:
            raise ContractError("parameter count d must be >= 1")
        if not 0 <= self.L <= level_cap(self.d) + 1:
            raise ContractError(
                f"resolution L={self.L} outside [0, {level_cap(self.d) + 1}] for d={self.d}"
            )
        arr = np.array(_real(self.values, "signal values"), dtype=float, order="C")
        grid = _grid_shape(self.d, self.L)
        if arr.shape != grid:
            if arr.shape != (1 << (self.d * self.L),):
                raise ContractError(
                    f"need 2^{self.d * self.L} values, flat or of shape {grid}, "
                    f"got shape {arr.shape}"
                )
            arr = arr.reshape(grid)
        # count_nonzero skips the Python wrapper of ndarray.all
        if np.count_nonzero(np.isfinite(arr)) != arr.size:
            raise ContractError("signal values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, d: int, L: int) -> "Signal":
        _check_resolution(d, L)
        return cls(d, L, np.zeros(_grid_shape(d, L)))

    @classmethod
    def constant(cls, d: int, L: int, c: float) -> "Signal":
        _check_resolution(d, L)
        return cls(d, L, np.full(_grid_shape(d, L), float(c)))

    @classmethod
    def indicator(cls, rect: DyadicRectangle, L: int) -> "Signal":
        _check_resolution(rect.d, L)
        out = np.zeros(_grid_shape(rect.d, L))
        out[rect.cell_slices(L)] = 1.0
        return cls(rect.d, L, out)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Signal":
        mask = np.asarray(mask)
        d = mask.ndim
        L = int(mask.shape[0]).bit_length() - 1
        return cls(d, L, mask.astype(float))

    # -- basic geometry ------------------------------------------------

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (-self.d * self.L)

    def integral(self) -> float:
        """Correctly rounded integral over the torus."""
        return math.fsum(self.values.ravel()) * self.cell_measure

    # -- arithmetic (all return new signals) ---------------------------

    def _like(self, values: np.ndarray) -> "Signal":
        return Signal(self.d, self.L, values)

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


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


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
    measure = np.arange(a.size, 0, -1) * f.cell_measure
    return float((a * measure ** (1.0 / r)).max())


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
        inv = sum(0.0 if np.isinf(p) else 1.0 / p for p in self.ps)
        if inv == 0.0:
            return float("inf")
        return 1.0 / inv


def conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1, for p in [1, inf]."""
    if not p >= 1:  # also refuses NaN
        raise ContractError(f"conjugate exponent needs p in [1, inf], got {p}")
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return float("inf")
    return p / (p - 1.0)
