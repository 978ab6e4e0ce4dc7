"""Adapted function families: one unit-L^2 profile per dyadic interval.

A family is its kind, its parameter count d and its per-coordinate zero
pattern; it produces, for every rectangle, a tensor product of
one-variable profiles.  Four kinds are supported:

  haar            step profile h_I = |I|^(-1/2) (1 on the left half, -1 on
                  the right half); mean zero by construction
  abs-haar        |h_I| = |I|^(-1/2) 1_I; never mean zero
  gaussian-smooth w(t) = t exp(-t^2/2) in mean-zero coordinates,
                  w0(t) = exp(-t^2/2) otherwise, t = (x - c(I)) / |I|
  gaussian-bump   w0 in every coordinate

Profiles are sampled at cell centers, renormalized to unit L^2 norm on the
grid, and (for coordinates flagged mean zero) corrected to exact zero grid
integral by subtracting a constant on a window of width 4|I| around c(I).
`adaptedness_check` measures every family against one envelope, whose
constants K and N are the module's.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, UnsupportedFamilyError

KINDS = ("haar", "abs-haar", "gaussian-smooth", "gaussian-bump")

# the envelope constants of `adaptedness_check`
K = 1.0
N = 8

_DEFAULT_ZERO = {
    "haar": True,
    "abs-haar": False,
    "gaussian-smooth": True,
    "gaussian-bump": False,
}


@dataclass(frozen=True)
class AdaptedFamily:
    kind: str
    d: int
    zero_pattern: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown family kind {self.kind!r}")
        if self.d < 1:
            raise ContractError("parameter count d must be >= 1")
        if len(self.zero_pattern) != self.d:
            raise ContractError("zero pattern length must equal d")
        # a truth value would read "no" or 1 as a zero, and 0 or [] as none
        if not {bool, np.bool_}.issuperset(map(type, self.zero_pattern)):
            raise ContractError(f"zero pattern entries must be bools, got {self.zero_pattern!r}")
        # numpy.bool_ entries become bool, which JSON writes and hashing agrees on
        object.__setattr__(self, "zero_pattern", tuple(map(bool, self.zero_pattern)))

    @classmethod
    def haar(cls, d: int) -> "AdaptedFamily":
        return cls("haar", d, (True,) * d)

    @classmethod
    def abs_haar(cls, d: int) -> "AdaptedFamily":
        return cls("abs-haar", d, (False,) * d)

    @classmethod
    def smooth(cls, d: int, zero_pattern=None) -> "AdaptedFamily":
        pattern = (True,) * d if zero_pattern is None else tuple(zero_pattern)
        return cls("gaussian-smooth", d, pattern)

    @classmethod
    def smooth_bump(cls, d: int) -> "AdaptedFamily":
        return cls("gaussian-bump", d, (False,) * d)

    @classmethod
    def make(cls, kind: str, d: int, zero_pattern=None) -> "AdaptedFamily":
        if kind not in KINDS:
            raise ContractError(f"unknown family kind {kind!r}")
        if zero_pattern is None:
            zero_pattern = (_DEFAULT_ZERO[kind],) * d
        return cls(kind, d, tuple(zero_pattern))

    # computed on the first read and kept in the instance dict: the fields
    # never change, and the transforms read both on every call
    @functools.cached_property
    def is_orthonormal_basis(self) -> bool:
        return self.kind == "haar" and all(self.zero_pattern)

    @functools.cached_property
    def is_smooth(self) -> bool:
        return self.kind in ("gaussian-smooth", "gaussian-bump")

    def axis_profile(self, axis: int, k: int, j: int, L: int) -> np.ndarray:
        """Unit-L^2 grid samples of the axis profile for interval (k, j)."""
        zero = self.zero_pattern[axis]
        if self.kind in ("haar", "abs-haar"):
            return _step_profile(k, j, L, zero)
        return _gaussian_profile(k, j, L, zero)

    def profile_matrix(self, axis: int, L: int) -> np.ndarray:
        """Rows 2^k + j hold the (k, j) profile; row 0 is unused (zeros)."""
        return _profile_matrix_cached(self.is_smooth, self.zero_pattern[axis], L)

    def rectangle_profile(self, rect, L: int) -> np.ndarray:
        parts = [
            self.axis_profile(a, iv.level, iv.position, L)
            for a, iv in enumerate(rect.axes)
        ]
        out = parts[0]
        for p in parts[1:]:
            out = np.multiply.outer(out, p)
        return out


def _unit_l2(values: np.ndarray, L: int) -> np.ndarray:
    norm = np.sqrt(np.sum(values**2) * 2.0**-L)
    if norm == 0.0:
        raise UnsupportedFamilyError("degenerate profile with zero norm")
    return values / norm


def _step_row(k: int, j: int, L: int, zero: bool) -> np.ndarray:
    if k >= L:
        raise ContractError(f"step profile at level {k} needs resolution > {k}")
    n = 1 << L
    width = 1 << (L - k)
    out = np.zeros(n)
    lo = j * width
    scale = 2.0 ** (k / 2.0)
    if zero:
        out[lo : lo + width // 2] = scale
        out[lo + width // 2 : lo + width] = -scale
    else:
        out[lo : lo + width] = scale
    out.flags.writeable = False
    return out


# bounded: a row is 2^L floats (64 KiB at L=13), and the caches live as long
# as the process
_ROW_CACHE_SIZE = 256
_step_profile_cached = functools.lru_cache(maxsize=_ROW_CACHE_SIZE)(_step_row)


def _step_profile(k, j, L, zero):
    return _step_profile_cached(int(k), int(j), int(L), bool(zero))


def _gaussian_row(k: int, j: int, L: int, zero: bool) -> np.ndarray:
    if k >= L:
        raise ContractError(f"smooth profile at level {k} needs resolution > {k}")
    n = 1 << L
    xs = (np.arange(n) + 0.5) / n
    c = (j + 0.5) * 2.0**-k
    h = 2.0**-k
    t = (xs - c) / h
    w = t * np.exp(-0.5 * t**2) if zero else np.exp(-0.5 * t**2)
    if zero:
        window = np.abs(xs - c) <= 2.0 * h
        w = w - (w.sum() / window.sum()) * window
    out = _unit_l2(w, L)
    out.flags.writeable = False
    return out


_gaussian_profile_cached = functools.lru_cache(maxsize=_ROW_CACHE_SIZE)(_gaussian_row)


def _gaussian_profile(k, j, L, zero):
    return _gaussian_profile_cached(int(k), int(j), int(L), bool(zero))


def _zero_matrix(n: int) -> np.ndarray:
    """A writable n x n float64 zero matrix on a private anonymous mapping
    without transparent huge pages.

    numpy asks for huge pages on every array of 4 MiB or more, so writing
    the n·L nonzero entries of a step matrix into np.zeros would fault in
    whole 2 MiB pages: all 128 MiB at n = 2^12, against 16 MiB of 4 KiB
    pages.  Pages never written read as zeros and take no memory."""
    buf = mmap.mmap(-1, n * n * 8, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(n, n)


# keyed by what a matrix depends on: smooth or step, the zero flag and L.
# Bounded: a matrix spans 4^L floats of address space (512 MiB at L=13); a
# step matrix keeps only the pages of its diagonal blocks resident (about
# 16 MiB at L=12, 32 MiB at L=13), a smooth one those of its rows' nonzero
# spans (about 66 MiB at L=13).  The C01-C12
# suite configurations need 7 matrices, so each is built once
@functools.lru_cache(maxsize=8)
def _profile_matrix_cached(smooth: bool, zero: bool, L: int) -> np.ndarray:
    n = 1 << L
    out = _zero_matrix(n)
    if smooth:
        # rows come from the uncached builder: the matrix is the only copy
        # kept.  Each is written from its first nonzero entry to its last, so
        # the pages of its underflowed tails are never touched (a tail of
        # -0.0 reads +0.0)
        for k in range(L):
            for j in range(1 << k):
                row = _gaussian_row(k, j, L, zero)
                nonzero = np.flatnonzero(row)
                span = slice(nonzero[0], nonzero[-1] + 1)
                out[(1 << k) + j, span] = row[span]
    else:
        # rows 2^k .. 2^(k+1)-1 cut into 2^k column groups of width w hold
        # the step of (k, j) in group j: one write per level.  The step
        # analysis (transforms._step_analysis_axis) reads no entry of it
        for k in range(L):
            m, w = 1 << k, n >> k
            step = np.full(w, 2.0 ** (k / 2.0))
            if zero:
                step[w // 2 :] *= -1.0
            diag = np.arange(m)
            out[m : 2 * m].reshape(m, m, w)[diag, diag] = step
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Adaptedness verification
# ---------------------------------------------------------------------------


def adaptedness_check(
    family: AdaptedFamily,
    L: int,
    profile_override=None,
) -> dict:
    """Grid sweep of the size/derivative envelopes and the zero flags.

    For each interval the size condition demands
    |phi(x)| <= K |I|^(-1/2) (1/2 + |x - c(I)|/|I|)^(-N) and the derivative
    proxy applies the analogous bound with |I|^(-3/2) to first differences
    scaled by the grid spacing.  Returns the smallest constants that make
    each condition hold, the worst zero-integral defect, and pass flags
    against the module's (K, N).  Step profiles are expected to
    pass only the size condition.
    """
    n = 1 << L
    xs = (np.arange(n) + 0.5) / n
    mids = (xs[:-1] + xs[1:]) / 2.0
    size_K = 0.0
    deriv_K = 0.0
    zero_defect = 0.0
    for axis in range(family.d):
        flagged = family.zero_pattern[axis]
        for k in range(L):
            h = 2.0**-k
            for j in range(1 << k):
                if profile_override is not None:
                    phi = profile_override(axis, k, j, L)
                else:
                    phi = family.axis_profile(axis, k, j, L)
                c = (j + 0.5) * h
                env0 = h**-0.5 * (0.5 + np.abs(xs - c) / h) ** -N
                size_K = max(size_K, float(np.max(np.abs(phi) / env0)))
                dphi = np.diff(phi) * n
                env1 = h**-1.5 * (0.5 + np.abs(mids - c) / h) ** -N
                deriv_K = max(deriv_K, float(np.max(np.abs(dphi) / env1)))
                if flagged:
                    zero_defect = max(
                        zero_defect, abs(float(np.sum(phi)) * 2.0**-L)
                    )
    return {
        "size_constant": size_K,
        "derivative_constant": deriv_K,
        "zero_integral_defect": zero_defect,
        "size_within_declared": size_K <= K,
        "derivative_within_declared": deriv_K <= K,
        "zeros_ok": zero_defect <= 1e-12,
        "K": K,
        "N": N,
    }
