"""Host-speed calibration of timed passes and import probes.

The benchmark runs on a few cores of a shared host whose speed changes by
up to half over tens of seconds, as other tenants come and go, so two
runs of the same code minutes apart read very differently.  A fixed
kernel that shares no code with the package is therefore timed next to
the timings it calibrates: by a worker of a workload marked ``scaled``
in workloads.py, before each configuration of a pass and after its last
one (outside the pass's time), and by each import probe right after its
import.  The speed factor is ``REFERENCE_S`` over the median of those
kernel times, and the scaled time is the wall time times that factor:
wall seconds on a host on which the kernel takes ``REFERENCE_S``.  A
change to the package moves the scaled time as it moves the wall time;
the wall times are kept beside the scaled ones in ``.bench_results/``.

The kernel is many small numpy calls plus medium array reshaping and
indexing.  Its slowdowns tracked those of acceptance-mix passes and of
the import about as well as any mix tried, and far better than
pure-Python dict work did; its arrays are small, so a worker's peak
memory stays its own.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# sets the scale only: on the host the baseline was recorded on (2 vCPUs,
# x86_64, python 3.11, numpy 2.4 with one OpenBLAS thread) the kernel's
# median was about 5.5 ms in workers and 8 ms in fresh import probes
REFERENCE_S = 0.007
SAMPLES_PER_CALL = 3

_rng = np.random.default_rng(20240817)
_SMALL = _rng.standard_normal(4096)
_BLOCK = _rng.standard_normal((64, 64))
_ROWS = _rng.integers(0, 128, 512)


def kernel() -> float:
    """Seconds taken by one run of the fixed kernel."""
    start = time.perf_counter()
    for _ in range(600):
        np.abs(_SMALL.reshape(64, 64)).sum(axis=0)
    for _ in range(6):
        cells = np.repeat(np.repeat(_BLOCK, 2, axis=0), 2, axis=1)
        np.maximum(cells[_ROWS], 0.5).sum()
    return time.perf_counter() - start


def sample(out: list) -> None:
    """Appends SAMPLES_PER_CALL kernel timings to `out`."""
    out.extend(kernel() for _ in range(SAMPLES_PER_CALL))


def speed_factor(samples) -> float:
    """Multiplier from wall seconds to reference-host seconds."""
    return REFERENCE_S / statistics.median(samples)
