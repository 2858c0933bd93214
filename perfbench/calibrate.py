"""Host-speed calibration for the benchmark's timings.

The hosts this benchmark was built on switch between speed states every
few hundred milliseconds (a fixed piece of Python code takes 11.5 ms in
one and 17.7 ms in another), and how much time they spend in each drifts
from minute to minute, so raw run times of identical work spread by
10-15 %.  The cure is to time work in short chunks and to time a fixed
reference kernel between chunks: each chunk's host time is multiplied by
``NOMINAL_S / kernel time`` (the mean of the samples on either side), so
that it reads as the time the chunk would have taken on a host running
the kernel in :data:`NOMINAL_S`.  The kernel is plain Python arithmetic
plus small NumPy convolutions and calls nothing from the program, so a
change to the program moves calibrated times exactly as it moves raw
ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["CHUNK_S", "NOMINAL_S", "Meter", "kernel", "sample"]

#: Reference-kernel seconds on the nominal host (a 2-core x86-64 VM at
#: 2.0 GHz running CPython 3.11 and NumPy 2.4, where the kernel takes
#: 2.3-3.6 ms).  Only the scale of the calibrated numbers depends on it.
NOMINAL_S = 0.003
#: Work between two kernel samples: short against the host's speed
#: states, long against the kernel (which then costs about 6 %).
CHUNK_S = 0.05

_SIGNAL = np.linspace(0.0, 1.0, 64)
_KERNEL = np.linspace(1.0, 0.0, 32)


def kernel() -> int:
    total = 0
    for i in range(30_000):
        total += i * i
    for _ in range(60):
        np.convolve(_SIGNAL, _KERNEL)
    return total


def sample() -> float:
    """Seconds one kernel run takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Meter:
    """Raw and calibrated host time of a unit, added chunk by chunk."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.cal_s = 0.0
        self._before = sample()

    def chunk(self, seconds: float) -> float:
        """Add a chunk that took ``seconds``; returns its calibration factor."""
        after = sample()
        factor = NOMINAL_S / ((self._before + after) / 2.0)
        self._before = after
        self.raw_s += seconds
        self.cal_s += seconds * factor
        return factor
