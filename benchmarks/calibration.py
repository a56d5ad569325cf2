"""Calibration: fixed numpy work, independent of marc_pnc, timed right
before and after every measured operation.

On a shared host the CPU this benchmark runs on swings between its full
speed and about half of it, in phases of a few seconds, and the share of
slow phases drifts from minute to minute, so raw times of the same code
spread by 25-50% between runs.  A swing slows the kernel and the operation
next to it alike, so each operation's time divided by the kernel's time
next to it stays put; multiplied by the kernel's reference time it reads as
seconds on the reference host.  The raw times are kept beside it.

Each workload uses the kernel that does its kind of work: many small-array
calls from Python for the per-frame battery, passes over arrays of a few MB
for the batch kernels.
"""

from __future__ import annotations

import time

import numpy as np


def _scalar_kernel():
    a = np.random.default_rng(0).standard_normal((2, 6)).view(np.complex128)

    def run() -> None:
        for _ in range(1000):
            np.linalg.qr(a)

    return run


def _array_kernel():
    x = np.random.default_rng(0).standard_normal(1 << 19).view(np.complex128)

    def run() -> None:
        for _ in range(6):
            y = x * x.conj() + x
            np.abs(y).argmin()

    return run


#: Kernel factory, and the kernel's time in seconds on the reference host:
#: the fastest of 200 runs on a 2-core Intel Xeon sandbox (Python 3.11, numpy 2.4).
KERNELS = {
    "scalar": (_scalar_kernel, 0.0255),
    "array": (_array_kernel, 0.0150),
}


class Calibration:
    """Times the kernel once now and once after each measured operation."""

    def __init__(self, kind: str) -> None:
        factory, self.reference_s = KERNELS[kind]
        self.kernel = factory()
        self.last = self._time()

    def _time(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """``seconds``, measured just now, as seconds on the reference host.
        Call it right after the measured work; it times the kernel again."""
        before, self.last = self.last, self._time()
        return seconds * 2.0 * self.reference_s / (before + self.last)
