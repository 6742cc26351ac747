"""Machine-speed reference: wall time scaled to a fixed machine speed.

On a shared virtual machine the same code runs up to about 40 % slower
for spells of seconds to minutes while other tenants are busy, so raw
wall times of one build differ between runs by more than any bound a
benchmark could gate on.  A fixed reference kernel, which does not touch
bootperc, is timed between every two measured samples.  A run's factor
is REFERENCE_S over the reference time, averaged over the run with each
sample's share of the measured time as its weight; multiplying a wall
time by it gives seconds on a machine where the kernel takes REFERENCE_S.
A change to bootperc moves the scaled time exactly as it moves wall time.
"""

from __future__ import annotations

import time

import numpy as np

#: mean reference-kernel time on the 2.1 GHz Xeon VM of the first
#: baseline, in its quiet spells
REFERENCE_S = 0.007
_REPEATS = 5
_VECTOR = np.linspace(0.0, 1.0, 20_000)


def reference_kernel() -> None:
    """A pure-Python loop and numpy vector work, the two kinds of work
    bootperc does."""
    total = 0
    for i in range(30_000):
        total += i * i
    y = _VECTOR
    for _ in range(20):
        y = np.logaddexp(y, _VECTOR)


def reference_time() -> float:
    """Mean wall time of a few reference-kernel calls."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        reference_kernel()
    return (time.perf_counter() - start) / _REPEATS


class ReferenceClock:
    """Times samples back to back, with a reference time between each two."""

    def __init__(self):
        self.last = reference_time()
        self.references = [self.last]
        self._wall = 0.0
        self._scaled = 0.0

    def time(self, fn, *args, **kwargs):
        """Call fn(*args, **kwargs); return (result, wall_s)."""
        before = self.last
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        self.last = reference_time()
        self.references.append(self.last)
        self._wall += wall
        self._scaled += wall * 2.0 * REFERENCE_S / (before + self.last)
        return result, wall

    @property
    def factor(self) -> float:
        """Scaled over wall time of every sample so far."""
        return self._scaled / self._wall
