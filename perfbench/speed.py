"""CPU-speed probe: a fixed kernel whose time rescales task times to one speed.

Small shared machines change speed under a benchmark: on a 2-CPU sandbox the
same pure-Python loop ran anywhere from 1x to 1.8x its fastest time, in
phases lasting tens of seconds. The slowdown hit the library's dict-and-tuple
loops and its NumPy fancy indexing by the same factor (their ratio stayed
within about 4%), so timing a fixed kernel while the tasks run measures the
factor, and dividing by it makes runs at different moments comparable. The
kernel never calls the library, so no change to the library can move it.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

# The kernel's time at the reference speed. It only sets the scale: reported
# times are what the task would take where the kernel takes this long.
KERNEL_REF_S = 0.0032

_TABLE = (np.arange(64 * 4).reshape(64, 4) * 37 + 11) % 64


def kernel() -> int:
    """Tuple-keyed dict counting and sorting, then NumPy table lookups over a large array."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i % 613, i & 7)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items())
    cur = np.zeros(8192, dtype=np.int64)
    for a in range(16):
        cur = _TABLE[cur, a % 4]
    return len(ordered) + int(cur[0])


def slowdown(repeats: int = 3) -> float:
    """Current time per unit of work relative to the reference speed (best of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best / KERNEL_REF_S


class SpeedProbe:
    """Probes the slowdown from a timer signal every ``interval`` seconds.

    The handler runs between bytecodes of whatever task is running, so long
    tasks get samples from their inside as well. Time spent in the probe is
    tallied so that it can be taken out of the task times.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.at: list[float] = []  # when each sample ended
        self.value: list[float] = []
        self.spent = 0.0

    def sample(self, *_):
        t0 = perf_counter()
        value = slowdown()
        t1 = perf_counter()
        self.spent += t1 - t0
        self.at.append(t1)
        self.value.append(value)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def slowdown_between(self, t0: float, t1: float) -> float:
        """Mean of the samples taken in ``[t0, t1]`` and the nearest one on either side."""
        lo = max(bisect.bisect_left(self.at, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.at, t1) + 1, len(self.value))
        return sum(self.value[lo:hi]) / (hi - lo)
