"""The CPU's current speed, read with a fixed reference kernel.

On a shared host the speed a process gets moves between levels up to 1.4x
apart, each lasting from under a second to minutes, and it moves
pure-Python and numpy work alike.  A 30-second run lands on whichever plateaus are current, so raw
times from two runs of the same code differ by more than a regression would.

The benchmark therefore runs `kernel_s()` (about 1.5 ms of interpreted
dict/tuple work plus a numpy gather, touching nothing of homoca) before
every operation and every IN_OP_INTERVAL_S inside a long one, and scales
each time it reports to the speed of the reference machine:

    scaled = measured * REF_KERNEL_S / (median kernel time during the interval)

A change that makes homoca faster or slower shows in full, because the
kernel does not run homoca's code.  The raw times are kept next to the
scaled ones in the result file.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

import numpy as np

# kernel_s() on the machine the benchmark was defined on, in a quiet stretch
# (2 vCPUs of a shared x86-64 host, Python 3.11.7, numpy 2.4.6); between
# ops it reads 1.4-2.1 ms there, so scaled times run below raw ones
REF_KERNEL_S = 1.5e-3
# seconds between the samples a timer takes inside an op
IN_OP_INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
_TABLE = _rng.integers(0, 1 << 16, 1 << 18)
_INDEX = _rng.integers(0, 1 << 18, 1 << 16)
_KEYS = [(i % 17, (i * 7) % 31) for i in range(400)]


def kernel_s() -> float:
    """Seconds one pass of the reference kernel takes right now."""
    start = time.perf_counter()
    table: dict = {}
    for _ in range(4):
        for a, b in _KEYS:
            table[a, b] = table.get((b % 17, a), 0) + a * b
    sorted(table.items())
    int(_TABLE[_INDEX].sum())
    return time.perf_counter() - start


class SpeedLog:
    """Kernel samples over a run, in time order.

    Between `arm()` and `disarm()` a timer takes a sample every
    IN_OP_INTERVAL_S as well, so that a long op is scaled by the speed it
    actually ran at; `in_op_s(start, end)` is the time those samples took
    out of an interval, for the caller to subtract."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._in_op: list[tuple[float, float]] = []  # (start, seconds)

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t = time.perf_counter()
            kernel_s()  # the first run after an op reads cold caches
            self.samples.append(kernel_s())
            self.times.append(t)

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, IN_OP_INTERVAL_S, IN_OP_INTERVAL_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _on_alarm(self, signum, frame) -> None:
        t = time.perf_counter()
        self.sample()
        self._in_op.append((t, time.perf_counter() - t))

    def in_op_s(self, start: float, end: float) -> float:
        return sum(s for t, s in self._in_op if start <= t < end)

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to reference speed,
        from the samples inside it and the nearest one either side: the
        speed can change within a second, so farther samples only blur it."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        return REF_KERNEL_S / statistics.median(self.samples[lo:hi])


def pin_to_one_cpu() -> None:
    """Stay on the highest-numbered CPU this process may use.  On a shared
    host the CPUs can differ in speed by a third, so a process the scheduler
    moves between them times a mixture of both.  Children inherit the pin,
    so the benchmark's processes all share one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
