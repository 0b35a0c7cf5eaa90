"""Scaling of measured times to a reference host speed.

The host the benchmark runs on is shared, and its speed drifts by up to
half, within a second or for minutes, as other tenants load it; that drift
swamps the differences a change to the program makes.  A short fixed slice
of rational arithmetic, timed often, measures the host's current speed, and
measured times are scaled by it.  This module imports nothing from
``congame`` and nothing heavy, so a fresh interpreter timing set-up can use
it too.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

# The slice takes about REFERENCE_SLICE_S on the 2-vCPU host the bounds
# were set on, and runs every SLICE_EVERY_S.  The host's speed can halve and
# recover within a second, so the slices are short and frequent.
SLICE_REPS = 2
REFERENCE_SLICE_S = 0.005
SLICE_EVERY_S = 0.1


def reference_slice() -> float:
    """Wall time of a fixed slice of Gauss-Jordan elimination over small
    Fractions, the kind of pivoting the simplex does.  It runs with the
    collector off, so that objects the program keeps alive do not slow it,
    and it runs no congame code, so only the host's speed moves it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for rep in range(SLICE_REPS):
            rows = [[Fraction((3 * i + 5 * j + rep) % 11 - 5, 1 + (i * j + rep) % 4) for j in range(9)]
                    for i in range(8)]
            for col in range(8):
                pivot = next((r for r in range(col, 8) if rows[r][col]), None)
                if pivot is None:
                    continue
                rows[col], rows[pivot] = rows[pivot], rows[col]
                inverse = 1 / rows[col][col]
                rows[col] = [value * inverse for value in rows[col]]
                for r in range(8):
                    factor = rows[r][col]
                    if r != col and factor:
                        rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostScale:
    """Scales job times to the reference host speed.

    A reference slice runs every ``SLICE_EVERY_S``:
    between jobs, and with ``interrupt`` also inside a job, from a timer
    signal, so that a job of seconds is sampled throughout.  A job's time is
    its wall time less the slices run inside it; its scaled time multiplies
    that by ``REFERENCE_SLICE_S`` over the mean of the slices from the last
    one before the job to the first one after it.  Scaled times are in
    seconds at the host speed where the slice takes ``REFERENCE_SLICE_S``.
    """

    def __init__(self, interrupt: bool) -> None:
        self.interrupt = interrupt
        self.slices: list[tuple[float, float]] = []  # (start, seconds)
        self.jobs: list[tuple[float, float, float]] = []  # (start, end, seconds less slices)
        self._slicing = False

    def __enter__(self) -> "HostScale":
        self._slice()
        if self.interrupt:
            self._previous_handler = signal.signal(signal.SIGALRM, self._slice)
            signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self._slice()

    def _slice(self, *_signal) -> None:
        if not self._slicing:  # a late timer signal during a slice
            self._slicing = True
            self.slices.append((time.perf_counter(), reference_slice()))
            self._slicing = False

    def add(self, start: float, end: float) -> float:
        """Record a job run from ``start`` to ``end``; returns its wall time
        less the slices run inside it."""
        i = len(self.slices)
        while i and self.slices[i - 1][0] >= start:
            i -= 1
        seconds = end - start - sum(d for _, d in self.slices[i:])
        self.jobs.append((start, end, seconds))
        if end - self.slices[-1][0] >= SLICE_EVERY_S:
            self._slice()
        return seconds

    def scaled(self) -> list[float]:
        """Each job's scaled time; call after leaving the context."""
        starts = [start for start, _ in self.slices]
        cumulative = [0.0]
        for _, seconds in self.slices:
            cumulative.append(cumulative[-1] + seconds)
        out = []
        for start, end, seconds in self.jobs:
            lo = bisect.bisect_right(starts, start) - 1
            hi = bisect.bisect_left(starts, end) + 1
            out.append(seconds * REFERENCE_SLICE_S * (hi - lo) / (cumulative[hi] - cumulative[lo]))
        return out

    def scales(self) -> list[float]:
        return [REFERENCE_SLICE_S / seconds for _, seconds in self.slices]
