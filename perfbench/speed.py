"""Interference-corrected timing on a shared machine.

Other tenants of a shared host slow this process's CPU down by up to
about 1.6x, in episodes lasting from a fraction of a second to minutes
(``python3 perfbench/speed.py`` prints a speed profile of the machine).
CPU time rises with wall time during those episodes, so the clock alone
cannot tell them apart from a slower program: identical runs of one seed
took 6.0 to 9.4 s.

:class:`SpeedGauge` samples the CPU's current speed while the benchmark
runs: every ``INTERVAL_S`` a ``SIGALRM`` handler times a fixed
pure-Python loop (the *probe*) in the benchmark's own thread.  Probe
time is excluded from every measured interval, and each interval is
scaled by ``PROBE_REFERENCE_S / local probe time``, the median probe
time around it.  Times are therefore *reference seconds*: host seconds
on a CPU that runs the probe in ``PROBE_REFERENCE_S``.  The same runs
then took 5.0 to 5.7 reference seconds.  A change to the program shows
in full; a change in the machine's speed, whether interference or
another CPU model, largely cancels, so compare records taken on one
machine type (each record names its CPU).
"""

from __future__ import annotations

import signal
import time
from typing import List, NamedTuple, Sequence

import numpy as np

#: Sampling period and probe size: a ~0.3 ms probe every 25 ms costs
#: about 1% of the run, and yields ~20 probes per half second.
INTERVAL_S = 0.025
PROBE_ITERATIONS = 10_000
#: Probes this far either side of an interval count as "around" it.
WINDOW_S = 0.25
#: Probe time that defines the reference CPU speed.  On the 2-vCPU Xeon
#: reference machine the probe takes 0.31-0.33 ms when no other tenant
#: interferes, so there a reference second is about 0.95 host seconds.
PROBE_REFERENCE_S = 3.0e-4


def probe() -> float:
    """Host seconds of a fixed amount of interpreter work."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value
    return time.perf_counter() - started


class Mark(NamedTuple):
    """A point in time plus the probe time spent before it."""

    clock: float
    probe_s: float


class SpeedGauge:
    """Samples CPU speed from a timer signal while in a ``with`` block."""

    def __init__(self) -> None:
        self.probe_s = 0.0
        self.times: List[float] = []
        self.probes: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        elapsed = probe()
        self.times.append(started)
        self.probes.append(elapsed)
        self.probe_s += time.perf_counter() - started

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.probe_s)

    def factors(self, marks: Sequence[Mark]) -> np.ndarray:
        """``PROBE_REFERENCE_S / median probe around`` each interval."""
        times = np.asarray(self.times)
        probes = np.asarray(self.probes)
        clocks = np.array([mark.clock for mark in marks])
        if probes.size == 0:
            return np.ones(clocks.size - 1)
        low = np.searchsorted(times, clocks[:-1] - WINDOW_S)
        high = np.searchsorted(times, clocks[1:] + WINDOW_S)
        local = np.array(
            [
                np.median(probes[lo:hi])
                if hi > lo
                else probes[min(lo, probes.size - 1)]
                for lo, hi in zip(low, high)
            ]
        )
        return PROBE_REFERENCE_S / local


def durations(marks: Sequence[Mark]) -> np.ndarray:
    """Probe-free host seconds between consecutive marks."""
    clocks = np.array([mark.clock for mark in marks])
    probe_s = np.array([mark.probe_s for mark in marks])
    return np.diff(clocks) - np.diff(probe_s)


if __name__ == "__main__":
    # Speed profile of this machine: one character per probe sample,
    # '.' within 10% of the fastest, 'o' within 30%, 'O' slower.
    samples = [probe() for _ in range(2000)]
    fastest = min(samples)
    line = "".join(
        "." if s < 1.1 * fastest else "o" if s < 1.3 * fastest else "O"
        for s in samples
    )
    for start in range(0, len(line), 100):
        print(line[start : start + 100])
