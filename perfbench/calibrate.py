"""Timing that cancels the host's drifting speed.

The benchmark's host (a 2-vCPU VM on a shared machine) switches between
a fast and a slow state, about 1.7 times apart, every few seconds, so
the same pass takes 3.2 to 6.3 s.  ``HostClock`` times a region and,
while it runs, samples how fast the host is: every ``PERIOD_S`` a
SIGALRM handler times a fixed piece of pure-Python work (tuples hashed
into a dict) that shares no code with ``segalspans``.  The region's wall
time, less the time spent in the samples, is scaled by the mean of the
host's sampled speed relative to ``NOMINAL_S``.  The result is the time
the region would take on a host that does the reference work in
``NOMINAL_S``.  A change to the program moves it; a change of the host's
state does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.01
# seconds the reference work takes on a host in the fast state of the
# 2-vCPU Xeon VM the bounds were set on
NOMINAL_S = 0.00025


def _reference_work():
    counts = {}
    for i in range(1000):
        key = (i & 31, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return counts


class HostClock:
    """Context manager: ``wall`` is the region's wall time in seconds and,
    when ``sample`` is true, ``nominal`` the same region in nominal-host
    seconds (see the module docstring)."""

    def __init__(self, sample=True):
        self.sample = sample
        self.samples = []
        self.wall = None
        self.nominal = None

    def _take_sample(self, signum, frame):
        # with the collector off, the caller's young objects do not
        # count in the sample
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _reference_work()
        self.samples.append(perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self):
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._take_sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self._start
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            if not self.samples:
                raise RuntimeError("no host-speed sample taken: region shorter than the sampling period")
            speed = statistics.fmean(NOMINAL_S / t for t in self.samples)
            self.nominal = (self.wall - sum(self.samples)) * speed
        return False
