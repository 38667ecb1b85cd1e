"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed swings by up to 2x, for
seconds to minutes at a time, and the wall time of a whole run swings with
it.  A fixed reference loop, timed right next to the program in the same
thread, slows by about as much.  So every time the benchmark reports is
scaled to a host on which the reference loop takes ``REF_MS`` ms:

    scaled = wall * REF_MS / ref

where ``ref`` is the mean of the reference times taken just before, during
and just after the timed call.  During a call the loop is timed every
``PERIOD_S`` seconds from a ``SIGALRM`` handler, so that a call of many
seconds is scaled by the host's speed over its whole length; the handler's
own time is taken off the call's wall time.

The loop allocates no container objects, so it never sets off the garbage
collector.  Its data is small enough to stay in the core's cache, and the
best of two timings is kept, so its time depends on the core's speed and
not on what the program left in the cache.  It is the benchmark's code, so
a change to the program does not change it.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time

# The loop's best time on a 2-vCPU x86 VM while that host ran fast.
REF_MS = 1.0
PERIOD_S = 0.5

_rng = random.Random(0)
_ROWS = tuple(
    (f"P{_rng.randint(0, 3000):05d}", f"S{_rng.randint(0, 50):03d}",
     _rng.randint(1, 30), _rng.choice("ABCD"))
    for _ in range(1000)
)
_PROGRAMS = frozenset(r[0] for r in _ROWS[::3])
_VALUE = {r[0]: r[2] for r in _ROWS}


def _loop() -> int:
    n = 0
    for _ in range(20):
        for p, s, v, c in _ROWS:
            if p in _PROGRAMS and v >= 10 and c != "B":
                n += _VALUE[p] + len(s)
    return n


def ref_seconds() -> float:
    """The best of two timings of the reference loop."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(wall: float, ref: float) -> float:
    """``wall`` seconds measured while the loop took ``ref`` seconds, scaled
    to a host on which the loop takes ``REF_MS`` ms."""
    return wall * REF_MS / 1000 / ref


class Meter:
    """Times calls together with the reference loop around and during them.

    With ``period`` None the loop is timed only between calls, as the traced
    run needs: a handler firing inside a traced span would count as that
    span's own time.
    """

    def __init__(self, period: float | None = PERIOD_S):
        self.period = period
        self.samples = [ref_seconds()]
        self._spent = 0.0
        self._armed = False

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(ref_seconds())
        self._spent += time.perf_counter() - t0
        # One-shot, armed again only now, so that ticks never nest, and
        # never once the call has returned.
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def time(self, fn, *args):
        """Call ``fn(*args)``; returns its result, its wall seconds less the
        handler's, and the mean reference time over the call."""
        first = len(self.samples) - 1
        spent = self._spent
        previous = None
        if self.period:
            previous = signal.signal(signal.SIGALRM, self._tick)
        t0 = time.perf_counter()
        if self.period:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.period)
        try:
            out = fn(*args)
        finally:
            if self.period:
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0 - (self._spent - spent)
            if self.period:
                signal.signal(signal.SIGALRM, previous)
        self.samples.append(ref_seconds())
        return out, wall, statistics.fmean(self.samples[first:])
