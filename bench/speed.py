"""A periodic speed probe, and times scaled to a reference speed.

On a shared host the speed of one CPU drifts by up to a factor of two over
seconds, for reasons outside this process (measured: a 60 s loop of one
gl_3 verdict had a coefficient of variation of 23 %, and its time correlated
at 0.95 with a fixed pure-Python probe run next to it; scaled by the probe,
the variation fell to 7 %).  So a run keeps a probe going every
PROBE_PERIOD_S on SIGALRM, and every timed interval is reported as

    (wall time of the interval - probe time inside it) * PROBE_REF_S / probe time

where the probe time is the mean of the probes inside the interval and the
nearest one on each side.  The benchmark also probes right before each
verdict, so a verdict shorter than the period is scaled by the probes that
bracket it.  The result is in seconds at the speed at which
the probe takes PROBE_REF_S.  The probe uses only the standard library and
runs with the garbage collector paused, so the program's heap does not
change its cost.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.25
# the probe's time at the reference speed: about its median over runs on a
# 2-CPU Xeon VM, so that scaled times read close to wall times there
PROBE_REF_S = 0.003


def probe() -> float:
    """Time a fixed mix of Fraction arithmetic and tuple-keyed dict updates,
    the operations the library's polynomial code is made of."""
    gc.disable()
    try:
        t = time.monotonic()
        s = Fraction(0)
        for i in range(1, 400):
            s += Fraction(1, i)
        d: dict = {}
        for i in range(3000):
            k = (i % 97, i % 13, i % 7)
            d[k] = d.get(k, 0) + i * i
        return time.monotonic() - t
    finally:
        gc.enable()


class SpeedTrack:
    """Runs the probe every PROBE_PERIOD_S while active; scales intervals."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_):
        """Run the probe now; also called right before each timed verdict."""
        start = time.monotonic()
        self.durations.append(probe())
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the reference speed, probes excluded."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = t1 - t0 - sum(self.durations[lo:hi])
        around = self.durations[max(lo - 1, 0):hi + 1]
        return busy * PROBE_REF_S / statistics.fmean(around)

    def summary(self) -> dict:
        q = statistics.quantiles(self.durations, n=10)
        return {"probes": len(self.durations), "median_s": statistics.median(self.durations),
                "p10_s": q[0], "p90_s": q[-1]}
