"""Host-speed sampling, to take other tenants' load out of the timings.

The host shares its cores with other tenants.  A fixed pure-Python loop there
alternates between speeds up to about 40% apart, in stretches of milliseconds
to seconds, and the share of slowed time differs from one run to the next.
A timer signal runs a tiny fixed loop, independent of the package, every few
milliseconds, also while the program runs (the handler runs between two
bytecodes of the main thread; no thread is started).  The loop's mean duration
around an operation, over a fixed reference duration, is the host's slowdown
during that operation; dividing by it states the operation's time at the
reference speed.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.005
#: Probe-loop duration that defines the reference host speed; about the
#: unloaded speed of a 2-CPU Intel Xeon virtual machine.
REFERENCE_S = 50e-6
#: Samples this close before or after an operation count as taken around it.
WINDOW_S = 0.02


def probe_loop():
    """Fixed pure-Python work of about 50 microseconds."""
    s = 0.0
    for i in range(1000):
        s += i * 0.5
    return s


class SpeedProbe:
    """Samples the probe loop's duration from a timer signal while active.

    The estimates are available once the context has been left.
    """

    def __init__(self):
        self.samples = []
        self.starts = self.durations = None
        self._previous = None

    def sample(self, *_):
        t0 = time.perf_counter()
        probe_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.sort()
        self.starts = [t for t, _ in self.samples]
        self.durations = [d for _, d in self.samples]

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe duration around [t0, t1] over the reference duration."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return statistics.fmean(near) / REFERENCE_S

    def corrected(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] without the probes inside it, over its slowdown."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = sum(self.durations[lo:hi])
        return (t1 - t0 - own) / self.slowdown(t0, t1)
