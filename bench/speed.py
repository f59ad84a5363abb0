"""Timings corrected for the speed the machine runs at while they are taken.

The benchmark runs on a few cores of a shared host.  There a fixed loop
of pure-Python work alternates, within milliseconds, between two speeds
about 1.8x apart, and the share of time spent at the slow one drifts
from minute to minute; process CPU time slows down with wall time, so
this is not time spent off the CPU.  Raw wall times of runs of the
same code minutes apart therefore differ by up to 1.7x.

While a run is timed, a SIGALRM interval timer fires every
PROBE_INTERVAL_S and the handler runs `probe()`: a fixed piece of
pure-Python work of the engine's kind (tuple keys, dict updates,
Fraction products) that uses no code from src/, so a change to the
engine cannot move it.  Each timing is then reported as

    (wall time - probe time inside it) * REFERENCE_PROBE_S / local probe time

where the local probe time is the mean duration of the probes that ran
within WINDOW_S of the timing, or inside it.  That is the time the work
would have taken at the speed at which one probe takes
REFERENCE_PROBE_S, about the median probe time on the reference machine
(Python 3.11.7, 2 vCPUs of a shared x86-64 host).  Probes take 5-8%
of the timed wall time.
"""

import bisect
from array import array
import signal
import time
from fractions import Fraction
from itertools import accumulate

PROBE_INTERVAL_S = 0.002
WINDOW_S = 0.010
REFERENCE_PROBE_S = 120e-6

# Two small "elements": (left word, right word) -> Fraction coefficient.
_LEFT = [(((i % 3 + 1,) * (i % 4 + 1), (i % 2 + 1,)), Fraction(i + 1, i % 5 + 2))
         for i in range(5)]
_RIGHT = [(((j % 2 + 1,), (j % 3 + 1,) * (j % 3 + 1)), Fraction(j % 7 - 3, j + 1))
          for j in range(5)]


def probe():
    """Product-like loop over _LEFT x _RIGHT; fixed work, 70-150 us."""
    out = {}
    for (a, b), c in _LEFT:
        for (x, y), d in _RIGHT:
            key = (a + x, b + y)
            out[key] = out.get(key, 0) + c * d
    return len(out)


class Speedometer:
    """Runs probe() on a timer while active, and turns spans into
    speed-corrected times.

        with Speedometer() as speed:
            start = speed.mark()
            work()
            span = speed.span(start)
        seconds = speed.corrected(span)   # after the with block
    """

    def __init__(self, interval=PROBE_INTERVAL_S):
        self.interval = interval
        self.busy = 0.0     # total probe time so far
        self.ends = array("d")  # end time of every probe
        self.durations = array("d")
        self._previous = None
        self._prefix = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)
        self.busy += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._prefix = None
        return False

    def mark(self):
        """(clock, probe time so far), read with no probe in between."""
        while True:
            busy = self.busy
            now = time.perf_counter()
            if busy == self.busy:
                return now, busy

    def span(self, start):
        """(start, end, probe time inside) of the work since `start`."""
        end, busy = self.mark()
        return start[0], end, busy - start[1]

    def local_probe_time(self, start, end):
        """Mean probe duration within WINDOW_S of [start, end]."""
        if self._prefix is None:
            self._prefix = [0.0, *accumulate(self.durations)]
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        if hi == lo:
            raise RuntimeError("no speed probe ran near a timing; is SIGALRM blocked?")
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)

    def corrected(self, span):
        """Seconds the span's work takes at the reference speed."""
        start, end, busy = span
        return (end - start - busy) * REFERENCE_PROBE_S / self.local_probe_time(start, end)
