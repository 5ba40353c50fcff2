"""Host-speed probe: timings in seconds at a fixed reference speed.

On a shared host the same Python work runs at different speeds from one
stretch of seconds to the next (on a 2-vCPU VM the speed switches between
two levels about 1.5x apart), so raw wall times of identical runs spread
by 40% or more.  While a ``Probe`` is active, a ``SIGALRM`` interval
timer runs a fixed chunk of pure-Python work (tuple-keyed dict updates,
small-integer arithmetic and function calls, like the library's inner
loops) every ``TICK_S`` seconds on the measuring thread itself, and
records how long each chunk took.  ``seconds(t0, t1)`` converts a
wall-clock interval into reference seconds: the interval less the time
the probe itself ran in it, times the mean speed the chunks sampled in
and around it, where speed is ``REFERENCE_CHUNK_S`` over the chunk's
measured time.  A program that does half the work reads half the time;
a host that runs at half speed for a while does not change the reading.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

TICK_S = 0.02
# Time of one ``chunk()`` at the fast speed of a 2-vCPU Firecracker VM
# with CPython 3.11.7; reference seconds are seconds at that speed.
REFERENCE_CHUNK_S = 0.0003
_CHUNK_ITERATIONS = 600


def _step(key: tuple, i: int) -> int:
    return (key[0] * 3 + key[1] + i) & 0xFFFF


def chunk() -> int:
    """A fixed amount of interpreter work, about REFERENCE_CHUNK_S long."""
    table: dict = {}
    total = 0
    for i in range(_CHUNK_ITERATIONS):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + _step(key, i)
        total += len(table)
    return total


class Probe:
    """Samples the host's speed every TICK_S seconds while active."""

    def __init__(self):
        self.starts: list[float] = []  # chunk start times, increasing
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        chunk()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done between perf_counter times t0 and t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        # Speed from the chunks in the interval and the nearest one on
        # each side, so that an interval shorter than a tick has samples.
        near = range(max(lo - 1, 0), min(hi + 1, len(self.starts)))
        if not near:
            raise RuntimeError("no speed samples: time the work inside an active Probe")
        speed = statistics.fmean(REFERENCE_CHUNK_S / (self.ends[i] - self.starts[i])
                                 for i in near)
        return (t1 - t0 - inside) * speed

    def chunk_p50_s(self) -> float:
        """Median chunk time over the whole run, for the run record."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))
