"""Reference seconds: wall time rescaled by the machine's speed at the time.

On a shared host the same Python code runs at two or more speeds,
depending on what the host's other tenants are doing, and a slow phase
can last minutes.  No repetition count averages that out.  So while a
child measures, a timer signal runs a fixed pure-Python calibration
chunk every few milliseconds and times it.  A stretch of program work
lasting ``w`` wall seconds between two chunks counts as ``w * NOMINAL_S /
c`` reference seconds, where ``c`` is the median time of the chunks
around it.  Where the chunk runs at its nominal time, a reference second
is a wall second.

The chunk's own time is never counted as program work.  It shares the
interpreter with the program but not its data: the calibration is part
of the benchmark, so a change to the program cannot make it faster.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import List

#: The calibration chunk's time on a quiet x86 host (Python 3.11): a
#: reference second is a second of a machine that runs the chunk this fast.
NOMINAL_S = 130e-6

#: How often the timer signal fires, in wall seconds.
PERIOD_S = 0.005

#: Chunks on each side of a stretch whose median sets its speed.
HALF_WINDOW = 4


def _chunk() -> int:
    total = 0
    table = {}
    for i in range(1500):
        total += i * i
        table[i & 255] = total
    return total


class RefClock:
    """Interleaves calibration chunks with the program's work.

    ``start()`` arms the timer; ``now()`` is a wall-clock reading to pass
    to :meth:`ref_seconds` later.  The signal handler appends each chunk's
    start time and duration, so stretches of program work are the gaps
    between chunks.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._busy = False
        for _ in range(20):  # let the interpreter specialise the chunk
            _chunk()

    def _tick(self, signum, frame) -> None:
        # A signal that lands while a chunk runs (the process was
        # descheduled for a whole period) is dropped, so chunks never nest
        # and ``starts`` stays sorted.
        if self._busy:
            return
        self._busy = True
        began = time.perf_counter()
        _chunk()
        self.starts.append(began)
        self.durations.append(time.perf_counter() - began)
        self._busy = False

    def start(self) -> "RefClock":
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def ref_seconds(self, begin: float, end: float) -> float:
        """Reference seconds of program work between two :meth:`now` readings."""
        starts, durations = self.starts, self.durations
        first = bisect_right(starts, begin)
        last = bisect_left(starts, end)
        # The gaps between chunks inside [begin, end], each with the chunk
        # that ends it (or, for the tail, the chunk before it).
        edges = [begin] + [starts[i] + durations[i] for i in range(first, last)]
        stops = starts[first:last] + [end]
        total = 0.0
        for k, (a, b) in enumerate(zip(edges, stops)):
            at = min(first + k, len(starts) - 1)
            window = durations[max(0, at - HALF_WINDOW) : at + HALF_WINDOW + 1]
            total += max(0.0, b - a) * NOMINAL_S / statistics.median(window)
        return total

    def wall_seconds(self, begin: float, end: float) -> float:
        """Wall seconds between two readings, less the chunks inside them."""
        first = bisect_right(self.starts, begin)
        last = bisect_left(self.starts, end)
        return end - begin - sum(self.durations[first:last])
