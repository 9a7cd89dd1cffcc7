"""The discrete-event simulation kernel.

The kernel is a classic calendar-queue scheduler: a binary heap of
``(time, sequence, Event)`` triples and a virtual clock.  All protocol code
in this repository is written against :class:`Simulator` — there are no
threads, no wall-clock timing, and no global state, which makes every
experiment deterministic given a seed.

Design notes
------------
- Events fire in non-decreasing time order; ties are broken by scheduling
  order (FIFO), which keeps protocol traces reproducible.
- Cancellation is O(1): a cancelled event stays in the heap but is skipped
  when popped.
- ``Simulator.run`` takes an ``until`` horizon; events scheduled exactly at
  the horizon still fire (closed interval), matching ns-2 semantics.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (negative delays, running twice, ...)."""


# Shared immutable-by-convention empties: most events carry no kwargs (and
# many no args), so the per-event dict/tuple allocations are skipped.  The
# dispatch loop never mutates either.
_NO_ARGS: Tuple[Any, ...] = ()
_NO_KWARGS: dict = {}


class Event:
    """A scheduled callback.

    Instances are produced by :meth:`Simulator.schedule` / ``schedule_at``
    and should not be constructed directly.  An event can be cancelled at
    any point before it fires; cancelling a fired or already-cancelled
    event is a harmless no-op, which simplifies timer management in the
    protocol code.
    """

    __slots__ = ("time", "callback", "args", "kwargs", "_cancelled", "_fired")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: dict,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the event's callback has run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if not self._fired:
            self._cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} {name} [{state}]>"


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (seconds).  Defaults to 0.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run(until=2.0)
    >>> fired
    ['b', 'a']
    >>> sim.now
    2.0
    """

    #: Queue size below which compaction is never attempted.
    COMPACT_MIN_SIZE = 8192
    #: Dead-entry fraction that triggers a rebuild once the size check fires.
    COMPACT_DEAD_FRACTION = 0.25

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._running = False
        self._events_processed = 0
        self._last_live = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (monitoring hook)."""
        return self._events_processed

    @property
    def pending_count(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue."""
        return sum(1 for _, _, ev in self._heap if ev.pending)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now.

        Raises :class:`SimulationError` for negative or non-finite delays.
        """
        if not math.isfinite(delay):
            raise SimulationError(f"delay must be finite, got {delay!r}")
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args, **kwargs)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: t={time!r} < now={self._now!r}"
            )
        event = Event(time, callback, args or _NO_ARGS, kwargs or _NO_KWARGS)
        heapq.heappush(self._heap, (time, next(self._sequence), event))
        if len(self._heap) >= self.COMPACT_MIN_SIZE and len(self._heap) > 2 * self._last_live:
            self._maybe_compact()
        return event

    def _maybe_compact(self) -> None:
        # Lazy-cancellation cleanup: cancelled events stay in the heap until
        # popped, so cancel-heavy campaigns (watch buffers, MAC backoff) can
        # carry a large dead tail.  When the heap has doubled since the last
        # check, count the dead fraction and rebuild without the corpses if
        # it exceeds the threshold.  Amortized O(1) per schedule; ordering is
        # untouched because live (time, seq, event) triples are preserved.
        live = sum(1 for _, _, ev in self._heap if ev.pending)
        dead = len(self._heap) - live
        if dead >= len(self._heap) * self.COMPACT_DEAD_FRACTION:
            self._heap = [entry for entry in self._heap if entry[2].pending]
            heapq.heapify(self._heap)
            self._compactions += 1
            live = len(self._heap)
        self._last_live = live

    @property
    def compactions(self) -> int:
        """How many times the queue has been compacted (introspection)."""
        return self._compactions

    def release(self) -> None:
        """Cancel every queued event and drop it with its callback.

        The end of a simulator's life: nothing stays reachable through the
        queue, so objects whose only cycle ran through a pending event are
        freed by reference counting.  The clock and the counters stay
        readable.
        """
        if self._running:
            raise SimulationError("cannot release a running simulator")
        heap, self._heap = self._heap, []
        self._last_live = 0
        for _, _, event in heap:
            event.cancel()
            event.callback = None
            event.args = _NO_ARGS
            event.kwargs = _NO_KWARGS

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in time order.

        Parameters
        ----------
        until:
            Horizon (inclusive).  When given, the clock is advanced to
            exactly ``until`` after the last event at or before it fires.
            When omitted, runs until the queue drains.
        max_events:
            Safety valve: stop after this many callbacks.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is not None and until < self._now:
            raise SimulationError(f"until={until!r} is in the past (now={self._now!r})")
        self._running = True
        executed = 0
        # The dispatch loop below is the kernel's hot path: heap access and
        # the event's slot flags are touched directly (no properties, no
        # per-iteration attribute lookups on self or the heapq module).
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                time, _, event = heap[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                if event._cancelled or event._fired:
                    continue
                self._now = time
                event._fired = True
                kwargs = event.kwargs
                if kwargs:
                    event.callback(*event.args, **kwargs)
                else:
                    event.callback(*event.args)
                self._events_processed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Run exactly one pending event.  Returns False if the queue is empty."""
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if not event.pending:
                continue
            self._now = time
            event._fired = True
            event.callback(*event.args, **event.kwargs)
            self._events_processed += 1
            return True
        return False

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        while self._heap and not self._heap[0][2].pending:
            heapq.heappop(self._heap)
        if self._heap:
            return self._heap[0][0]
        return None


def make_simulator(start_time: float = 0.0) -> "Simulator":
    """Build the fastest available kernel with :class:`Simulator` semantics.

    Returns an instance of the C-accelerated kernel when it can be built
    (see :mod:`repro.sim.accel`), otherwise this module's pure-Python
    :class:`Simulator`.  The two are interchangeable: same API, same event
    ordering, same ``SimulationError`` on misuse.  All production entry
    points (scenario runner, benchmarks) construct their simulator through
    this factory; tests that exercise kernel internals pin the class they
    need explicitly.
    """
    from repro.sim import accel

    return accel.make_simulator(start_time)
