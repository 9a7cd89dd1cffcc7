"""Timer helpers layered on top of the event kernel.

:class:`PeriodicTimer` is a repeating callback (traffic generation ticks,
metric sampling).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator


class PeriodicTimer:
    """A repeating timer with optionally randomised periods.

    ``period_fn`` is called before each arming to obtain the next interval —
    pass a constant via ``lambda: 1.0`` or an exponential sampler for Poisson
    processes.  The callback runs once per period until :meth:`stop`.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], Any],
        period_fn: Callable[[], float],
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._period_fn = period_fn
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        """Whether the timer is currently scheduled to keep firing."""
        return self._running

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin firing.  ``initial_delay`` overrides the first period."""
        if self._running:
            return
        self._running = True
        delay = self._period_fn() if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Stop firing.  Idempotent."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if not self._running:
            return
        self._callback()
        if self._running:
            self._event = self._sim.schedule(self._period_fn(), self._fire)
