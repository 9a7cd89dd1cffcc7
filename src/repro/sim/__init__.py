"""Discrete-event simulation engine.

This package provides the substrate on which the wireless network, the
routing protocols, the attacks, and LITEWORP itself run.  It is a small,
deterministic, seedable discrete-event kernel in the style of ns-2's
scheduler:

- :class:`~repro.sim.engine.Simulator` — the event loop (clock + heap).
- :class:`~repro.sim.engine.Event` — a cancellable scheduled callback.
- :class:`~repro.sim.rng.RngRegistry` — named, independently seeded random
  streams so that, e.g., traffic randomness and channel randomness do not
  perturb each other across configuration changes.
- :class:`~repro.sim.timers.PeriodicTimer` — restartable periodic callbacks.
- :class:`~repro.sim.trace.TraceLog` — structured trace records for tests
  and experiment post-processing.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.engine import Event, Simulator, SimulationError
    from repro.sim.rng import RngRegistry
    from repro.sim.timers import PeriodicTimer
    from repro.sim.trace import TraceLog, TraceRecord

__all__ = [
    "Event",
    "PeriodicTimer",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "TraceLog",
    "TraceRecord",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sim.engine": ("Event", "Simulator", "SimulationError"),
    "repro.sim.rng": ("RngRegistry",),
    "repro.sim.timers": ("PeriodicTimer",),
    "repro.sim.trace": ("TraceLog", "TraceRecord"),
})
