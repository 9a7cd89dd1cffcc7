"""Poisson data sources with exponentially re-drawn destinations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.net.packet import NodeId
from repro.routing.ondemand import OnDemandRouting
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTimer


@dataclass(frozen=True)
class TrafficConfig:
    """Workload parameters (Table 2 defaults).

    Attributes
    ----------
    data_rate:
        λ — data packets per second per source (Table 2: 1/10 s⁻¹).
    destination_change_rate:
        μ — rate at which a source re-draws its destination
        (Table 2: 1/200 s⁻¹).
    payload_size:
        Data packet size in bytes.
    start_time:
        Sources stay silent before this time (lets neighbor discovery and
        LITEWORP activation finish first).
    """

    data_rate: float = 1.0 / 10.0
    destination_change_rate: float = 1.0 / 200.0
    payload_size: int = 64
    start_time: float = 5.0

    def __post_init__(self) -> None:
        if self.data_rate <= 0:
            raise ValueError("data_rate must be positive")
        if self.destination_change_rate <= 0:
            raise ValueError("destination_change_rate must be positive")
        if self.payload_size < 1:
            raise ValueError("payload_size must be at least 1 byte")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")


class TrafficGenerator:
    """Drives every source node's application traffic.

    ``sources`` are the sending nodes and also the candidate destinations;
    experiments pass the honest nodes only, so malicious nodes neither
    source traffic nor get chosen as sinks (they participate purely as
    forwarders/attackers, as in the paper's runs).
    """

    def __init__(
        self,
        sim: Simulator,
        routers: Dict[NodeId, OnDemandRouting],
        sources: Sequence[NodeId],
        rng: RngRegistry,
        config: Optional[TrafficConfig] = None,
    ) -> None:
        self.sim = sim
        self.routers = routers
        self.sources = list(sources)
        self.config = config or TrafficConfig()
        self._rng = rng.stream("traffic")
        self._destinations: Dict[NodeId, NodeId] = {}
        self._timers: Dict[NodeId, PeriodicTimer] = {}
        self._dest_timers: Dict[NodeId, PeriodicTimer] = {}
        self.packets_originated = 0
        if len(self.sources) < 2:
            raise ValueError("need at least two sources to form flows")

    def start(self) -> None:
        """Arm all source timers (idempotent)."""
        for source in self.sources:
            if source in self._timers:
                continue
            self._destinations[source] = self._draw_destination(source)
            send_timer = PeriodicTimer(
                self.sim,
                lambda s=source: self._send_one(s),
                lambda: self._rng.expovariate(self.config.data_rate),
            )
            send_timer.start(
                initial_delay=self.config.start_time
                + self._rng.expovariate(self.config.data_rate)
            )
            self._timers[source] = send_timer
            dest_timer = PeriodicTimer(
                self.sim,
                lambda s=source: self._change_destination(s),
                lambda: self._rng.expovariate(self.config.destination_change_rate),
            )
            dest_timer.start(
                initial_delay=self.config.start_time
                + self._rng.expovariate(self.config.destination_change_rate)
            )
            self._dest_timers[source] = dest_timer

    def stop(self) -> None:
        """Silence all sources."""
        for timer in self._timers.values():
            timer.stop()
        for timer in self._dest_timers.values():
            timer.stop()

    def release(self) -> None:
        """Drop the source timers, whose callbacks point back here: the
        end of a run.  ``packets_originated`` stays readable."""
        self._timers.clear()
        self._dest_timers.clear()

    def current_destination(self, source: NodeId) -> Optional[NodeId]:
        """The destination ``source`` is currently sending to."""
        return self._destinations.get(source)

    def _draw_destination(self, source: NodeId) -> NodeId:
        while True:
            destination = self._rng.choice(self.sources)
            if destination != source:
                return destination

    def _change_destination(self, source: NodeId) -> None:
        self._destinations[source] = self._draw_destination(source)

    def _send_one(self, source: NodeId) -> None:
        destination = self._destinations[source]
        self.routers[source].send_data(destination, payload_size=self.config.payload_size)
        self.packets_originated += 1
