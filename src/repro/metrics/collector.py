"""Trace-driven metric accumulation.

The paper's output parameters (section 6): "the isolation latency, the
number of data packets dropped due to the wormhole, the number of routes
established, and the number of routes affected by the wormhole", with
losses due to natural collisions accounted separately.

Drop accounting distinguishes:

- ``wormhole_drops`` — data packets a malicious node swallowed
  (``malicious_drop`` traces), the paper's figure-8 quantity;
- ``undelivered`` — originated minus delivered, which additionally counts
  natural losses (collisions, MAC give-ups, missing routes) and packets
  still in flight at the horizon.

Isolation latency for malicious node m = (time every honest ground-truth
neighbor of m has revoked m) − (m's first malicious act).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.net.packet import NodeId
from repro.sim.trace import TraceLog, TraceRecord


@dataclass
class MetricsReport:
    """Immutable summary produced by :meth:`MetricsCollector.report`."""

    duration: float
    originated: int
    delivered: int
    wormhole_drops: int
    routes_established: int
    malicious_routes: int
    drop_times: Tuple[float, ...]
    isolation_times: Dict[NodeId, float]
    first_activity: Dict[NodeId, float]
    detections: int
    isolations: int
    false_isolations: Dict[NodeId, int] = field(default_factory=dict)
    # Per-node protocol counters (see repro.obs.counters.snapshot_counters):
    # MalC totals, watch-buffer peaks, alert send/accept/reject/retransmit
    # tallies, filter rejects, liveness activity.
    node_counters: Dict[NodeId, Dict[str, int]] = field(default_factory=dict)
    # Causal latency stage timestamps per malicious node (see
    # repro.obs.latency): attack_start, first_malc, local_revocation,
    # quorum, full_isolation — only the stages the run actually reached.
    # full_isolation here is the ground-truth complete-neighborhood time
    # (== isolation_times), unlike the trace-level proxy the decomposer
    # computes.
    latency_stages: Dict[NodeId, Dict[str, float]] = field(default_factory=dict)

    @property
    def undelivered(self) -> int:
        """Originated packets that never reached their destination."""
        return max(0, self.originated - self.delivered)

    @property
    def fraction_dropped(self) -> float:
        """Undelivered fraction of originated data packets."""
        if self.originated == 0:
            return 0.0
        return self.undelivered / self.originated

    @property
    def fraction_wormhole_dropped(self) -> float:
        """Wormhole-swallowed fraction of originated data packets."""
        if self.originated == 0:
            return 0.0
        return self.wormhole_drops / self.originated

    @property
    def fraction_malicious_routes(self) -> float:
        """Wormhole-influenced fraction of established routes."""
        if self.routes_established == 0:
            return 0.0
        return self.malicious_routes / self.routes_established

    def isolation_latency(self, node: NodeId) -> Optional[float]:
        """Seconds from first malicious act to complete neighborhood
        isolation, or None if never fully isolated."""
        done = self.isolation_times.get(node)
        started = self.first_activity.get(node)
        if done is None or started is None:
            return None
        return max(0.0, done - started)

    def detection_latency(self, node: NodeId) -> Optional[float]:
        """Seconds from first malicious act to the first guard's local
        revocation (MalC crossing C_t), or None if never detected."""
        stages = self.latency_stages.get(node)
        if not stages:
            return None
        started = stages.get("attack_start")
        detected = stages.get("local_revocation")
        if started is None or detected is None:
            return None
        return max(0.0, detected - started)

    def mean_detection_latency(self) -> Optional[float]:
        """Average detection latency over detected malicious nodes."""
        latencies = [
            latency
            for node in self.latency_stages
            if (latency := self.detection_latency(node)) is not None
        ]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    def latency_decomposition(self, node: NodeId) -> Dict[str, Optional[float]]:
        """Per-stage durations for ``node`` (see repro.obs.latency
        DURATIONS); stages the run never reached map to None."""
        from repro.obs.latency import DURATIONS

        stages = self.latency_stages.get(node, {})
        out: Dict[str, Optional[float]] = {}
        for name, start, end in DURATIONS:
            t0, t1 = stages.get(start), stages.get(end)
            out[name] = max(0.0, t1 - t0) if t0 is not None and t1 is not None else None
        return out

    def mean_isolation_latency(self) -> Optional[float]:
        """Average isolation latency over fully isolated malicious nodes."""
        latencies = [
            latency
            for node in self.isolation_times
            if (latency := self.isolation_latency(node)) is not None
        ]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    def cumulative_drops_at(self, time: float) -> int:
        """Wormhole drops up to and including ``time`` (figure 8 series)."""
        return bisect.bisect_right(self.drop_times, time)

    def drop_series(self, times: Sequence[float]) -> List[int]:
        """Cumulative wormhole drops sampled at each time."""
        return [self.cumulative_drops_at(t) for t in times]

    def to_state(self) -> Dict[str, object]:
        """Full-fidelity JSON-serialisable state (see :meth:`from_state`).

        Unlike :meth:`to_dict` — a human-oriented summary that elides the
        drop-time series — this preserves every field exactly, so a report
        written to the result cache and read back compares equal to the
        report the run produced.
        """
        return {
            "duration": self.duration,
            "originated": self.originated,
            "delivered": self.delivered,
            "wormhole_drops": self.wormhole_drops,
            "routes_established": self.routes_established,
            "malicious_routes": self.malicious_routes,
            "drop_times": list(self.drop_times),
            "isolation_times": {str(k): v for k, v in self.isolation_times.items()},
            "first_activity": {str(k): v for k, v in self.first_activity.items()},
            "detections": self.detections,
            "isolations": self.isolations,
            "false_isolations": {str(k): v for k, v in self.false_isolations.items()},
            "node_counters": {
                str(k): dict(v) for k, v in self.node_counters.items()
            },
            "latency_stages": {
                str(k): dict(v) for k, v in self.latency_stages.items()
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "MetricsReport":
        """Rebuild a report serialised by :meth:`to_state` (JSON round-trip
        safe: node-id keys come back as strings and are re-int'ed here)."""
        return cls(
            duration=float(state["duration"]),  # type: ignore[arg-type]
            originated=int(state["originated"]),  # type: ignore[arg-type]
            delivered=int(state["delivered"]),  # type: ignore[arg-type]
            wormhole_drops=int(state["wormhole_drops"]),  # type: ignore[arg-type]
            routes_established=int(state["routes_established"]),  # type: ignore[arg-type]
            malicious_routes=int(state["malicious_routes"]),  # type: ignore[arg-type]
            drop_times=tuple(state["drop_times"]),  # type: ignore[arg-type]
            isolation_times={int(k): v for k, v in state["isolation_times"].items()},  # type: ignore[union-attr]
            first_activity={int(k): v for k, v in state["first_activity"].items()},  # type: ignore[union-attr]
            detections=int(state["detections"]),  # type: ignore[arg-type]
            isolations=int(state["isolations"]),  # type: ignore[arg-type]
            false_isolations={int(k): v for k, v in state["false_isolations"].items()},  # type: ignore[union-attr]
            # .get: reports cached before this field existed lack it.
            node_counters={
                int(k): dict(v)
                for k, v in state.get("node_counters", {}).items()  # type: ignore[union-attr]
            },
            # .get: schema-version-2 entries (pre-latency-decomposition)
            # lack this field and must still load.
            latency_stages={
                int(k): dict(v)
                for k, v in state.get("latency_stages", {}).items()  # type: ignore[union-attr]
            },
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (drop times elided to a count)."""
        return {
            "duration": self.duration,
            "originated": self.originated,
            "delivered": self.delivered,
            "undelivered": self.undelivered,
            "fraction_dropped": self.fraction_dropped,
            "wormhole_drops": self.wormhole_drops,
            "fraction_wormhole_dropped": self.fraction_wormhole_dropped,
            "routes_established": self.routes_established,
            "malicious_routes": self.malicious_routes,
            "fraction_malicious_routes": self.fraction_malicious_routes,
            "detections": self.detections,
            "isolations": self.isolations,
            "isolation_latencies": {
                str(node): self.isolation_latency(node) for node in self.isolation_times
            },
            "detection_latencies": {
                str(node): self.detection_latency(node) for node in self.latency_stages
            },
            "false_isolations": {str(k): v for k, v in self.false_isolations.items()},
        }


class MetricsCollector:
    """Live accumulator attached to a trace log.

    Parameters
    ----------
    trace:
        The experiment's trace log; subscriptions are installed here.
    malicious_ids:
        Ground-truth malicious node set.
    honest_neighbors:
        Ground truth: honest neighbors of each malicious node — the
        set whose unanimous revocation constitutes complete isolation.

    A route counts as *malicious* when a malicious node physically
    transmitted its route reply (i.e. sits on the reverse path the data
    will follow) — attach the collector to the network with
    :meth:`attach_network` to enable that ground-truth check.
    """

    def __init__(
        self,
        trace: TraceLog,
        malicious_ids: Sequence[NodeId] = (),
        honest_neighbors: Optional[Dict[NodeId, FrozenSet[NodeId]]] = None,
    ) -> None:
        self.malicious = frozenset(malicious_ids)
        self.honest_neighbors = honest_neighbors or {}
        self._wormhole_reps: Set[Tuple[NodeId, int]] = set()
        self.originated = 0
        self.delivered = 0
        self.routes_established = 0
        self.malicious_routes = 0
        self.detections = 0
        self.isolations = 0
        self.drop_times: List[float] = []
        self.first_activity: Dict[NodeId, float] = {}
        self.isolation_times: Dict[NodeId, float] = {}
        self.false_isolations: Dict[NodeId, int] = {}
        self._revokers: Dict[NodeId, Set[NodeId]] = {}
        # Latency decomposition stages (ground-truth malicious nodes only).
        self.first_malc: Dict[NodeId, float] = {}
        self.first_detection: Dict[NodeId, float] = {}
        self.first_quorum: Dict[NodeId, float] = {}
        self._last_time = 0.0
        trace.subscribe("malc_increment", self._on_malc)
        trace.subscribe("data_origin", self._on_origin)
        trace.subscribe("data_delivered", self._on_delivered)
        trace.subscribe("malicious_drop", self._on_drop)
        trace.subscribe("route_established", self._on_route)
        trace.subscribe("wormhole_activity", self._on_activity)
        trace.subscribe("guard_detection", self._on_detection)
        trace.subscribe("isolation", self._on_isolation)

    def attach_network(self, network) -> None:
        """Observe physical transmissions so malicious route replies can be
        attributed with ground truth."""
        network.channel.add_tx_observer(self._on_physical_tx, senders=self.malicious)

    def _on_physical_tx(self, sender: NodeId, frame, time: float) -> None:
        packet = frame.packet
        key = getattr(packet, "key", None)
        if key is None:
            return
        identity = packet.key()
        if identity and identity[0] == "REP":
            self._wormhole_reps.add((identity[1], identity[2]))

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def _on_origin(self, record: TraceRecord) -> None:
        self.originated += 1
        self._last_time = record.time

    def _on_delivered(self, record: TraceRecord) -> None:
        self.delivered += 1
        self._last_time = record.time

    def _on_drop(self, record: TraceRecord) -> None:
        self.drop_times.append(record.time)
        self._last_time = record.time

    def _on_route(self, record: TraceRecord) -> None:
        self.routes_established += 1
        key = (record["origin"], record["request_id"])
        path_hits = self.malicious.intersection(record.get("path", ()))
        next_hop_malicious = record.get("next_hop") in self.malicious
        if key in self._wormhole_reps or path_hits or next_hop_malicious:
            self.malicious_routes += 1
        self._last_time = record.time

    def _on_activity(self, record: TraceRecord) -> None:
        node = record["node"]
        self.first_activity.setdefault(node, record.time)

    def _on_malc(self, record: TraceRecord) -> None:
        accused = record["accused"]
        if accused in self.malicious:
            self.first_malc.setdefault(accused, record.time)

    def _on_detection(self, record: TraceRecord) -> None:
        self.detections += 1
        accused = record["accused"]
        if accused in self.malicious:
            self.first_detection.setdefault(accused, record.time)
        self._note_revocation(accused, record["guard"], record.time)

    def _on_isolation(self, record: TraceRecord) -> None:
        self.isolations += 1
        accused = record["accused"]
        if accused in self.malicious:
            self.first_quorum.setdefault(accused, record.time)
        self._note_revocation(accused, record["node"], record.time)

    def _note_revocation(self, accused: NodeId, revoker: NodeId, time: float) -> None:
        if accused not in self.malicious:
            self.false_isolations[accused] = self.false_isolations.get(accused, 0) + 1
            return
        revokers = self._revokers.setdefault(accused, set())
        revokers.add(revoker)
        required = self.honest_neighbors.get(accused)
        if required is not None and accused not in self.isolation_times:
            if required.issubset(revokers):
                self.isolation_times[accused] = time

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def revokers_of(self, accused: NodeId) -> FrozenSet[NodeId]:
        """Nodes that have revoked ``accused`` so far."""
        return frozenset(self._revokers.get(accused, ()))

    def fully_isolated(self, node: NodeId) -> bool:
        """Whether every honest neighbor of ``node`` has revoked it."""
        return node in self.isolation_times

    def latency_stages(self) -> Dict[NodeId, Dict[str, float]]:
        """Per-malicious-node causal stage timestamps (only stages that
        occurred appear as keys)."""
        stages: Dict[NodeId, Dict[str, float]] = {}
        sources: Tuple[Tuple[str, Dict[NodeId, float]], ...] = (
            ("attack_start", self.first_activity),
            ("first_malc", self.first_malc),
            ("local_revocation", self.first_detection),
            ("quorum", self.first_quorum),
            ("full_isolation", self.isolation_times),
        )
        for name, mapping in sources:
            for node, time in mapping.items():
                if node in self.malicious:
                    stages.setdefault(node, {})[name] = time
        return stages

    def report(
        self,
        duration: Optional[float] = None,
        node_counters: Optional[Dict[NodeId, Dict[str, int]]] = None,
    ) -> MetricsReport:
        """Snapshot the accumulated metrics."""
        return MetricsReport(
            duration=duration if duration is not None else self._last_time,
            originated=self.originated,
            delivered=self.delivered,
            wormhole_drops=len(self.drop_times),
            routes_established=self.routes_established,
            malicious_routes=self.malicious_routes,
            drop_times=tuple(self.drop_times),
            isolation_times=dict(self.isolation_times),
            first_activity=dict(self.first_activity),
            detections=self.detections,
            isolations=self.isolations,
            false_isolations=dict(self.false_isolations),
            node_counters=dict(node_counters) if node_counters else {},
            latency_stages=self.latency_stages(),
        )
