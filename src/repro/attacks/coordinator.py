"""Wormhole coordination between colluding nodes.

The coordinator is the tunnel: it moves packets between colluders either
*instantaneously* (out-of-band channel — exactly how the paper's simulation
models it) or with a per-hop *encapsulation* delay along the multihop path
between the colluders (the paper assumes "the colluding nodes always have a
route between them").

It is also the experiments' ground-truth ledger: when each colluder first
acted (isolation-latency measurement starts there) and how many data
packets each end swallowed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.network import Network
from repro.net.packet import NodeId, RouteReply, RouteRequest
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.attacks.agents import TunnelRouting

OUT_OF_BAND_LATENCY = 1e-4

TUNNEL_MODES = ("outofband", "encapsulation")


class WormholeCoordinator:
    """Shared state and tunnel for a set of colluding wormhole nodes."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        trace: TraceLog,
        mode: str = "outofband",
        encap_hop_delay: float = 0.02,
        rng: Optional[random.Random] = None,
    ) -> None:
        if mode not in TUNNEL_MODES:
            raise ValueError(f"mode must be one of {TUNNEL_MODES}, got {mode!r}")
        if encap_hop_delay <= 0:
            raise ValueError("encap_hop_delay must be positive")
        self.sim = sim
        self.network = network
        self.trace = trace
        self.mode = mode
        self.encap_hop_delay = encap_hop_delay
        self.rng = rng or random.Random(0)
        self.colluders: List[NodeId] = []
        self.agents: Dict[NodeId, "TunnelRouting"] = {}
        self.first_activity: Dict[NodeId, float] = {}
        self.drops: Dict[NodeId, int] = {}
        self.attack_start: Optional[float] = None
        self._hop_cache: Dict[Tuple[NodeId, NodeId], int] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register(self, agent: "TunnelRouting") -> None:
        """Add a colluding agent to the wormhole."""
        node_id = agent.node.node_id
        self.colluders.append(node_id)
        self.agents[node_id] = agent
        self.drops[node_id] = 0

    def release(self) -> None:
        """Forget the colluding agents, which point back here: the end of
        a run.  The ground truth (drops, taint, activity) stays."""
        self.agents.clear()

    def activate_at(self, start_time: float) -> None:
        """Schedule the attack to begin at ``start_time``."""
        self.attack_start = start_time
        self.sim.schedule_at(start_time, self._activate_all)

    def _activate_all(self) -> None:
        for agent in self.agents.values():
            agent.activate()
        self.trace.emit(self.sim.now, "attack_activated", colluders=tuple(self.colluders))

    # ------------------------------------------------------------------
    # Tunnel
    # ------------------------------------------------------------------
    def tunnel_request(self, source: NodeId, request: RouteRequest) -> None:
        """Send a captured route request to every other colluder."""
        self.note_activity(source)
        for peer in self.colluders:
            if peer == source:
                continue
            self.sim.schedule(
                self._tunnel_delay(source, peer),
                self.agents[peer].receive_tunneled_request,
                request,
                source,
            )

    def tunnel_reply(self, source: NodeId, peer: NodeId, reply: RouteReply) -> None:
        """Send a captured route reply back through the tunnel to ``peer``."""
        self.note_activity(source)
        self.sim.schedule(
            self._tunnel_delay(source, peer),
            self.agents[peer].receive_tunneled_reply,
            reply,
            source,
        )

    def _tunnel_delay(self, a: NodeId, b: NodeId) -> float:
        if self.mode == "outofband":
            return OUT_OF_BAND_LATENCY
        return self._hops_between(a, b) * self.encap_hop_delay

    def _hops_between(self, a: NodeId, b: NodeId) -> int:
        key = (a, b) if a <= b else (b, a)
        hops = self._hop_cache.get(key)
        if hops is None:
            hops = self.network.topology.hop_distance(a, b) or 1
            self._hop_cache[key] = hops
        return hops

    # ------------------------------------------------------------------
    # Ground truth for metrics
    # ------------------------------------------------------------------
    def note_activity(self, node: NodeId) -> None:
        """Record the first visible malicious act of ``node``."""
        if node not in self.first_activity:
            self.first_activity[node] = self.sim.now
            self.trace.emit(self.sim.now, "wormhole_activity", node=node)

    def note_drop(self, node: NodeId, packet_key: Tuple) -> None:
        """Record a data packet swallowed by colluder ``node``."""
        self.note_activity(node)
        self.drops[node] = self.drops.get(node, 0) + 1
        self.trace.emit(self.sim.now, "malicious_drop", node=node, packet=packet_key)
