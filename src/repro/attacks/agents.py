"""Malicious node behaviours.

Every attack agent *is* a routing agent: before activation it behaves like
an honest node (a compromised node blends in), after activation it deviates
according to its mode.  Subclassing :class:`OnDemandRouting` and overriding
the protected hooks keeps the protocol mechanics identical to honest nodes,
so the only differences are the deliberate deviations.
"""

from __future__ import annotations

import random
from typing import Dict, Set, Tuple

from repro.attacks.coordinator import WormholeCoordinator
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import DataPacket, Frame, NodeId, RouteReply, RouteRequest
from repro.routing.config import RoutingConfig
from repro.routing.ondemand import OnDemandRouting
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog

TUNNEL_REBROADCAST_JITTER = 0.002


class _ActivatableRouting(OnDemandRouting):
    """Shared machinery: honest until :meth:`activate` is called."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        config: RoutingConfig,
        trace: TraceLog,
        rng: random.Random,
    ) -> None:
        super().__init__(sim, node, config, trace, rng)
        self.active = False

    def activate(self) -> None:
        """Begin malicious behaviour."""
        self.active = True


class TunnelRouting(_ActivatableRouting):
    """A wormhole colluder for the encapsulation / out-of-band modes.

    Once active, the node tunnels every route request it hears to its
    colluding peers instead of rebroadcasting it.  The far end rebroadcasts
    the request *without the tunnel hops* and with a fabricated
    previous-hop announcement (the paper's "smart" choice: a genuine
    neighbor, so the two-hop check passes and only the guards can tell).
    Replies travel back through the tunnel and are injected toward the
    origin the same way.  Data packets routed through either end are
    silently dropped.

    ``fake_prev_strategy``:

    - ``"smart"`` — announce a random legitimate neighbor (guards detect a
      fabrication, paper figure 4 second choice);
    - ``"naive"`` — announce the colluding peer (every receiver's two-hop
      check rejects the packet outright, first choice).
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        config: RoutingConfig,
        trace: TraceLog,
        rng: random.Random,
        coordinator: WormholeCoordinator,
        network: Network,
        fake_prev_strategy: str = "smart",
    ) -> None:
        if fake_prev_strategy not in ("smart", "naive"):
            raise ValueError(f"unknown strategy {fake_prev_strategy!r}")
        super().__init__(sim, node, config, trace, rng)
        self.coordinator = coordinator
        self.network = network
        self.fake_prev_strategy = fake_prev_strategy
        # Far-end bookkeeping: which colluder tunnelled us this discovery.
        self._tunnel_peer: Dict[Tuple[NodeId, int], NodeId] = {}
        coordinator.register(self)

    # -- request side ---------------------------------------------------
    def _on_request(self, frame: Frame, request: RouteRequest) -> None:
        if not self.active:
            super()._on_request(frame, request)
            return
        me = self.node.node_id
        if request.origin == me or request.target == me:
            return
        key = request.key()
        if key in self._seen_requests:
            return
        self._seen_requests[key] = frame.transmitter
        self.coordinator.tunnel_request(me, request)

    def receive_tunneled_request(self, request: RouteRequest, from_colluder: NodeId) -> None:
        """Far-end: replay the tunnelled request locally."""
        if not self.active:
            return
        me = self.node.node_id
        key = request.key()
        if key in self._seen_requests:
            return
        self._seen_requests[key] = None
        self._tunnel_peer[(request.origin, request.request_id)] = from_colluder
        self.coordinator.mark_tainted(request.origin, request.request_id)
        self.coordinator.note_activity(me)
        # One hop more than the near end saw: the tunnel hops are hidden.
        forged = request.forwarded_by(me)
        self.node.broadcast(
            forged, prev_hop=self._fake_prev(from_colluder), jitter=TUNNEL_REBROADCAST_JITTER
        )

    # -- reply side -------------------------------------------------------
    def _on_reply(self, frame: Frame, reply: RouteReply) -> None:
        if not self.active:
            super()._on_reply(frame, reply)
            return
        me = self.node.node_id
        if reply.origin == me:
            super()._on_reply(frame, reply)
            return
        peer = self._tunnel_peer.get((reply.origin, reply.request_id))
        if peer is not None:
            # Far end: the reply came back to us; tunnel it home.  We do
            # NOT forward a local copy, which is the drop the guards of the
            # incoming link detect via the watch-buffer deadline.
            self.coordinator.tunnel_reply(me, peer, reply)
            return
        # Ordinary reverse-path reply: forward honestly to stay on routes.
        super()._on_reply(frame, reply)

    def receive_tunneled_reply(self, reply: RouteReply, from_colluder: NodeId) -> None:
        """Near-end: inject the reply toward the origin."""
        if not self.active:
            return
        me = self.node.node_id
        next_hop = self._seen_requests.get(("REQ", reply.origin, reply.request_id))
        if next_hop is None:
            self.trace.emit(
                self.sim.now, "wormhole_rep_stranded", node=me,
                origin=reply.origin, request_id=reply.request_id,
            )
            return
        # Install the forward route so the victim's data flows to us (and
        # gets swallowed in _on_data).
        self.routes.install(
            destination=reply.target,
            next_hop=from_colluder,
            now=self.sim.now,
            hop_count=reply.hop_count,
            path=reply.path,
            request_id=reply.request_id,
        )
        self.node.unicast(reply, next_hop=next_hop, prev_hop=self._fake_prev(from_colluder))

    # -- data side --------------------------------------------------------
    def _on_data(self, frame: Frame, packet: DataPacket) -> None:
        if not self.active or packet.destination == self.node.node_id:
            super()._on_data(frame, packet)
            return
        self.coordinator.note_drop(self.node.node_id, packet.key())

    # -- helpers ------------------------------------------------------------
    def _fake_prev(self, colluder: NodeId) -> NodeId:
        if self.fake_prev_strategy == "naive":
            return colluder
        me = self.node.node_id
        neighbors = [
            n for n in self.network.neighbors(me) if n not in self.coordinator.colluders
        ]
        if not neighbors:
            return colluder
        return self.rng.choice(neighbors)


class HighPowerRouting(_ActivatableRouting):
    """High-power transmission wormhole (paper 3.3): one node rebroadcasts
    requests at a multiple of the legal range so distant nodes hear it
    directly, shortcutting the hop count.  LITEWORP nodes outside the legal
    range reject the frame because the transmitter is not in their neighbor
    list (symmetric-channel assumption)."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        config: RoutingConfig,
        trace: TraceLog,
        rng: random.Random,
        network: Network,
        range_multiplier: float = 3.0,
    ) -> None:
        if range_multiplier <= 1.0:
            raise ValueError("range_multiplier must exceed 1")
        super().__init__(sim, node, config, trace, rng)
        self.network = network
        self.range_multiplier = range_multiplier
        self.data_drops = 0

    def activate(self) -> None:
        super().activate()
        self.network.set_high_power(self.node.node_id, self.range_multiplier)
        self.trace.emit(self.sim.now, "wormhole_activity", node=self.node.node_id)

    def _forward_request(self, frame: Frame, request: RouteRequest) -> None:
        if not self.active:
            super()._forward_request(frame, request)
            return
        self.node.broadcast(
            request.forwarded_by(self.node.node_id),
            prev_hop=frame.transmitter,
            jitter=0.0,
            tx_range=self.network.topology.tx_range * self.range_multiplier,
        )

    def _on_data(self, frame: Frame, packet: DataPacket) -> None:
        if not self.active or packet.destination == self.node.node_id:
            super()._on_data(frame, packet)
            return
        self.data_drops += 1
        self.trace.emit(
            self.sim.now, "malicious_drop", node=self.node.node_id, packet=packet.key()
        )


class RushingRouting(_ActivatableRouting):
    """Protocol-deviation wormhole (paper 3.5): forward requests without
    the random backoff to win the duplicate-suppression race, then drop the
    attracted data.  The forwarding itself is truthful — which is exactly
    why base LITEWORP cannot detect it (watching data packets, the
    ``watch_data`` extension, can)."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        config: RoutingConfig,
        trace: TraceLog,
        rng: random.Random,
    ) -> None:
        super().__init__(sim, node, config, trace, rng)
        self.data_drops = 0

    def activate(self) -> None:
        super().activate()
        self.trace.emit(self.sim.now, "wormhole_activity", node=self.node.node_id)

    def _forward_request(self, frame: Frame, request: RouteRequest) -> None:
        jitter = 0.0 if self.active else None
        self.node.broadcast(
            request.forwarded_by(self.node.node_id),
            prev_hop=frame.transmitter,
            jitter=jitter if jitter is not None else self.config.forward_jitter,
        )

    def _on_data(self, frame: Frame, packet: DataPacket) -> None:
        if not self.active or packet.destination == self.node.node_id:
            super()._on_data(frame, packet)
            return
        self.data_drops += 1
        self.trace.emit(
            self.sim.now, "malicious_drop", node=self.node.node_id, packet=packet.key()
        )


class RelayAttacker:
    """Packet-relay wormhole (paper 3.4): a link-layer parasite.

    The attacker verbatim-retransmits frames between two victims that are
    its neighbors but not each other's, so each victim believes the other
    is one hop away.  Control frames are relayed (to keep the fake link
    alive and attract routes over it); data frames are swallowed.

    This agent sits *below* routing: it is an observer on the malicious
    node and spoofs the original transmitter in the frames it re-sends.
    The malicious node runs an ordinary routing agent alongside to blend in.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        victims: Tuple[NodeId, NodeId],
        trace: TraceLog,
    ) -> None:
        if victims[0] == victims[1]:
            raise ValueError("victims must be two distinct nodes")
        self.sim = sim
        self.node = node
        self.victims = victims
        self.trace = trace
        self.active = False
        self.relayed = 0
        self.data_drops = 0
        self._recently_relayed: Set[int] = set()
        node.add_observer(self.on_frame)

    def activate(self) -> None:
        """Begin relaying between the victims."""
        self.active = True
        self.trace.emit(self.sim.now, "wormhole_activity", node=self.node.node_id)

    def on_frame(self, frame: Frame) -> None:
        """Observer: relay control frames between the victims verbatim."""
        if not self.active:
            return
        if frame.transmitter not in self.victims:
            return
        if frame.packet.uid in self._recently_relayed:
            return
        if isinstance(frame.packet, DataPacket):
            # Selective forwarding: the fake link silently eats data.
            other = self.victims[1] if frame.transmitter == self.victims[0] else self.victims[0]
            if frame.link_dst == other:
                self.data_drops += 1
                self.trace.emit(
                    self.sim.now, "malicious_drop",
                    node=self.node.node_id, packet=frame.packet.key(),
                )
            return
        self._recently_relayed.add(frame.packet.uid)
        if len(self._recently_relayed) > 4096:
            self._recently_relayed.clear()
        self.relayed += 1
        # Spoofed retransmission: the frame still names the victim as its
        # transmitter, which is the whole point of the relay mode.
        self.node.raw_send(frame, jitter=0.001)
