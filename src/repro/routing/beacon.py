"""Beacon-tree (TinyOS beaconing) routing.

The paper names "the sensor TinyOS beaconing routing protocol" as highly
vulnerable to the wormhole.  The protocol: the sink periodically floods a
*beacon*; every node adopts the transmitter of the first beacon copy it
hears (per epoch) as its parent and rebroadcasts the beacon; data travels
parent-by-parent up to the sink.

A wormhole tunnels the beacon so its far end rebroadcasts it early with a
low hop count, captures a whole subtree of children, and swallows their
upstream readings.  The same LITEWORP machinery applies: beacons are
monitored control packets, so the far end's forged previous-hop
announcement is a fabrication its guards catch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.net.node import Node
from repro.net.packet import DataPacket, Frame, NodeId, Packet
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceLog


@dataclass(frozen=True, slots=True)
class BeaconPacket(Packet):
    """A sink-originated tree-building beacon."""

    sink: NodeId = 0
    epoch: int = 0
    hop_count: int = 0

    def _make_key(self) -> Tuple[Any, ...]:
        return ("BEACON", self.sink, self.epoch)

    @property
    def size_bytes(self) -> int:
        return 20

    @property
    def monitored(self) -> bool:
        return True

    def forwarded(self) -> "BeaconPacket":
        """The beacon as rebroadcast one hop further out."""
        return BeaconPacket(sink=self.sink, epoch=self.epoch, hop_count=self.hop_count + 1)


@dataclass(frozen=True)
class BeaconConfig:
    """Beacon-tree parameters."""

    beacon_interval: float = 10.0
    forward_jitter: float = 0.15

    def __post_init__(self) -> None:
        if self.beacon_interval <= 0:
            raise ValueError("beacon_interval must be positive")
        if self.forward_jitter < 0:
            raise ValueError("forward_jitter must be non-negative")


class BeaconTreeRouting:
    """Per-node beacon-tree agent.

    The sink instance (``is_sink=True``) emits beacons; everyone else
    selects a parent per epoch and forwards upstream data to it.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        config: BeaconConfig,
        trace: TraceLog,
        rng: random.Random,
        sink: NodeId,
    ) -> None:
        self.sim = sim
        self.node = node
        self.config = config
        self.trace = trace
        self.rng = rng
        self.sink = sink
        self.is_sink = node.node_id == sink
        self.usable: Callable[[NodeId], bool] = lambda _n: True
        self.parent: Optional[NodeId] = None
        self.depth: Optional[int] = None
        self._epoch_seen: Dict[int, bool] = {}
        self._epoch_counter = 0
        self._sequence = 0
        self._beacon_timer: Optional[PeriodicTimer] = None
        node.add_listener(self.on_frame)

    # ------------------------------------------------------------------
    # Sink side
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Sink: begin the beacon schedule (no-op on ordinary nodes)."""
        if not self.is_sink or self._beacon_timer is not None:
            return
        self._beacon_timer = PeriodicTimer(
            self.sim, self._emit_beacon, lambda: self.config.beacon_interval
        )
        self._beacon_timer.start(initial_delay=0.1)

    def stop(self) -> None:
        """Stop beaconing."""
        if self._beacon_timer is not None:
            self._beacon_timer.stop()

    def _emit_beacon(self) -> None:
        self._epoch_counter += 1
        beacon = BeaconPacket(sink=self.sink, epoch=self._epoch_counter, hop_count=0)
        self.trace.emit(self.sim.now, "beacon_emitted", sink=self.sink,
                        epoch=self._epoch_counter)
        self.node.broadcast(beacon, prev_hop=None, jitter=0.0)

    # ------------------------------------------------------------------
    # Tree building
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        """Listener: beacons build the tree, data climbs it."""
        packet = frame.packet
        if isinstance(packet, BeaconPacket):
            self._on_beacon(frame, packet)
        elif isinstance(packet, DataPacket):
            if frame.link_dst == self.node.node_id:
                self._on_data(frame, packet)

    def _on_beacon(self, frame: Frame, beacon: BeaconPacket) -> None:
        if self.is_sink:
            return
        if self._epoch_seen.get(beacon.epoch):
            return
        self._epoch_seen[beacon.epoch] = True
        if len(self._epoch_seen) > 64:
            self._epoch_seen.pop(next(iter(self._epoch_seen)))
        if self.usable(frame.transmitter):
            self.parent = frame.transmitter
            self.depth = beacon.hop_count + 1
            self.trace.emit(
                self.sim.now, "beacon_parent",
                node=self.node.node_id, epoch=beacon.epoch,
                parent=self.parent, depth=self.depth,
            )
        self._forward_beacon(frame, beacon)

    def _forward_beacon(self, frame: Frame, beacon: BeaconPacket) -> None:
        """Rebroadcast hook (overridden by the wormhole agent)."""
        self.node.broadcast(
            beacon.forwarded(),
            prev_hop=frame.transmitter,
            jitter=self.config.forward_jitter,
        )

    # ------------------------------------------------------------------
    # Upstream data
    # ------------------------------------------------------------------
    def send_reading(self, payload_size: int = 64) -> Optional[DataPacket]:
        """Originate one reading toward the sink; None if no parent yet."""
        if self.is_sink:
            raise ValueError("the sink does not send readings to itself")
        self._sequence += 1
        packet = DataPacket(
            origin=self.node.node_id,
            destination=self.sink,
            flow_id=self.sink,
            sequence=self._sequence,
            payload_size=payload_size,
        )
        self.trace.emit(
            self.sim.now, "data_origin", packet=packet.key(),
            origin=packet.origin, destination=self.sink,
        )
        if self.parent is None or not self.usable(self.parent):
            self.trace.emit(
                self.sim.now, "data_no_route", packet=packet.key(),
                node=self.node.node_id,
            )
            return None
        self.node.unicast(packet, next_hop=self.parent, prev_hop=None)
        return packet

    def _on_data(self, frame: Frame, packet: DataPacket) -> None:
        if self.is_sink:
            self.trace.emit(
                self.sim.now, "data_delivered", packet=packet.key(),
                origin=packet.origin, destination=self.sink,
            )
            return
        if self.parent is None or not self.usable(self.parent):
            self.trace.emit(
                self.sim.now, "data_no_route", packet=packet.key(),
                node=self.node.node_id,
            )
            return
        self.node.unicast(packet, next_hop=self.parent, prev_hop=frame.transmitter)


class WormholeBeaconRouting(BeaconTreeRouting):
    """A colluding pair attacking the beacon tree.

    Before activation: an honest tree node.  After: the node nearest the
    sink tunnels each beacon epoch to its distant colluder, which replays
    it with the *original* hop count and a forged previous-hop
    announcement — so distant nodes adopt it as a parent believing it sits
    right next to the sink.  All captured upstream readings are swallowed.
    """

    def __init__(self, *args, network=None, fake_prev_strategy: str = "smart", **kwargs):
        super().__init__(*args, **kwargs)
        self.network = network
        self.fake_prev_strategy = fake_prev_strategy
        self.active = False
        self.peer: Optional["WormholeBeaconRouting"] = None
        self.tunnel_latency = 1e-4
        self.drops = 0

    def pair_with(self, peer: "WormholeBeaconRouting") -> None:
        """Join the two wormhole ends (symmetric)."""
        self.peer = peer
        peer.peer = self

    def activate(self) -> None:
        """Begin the attack."""
        self.active = True
        self.trace.emit(self.sim.now, "wormhole_activity", node=self.node.node_id)

    def _forward_beacon(self, frame: Frame, beacon: BeaconPacket) -> None:
        if not self.active or self.peer is None:
            super()._forward_beacon(frame, beacon)
            return
        self.sim.schedule(
            self.tunnel_latency, self.peer.receive_tunneled_beacon, beacon
        )

    def receive_tunneled_beacon(self, beacon: BeaconPacket) -> None:
        """Far end: replay the beacon as if adjacent to its last real hop."""
        if not self.active:
            return
        if self._epoch_seen.get(beacon.epoch) == "replayed":
            return
        self._epoch_seen[beacon.epoch] = "replayed"
        fake_prev = self._fake_prev()
        self.trace.emit(
            self.sim.now, "wormhole_activity", node=self.node.node_id
        )
        # Hop count NOT incremented across the tunnel: the replayed beacon
        # looks one hop from wherever the near end heard it.
        self.node.broadcast(beacon.forwarded(), prev_hop=fake_prev, jitter=0.002)

    def _fake_prev(self) -> NodeId:
        neighbors = list(self.network.neighbors(self.node.node_id)) if self.network else []
        peer_id = self.peer.node.node_id if self.peer else None
        candidates = [n for n in neighbors if n != peer_id]
        if self.fake_prev_strategy == "naive" or not candidates:
            return peer_id if peer_id is not None else self.node.node_id
        return self.rng.choice(candidates)

    def _on_data(self, frame: Frame, packet: DataPacket) -> None:
        if not self.active:
            super()._on_data(frame, packet)
            return
        self.drops += 1
        self.trace.emit(
            self.sim.now, "malicious_drop", node=self.node.node_id,
            packet=packet.key(),
        )
