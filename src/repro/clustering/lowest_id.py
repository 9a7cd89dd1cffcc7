"""Lowest-ID cluster-head election and its wormhole.

The protocol (Lin/Gerla style, simplified to one round):

1. every node waits a delay proportional to its id (lower id = earlier
   turn — the distributed equivalent of iterating in id order);
2. when its turn comes, a node that has not yet heard a head announcement
   from any neighbor declares *itself* a cluster head and broadcasts an
   authenticated :class:`ClusterAnnounce`;
3. a node that hears an announcement before its turn joins that head (the
   lowest-id one it heard) and stays silent.

The wormhole tunnels announcement frames verbatim into a distant region:
victims there hear "head H announces" from a node that is *not* their
neighbor, join H, and end up in a cluster whose head they cannot reach —
every message to their head will die silently.  LITEWORP's non-neighbor
check rejects the replayed frame, so protected nodes only ever join
genuine neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.net.node import Node
from repro.net.packet import Frame, NodeId, Packet
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog


@dataclass(frozen=True, slots=True)
class ClusterAnnounce(Packet):
    """A node declaring itself cluster head."""

    head: NodeId = 0

    def _make_key(self) -> Tuple[Any, ...]:
        return ("CH", self.head)

    @property
    def size_bytes(self) -> int:
        return 16


@dataclass(frozen=True)
class ClusteringConfig:
    """Election timing."""

    start_time: float = 1.0
    slot: float = 0.2  # id-proportional turn spacing

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if self.slot <= 0:
            raise ValueError("slot must be positive")


class LowestIdClustering:
    """Per-node lowest-ID election agent."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        config: ClusteringConfig,
        trace: TraceLog,
    ) -> None:
        self.sim = sim
        self.node = node
        self.config = config
        self.trace = trace
        self.head: Optional[NodeId] = None  # my head (self if I lead)
        self.is_head = False
        node.add_listener(self.on_frame)

    def start(self) -> None:
        """Arm this node's election turn."""
        delay = self.config.start_time + self.config.slot * self.node.node_id
        self.sim.schedule(delay, self._take_turn)

    def _take_turn(self) -> None:
        if self.head is not None:
            return  # already joined a neighbor's cluster
        self.is_head = True
        self.head = self.node.node_id
        self.trace.emit(self.sim.now, "cluster_head", head=self.node.node_id)
        self.node.broadcast(ClusterAnnounce(head=self.node.node_id), jitter=0.01)

    def on_frame(self, frame: Frame) -> None:
        """Join the first (lowest-id, by turn order) head heard."""
        packet = frame.packet
        if not isinstance(packet, ClusterAnnounce):
            return
        if self.is_head or self.head is not None:
            return
        self.head = packet.head
        self.trace.emit(
            self.sim.now, "cluster_join",
            node=self.node.node_id, head=packet.head,
            heard_from=frame.transmitter,
        )


class ClusterWormhole:
    """Two colluders replaying head announcements across the field.

    The near end overhears announcements; the far end re-transmits them
    verbatim (original transmitter preserved — a replay, exactly like the
    packet-relay mode) after the tunnel latency.
    """

    def __init__(
        self,
        sim: Simulator,
        near: Node,
        far: Node,
        trace: TraceLog,
        tunnel_latency: float = 1e-4,
    ) -> None:
        self.sim = sim
        self.near = near
        self.far = far
        self.trace = trace
        self.tunnel_latency = tunnel_latency
        self.active = False
        self.replayed = 0
        near.add_observer(self._on_frame)

    def activate(self) -> None:
        """Begin replaying announcements."""
        self.active = True

    def _on_frame(self, frame: Frame) -> None:
        if not self.active:
            return
        if not isinstance(frame.packet, ClusterAnnounce):
            return
        if frame.transmitter in (self.near.node_id, self.far.node_id):
            return
        self.replayed += 1
        self.trace.emit(
            self.sim.now, "wormhole_activity", node=self.near.node_id
        )
        self.sim.schedule(self.tunnel_latency, self.far.raw_send, frame, 0.001)


def cluster_integrity(
    agents: Dict[NodeId, LowestIdClustering], topology: Topology
) -> Dict[str, Any]:
    """Audit the formed clusters.

    A membership is *broken* when a node's head is not actually a radio
    neighbor (nor itself): its intra-cluster traffic can never arrive.
    """
    heads = {n for n, a in agents.items() if a.is_head}
    broken = []
    unassigned = []
    for node_id, agent in agents.items():
        if agent.head is None:
            unassigned.append(node_id)
            continue
        if agent.head == node_id:
            continue
        if agent.head not in topology.neighbors(node_id):
            broken.append(node_id)
    return {
        "heads": sorted(heads),
        "broken_memberships": sorted(broken),
        "unassigned": sorted(unassigned),
        "ok": not broken and not unassigned,
    }
