"""Network assembly: simulator + radio + channel + nodes.

:class:`Network` is the composition root for a simulated deployment.  Given
a :class:`~repro.net.topology.Topology` it builds the radio, the channel,
and one :class:`~repro.net.node.Node` (with its own MAC) per placement, and
exposes lookup helpers the protocol layers use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.net.channel import Channel
from repro.net.mac import CsmaMac, MacConfig
from repro.net.node import Node
from repro.net.packet import NodeId
from repro.net.radio import UnitDiskRadio
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class NetworkConfig:
    """Physical/link-layer parameters (defaults follow Table 2)."""

    bandwidth_bps: float = 40_000.0
    ambient_loss: float = 0.0
    capture_ratio: float = 1.1
    mac: MacConfig = MacConfig()


class Network:
    """A fully wired simulated network over a static topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        rng: RngRegistry,
        trace: Optional[TraceLog] = None,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.rng = rng
        self.trace = trace if trace is not None else TraceLog()
        self.config = config or NetworkConfig()
        self.radio = UnitDiskRadio(topology.positions, topology.tx_range)
        self.channel = Channel(
            sim,
            self.radio,
            rng,
            trace=self.trace,
            bandwidth_bps=self.config.bandwidth_bps,
            ambient_loss=self.config.ambient_loss,
            capture_ratio=self.config.capture_ratio,
        )
        self.nodes: Dict[NodeId, Node] = {}
        for node_id, position in topology.positions.items():
            mac = CsmaMac(
                sim,
                self.channel,
                node_id,
                rng.stream(f"mac:{node_id}"),
                config=self.config.mac,
                trace=self.trace,
            )
            node = Node(node_id, position, mac)
            self.nodes[node_id] = node
            self.channel.attach(node_id, node.deliver)
            # Registered before any protocol agent's listener, so the
            # channel already treats the node as deaf (or hearing) when
            # the agents react to the crash or reboot.
            node.add_lifecycle_listener(
                lambda alive, n=node_id: self.channel.set_deaf(n, not alive)
            )

    def release(self) -> None:
        """Unwire the channel and every node (see :meth:`Channel.release`,
        :meth:`Node.release`); frame counters and topology stay."""
        self.channel.release()
        for node in self.nodes.values():
            node.release()

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def node(self, node_id: NodeId) -> Node:
        """The node object for ``node_id``."""
        return self.nodes[node_id]

    def node_ids(self) -> Tuple[NodeId, ...]:
        """All node ids, sorted."""
        return tuple(sorted(self.nodes))

    def neighbors(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Ground-truth radio neighbors (default range)."""
        return self.topology.neighbors(node_id)

    def set_high_power(self, node_id: NodeId, range_multiplier: float) -> None:
        """Grant a node an extended transmit range (attack mode 3.3)."""
        if range_multiplier <= 0:
            raise ValueError("range multiplier must be positive")
        self.radio.set_tx_range(node_id, self.topology.tx_range * range_multiplier)

    def emit(self, kind: str, **fields: object) -> None:
        """Convenience trace emission stamped with the current time."""
        self.trace.emit(self.sim.now, kind, **fields)
