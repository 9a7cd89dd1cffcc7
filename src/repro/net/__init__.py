"""Wireless network substrate.

Models the physical and link layers that the paper's ns-2 experiments rely
on: a unit-disk radio, a shared broadcast medium with interference-based
collisions and half-duplex receivers, a CSMA-style MAC with random backoff,
uniform-density topology generation, and the per-node runtime container.

Layering (bottom to top)::

    radio (propagation)  ->  channel (medium, collisions)
        ->  mac (carrier sense, backoff, queueing)
        ->  node (frame dispatch to filters/listeners)

All packets travel inside a :class:`~repro.net.packet.Frame`, which carries
the link-layer fields LITEWORP cares about: the (claimed) transmitter, the
optional link destination, and the *announced previous hop* that every
forwarder must declare (paper section 4.2.1).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.net.channel import Channel, Reception
    from repro.net.mac import CsmaMac, MacConfig
    from repro.net.node import Node
    from repro.net.network import Network, NetworkConfig
    from repro.net.packet import (
        AlertAckPacket,
        AlertPacket,
        DataPacket,
        Frame,
        HeartbeatPacket,
        HelloPacket,
        HelloReplyPacket,
        NeighborListPacket,
        NoisePacket,
        Packet,
        ProbeAckPacket,
        ProbePacket,
        RouteReply,
        RouteRequest,
    )
    from repro.net.radio import UnitDiskRadio
    from repro.net.topology import (
        Topology,
        field_side_for_density,
        generate_connected_topology,
        grid_topology,
        uniform_topology,
    )

__all__ = [
    "AlertAckPacket",
    "AlertPacket",
    "Channel",
    "CsmaMac",
    "DataPacket",
    "Frame",
    "HeartbeatPacket",
    "HelloPacket",
    "HelloReplyPacket",
    "MacConfig",
    "NeighborListPacket",
    "NoisePacket",
    "ProbeAckPacket",
    "ProbePacket",
    "Network",
    "NetworkConfig",
    "Node",
    "Packet",
    "Reception",
    "RouteReply",
    "RouteRequest",
    "Topology",
    "UnitDiskRadio",
    "field_side_for_density",
    "generate_connected_topology",
    "grid_topology",
    "uniform_topology",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.net.channel": ("Channel", "Reception"),
    "repro.net.mac": ("CsmaMac", "MacConfig"),
    "repro.net.node": ("Node",),
    "repro.net.network": ("Network", "NetworkConfig"),
    "repro.net.packet": (
        "AlertAckPacket", "AlertPacket", "DataPacket", "Frame", "HeartbeatPacket",
        "HelloPacket", "HelloReplyPacket", "NeighborListPacket", "NoisePacket", "Packet",
        "ProbeAckPacket", "ProbePacket", "RouteReply", "RouteRequest",
    ),
    "repro.net.radio": ("UnitDiskRadio",),
    "repro.net.topology": (
        "Topology", "field_side_for_density", "generate_connected_topology",
        "grid_topology", "uniform_topology",
    ),
})
