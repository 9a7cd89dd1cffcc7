"""Packet and frame definitions.

Every protocol message is a :class:`Packet` subclass; every on-air
transmission wraps one packet in a :class:`Frame` that adds the link-layer
header.  Two design points matter for LITEWORP:

- ``Frame.prev_hop`` is the *announced previous hop*: the node the
  transmitter claims to have received the packet from.  Honest forwarders
  announce truthfully; wormhole nodes fabricate it (paper figure 4).
- ``Packet.key()`` identifies the *same logical packet* across hops — e.g. a
  route request keeps the key ``("REQ", origin, request_id)`` at every
  forwarder — which is what guards use to correlate watch-buffer entries
  with later forwards.  The key tuple is computed once per packet object
  and cached on it, and :meth:`RouteRequest.forwarded_by` hands it to the
  rebroadcast copy, so one tuple per route discovery is shared by every
  node's duplicate filter, the guards' overheard stores and every trace
  record that names the packet.

Sizes are in bytes and drive transmission durations on the 40 kbps channel
from the paper's Table 2.

The C kernel reads these slotted classes by offset and stands in for
``Packet.key``, ``Frame.describe`` and ``Frame.size_bytes`` only while a
class holds the references captured below (:func:`repro.sim.accel.kernel_layout`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

NodeId = int

_packet_uids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Packet:
    """Base class for all protocol messages.

    ``uid`` identifies a concrete Python object lineage (useful in traces);
    :meth:`key` identifies the logical packet across hops.
    """

    uid: int = field(default_factory=lambda: next(_packet_uids), init=False, compare=False)
    _key: Optional[Tuple[Any, ...]] = field(default=None, init=False, compare=False, repr=False)

    def key(self) -> Tuple[Any, ...]:
        """Logical identity of the packet, stable across forwarding hops.

        Computed by :meth:`_make_key` on first use and cached, so every
        caller holding this packet shares one tuple.
        """
        key = self._key
        if key is None:
            key = self._make_key()
            _set_key(self, key)
        return key

    def _make_key(self) -> Tuple[Any, ...]:
        """Compute the logical key; each subclass defines its tuple here."""
        raise NotImplementedError

    @property
    def size_bytes(self) -> int:
        """On-air size, used for transmission-duration computation.  A
        subclass whose size does not depend on its fields gives it as a
        plain class attribute, which costs no call to read."""
        raise NotImplementedError

    @property
    def monitored(self) -> bool:
        """Whether guards watch this packet type for fabrication/drops.
        Routed control packets (route requests/replies) are;
        one-hop protocol messages (HELLO, alerts, ...) are not."""
        return False


@dataclass(frozen=True, slots=True)
class HelloPacket(Packet):
    """One-hop broadcast announcing a freshly deployed node (paper 4.2.1)."""

    sender: NodeId = 0

    def _make_key(self) -> Tuple[Any, ...]:
        return ("HELLO", self.sender)

    size_bytes = 16


@dataclass(frozen=True, slots=True)
class HelloReplyPacket(Packet):
    """Authenticated reply to a HELLO, addressed to the announcer."""

    sender: NodeId = 0
    announcer: NodeId = 0
    auth: bytes = b""

    def _make_key(self) -> Tuple[Any, ...]:
        return ("HELLO_REPLY", self.sender, self.announcer)

    size_bytes = 24


@dataclass(frozen=True, slots=True)
class NeighborListPacket(Packet):
    """Broadcast of a node's direct-neighbor list ``R_A``.

    ``auths`` maps each neighbor id to the MAC computed with the pairwise
    key shared with that neighbor, so each recipient can verify the list
    individually (paper 4.2.1).
    """

    sender: NodeId = 0
    neighbors: Tuple[NodeId, ...] = ()
    auths: Tuple[Tuple[NodeId, bytes], ...] = ()

    def _make_key(self) -> Tuple[Any, ...]:
        return ("NLIST", self.sender)

    @property
    def size_bytes(self) -> int:
        return 8 + 4 * len(self.neighbors) + 8 * len(self.auths)

    def auth_for(self, neighbor: NodeId) -> Optional[bytes]:
        """The authentication tag destined for ``neighbor``, if present."""
        for node, tag in self.auths:
            if node == neighbor:
                return tag
        return None


@dataclass(frozen=True, slots=True)
class RouteRequest(Packet):
    """Flooded on-demand route request (REQ).

    ``hop_count`` is the number of hops the request has traversed; wormhole
    ends forward it without incrementing to appear close to the origin.
    """

    origin: NodeId = 0
    request_id: int = 0
    target: NodeId = 0
    hop_count: int = 0
    path: Tuple[NodeId, ...] = ()

    def __init__(
        self,
        origin: NodeId = 0,
        request_id: int = 0,
        target: NodeId = 0,
        hop_count: int = 0,
        path: Tuple[NodeId, ...] = (),
    ) -> None:
        _set_uid(self, next(_packet_uids))
        _set_key(self, None)
        _set_req_origin(self, origin)
        _set_req_request_id(self, request_id)
        _set_req_target(self, target)
        _set_req_hop_count(self, hop_count)
        _set_req_path(self, path)

    def _make_key(self) -> Tuple[Any, ...]:
        return ("REQ", self.origin, self.request_id)

    size_bytes = 32

    @property
    def monitored(self) -> bool:
        return True

    def forwarded_by(self, node: NodeId) -> "RouteRequest":
        """Copy of the request as rebroadcast by ``node`` (one more hop),
        sharing this request's key tuple."""
        copy = RouteRequest(
            self.origin, self.request_id, self.target, self.hop_count + 1, self.path + (node,)
        )
        _set_key(copy, self.key())
        return copy


@dataclass(frozen=True, slots=True)
class RouteReply(Packet):
    """Route reply (REP), unicast hop-by-hop back toward the origin.

    ``path`` records the nodes the corresponding request traversed (origin
    first); it is carried for bookkeeping and malicious-route metrics, the
    forwarding itself follows reverse pointers.
    """

    origin: NodeId = 0
    request_id: int = 0
    target: NodeId = 0
    hop_count: int = 0
    path: Tuple[NodeId, ...] = ()

    def __init__(
        self,
        origin: NodeId = 0,
        request_id: int = 0,
        target: NodeId = 0,
        hop_count: int = 0,
        path: Tuple[NodeId, ...] = (),
    ) -> None:
        _set_uid(self, next(_packet_uids))
        _set_key(self, None)
        _set_rep_origin(self, origin)
        _set_rep_request_id(self, request_id)
        _set_rep_target(self, target)
        _set_rep_hop_count(self, hop_count)
        _set_rep_path(self, path)

    def _make_key(self) -> Tuple[Any, ...]:
        return ("REP", self.origin, self.request_id)

    @property
    def size_bytes(self) -> int:
        return 32 + 4 * len(self.path)

    @property
    def monitored(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class DataPacket(Packet):
    """Application data, forwarded along an established route."""

    origin: NodeId = 0
    destination: NodeId = 0
    flow_id: int = 0
    sequence: int = 0
    payload_size: int = 64

    def __init__(
        self,
        origin: NodeId = 0,
        destination: NodeId = 0,
        flow_id: int = 0,
        sequence: int = 0,
        payload_size: int = 64,
    ) -> None:
        _set_uid(self, next(_packet_uids))
        _set_key(self, None)
        _set_data_origin(self, origin)
        _set_data_destination(self, destination)
        _set_data_flow_id(self, flow_id)
        _set_data_sequence(self, sequence)
        _set_data_payload_size(self, payload_size)

    def _make_key(self) -> Tuple[Any, ...]:
        return ("DATA", self.origin, self.flow_id, self.sequence)

    @property
    def size_bytes(self) -> int:
        return self.payload_size


@dataclass(frozen=True, slots=True)
class RouteErrorPacket(Packet):
    """Broadcast by a node that *cannot* forward a packet it was handed
    (no reverse pointer, or the next hop has been revoked).

    Guards clear the corresponding watch-buffer entry when they hear it, so
    a legitimate inability to forward is not mistaken for a malicious drop.
    A malicious node could of course abuse this to dodge drop accusations —
    but the paper already notes a smart wormhole can dodge them by
    forwarding a copy over the slow route; fabrication remains the primary
    detection signal.
    """

    reporter: NodeId = 0
    inner_key: Tuple[Any, ...] = ()

    def _make_key(self) -> Tuple[Any, ...]:
        return ("RERR", self.reporter) + self.inner_key

    size_bytes = 24


@dataclass(frozen=True, slots=True)
class HeartbeatPacket(Packet):
    """One-hop liveness beacon (liveness refinement, DESIGN.md 5b item 5).

    Broadcast periodically so neighbors can tell a crashed node from a
    malicious dropper.  Never monitored: heartbeats are one-hop and carry
    no forwarding obligation.
    """

    sender: NodeId = 0
    sequence: int = 0

    def _make_key(self) -> Tuple[Any, ...]:
        return ("HBEAT", self.sender, self.sequence)

    size_bytes = 12


@dataclass(frozen=True, slots=True)
class ProbePacket(Packet):
    """Unicast liveness probe sent to a SUSPECT neighbor."""

    sender: NodeId = 0
    target: NodeId = 0
    nonce: int = 0

    def _make_key(self) -> Tuple[Any, ...]:
        return ("PROBE", self.sender, self.target, self.nonce)

    size_bytes = 16


@dataclass(frozen=True, slots=True)
class ProbeAckPacket(Packet):
    """Reply to a :class:`ProbePacket`, echoing its nonce."""

    sender: NodeId = 0
    target: NodeId = 0
    nonce: int = 0

    def _make_key(self) -> Tuple[Any, ...]:
        return ("PROBE_ACK", self.sender, self.target, self.nonce)

    size_bytes = 16


@dataclass(frozen=True, slots=True)
class NoisePacket(Packet):
    """Meaningless filler traffic used by the MAC-saturation fault.

    No protocol layer listens for it; its only effect is to occupy air
    time and collide with legitimate frames.
    """

    sender: NodeId = 0
    sequence: int = 0
    payload_size: int = 32

    def _make_key(self) -> Tuple[Any, ...]:
        return ("NOISE", self.sender, self.sequence)

    @property
    def size_bytes(self) -> int:
        return self.payload_size


@dataclass(frozen=True, slots=True)
class AlertPacket(Packet):
    """Authenticated accusation sent by a guard to a neighbor of the accused.

    ``relay_via`` supports the one-relay delivery used when the guard and
    the recipient are two hops apart (both being neighbors of the accused
    guarantees a common neighbor exists in the usual case).
    """

    guard: NodeId = 0
    accused: NodeId = 0
    recipient: NodeId = 0
    auth: bytes = b""
    relay_via: Optional[NodeId] = None

    def _make_key(self) -> Tuple[Any, ...]:
        return ("ALERT", self.guard, self.accused, self.recipient)

    size_bytes = 24


@dataclass(frozen=True, slots=True)
class AlertAckPacket(Packet):
    """Authenticated acknowledgment of a received alert.

    Sent only when bounded alert retransmission is enabled
    (``LiteworpConfig.alert_retries`` > 0): the recipient confirms the
    accusation arrived so the guard stops retransmitting.  ``relay_via``
    mirrors the alert's one-relay delivery for two-hop guard/recipient
    pairs.
    """

    sender: NodeId = 0
    guard: NodeId = 0
    accused: NodeId = 0
    auth: bytes = b""
    relay_via: Optional[NodeId] = None

    def _make_key(self) -> Tuple[Any, ...]:
        return ("ALERT_ACK", self.sender, self.guard, self.accused)

    size_bytes = 24


@dataclass(frozen=True, slots=True)
class RttProbePacket(Packet):
    """Unicast round-trip-time probe (RTT wormhole detector plugin).

    The prober records the send time keyed by nonce; the matching
    :class:`RttEchoPacket` closes the sample.  Control traffic, so a
    packet-relay wormhole relays it — and thereby stretches the measured
    RTT, which is the detection signal.
    """

    sender: NodeId = 0
    target: NodeId = 0
    nonce: int = 0

    def _make_key(self) -> Tuple[Any, ...]:
        return ("RTT_PROBE", self.sender, self.target, self.nonce)

    size_bytes = 16


@dataclass(frozen=True, slots=True)
class RttEchoPacket(Packet):
    """Immediate echo of an :class:`RttProbePacket`, nonce preserved."""

    sender: NodeId = 0
    target: NodeId = 0
    nonce: int = 0

    def _make_key(self) -> Tuple[Any, ...]:
        return ("RTT_ECHO", self.sender, self.target, self.nonce)

    size_bytes = 16


@dataclass(frozen=True, slots=True)
class SndChallengePacket(Packet):
    """Time-of-flight challenge (secure-neighbor-discovery plugin).

    The challenger starts its clock when the frame hits the air; the
    neighbor must return an authenticated :class:`SndResponsePacket`
    within the response window for the link to count as verified.
    """

    sender: NodeId = 0
    target: NodeId = 0
    nonce: int = 0

    def _make_key(self) -> Tuple[Any, ...]:
        return ("SND_CHAL", self.sender, self.target, self.nonce)

    size_bytes = 16


@dataclass(frozen=True, slots=True)
class SndResponsePacket(Packet):
    """Authenticated reply to an :class:`SndChallengePacket`.

    ``auth`` is an HMAC over (challenger, responder, nonce) under the
    pairwise key, so a wormhole cannot forge responses for links it
    merely relays — it can only delay them past the window.
    """

    sender: NodeId = 0
    target: NodeId = 0
    nonce: int = 0
    auth: bytes = b""

    def _make_key(self) -> Tuple[Any, ...]:
        return ("SND_RESP", self.sender, self.target, self.nonce)

    size_bytes = 24


@dataclass(frozen=True, slots=True)
class Frame:
    """Link-layer transmission unit.

    Attributes
    ----------
    transmitter:
        The link-layer source *as claimed in the header*.  Honest nodes put
        their own id; a packet-relay attacker retransmits frames preserving
        the original header, which is exactly what makes two distant nodes
        believe they are neighbors.
    link_dst:
        ``None`` for broadcast, else the intended next hop.  All in-range
        nodes still receive the frame (promiscuous overhearing is what
        enables local monitoring).
    prev_hop:
        Announced previous hop — ``None`` when the transmitter originated
        the packet.
    leash:
        Optional packet leash (leash defense, see
        :mod:`repro.defenses.leash`): authenticated sender location and
        send time, stamped at the radio at transmission.  Carried opaquely
        here; anything with a ``size_bytes`` attribute counts toward the
        frame's air time.
    """

    packet: Packet
    transmitter: NodeId
    link_dst: Optional[NodeId] = None
    prev_hop: Optional[NodeId] = None
    leash: Optional[Any] = None

    def __init__(
        self,
        packet: Packet,
        transmitter: NodeId,
        link_dst: Optional[NodeId] = None,
        prev_hop: Optional[NodeId] = None,
        leash: Optional[Any] = None,
    ) -> None:
        _set_frame_packet(self, packet)
        _set_frame_transmitter(self, transmitter)
        _set_frame_link_dst(self, link_dst)
        _set_frame_prev_hop(self, prev_hop)
        _set_frame_leash(self, leash)

    @property
    def is_broadcast(self) -> bool:
        """Whether the frame has no specific link-layer destination."""
        return self.link_dst is None

    @property
    def size_bytes(self) -> int:
        """Packet size plus a fixed 12-byte link header (plus any leash)."""
        extra = getattr(self.leash, "size_bytes", 0) if self.leash is not None else 0
        return self.packet.size_bytes + 12 + extra

    def describe(self) -> Dict[str, Any]:
        """Compact dict for traces."""
        return {
            "packet": self.packet.key(),
            "tx": self.transmitter,
            "dst": self.link_dst,
            "prev": self.prev_hop,
        }


#: The reference copy of a rebroadcast request.  The C medium makes the
#: copy itself only while ``RouteRequest.forwarded_by`` is this function
#: (see :mod:`repro.routing.ondemand`).
REQUEST_FORWARDED_BY = RouteRequest.forwarded_by
#: The references the C kernel stands in for (module docstring).
PACKET_KEY = Packet.key
FRAME_DESCRIBE = Frame.describe
FRAME_SIZE_BYTES = Frame.__dict__["size_bytes"]


def _slot_setters(cls: type, *names: str) -> Tuple[Any, ...]:
    """The ``__set__`` of each named slot's member descriptor on ``cls``
    (the hand-written ``__init__``s above write through these, which a
    frozen dataclass's ``__setattr__`` does not intercept)."""
    return tuple(cls.__dict__[name].__set__ for name in names)


_set_uid, _set_key = _slot_setters(Packet, "uid", "_key")
(
    _set_req_origin, _set_req_request_id, _set_req_target, _set_req_hop_count, _set_req_path,
) = _slot_setters(RouteRequest, "origin", "request_id", "target", "hop_count", "path")
(
    _set_rep_origin, _set_rep_request_id, _set_rep_target, _set_rep_hop_count, _set_rep_path,
) = _slot_setters(RouteReply, "origin", "request_id", "target", "hop_count", "path")
(
    _set_data_origin, _set_data_destination, _set_data_flow_id, _set_data_sequence,
    _set_data_payload_size,
) = _slot_setters(DataPacket, "origin", "destination", "flow_id", "sequence", "payload_size")
(
    _set_frame_packet, _set_frame_transmitter, _set_frame_link_dst, _set_frame_prev_hop,
    _set_frame_leash,
) = _slot_setters(Frame, "packet", "transmitter", "link_dst", "prev_hop", "leash")
