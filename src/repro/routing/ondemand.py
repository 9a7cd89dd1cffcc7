"""The on-demand routing agent.

One :class:`OnDemandRouting` instance runs on every node.  It implements
the paper's "generic on-demand shortest path routing that floods route
requests and unicasts route replies in the reverse direction":

- **Discovery** — the origin floods a :class:`RouteRequest`; forwarders
  suppress duplicates, remember a *reverse pointer* (the neighbor they
  first heard the request from), announce the previous hop, and rebroadcast
  after a random jitter.
- **Reply** — the destination answers with a :class:`RouteReply` unicast
  along the reverse pointers.  Each node the reply passes installs a
  forward next-hop toward the destination in its route cache.
- **Data** — hop-by-hop forwarding over the cached next hops; caches expire
  after ``TOut_Route``.

Attack agents subclass this class and override the small protected hooks
(``_forward_request``, ``_forward_reply``, ``_forward_data``) rather than
reimplementing the protocol.

:class:`OnDemandRouting` is the reference implementation.  On the C
kernel's simulator, for an agent whose node's MAC the channel's
``Medium`` runs (:mod:`repro.net.mac`), the medium also runs the flood's
common paths and the forwarding of addressed packets
(``repro/sim/_ckernel.c``).  The agent's ``_seen_requests``,
``_copy_counts`` and route table entries, its node, the config's
``forward_jitter`` and ``suppression_threshold``, the table's timeout
and the ``random`` of its ``routing:`` stream are kept in the node's
slot.  When the node's pipeline reaches this agent's listener, the
medium handles, without a Python frame:

- a duplicate request (its copy count goes up) and an overheard reply or
  data packet addressed to another node (nothing happens);
- a first copy at a forwarder: the reverse pointer and a zero count are
  stored, and the rebroadcast decision is scheduled with the same draw,
  time and sequence number as :meth:`_forward_request`'s.  The decision
  is :meth:`_forward_decision` with :meth:`RouteRequest.forwarded_by`
  and ``Node.broadcast``: the count is popped and tested, the copy and
  its ``Frame`` are built (the copy's ``uid`` drawn at the same moment);
- a data packet at an intermediate hop (:meth:`_on_data`): a fresh entry
  of ``RouteTable.lookup`` whose next hop ``usable`` allows is forwarded
  with :meth:`_forward_data`'s ``Node.unicast``;
- a route reply at a reverse-path hop (:meth:`_on_reply`): the reverse
  pointer is read, ``RouteTable.install``'s entry is built by slot
  offset, and :meth:`_forward_reply` unicasts the reply to a usable hop.

Each send then runs ``Node._submit``: the ``alive`` check, the node's
send filters (LITEWORP's guard's entered directly, see
:mod:`repro.core.agent`) and the MAC's ``send``.  ``usable`` is run
there only when it is :func:`always_usable` or a LITEWORP guard's
``is_usable`` on an agent without a liveness manager; with any other
hook the frame takes the Python path.  Everything else calls
:meth:`on_frame`: a request at its target or origin, data at its
destination, a reply at its origin, no fresh route, no reverse pointer,
a hop the hook refuses (so ``data_blocked`` and ``rep_stranded`` are the
Python path's), other packets, a config with ``suppression_threshold ==
0`` or ``forward_jitter == 0``, and a request whose key is not cached
yet.

The wrapper rule (:func:`repro.sim.accel.unwrapped`), checked once when
the agent is built (:func:`runs_in_medium`): the medium runs the flood
and the forwarding only while the agent's class still resolves every
name in :data:`FLOOD_METHODS` to this class's function, the node's class
still has the reference ``broadcast``, ``unicast`` and ``_submit``
(:data:`repro.net.node.NODE_SEND`), the route table's class has the
reference ``lookup`` and ``install`` (:data:`ROUTE_METHODS`) and
``RouteRequest.forwarded_by`` is the original.  Per frame it stands in
only for the listener that is this agent's bound
:data:`ONDEMAND_ON_FRAME`, and for a request only while its class has
the reference ``Packet.key`` (:func:`repro.sim.accel.kernel_layout`).
So the attack agents that override a hook, and the layer tracer of
``benchmarks/e2e``, which wraps ``on_frame`` on the class before it
builds a scenario, keep the Python path for every frame;
``REPRO_ACCEL=off``, :func:`repro.sim.accel.reference_mode` and a
missing compiler do the same.

Trace kinds emitted: ``data_origin``, ``data_delivered``, ``data_no_route``,
``data_blocked``, ``data_discovery_failed``, ``route_established``,
``rep_stranded``, ``route_request_sent``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.node import NODE_SEND, Node
from repro.net.packet import (
    REQUEST_FORWARDED_BY,
    DataPacket,
    Frame,
    NodeId,
    RouteErrorPacket,
    RouteReply,
    RouteRequest,
)
from repro.routing.cache import RouteTable
from repro.routing.config import RoutingConfig
from repro.sim import accel
from repro.sim.engine import Event, Simulator
from repro.sim.trace import TraceLog

RequestKey = Tuple[NodeId, int]
#: ``RouteRequest.key()``: ``("REQ", origin, request_id)``.
PacketKey = Tuple[Any, ...]


@dataclass
class _PendingDiscovery:
    """Origin-side state for an in-progress route discovery."""

    destination: NodeId
    request_id: int
    retries: int = 0
    queue: List[DataPacket] = field(default_factory=list)
    timer: Optional[Event] = None


@dataclass
class _ReplyCandidates:
    """Destination-side collection of request copies for one discovery."""

    copies: List[Tuple[int, float, NodeId, Tuple[NodeId, ...]]] = field(default_factory=list)
    replied: bool = False


class OnDemandRouting:
    """Per-node routing agent (origin, forwarder, and destination roles)."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        config: RoutingConfig,
        trace: TraceLog,
        rng: random.Random,
    ) -> None:
        self.sim = sim
        self.node = node
        self.config = config
        self.trace = trace
        self.rng = rng
        self.routes = RouteTable(config.route_timeout)
        # Hook overridden by LITEWORP: "may this neighbor be used as a hop?"
        self.usable: Callable[[NodeId], bool] = always_usable
        # Every route request seen, keyed by its shared key tuple (see
        # Packet.key), mapped to the neighbour it came from: the reverse
        # hop for its reply.  Own (and, at a colluder, tunnelled) requests
        # map to None.
        self._seen_requests: Dict[PacketKey, Optional[NodeId]] = {}
        self._pending: Dict[NodeId, _PendingDiscovery] = {}
        self._candidates: Dict[RequestKey, _ReplyCandidates] = {}
        self._copy_counts: Dict[Tuple, int] = {}
        self._request_counter = 0
        self._sequence_counter = 0
        # Whether on_frame may drop a duplicate request itself: only while
        # _on_request is this class's (attack agents override it).
        self._dedup_first = accel.unwrapped(type(self), {"_on_request": FLOOD_METHODS["_on_request"]})
        node.add_listener(self.on_frame)
        # The C medium runs the flood's common paths while it runs the
        # node's MAC and the wrapper rule holds (module docstring).
        medium_mac = getattr(node.mac, "_medium_mac", None)
        if medium_mac is not None and runs_in_medium(self):
            medium_mac.flood(
                self, sim, node, self._seen_requests, self._copy_counts,
                self.routes._entries, rng.random, config.forward_jitter,
                config.suppression_threshold, self.routes.timeout, ONDEMAND_ON_FRAME,
                always_usable,
            )

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send_data(self, destination: NodeId, payload_size: int = 64) -> DataPacket:
        """Originate one data packet toward ``destination``.

        The packet is forwarded immediately when a fresh route exists,
        otherwise queued behind a (possibly new) route discovery.
        """
        if destination == self.node.node_id:
            raise ValueError("cannot send data to self")
        self._sequence_counter += 1
        packet = DataPacket(
            origin=self.node.node_id,
            destination=destination,
            flow_id=destination,
            sequence=self._sequence_counter,
            payload_size=payload_size,
        )
        self.trace.emit(
            self.sim.now,
            "data_origin",
            packet=packet.key(),
            origin=packet.origin,
            destination=destination,
        )
        entry = self.routes.lookup(destination, self.sim.now)
        if entry is not None and self.usable(entry.next_hop):
            self._forward_data(packet, entry.next_hop, prev_hop=None)
            return packet
        self._enqueue_for_discovery(packet)
        return packet

    def has_route(self, destination: NodeId) -> bool:
        """Whether a fresh cached route toward ``destination`` exists."""
        return self.routes.lookup(destination, self.sim.now) is not None

    # ------------------------------------------------------------------
    # Discovery (origin side)
    # ------------------------------------------------------------------
    def _enqueue_for_discovery(self, packet: DataPacket) -> None:
        pending = self._pending.get(packet.destination)
        if pending is None:
            pending = _PendingDiscovery(destination=packet.destination, request_id=-1)
            self._pending[packet.destination] = pending
            self._start_discovery(pending)
        if len(pending.queue) >= self.config.queue_capacity:
            stale = pending.queue.pop(0)
            self.trace.emit(
                self.sim.now, "data_discovery_failed", packet=stale.key(), reason="queue_full"
            )
        pending.queue.append(packet)

    def _start_discovery(self, pending: _PendingDiscovery) -> None:
        self._request_counter += 1
        request_id = self._request_counter
        pending.request_id = request_id
        request = RouteRequest(
            origin=self.node.node_id,
            request_id=request_id,
            target=pending.destination,
            hop_count=0,
            path=(self.node.node_id,),
        )
        self._seen_requests[request.key()] = None
        self.trace.emit(
            self.sim.now,
            "route_request_sent",
            origin=self.node.node_id,
            target=pending.destination,
            request_id=request_id,
            attempt=pending.retries + 1,
        )
        self.node.broadcast(request, prev_hop=None, jitter=0.0)
        if pending.timer is not None:
            pending.timer.cancel()
        pending.timer = self.sim.schedule(
            self.config.request_timeout, self._discovery_timeout, pending.destination
        )

    def _discovery_timeout(self, destination: NodeId) -> None:
        pending = self._pending.get(destination)
        if pending is None:
            return
        if self.routes.lookup(destination, self.sim.now) is not None:
            # A route arrived but flush raced the timer; flush again.
            self._flush_queue(destination)
            return
        pending.retries += 1
        if pending.retries >= self.config.max_retries:
            for packet in pending.queue:
                self.trace.emit(
                    self.sim.now,
                    "data_discovery_failed",
                    packet=packet.key(),
                    reason="no_route",
                )
            del self._pending[destination]
            return
        self._start_discovery(pending)

    def _flush_queue(self, destination: NodeId) -> None:
        pending = self._pending.pop(destination, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        entry = self.routes.lookup(destination, self.sim.now)
        for packet in pending.queue:
            if entry is not None and self.usable(entry.next_hop):
                self._forward_data(packet, entry.next_hop, prev_hop=None)
            else:
                self.trace.emit(
                    self.sim.now, "data_no_route", packet=packet.key(), node=self.node.node_id
                )

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        """Listener entry point: accepted frames, addressed or overheard.

        Most route requests a node hears are copies of a flood it already
        joined.  While ``_on_request`` is this class's own, such a copy
        (its cached key already seen, its target another node) only bumps
        its suppression counter, so that is done here, before the
        dispatch.  A node's own request is in ``_seen_requests`` too but
        never in ``_copy_counts``, so an echo of it changes nothing.
        """
        packet = frame.packet
        if packet.__class__ is RouteRequest and self._dedup_first:
            key = packet._key
            if key is not None and key in self._seen_requests and packet.target != self.node.node_id:
                counts = self._copy_counts
                if key in counts:
                    counts[key] += 1
                return
        if isinstance(packet, RouteRequest):
            self._on_request(frame, packet)
        elif isinstance(packet, RouteReply):
            if frame.link_dst == self.node.node_id:
                self._on_reply(frame, packet)
        elif isinstance(packet, DataPacket):
            if frame.link_dst == self.node.node_id:
                self._on_data(frame, packet)

    # ------------------------------------------------------------------
    # Request handling (forwarder and destination)
    # ------------------------------------------------------------------
    def _on_request(self, frame: Frame, request: RouteRequest) -> None:
        if request.origin == self.node.node_id:
            return
        if request.target == self.node.node_id:
            self._on_request_at_target(frame, request)
            return
        key = request.key()
        if key in self._seen_requests:
            if key in self._copy_counts:
                self._copy_counts[key] += 1
            return
        self._seen_requests[key] = frame.transmitter
        self._forward_request(frame, request)

    def _forward_request(self, frame: Frame, request: RouteRequest) -> None:
        """Rebroadcast hook; honest nodes forward truthfully with jitter.

        With counter-based suppression enabled, the jitter is applied here
        (not in the MAC) so that copies overheard during the wait can
        cancel a redundant rebroadcast.
        """
        if self.config.suppression_threshold == 0 or self.config.forward_jitter == 0:
            self.node.broadcast(
                request.forwarded_by(self.node.node_id),
                prev_hop=frame.transmitter,
                jitter=self.config.forward_jitter,
            )
            return
        key = request.key()
        self._copy_counts[key] = 0
        self.sim.schedule(
            # Bit for bit rng.uniform(0.0, forward_jitter), one draw.
            self.config.forward_jitter * self.rng.random(),
            self._forward_decision,
            frame.transmitter,
            request,
        )

    def _forward_decision(self, prev_hop: NodeId, request: RouteRequest) -> None:
        extra_copies = self._copy_counts.pop(request.key(), 0)
        if extra_copies >= self.config.suppression_threshold:
            return
        self.node.broadcast(
            request.forwarded_by(self.node.node_id), prev_hop=prev_hop, jitter=0.0
        )

    def _on_request_at_target(self, frame: Frame, request: RouteRequest) -> None:
        key = (request.origin, request.request_id)
        state = self._candidates.get(key)
        copy = (request.hop_count, self.sim.now, frame.transmitter, request.path)
        if state is None:
            state = _ReplyCandidates()
            self._candidates[key] = state
            state.copies.append(copy)
            if self.config.metric == "first" or self.config.reply_window == 0:
                self._send_reply(request.origin, request.request_id, request.target)
            else:
                self.sim.schedule(
                    self.config.reply_window,
                    self._send_reply,
                    request.origin,
                    request.request_id,
                    request.target,
                )
            return
        if not state.replied:
            state.copies.append(copy)

    def _send_reply(self, origin: NodeId, request_id: int, target: NodeId) -> None:
        state = self._candidates.get((origin, request_id))
        if state is None or state.replied or not state.copies:
            return
        state.replied = True
        hop_count, _stamp, transmitter, path = min(state.copies, key=lambda c: (c[0], c[1]))
        reply = RouteReply(
            origin=origin,
            request_id=request_id,
            target=self.node.node_id,
            hop_count=hop_count + 1,
            path=path + (self.node.node_id,),
        )
        self.node.unicast(reply, next_hop=transmitter, prev_hop=None)

    # ------------------------------------------------------------------
    # Reply handling (origin and reverse-path forwarders)
    # ------------------------------------------------------------------
    def _on_reply(self, frame: Frame, reply: RouteReply) -> None:
        if reply.origin == self.node.node_id:
            self.routes.install(
                destination=reply.target,
                next_hop=frame.transmitter,
                now=self.sim.now,
                hop_count=reply.hop_count,
                path=reply.path,
                request_id=reply.request_id,
            )
            self.trace.emit(
                self.sim.now,
                "route_established",
                origin=reply.origin,
                target=reply.target,
                request_id=reply.request_id,
                hop_count=reply.hop_count,
                path=reply.path,
                next_hop=frame.transmitter,
            )
            self._flush_queue(reply.target)
            return
        next_hop = self._seen_requests.get(("REQ", reply.origin, reply.request_id))
        if next_hop is None:
            self._announce_cannot_forward(reply)
            return
        self.routes.install(
            destination=reply.target,
            next_hop=frame.transmitter,
            now=self.sim.now,
            hop_count=reply.hop_count,
            path=reply.path,
            request_id=reply.request_id,
        )
        self._forward_reply(frame, reply, next_hop)

    def _forward_reply(self, frame: Frame, reply: RouteReply, next_hop: NodeId) -> None:
        """Reverse-path forwarding hook; honest nodes announce truthfully."""
        if not self.usable(next_hop):
            self._announce_cannot_forward(reply)
            return
        self.node.unicast(reply, next_hop=next_hop, prev_hop=frame.transmitter)

    def _announce_cannot_forward(self, packet) -> None:
        """Tell the guards we legitimately cannot forward this packet, so
        the watch-buffer deadline does not read as a malicious drop."""
        self.trace.emit(
            self.sim.now,
            "rep_stranded",
            node=self.node.node_id,
            packet=packet.key(),
        )
        self.node.broadcast(
            RouteErrorPacket(reporter=self.node.node_id, inner_key=packet.key()),
            jitter=0.005,
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _on_data(self, frame: Frame, packet: DataPacket) -> None:
        if packet.destination == self.node.node_id:
            self.trace.emit(
                self.sim.now,
                "data_delivered",
                packet=packet.key(),
                origin=packet.origin,
                destination=packet.destination,
            )
            return
        entry = self.routes.lookup(packet.destination, self.sim.now)
        if entry is None:
            self.trace.emit(
                self.sim.now, "data_no_route", packet=packet.key(), node=self.node.node_id
            )
            self._announce_cannot_forward(packet)
            return
        if not self.usable(entry.next_hop):
            self.trace.emit(
                self.sim.now,
                "data_blocked",
                packet=packet.key(),
                node=self.node.node_id,
                next_hop=entry.next_hop,
            )
            self._announce_cannot_forward(packet)
            return
        self._forward_data(packet, entry.next_hop, prev_hop=frame.transmitter)

    def _forward_data(
        self, packet: DataPacket, next_hop: NodeId, prev_hop: Optional[NodeId]
    ) -> None:
        """Data forwarding hook; honest nodes announce truthfully."""
        self.node.unicast(packet, next_hop=next_hop, prev_hop=prev_hop)


def always_usable(_node: NodeId) -> bool:
    """The default ``usable`` hook: every neighbour may be a next hop."""
    return True


#: The listener the C medium stands in for (module docstring).
ONDEMAND_ON_FRAME = OnDemandRouting.on_frame
#: The reference methods whose bodies the C medium runs: an agent whose
#: class resolves any of these names to another function keeps the
#: Python path (module docstring).
FLOOD_METHODS = {
    name: OnDemandRouting.__dict__[name]
    for name in (
        "on_frame", "_on_request", "_forward_request", "_forward_decision",
        "_on_data", "_forward_data", "_on_reply", "_forward_reply",
    )
}
#: The route table's methods the medium stands in for when it forwards.
ROUTE_METHODS = {name: RouteTable.__dict__[name] for name in ("lookup", "install")}


def runs_in_medium(agent: OnDemandRouting) -> bool:
    """Whether the wrapper rule lets the C medium run ``agent``'s flood
    and forwarding: its class, its node's class and its route table's
    class still have the reference methods, and
    ``RouteRequest.forwarded_by`` is the original (module docstring)."""
    return (
        accel.unwrapped(type(agent), FLOOD_METHODS)
        and accel.unwrapped(type(agent.node), NODE_SEND)
        and accel.unwrapped(type(agent.routes), ROUTE_METHODS)
        and accel.unwrapped(RouteRequest, {"forwarded_by": REQUEST_FORWARDED_BY})
    )
