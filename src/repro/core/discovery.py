"""Secure two-hop neighbor discovery (paper 4.2.1).

On deployment each node broadcasts HELLO; hearers send back an
authenticated reply; the announcer verifies each reply, builds its
neighbor list ``R_A``, and broadcasts it with one authentication tag per
member so every neighbor can verify and store it.  The process runs once
(the paper's system model guarantees no insider is present within two hops
during this window) and yields the first- and second-hop tables.

Because the real protocol rides the lossy channel, experiments may instead
install the same tables from the topology oracle
(:meth:`LiteworpAgent.install_oracle`), which matches the paper's
*assumption* that discovery completes correctly within T_CT.  The
message-driven protocol here is exercised by its own tests and example.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, Optional, Set

from repro.core.config import LiteworpConfig
from repro.core.tables import NeighborTable
from repro.crypto.auth import Authenticator
from repro.crypto.keys import KeyStore
from repro.net.node import Node
from repro.net.packet import Frame, HelloPacket, HelloReplyPacket, NeighborListPacket, NodeId
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog


class NeighborDiscovery:
    """Message-driven HELLO / reply / neighbor-list exchange for one node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        table: NeighborTable,
        keys: KeyStore,
        config: LiteworpConfig,
        trace: TraceLog,
        rng: random.Random,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.table = table
        self.keys = keys
        self.config = config
        self.trace = trace
        self.rng = rng
        self.on_complete = on_complete
        self._verified_responders: Set[NodeId] = set()
        self._replied_to: Set[NodeId] = set()
        self._completed = False
        node.add_listener(self.on_frame)

    def start(self) -> None:
        """Kick off the discovery schedule for this node."""
        for repeat in range(self.config.hello_repeats):
            delay = repeat * 0.4 + self.rng.uniform(0.0, self.config.hello_jitter)
            self.sim.schedule(delay, self._broadcast_hello)
        # The list is broadcast twice: a lost broadcast would leave a
        # neighbor without our R_A and trip the second-hop check later.
        self.sim.schedule(self.config.list_time, self._broadcast_neighbor_list)
        self.sim.schedule(
            self.config.list_time + 0.4 * (self.config.activate_time - self.config.list_time),
            self._broadcast_neighbor_list,
        )
        self.sim.schedule(self.config.activate_time, self._complete)

    # ------------------------------------------------------------------
    # Outgoing
    # ------------------------------------------------------------------
    def _broadcast_hello(self) -> None:
        self.node.broadcast(HelloPacket(sender=self.node.node_id), jitter=0.0)

    def _broadcast_neighbor_list(self) -> None:
        me = self.node.node_id
        members = tuple(sorted(self._verified_responders))
        for member in members:
            self.table.add_neighbor(member)
        auths = []
        for member in members:
            key = self.keys.key_with(member)
            if key is None:
                continue
            auths.append((member, Authenticator.tag(key, "nlist", me, members)))
        packet = NeighborListPacket(sender=me, neighbors=members, auths=tuple(auths))
        self.node.broadcast(packet, jitter=self.config.hello_jitter)

    def _complete(self) -> None:
        if self._completed:
            return
        self._completed = True
        self.trace.emit(
            self.sim.now,
            "nd_complete",
            node=self.node.node_id,
            neighbors=len(self.table.neighbors()),
            second_hop_lists=sum(
                1 for n in self.table.neighbors() if self.table.knows_second_hop(n)
            ),
        )
        if self.on_complete is not None:
            self.on_complete()

    # ------------------------------------------------------------------
    # Incoming
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        """Listener for HELLO / reply / neighbor-list packets."""
        if self._completed:
            return
        packet = frame.packet
        me = self.node.node_id
        if isinstance(packet, HelloPacket):
            announcer = packet.sender
            if announcer == me:
                return
            key = self.keys.key_with(announcer)
            if key is None:
                # An outsider cannot produce a verifiable reply; stay silent.
                return
            # Deliberately reply to every HELLO repetition: the announcer
            # deduplicates, and redundancy rides out reply collisions.
            self._replied_to.add(announcer)
            reply = HelloReplyPacket(
                sender=me,
                announcer=announcer,
                auth=Authenticator.tag(key, "hello-reply", me, announcer),
            )
            self.node.unicast(reply, next_hop=announcer, jitter=self.config.reply_jitter)
        elif isinstance(packet, HelloReplyPacket):
            if packet.announcer != me or frame.link_dst != me:
                return
            responder = packet.sender
            key = self.keys.key_with(responder)
            if not Authenticator.verify(key, packet.auth, "hello-reply", responder, me):
                self.trace.emit(
                    self.sim.now, "nd_reply_rejected", node=me, responder=responder
                )
                return
            self._verified_responders.add(responder)
        elif isinstance(packet, NeighborListPacket):
            sender = packet.sender
            if sender == me:
                return
            tag = packet.auth_for(me)
            if tag is None:
                return
            key = self.keys.key_with(sender)
            if not Authenticator.verify(key, tag, "nlist", sender, packet.neighbors):
                self.trace.emit(self.sim.now, "nd_list_rejected", node=me, sender=sender)
                return
            self.table.add_neighbor(sender)
            self.table.set_neighbor_list(sender, packet.neighbors)


def install_oracle_tables(
    table: NeighborTable,
    owner: NodeId,
    adjacency: Dict[NodeId, tuple],
    neighbor_sets: Optional[Dict[NodeId, FrozenSet[NodeId]]] = None,
) -> None:
    """Populate a node's tables directly from ground truth.

    Equivalent to a lossless run of the discovery protocol; used by the
    experiments (the paper assumes discovery is secure and complete).
    ``neighbor_sets`` holds each node's adjacency as one frozenset that
    every table can store as is, so a neighbour list is held once per
    network instead of once per neighbour; without it each table builds
    its own copies.
    """
    lists = adjacency if neighbor_sets is None else neighbor_sets
    for neighbor in adjacency[owner]:
        table.add_neighbor(neighbor)
        table.set_neighbor_list(neighbor, lists[neighbor])
