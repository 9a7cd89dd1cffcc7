"""Response and isolation (paper 4.2.2).

When a guard's MalC for a neighbor A crosses C_t, the guard:

1. revokes A in its own neighbor list,
2. sends an authenticated alert to every neighbor of A it knows from the
   stored neighbor list ``R_A`` — directly when the recipient is also the
   guard's neighbor, else through one relay (the paper's simulation
   "informs all the neighbors of the detected node through multiple
   unicasts").

A recipient D verifies (a) the alert's authenticity under the pairwise key
with the guard, (b) that the guard is a neighbor of A (i.e. actually in a
position to watch A), and (c) that A is D's neighbor.  After alerts from
``θ`` distinct guards, D marks A revoked: it will no longer accept packets
from A or send packets to A.  Isolation is purely local to A's
neighborhood — quick and cheap.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import LiteworpConfig
from repro.core.tables import NeighborTable
from repro.crypto.auth import Authenticator
from repro.crypto.keys import KeyStore
from repro.net.node import Node
from repro.net.packet import AlertAckPacket, AlertPacket, Frame, NodeId
from repro.sim.engine import Event, Simulator
from repro.sim.trace import TraceLog

AlertKey = Tuple[NodeId, NodeId]  # (accused, recipient)


class IsolationManager:
    """Per-node alert emission, verification, and revocation."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        table: NeighborTable,
        keys: KeyStore,
        config: LiteworpConfig,
        trace: TraceLog,
    ) -> None:
        self.sim = sim
        self.node = node
        self.table = table
        self.keys = keys
        self.config = config
        self.trace = trace
        self.alerts_sent = 0
        self.alerts_accepted = 0
        self.alerts_rejected = 0
        self.alert_retransmits = 0
        self.acks_verified = 0
        self._revocation_callbacks: List[Callable[[NodeId], None]] = []
        # Acked dissemination (config.alert_retries > 0): outstanding
        # retransmission deadlines per (accused, recipient).
        self._pending_acks: Dict[AlertKey, Event] = {}

    def on_revocation(self, callback: Callable[[NodeId], None]) -> None:
        """Register a callback fired whenever a node is revoked locally."""
        self._revocation_callbacks.append(callback)

    def reset_pending(self) -> None:
        """Cancel every outstanding retransmission deadline (crash support:
        a guard that went down loses its volatile send state)."""
        for event in self._pending_acks.values():
            event.cancel()
        self._pending_acks.clear()

    # ------------------------------------------------------------------
    # Guard side: detection -> revoke + alert
    # ------------------------------------------------------------------
    def handle_local_detection(self, accused: NodeId) -> None:
        """Called by the monitor when MalC(owner, accused) crossed C_t."""
        me = self.node.node_id
        newly = self.table.revoke(accused)
        self.trace.emit(self.sim.now, "guard_detection", guard=me, accused=accused)
        if newly:
            self._fire_revocation(accused)
        for recipient in self._alert_recipients(accused):
            self._send_alert(accused, recipient)

    def _alert_recipients(self, accused: NodeId) -> List[NodeId]:
        me = self.node.node_id
        known = self.table.neighbors_of(accused)
        recipients = set(known) if known is not None else set()
        # Common first-hop neighbors are also at risk even if R_accused is
        # incomplete.
        for neighbor in self.table.active_neighbors():
            reach = self.table.neighbors_of(neighbor)
            if reach is not None and accused in reach:
                recipients.add(neighbor)
        recipients.discard(me)
        recipients.discard(accused)
        return sorted(recipients)

    def _send_alert(self, accused: NodeId, recipient: NodeId) -> None:
        if not self._transmit_alert(accused, recipient):
            return
        self.alerts_sent += 1
        self.trace.emit(
            self.sim.now, "alert_sent", guard=self.node.node_id,
            accused=accused, recipient=recipient,
        )
        if self.config.alert_retries > 0:
            self._arm_retry(accused, recipient, attempt=0)

    def _transmit_alert(self, accused: NodeId, recipient: NodeId) -> bool:
        """Build and transmit one alert (direct or one-relay).  The relay
        is re-chosen per transmission so retransmissions route around
        neighbors that died or were revoked in the meantime."""
        me = self.node.node_id
        key = self.keys.key_with(recipient)
        if key is None:
            return False
        auth = Authenticator.tag(key, "alert", me, accused, recipient)
        if self.table.is_active_neighbor(recipient):
            packet = AlertPacket(guard=me, accused=accused, recipient=recipient, auth=auth)
            return self.node.unicast(packet, next_hop=recipient, prev_hop=None)
        if not self.config.alert_relay:
            return False
        relay = self._pick_relay(accused, recipient)
        if relay is None:
            self.trace.emit(
                self.sim.now, "alert_undeliverable", guard=me,
                accused=accused, recipient=recipient,
            )
            return False
        packet = AlertPacket(
            guard=me, accused=accused, recipient=recipient, auth=auth, relay_via=relay
        )
        return self.node.unicast(packet, next_hop=relay, prev_hop=None)

    # ------------------------------------------------------------------
    # Bounded retransmission (acked dissemination)
    # ------------------------------------------------------------------
    def _arm_retry(self, accused: NodeId, recipient: NodeId, attempt: int) -> None:
        key = (accused, recipient)
        stale = self._pending_acks.get(key)
        if stale is not None:
            # Re-detection (e.g. after a crash-recover cycle) restarts the
            # backoff ladder; the superseded deadline must not keep firing
            # alongside the new one.
            stale.cancel()
        deadline = self.config.alert_retry_timeout * (2 ** attempt)
        self._pending_acks[key] = self.sim.schedule(
            deadline, self._retry_alert, accused, recipient, attempt
        )

    def _retry_alert(self, accused: NodeId, recipient: NodeId, attempt: int) -> None:
        key = (accused, recipient)
        if key not in self._pending_acks:
            return
        del self._pending_acks[key]
        if attempt >= self.config.alert_retries:
            self.trace.emit(
                self.sim.now, "alert_abandoned", guard=self.node.node_id,
                accused=accused, recipient=recipient, attempts=attempt,
            )
            return
        if not self._transmit_alert(accused, recipient):
            # Transmission could not be attempted (relay gone, key missing,
            # link down): the same backoff ladder cannot succeed, so stop
            # instead of burning the remaining retry budget.
            return
        self.alert_retransmits += 1
        self.trace.emit(
            self.sim.now, "alert_retransmit", guard=self.node.node_id,
            accused=accused, recipient=recipient, attempt=attempt + 1,
        )
        self._arm_retry(accused, recipient, attempt + 1)

    def _ack_alert(self, packet: AlertPacket, via: NodeId) -> None:
        """Recipient side: confirm delivery so the guard stops resending.
        The ack retraces the delivery path (direct, or back through the
        relay that brought the alert)."""
        me = self.node.node_id
        key = self.keys.key_with(packet.guard)
        if key is None:
            return
        ack = AlertAckPacket(
            sender=me,
            guard=packet.guard,
            accused=packet.accused,
            auth=Authenticator.tag(key, "alert-ack", me, packet.accused, packet.guard),
            relay_via=None if via == packet.guard else via,
        )
        self.node.unicast(ack, next_hop=via, prev_hop=None)

    def _on_alert_ack(self, packet: AlertAckPacket) -> None:
        me = self.node.node_id
        if packet.relay_via == me and packet.guard != me:
            # Relay leg: hand the ack on to the guard.
            if self.table.is_active_neighbor(packet.guard):
                forwarded = AlertAckPacket(
                    sender=packet.sender, guard=packet.guard,
                    accused=packet.accused, auth=packet.auth, relay_via=None,
                )
                self.node.unicast(forwarded, next_hop=packet.guard, prev_hop=packet.sender)
            return
        if packet.guard != me:
            return
        key = self.keys.key_with(packet.sender)
        if not Authenticator.verify(
            key, packet.auth, "alert-ack", packet.sender, packet.accused, me
        ):
            return
        pending = self._pending_acks.pop((packet.accused, packet.sender), None)
        if pending is not None:
            pending.cancel()
            self.acks_verified += 1
            self.trace.emit(
                self.sim.now, "alert_ack_verified", guard=me,
                accused=packet.accused, recipient=packet.sender,
            )

    def _pick_relay(self, accused: NodeId, recipient: NodeId) -> Optional[NodeId]:
        """A neighbor (other than the accused) that can reach the recipient."""
        for neighbor in self.table.active_neighbors():
            if neighbor in (accused, recipient):
                continue
            reach = self.table.neighbors_of(neighbor)
            if reach is not None and recipient in reach:
                return neighbor
        return None

    # ------------------------------------------------------------------
    # Recipient side
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame) -> None:
        """Handle an accepted alert or alert-ack frame (the agent's receive
        hook routes only those two packet types here)."""
        packet = frame.packet
        me = self.node.node_id
        if frame.link_dst != me:
            return
        if isinstance(packet, AlertAckPacket):
            self._on_alert_ack(packet)
            return
        if packet.relay_via == me and packet.recipient != me:
            self._relay_alert(packet)
            return
        if packet.recipient != me:
            return
        self._accept_alert(packet, via=frame.transmitter)

    def _relay_alert(self, packet: AlertPacket) -> None:
        """Forward a two-hop alert to its recipient (end-to-end tag keeps us
        honest: we cannot alter the accusation)."""
        if not self.table.is_active_neighbor(packet.recipient):
            return
        forwarded = AlertPacket(
            guard=packet.guard,
            accused=packet.accused,
            recipient=packet.recipient,
            auth=packet.auth,
            relay_via=None,
        )
        self.node.unicast(forwarded, next_hop=packet.recipient, prev_hop=packet.guard)

    def _accept_alert(self, packet: AlertPacket, via: Optional[NodeId] = None) -> None:
        me = self.node.node_id
        guard, accused = packet.guard, packet.accused
        key = self.keys.key_with(guard)
        if not Authenticator.verify(key, packet.auth, "alert", guard, accused, me):
            self.alerts_rejected += 1
            self.trace.emit(
                self.sim.now, "alert_rejected", node=me, guard=guard,
                accused=accused, reason="auth",
            )
            return
        if not self.table.is_neighbor(accused):
            self.alerts_rejected += 1
            self.trace.emit(
                self.sim.now, "alert_rejected", node=me, guard=guard,
                accused=accused, reason="not_my_neighbor",
            )
            return
        reach = self.table.neighbors_of(accused)
        if reach is not None and guard not in reach and guard != accused:
            # The claimed guard is not a neighbor of the accused: it cannot
            # possibly watch A's links.
            self.alerts_rejected += 1
            self.trace.emit(
                self.sim.now, "alert_rejected", node=me, guard=guard,
                accused=accused, reason="not_a_guard",
            )
            return
        if self.config.alert_retries > 0 and via is not None:
            self._ack_alert(packet, via)
        if guard in self.table.alert_guards(accused):
            # Retransmitted duplicate: the ack above is the useful part.
            return
        self.alerts_accepted += 1
        count = self.table.add_alert(accused, guard)
        self.trace.emit(
            self.sim.now, "alert_accepted", node=me, guard=guard,
            accused=accused, count=count,
        )
        if count >= self.config.theta and not self.table.is_revoked(accused):
            self.table.revoke(accused)
            self.trace.emit(self.sim.now, "isolation", node=me, accused=accused, alerts=count)
            self._fire_revocation(accused)

    def _fire_revocation(self, accused: NodeId) -> None:
        for callback in self._revocation_callbacks:
            callback(accused)
