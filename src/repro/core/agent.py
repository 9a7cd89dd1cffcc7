"""The per-node LITEWORP agent: composition of tables, monitor, isolation,
discovery, and the legitimacy filters.

The agent plugs into the node pipeline in three places:

- **receive hook** (registered as the node's filter) — one entry point per
  received frame.  It notes the frame as a neighbor life sign, hands it to
  the local monitor (even if the checks below reject it: a guard must
  watch traffic it would itself discard), then runs the legitimacy checks:
  reject frames from non-neighbors (defeats high-power and relay
  wormholes), from revoked nodes, and forwarded frames whose announced
  previous hop is not a neighbor of the transmitter (the second-hop check,
  defeating naive encapsulation).  An accepted alert, alert ack or probe
  goes to its handler by packet type;
- **send filter** — refuse to transmit to revoked nodes, and feed the
  node's own transmissions to the monitor (a node guards its own links);
- **lifecycle listener** — crash and recovery.

On the C kernel's simulator the monitor carries a C ``Guard`` (see
:class:`~repro.core.monitor.LocalMonitor`), and the agent registers the
guard's ``receive`` instead of :meth:`LiteworpAgent._receive`: the same
steps in the same order, calling back into the same Python handlers,
with :meth:`_receive` kept as the reference on the Python engine.

When ``config.heartbeat_period`` is set the agent additionally composes a
:class:`~repro.core.liveness.LivenessManager`: a crash deactivates the
checks and drops all volatile monitor state; a recovery re-runs neighbor
bootstrap against the retained (nonvolatile) neighbor table, so
revocations stay sticky across reboots.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Optional

from repro.core.config import LiteworpConfig
from repro.core.discovery import NeighborDiscovery, install_oracle_tables
from repro.core.isolation import IsolationManager
from repro.core.monitor import LocalMonitor
from repro.core.tables import STATUS_REVOKED, NeighborTable
from repro.crypto.keys import KeyStore
from repro.net.node import Node
from repro.net.packet import AlertAckPacket, AlertPacket, Frame, NodeId, ProbePacket
from repro.routing.ondemand import OnDemandRouting
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog

if TYPE_CHECKING:
    from repro.core.liveness import LivenessManager


class LiteworpAgent:
    """LITEWORP runtime for one node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        keys: KeyStore,
        config: LiteworpConfig,
        trace: TraceLog,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.keys = keys
        self.config = config
        self.trace = trace
        self.rng = rng or random.Random(node.node_id)
        self.table = NeighborTable(node.node_id)
        self.isolation = IsolationManager(sim, node, self.table, keys, config, trace)
        self.monitor = LocalMonitor(
            sim,
            node.node_id,
            self.table,
            config,
            trace,
            on_detection=self.isolation.handle_local_detection,
        )
        self.discovery: Optional[NeighborDiscovery] = None
        self.activated = False
        self.rejects: Dict[str, int] = {"nonneighbor": 0, "revoked": 0, "secondhop": 0}
        self._router: Optional[OnDemandRouting] = None
        self._oracle: Optional[tuple] = None  # install_oracle's arguments, replayed on a reboot
        self.liveness: Optional[LivenessManager] = None
        # Handler of each packet type the agent consumes once accepted.
        self._handlers: Dict[type, Callable[[Frame], None]] = {
            AlertPacket: self.isolation.on_frame,
            AlertAckPacket: self.isolation.on_frame,
        }
        if config.heartbeat_period is not None:
            from repro.core.liveness import LivenessManager

            self.liveness = LivenessManager(
                sim, node, self.table, config, trace, self.rng,
                on_dead=self._neighbor_dead,
            )
            self.monitor.set_liveness(self.liveness.is_accusable)
            self._handlers[ProbePacket] = self.liveness.on_probe
        guard = self.monitor.guard
        if guard is None:
            node.add_filter(self._receive)
        else:
            guard.bind(
                agent=self, handlers=self._handlers, liveness=self.liveness,
                second_hop_check=config.second_hop_check,
            )
            node.add_filter(guard.receive)
        node.add_send_filter(self._send_filter)
        node.add_lifecycle_listener(self._lifecycle)

    # ------------------------------------------------------------------
    # Bootstrapping
    # ------------------------------------------------------------------
    def start_discovery(self) -> None:
        """Run the message-driven neighbor-discovery protocol, activating
        the filters when it completes."""
        self.discovery = NeighborDiscovery(
            self.sim,
            self.node,
            self.table,
            self.keys,
            self.config,
            self.trace,
            self.rng,
            on_complete=self.activate,
        )
        self.discovery.start()

    def install_oracle(
        self,
        adjacency: Dict[NodeId, tuple],
        neighbor_sets: Optional[Dict[NodeId, FrozenSet[NodeId]]] = None,
    ) -> None:
        """Install ground-truth neighbor tables and activate immediately
        (``neighbor_sets``: see :func:`install_oracle_tables`)."""
        self._oracle = (adjacency, neighbor_sets)
        install_oracle_tables(self.table, self.node.node_id, adjacency, neighbor_sets)
        self.activate()

    def activate(self) -> None:
        """Switch on the legitimacy filters and local monitoring."""
        self._set_activated(True)
        if self.liveness is not None:
            self.liveness.start()

    def attach_router(self, router: OnDemandRouting) -> None:
        """Wire LITEWORP into a routing agent: revoked neighbors become
        unusable as next hops and their cached routes are evicted."""
        self._router = router
        router.usable = self.is_usable
        self.isolation.on_revocation(lambda bad: router.routes.evict_via(bad))

    def release(self) -> None:
        """Unhook the agent at the end of a run: drop the links back to it
        (the guard's monitor and agent binding, the router's ``usable``,
        liveness's ``on_dead``, discovery's ``on_complete``).  Counters
        and tables stay readable."""
        if self.monitor.guard is not None:
            self.monitor.guard.release()
        if self._router is not None:
            self._router.usable = _always_usable
        if self.liveness is not None:
            self.liveness.on_dead = None
        if self.discovery is not None:
            self.discovery.on_complete = None

    # ------------------------------------------------------------------
    # Crash / recovery and neighbor liveness
    # ------------------------------------------------------------------
    def _lifecycle(self, alive: bool) -> None:
        if alive:
            self._rejoin()
        else:
            self._crash()

    def _crash(self) -> None:
        """The host node went down: all volatile protocol state is gone.
        The neighbor table (and its revocations) models nonvolatile
        storage and is retained across the outage."""
        self._set_activated(False)
        self.monitor.reset()
        self.isolation.reset_pending()
        if self.liveness is not None:
            self.liveness.reset()

    def _set_activated(self, activated: bool) -> None:
        self.activated = activated
        if self.monitor.guard is not None:
            self.monitor.guard.activated = activated

    def _rejoin(self) -> None:
        """Reboot: re-run neighbor bootstrap.  With an oracle installed the
        tables are refreshed in place; otherwise the authenticated
        discovery protocol runs again.  Either way revocations are sticky
        (``install_oracle_tables`` and discovery both go through
        ``add_neighbor``, which never resurrects a tombstone)."""
        if self._oracle is not None:
            self.install_oracle(*self._oracle)
        else:
            self.start_discovery()

    def _neighbor_dead(self, neighbor: NodeId) -> None:
        """Liveness declared a neighbor DEAD: stop expecting forwards from
        it, optionally void the MalC mass its silence accrued, and evict
        routes through it."""
        self.monitor.clear_watch_of(neighbor)
        if self.config.exonerate_dead and not self.table.is_revoked(neighbor):
            self.table.clear_malc(neighbor)
        if self._router is not None:
            self._router.routes.evict_via(neighbor)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_usable(self, node: NodeId) -> bool:
        """Routing hook: may ``node`` be used as a next hop?  Revoked
        neighbors never are; neighbors currently believed DEAD are skipped
        too (routing around failures, not just malice)."""
        if not self.activated:
            return True
        if not self.table.is_active_neighbor(node):
            return False
        if self.liveness is not None and not self.liveness.is_alive(node):
            return False
        return True

    def has_isolated(self, node: NodeId) -> bool:
        """Whether this agent has revoked ``node`` (by own detection or θ
        alerts)."""
        return self.table.is_revoked(node)

    # ------------------------------------------------------------------
    # Pipeline hooks
    # ------------------------------------------------------------------
    def _receive(self, frame: Frame) -> bool:
        """The node's one receive hook; False rejects the frame."""
        if self.liveness is not None:
            self.liveness.note_frame(frame)
        if self.activated:
            self.monitor.observe(frame)
            # Looked up after the monitor, which may have just revoked it.
            record = self.table.record(frame.transmitter)
            if record is None:
                self._reject("nonneighbor", frame)
                return False
            if record.status == STATUS_REVOKED:
                self._reject("revoked", frame)
                return False
            if frame.prev_hop is not None and self.config.second_hop_check:
                reach = self.table.neighbors_of(frame.transmitter)
                if reach is not None and frame.prev_hop not in reach:
                    self._reject("secondhop", frame)
                    return False
        handler = self._handlers.get(type(frame.packet))
        if handler is not None:
            handler(frame)
        return True

    def _send_filter(self, frame: Frame) -> bool:
        if self.activated and frame.link_dst is not None:
            if self.table.is_revoked(frame.link_dst):
                self.trace.emit(
                    self.sim.now,
                    "send_blocked",
                    node=self.node.node_id,
                    next_hop=frame.link_dst,
                    **frame.describe(),
                )
                return False
        if self.activated:
            self.monitor.observe_own(frame)
        return True

    def _reject(self, reason: str, frame: Frame) -> None:
        self.rejects[reason] += 1
        self.trace.emit(
            self.sim.now,
            "frame_rejected",
            node=self.node.node_id,
            reason=reason,
            **frame.describe(),
        )


def _always_usable(_node: NodeId) -> bool:
    return True
