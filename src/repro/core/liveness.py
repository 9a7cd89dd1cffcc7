"""Neighbor liveness tracking — the failure-vs-malice disambiguator.

The paper assumes crash-free nodes, so a guard reads *any* missing forward
as evidence of malice.  Under churn that mis-isolates honest nodes: a
crashed neighbor drops everything, exactly like a wormhole endpoint.  This
module adds the standard failure-detector refinement (DESIGN.md 5b item
5, ablatable via ``LiteworpConfig.heartbeat_period = None``):

- every node broadcasts a small **heartbeat** each period (any overheard
  frame also counts as a life sign, so heartbeats cost nothing on busy
  links);
- a neighbor silent for ``liveness_timeout_beats`` periods becomes
  **SUSPECT** and is probed with exponential backoff;
- after ``probe_retries`` unanswered probes it is declared **DEAD**:
  guards *suspend* MalC accusations against it (and optionally void the
  mass already accrued — ``exonerate_dead``), routing stops using it, and
  pending watch-buffer entries on it are cleared;
- hearing anything from a DEAD neighbor (e.g. the heartbeats of a
  rebooted node) restores it to **ALIVE** and re-enables monitoring.

Revocation is orthogonal and sticky: a revoked node that reboots stays
revoked — liveness never forgives malice, it only withholds judgment
about silence.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Optional

from repro.core.config import LiteworpConfig
from repro.core.tables import NeighborTable
from repro.net.node import Node
from repro.net.packet import Frame, HeartbeatPacket, NodeId, ProbeAckPacket, ProbePacket
from repro.sim.engine import Event, Simulator
from repro.sim.trace import TraceLog

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


class LivenessManager:
    """Per-node heartbeat emission and neighbor liveness state machine.

    Constructed by :class:`~repro.core.agent.LiteworpAgent` when
    ``config.heartbeat_period`` is set.  The agent's receive hook calls
    :meth:`note_frame` on every frame, rejected or not (every decodable
    frame is a life sign), and :meth:`on_probe` on accepted probes.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        table: NeighborTable,
        config: LiteworpConfig,
        trace: TraceLog,
        rng: random.Random,
        on_dead: Optional[Callable[[NodeId], None]] = None,
    ) -> None:
        if config.heartbeat_period is None:
            raise ValueError("LivenessManager requires heartbeat_period to be set")
        self.sim = sim
        self.node = node
        self.table = table
        self.config = config
        self.trace = trace
        self.rng = rng
        self.on_dead = on_dead
        self._state: Dict[NodeId, str] = {}
        self._last_heard: Dict[NodeId, float] = {}
        self._probe_attempts: Dict[NodeId, int] = {}
        self._probe_deadlines: Dict[NodeId, Event] = {}
        self._beat_event: Optional[Event] = None
        self._beat_sequence = itertools.count()
        self._nonces = itertools.count(1)
        self._running = False
        self.heartbeats_sent = 0
        self.probes_sent = 0
        self.deaths_declared = 0
        self.recoveries_seen = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeating and neighbor supervision.  The first beat
        fires almost immediately, which doubles as the rejoin announcement
        after a reboot."""
        if self._running:
            return
        self._running = True
        now = self.sim.now
        for neighbor in self.table.neighbors():
            self._last_heard.setdefault(neighbor, now)
        self._schedule_beat(initial=True)

    def stop(self) -> None:
        """Halt heartbeats and cancel every pending probe (crash support)."""
        self._running = False
        if self._beat_event is not None:
            self._beat_event.cancel()
            self._beat_event = None
        for event in self._probe_deadlines.values():
            event.cancel()
        self._probe_deadlines.clear()
        self._probe_attempts.clear()

    def reset(self) -> None:
        """Stop and forget all volatile liveness state (crash support: a
        rebooted node has no memory of who it suspected before)."""
        self.stop()
        self._state.clear()
        self._last_heard.clear()

    @property
    def running(self) -> bool:
        """Whether the manager is currently heartbeating."""
        return self._running

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state_of(self, neighbor: NodeId) -> str:
        """Current liveness state (ALIVE / SUSPECT / DEAD) of a neighbor."""
        return self._state.get(neighbor, ALIVE)

    def is_alive(self, neighbor: NodeId) -> bool:
        """Routing predicate: SUSPECT nodes still count as alive (a next
        hop is dropped only once declared DEAD)."""
        return self._state.get(neighbor, ALIVE) != DEAD

    def is_accusable(self, neighbor: NodeId) -> bool:
        """Accusation predicate for the monitor, stricter than
        :meth:`is_alive`: judgment is withheld the moment a neighbor is
        SUSPECT — silence under adjudication is not yet evidence of
        malice.  A node that keeps transmitting (as any attacker must)
        never leaves ALIVE, so this suspends nothing against real
        adversaries."""
        return self._state.get(neighbor, ALIVE) == ALIVE

    def dead_neighbors(self) -> tuple:
        """Neighbors currently believed DEAD, sorted."""
        return tuple(sorted(n for n, s in self._state.items() if s == DEAD))

    # ------------------------------------------------------------------
    # Heartbeat emission + supervision tick
    # ------------------------------------------------------------------
    def _period(self) -> float:
        """Effective heartbeat period, including this node's clock drift
        (a skewed clock stretches or shrinks every local interval)."""
        assert self.config.heartbeat_period is not None
        return self.config.heartbeat_period * (1.0 + self.node.clock_skew)

    def _schedule_beat(self, initial: bool = False) -> None:
        jitter = self.rng.uniform(0.0, self.config.heartbeat_jitter)
        delay = jitter if initial else self._period() + jitter
        self._beat_event = self.sim.schedule(delay, self._beat)

    def _beat(self) -> None:
        if not self._running:
            return
        self.node.broadcast(
            HeartbeatPacket(sender=self.node.node_id, sequence=next(self._beat_sequence)),
            jitter=0.0,
        )
        self.heartbeats_sent += 1
        self._supervise()
        self._schedule_beat()

    def _supervise(self) -> None:
        """Mark neighbors silent beyond the timeout SUSPECT and probe them."""
        assert self.config.heartbeat_period is not None
        timeout = self.config.heartbeat_period * self.config.liveness_timeout_beats
        now = self.sim.now
        for neighbor in self.table.active_neighbors():
            if self._state.get(neighbor, ALIVE) != ALIVE:
                continue
            last = self._last_heard.setdefault(neighbor, now)
            if now - last > timeout:
                self._suspect(neighbor)

    # ------------------------------------------------------------------
    # Probe state machine
    # ------------------------------------------------------------------
    def _suspect(self, neighbor: NodeId) -> None:
        self._state[neighbor] = SUSPECT
        self._probe_attempts[neighbor] = 0
        self.trace.emit(
            self.sim.now, "neighbor_suspect", node=self.node.node_id, neighbor=neighbor
        )
        self._send_probe(neighbor)

    def _send_probe(self, neighbor: NodeId) -> None:
        attempt = self._probe_attempts.get(neighbor, 0)
        probe = ProbePacket(
            sender=self.node.node_id, target=neighbor, nonce=next(self._nonces)
        )
        self.node.unicast(probe, next_hop=neighbor, jitter=self.config.heartbeat_jitter)
        self.probes_sent += 1
        deadline = self.config.probe_backoff * (2 ** attempt)
        self._probe_deadlines[neighbor] = self.sim.schedule(
            deadline, self._probe_timeout, neighbor
        )

    def _probe_timeout(self, neighbor: NodeId) -> None:
        if self._state.get(neighbor) != SUSPECT:
            return
        self._probe_deadlines.pop(neighbor, None)
        attempts = self._probe_attempts.get(neighbor, 0) + 1
        self._probe_attempts[neighbor] = attempts
        if attempts >= self.config.probe_retries:
            self._declare_dead(neighbor)
        else:
            self._send_probe(neighbor)

    def _declare_dead(self, neighbor: NodeId) -> None:
        self._state[neighbor] = DEAD
        self._probe_attempts.pop(neighbor, None)
        self.deaths_declared += 1
        self.trace.emit(
            self.sim.now, "neighbor_dead", node=self.node.node_id, neighbor=neighbor
        )
        if self.on_dead is not None:
            self.on_dead(neighbor)

    def _clear_suspicion(self, neighbor: NodeId) -> None:
        pending = self._probe_deadlines.pop(neighbor, None)
        if pending is not None:
            pending.cancel()
        self._probe_attempts.pop(neighbor, None)

    # ------------------------------------------------------------------
    # Incoming traffic
    # ------------------------------------------------------------------
    def note_frame(self, frame: Frame) -> None:
        """Promiscuous life-sign tap: any decodable frame from a known
        neighbor proves it is up, whatever the frame carries."""
        transmitter = frame.transmitter
        if transmitter == self.node.node_id or not self.table.is_neighbor(transmitter):
            return
        self._last_heard[transmitter] = self.sim.now
        previous = self._state.get(transmitter, ALIVE)
        if previous == ALIVE:
            return
        self._state[transmitter] = ALIVE
        self._clear_suspicion(transmitter)
        if previous == DEAD:
            self.recoveries_seen += 1
            self.trace.emit(
                self.sim.now,
                "neighbor_recovered",
                node=self.node.node_id,
                neighbor=transmitter,
            )

    def on_probe(self, frame: Frame) -> None:
        """Answer a probe addressed to this node (the ack is the proof of
        life; it refreshes the prober's tap on reception)."""
        packet = frame.packet
        if packet.target == self.node.node_id:
            ack = ProbeAckPacket(
                sender=self.node.node_id, target=packet.sender, nonce=packet.nonce
            )
            self.node.unicast(ack, next_hop=packet.sender, jitter=0.0)
