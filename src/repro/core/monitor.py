"""Local monitoring — the guard logic (paper 4.2.1 and 4.2.3).

A guard of the link X -> A is a node that neighbors both X and A.  Because
every forwarder must announce its previous hop, a guard can check two
properties of each control packet it overhears from A:

- **Fabrication** — A claims the packet came from X, but the guard (being
  X's neighbor) never heard X transmit it.  MalC(guard, A) += V_f.
- **Drop** — the guard heard X hand a packet to A (watch-buffer entry with
  deadline δ), but A never forwarded it.  MalC(guard, A) += V_d.

A node is trivially a guard of all its own outgoing links, so the monitor
also records the node's *own* transmissions — for those, fabrication
evidence is perfect (no collision can fool a node about what it itself
sent).

**Collision awareness** (engineering refinement over the paper, documented
in DESIGN.md): a real radio senses that *something* was on the air even
when it cannot decode it.  The monitor keeps the timestamps of its node's
recent reception losses and withholds an accusation when the missing
evidence could plausibly have been lost in one of them — a fabrication
accusation is suppressed if a loss occurred within ``fabrication_grace``
seconds before the suspicious forward, and a drop accusation if a loss
occurred while the watch-buffer entry was pending.  This trades a slower
MalC accrual against the malicious node (it still fabricates far more
often than collisions occur) for a collapse of the false-accusation rate
against honest nodes.

When MalC crosses C_t within the sliding window the monitor fires its
detection callback; alerting and revocation live in
:mod:`repro.core.isolation`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.core.config import LiteworpConfig
from repro.core.tables import NeighborTable
from repro.net.packet import (
    DataPacket,
    Frame,
    NodeId,
    RouteErrorPacket,
    RouteReply,
    RouteRequest,
)
from repro.sim.engine import Event, Simulator
from repro.sim.trace import TraceLog

PacketKey = Tuple[Any, ...]
WatchKey = Tuple[PacketKey, NodeId]

#: Minimum simulated seconds between two ``watch_buffer`` gauge records
#: from one guard.  The watch buffer churns on every overheard frame, so
#: the occupancy series is throttled to keep trace volume (and the emit
#: hot path) unaffected; 1 Hz per guard is plenty for occupancy curves.
WATCH_SAMPLE_PERIOD = 1.0


class LocalMonitor:
    """The per-node guard: overheard store, watch buffer, MalC updates."""

    def __init__(
        self,
        sim: Simulator,
        owner: NodeId,
        table: NeighborTable,
        config: LiteworpConfig,
        trace: TraceLog,
        on_detection: Callable[[NodeId], None],
    ) -> None:
        self.sim = sim
        self.owner = owner
        self.table = table
        self.config = config
        self.trace = trace
        self.on_detection = on_detection
        self.enabled = config.monitor_enabled
        # (packet key, transmitter) -> last transmission time.  An entry
        # counts as heard iff its stamp is >= _overheard_cutoff, the cutoff
        # of the latest _remember; expired entries are swept lazily.
        self._overheard: Dict[WatchKey, float] = {}
        self._overheard_cutoff = -math.inf
        self._overheard_sweep_at = -math.inf
        # (packet key, watched node) -> deadline event.
        self._expectations: Dict[WatchKey, Event] = {}
        self._detected: Set[NodeId] = set()
        # Timestamps of garbled receptions, oldest first.
        self._recent_losses: "deque[float]" = deque()
        self.fabrications_seen = 0
        self.drops_seen = 0
        self.suppressed_accusations = 0
        self.suspended_accusations = 0
        self.watch_buffer_peak = 0
        self.malc_total = 0
        # Sampled occupancy gauge (see _note_watch_size).
        self._watch_sampled_at: Optional[float] = None
        self._watch_sampled_size = 0
        # Liveness refinement: when set, accusations against nodes the
        # predicate reports as not-alive are suspended (a crashed neighbor
        # is not a malicious dropper).
        self._is_alive: Optional[Callable[[NodeId], bool]] = None

    # ------------------------------------------------------------------
    # Liveness integration
    # ------------------------------------------------------------------
    def set_liveness(self, is_alive: Callable[[NodeId], bool]) -> None:
        """Install the liveness predicate used to suspend accusations
        against neighbors currently believed DEAD."""
        self._is_alive = is_alive

    def clear_watch_of(self, node: NodeId) -> None:
        """Cancel every pending watch-buffer expectation on ``node`` (its
        guard just learned the node is dead: the pending forwards will
        never happen for benign reasons)."""
        stale = [key for key in self._expectations if key[1] == node]
        for key in stale:
            event = self._expectations.pop(key)
            event.cancel()
        if stale:
            self._note_watch_size()

    def reset(self) -> None:
        """Drop all volatile monitoring state (crash support): pending
        expectations, the overheard store, and recent-loss history.  The
        set of already-detected nodes survives — detection state rides the
        (nonvolatile) neighbor table's revocations."""
        for event in self._expectations.values():
            event.cancel()
        self._expectations.clear()
        self._overheard.clear()
        self._overheard_cutoff = -math.inf
        self._overheard_sweep_at = -math.inf
        self._recent_losses.clear()
        self._note_watch_size()

    # ------------------------------------------------------------------
    # Collision awareness
    # ------------------------------------------------------------------
    def note_reception_loss(self, time: float) -> None:
        """Record that the radio sensed a garbled reception at ``time``."""
        self._recent_losses.append(time)
        # Drop-suppression consults losses as old as a watch-buffer entry
        # (δ seconds), so the history must stay at least that deep even
        # when δ exceeds the overheard window.  The entry just appended is
        # never older than the cutoff, so the loop stops before the deque
        # empties.
        cutoff = time - max(self.config.overheard_window, self.config.delta)
        while self._recent_losses[0] < cutoff:
            self._recent_losses.popleft()

    def _lost_since(self, since: float) -> bool:
        """Whether any reception loss happened at or after ``since``."""
        if not self._recent_losses:
            return False
        return self._recent_losses[-1] >= since

    # ------------------------------------------------------------------
    # Observation entry points
    # ------------------------------------------------------------------
    def observe(self, frame: Frame) -> None:
        """Promiscuous tap: called for every frame the radio delivers."""
        self._process(frame, own=False)

    def observe_own(self, frame: Frame) -> None:
        """Called for every frame this node itself transmits."""
        self._process(frame, own=True)

    # ------------------------------------------------------------------
    # Core logic
    # ------------------------------------------------------------------
    def _process(self, frame: Frame, own: bool) -> None:
        if not self.enabled:
            return
        transmitter = frame.transmitter
        if not own and not self.table.is_neighbor(transmitter):
            # A guard judges only what its own neighbors transmit.
            return
        packet = frame.packet
        if isinstance(packet, RouteErrorPacket):
            # The transmitter legitimately cannot forward: clear the watch.
            pending = self._expectations.pop((packet.inner_key, transmitter), None)
            if pending is not None:
                pending.cancel()
                self._note_watch_size()
            return
        if isinstance(packet, DataPacket):
            watched = self.config.watch_data
        else:
            watched = packet.monitored
        if not watched:
            return

        key = packet.key()
        self._remember((key, transmitter), self.sim.now)
        pending = self._expectations.pop((key, transmitter), None)
        if pending is not None:
            pending.cancel()
            self._note_watch_size()

        if not own:
            self._check_fabrication(frame, key, transmitter)

        self._maybe_watch(frame, key, transmitter)

    def _check_fabrication(self, frame: Frame, key: PacketKey, transmitter: NodeId) -> None:
        prev = frame.prev_hop
        if prev is None:
            return
        if not self.table.is_neighbor(prev):
            # Not a guard of the claimed link: cannot judge.
            return
        if self._heard((key, prev)):
            return
        if self._lost_since(self.sim.now - self.config.fabrication_grace):
            # Our own radio was impaired recently: the missing transmission
            # may simply have been lost on us.  Withhold judgment.
            self.suppressed_accusations += 1
            return
        self.fabrications_seen += 1
        self._accuse(transmitter, self.config.v_fabricate, "fabrication", key)

    def _maybe_watch(self, frame: Frame, key: PacketKey, transmitter: NodeId) -> None:
        packet = frame.packet
        if frame.link_dst is not None:
            watched_node = frame.link_dst
            if watched_node == self.owner:
                return
            if not self.table.is_active_neighbor(watched_node):
                return
            if self._is_terminal(packet, watched_node):
                return
            self._add_expectation(key, watched_node)
        elif self.config.watch_request_drops and isinstance(packet, RouteRequest):
            self._watch_request_forwarders(packet, key, transmitter)

    def _watch_request_forwarders(
        self, packet: RouteRequest, key: PacketKey, transmitter: NodeId
    ) -> None:
        """Optional: expect every common neighbor to rebroadcast a flooded
        request unless it already did or is the origin/target."""
        if self._lost_since(self.sim.now - self.config.fabrication_grace):
            # Flood rebroadcasts pile up on the air, and this guard just
            # provably missed at least one reception — its view of who
            # already forwarded is unreliable, so expecting anyone to
            # forward again would manufacture false drops.  Same grace
            # logic as fabrication.
            self.suppressed_accusations += 1
            return
        reach = self.table.neighbors_of(transmitter)
        if reach is None:
            return
        for candidate in self.table.active_neighbors():
            if candidate in (packet.origin, packet.target, transmitter):
                continue
            if candidate not in reach:
                continue
            if self._heard((key, candidate)):
                continue
            self._add_expectation(key, candidate)

    @staticmethod
    def _is_terminal(packet, link_dst: NodeId) -> bool:
        """Whether ``link_dst`` legitimately consumes the packet (no forward
        expected)."""
        if isinstance(packet, RouteReply):
            return link_dst == packet.origin
        if isinstance(packet, DataPacket):
            return link_dst == packet.destination
        return True

    # ------------------------------------------------------------------
    # Watch buffer
    # ------------------------------------------------------------------
    def _add_expectation(self, key: PacketKey, watched: NodeId) -> None:
        if self._is_alive is not None and not self._is_alive(watched):
            return
        watch_key = (key, watched)
        if watch_key in self._expectations:
            return
        event = self.sim.schedule(
            self.config.delta, self._expectation_expired, watch_key, self.sim.now
        )
        self._expectations[watch_key] = event
        if len(self._expectations) > self.watch_buffer_peak:
            self.watch_buffer_peak = len(self._expectations)
        self._note_watch_size()

    def _expectation_expired(self, watch_key: WatchKey, created_at: float) -> None:
        if self._expectations.pop(watch_key, None) is None:
            return
        self._note_watch_size()
        key, watched = watch_key
        if self._lost_since(created_at):
            # The forward may have happened and been lost on us.
            self.suppressed_accusations += 1
            return
        self.drops_seen += 1
        self._accuse(watched, self.config.v_drop, "drop", key)

    @property
    def watch_buffer_size(self) -> int:
        """Current number of pending watch-buffer entries."""
        return len(self._expectations)

    def _note_watch_size(self) -> None:
        """Emit a throttled ``watch_buffer`` occupancy gauge record.

        Called after every size change; emits at most once per
        :data:`WATCH_SAMPLE_PERIOD` simulated seconds per guard, and only
        when the size actually differs from the last emitted sample —
        the time-series recorder (repro.obs.series) rebuilds the
        occupancy curve from these gauges.
        """
        size = len(self._expectations)
        if size == self._watch_sampled_size:
            return
        now = self.sim.now
        if (
            self._watch_sampled_at is not None
            and now - self._watch_sampled_at < WATCH_SAMPLE_PERIOD
        ):
            return
        self._watch_sampled_at = now
        self._watch_sampled_size = size
        self.trace.emit(
            now, "watch_buffer",
            guard=self.owner, size=size, peak=self.watch_buffer_peak,
        )

    # ------------------------------------------------------------------
    # MalC and detection
    # ------------------------------------------------------------------
    def _accuse(self, node: NodeId, value: int, reason: str, key: PacketKey) -> None:
        if node in self._detected or self.table.is_revoked(node):
            return
        if self._is_alive is not None and not self._is_alive(node):
            # Graceful degradation: the neighbor is believed dead, so the
            # missing forward is explained by the failure, not by malice.
            self.suspended_accusations += 1
            self.trace.emit(
                self.sim.now,
                "malc_suspended",
                guard=self.owner,
                accused=node,
                reason=reason,
            )
            return
        total = self.table.record_malicious(node, value, self.sim.now, self.config.malc_window)
        self.malc_total += value
        self.trace.emit(
            self.sim.now,
            "malc_increment",
            guard=self.owner,
            accused=node,
            value=value,
            reason=reason,
            packet=key,
            total=total,
        )
        if total >= self.config.c_t:
            self._detected.add(node)
            self.on_detection(node)

    def has_detected(self, node: NodeId) -> bool:
        """Whether this guard's own MalC for ``node`` crossed C_t."""
        return node in self._detected

    def malc(self, node: NodeId) -> int:
        """Convenience accessor for the windowed MalC of ``node``."""
        return self.table.malc(node, self.sim.now, self.config.malc_window)

    # ------------------------------------------------------------------
    # Overheard store maintenance
    # ------------------------------------------------------------------
    def _remember(self, watch_key: WatchKey, now: float) -> None:
        window = self.config.overheard_window
        store = self._overheard
        store[watch_key] = now
        cutoff = now - window
        self._overheard_cutoff = cutoff
        if now >= self._overheard_sweep_at:
            # Simulated time never runs backwards, so every stamp below the
            # cutoff stays expired: dropping them changes no answer.
            self._overheard = {k: t for k, t in store.items() if t >= cutoff}
            self._overheard_sweep_at = now + window

    def _heard(self, watch_key: WatchKey) -> bool:
        stamp = self._overheard.get(watch_key)
        return stamp is not None and stamp >= self._overheard_cutoff

    def heard_transmission(self, key: PacketKey, transmitter: NodeId) -> bool:
        """Whether the guard remembers ``transmitter`` sending ``key``."""
        return self._heard((key, transmitter))
