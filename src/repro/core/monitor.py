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
when it cannot decode it.  The monitor keeps the time of its node's
latest reception loss and withholds an accusation when the missing
evidence could plausibly have been lost in it — a fabrication accusation
is suppressed if a loss occurred within ``fabrication_grace`` seconds
before the suspicious forward, and a drop accusation if a loss occurred
while the watch-buffer entry was pending.  Both ask whether *any* loss
happened since some instant, which the latest one answers.  This trades a
slower MalC accrual against the malicious node (it still fabricates far
more often than collisions occur) for a collapse of the false-accusation
rate against honest nodes.

When MalC crosses C_t within the sliding window the monitor fires its
detection callback; alerting and revocation live in
:mod:`repro.core.isolation`.

On the C kernel the judgement runs in a ``Guard`` (:class:`LocalMonitor`),
which reads frames and packets and builds its records with the layout
the channel's medium uses (:func:`repro.sim.accel.kernel_layout`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.core.config import LiteworpConfig
from repro.core.tables import STATUS_ACTIVE, STATUS_REVOKED, NeighborTable
from repro.net.packet import (
    DataPacket,
    Frame,
    NodeId,
    Packet,
    RouteErrorPacket,
    RouteReply,
    RouteRequest,
)
from repro.sim import accel
from repro.sim.engine import Event, Simulator
from repro.sim.trace import TraceLog

PacketKey = Tuple[Any, ...]
WatchKey = Tuple[PacketKey, NodeId]

#: Minimum simulated seconds between two ``watch_buffer`` gauge records
#: from one guard.  The watch buffer churns on every overheard frame, so
#: the occupancy series is throttled to keep trace volume (and the emit
#: hot path) unaffected; 1 Hz per guard is plenty for occupancy curves.
WATCH_SAMPLE_PERIOD = 1.0

#: What a guard does with an overheard packet, by packet class:
#:
#: - ``ROLE_RERR`` — a route error: clear the reporter's watch entry;
#: - ``ROLE_DATA`` — data: judged like a reply when ``watch_data`` is on,
#:   ignored otherwise;
#: - ``ROLE_IGNORED`` — not monitored (one-hop protocol messages);
#: - ``ROLE_REQ`` — a route request: its broadcast can arm the optional
#:   forwarder watch, a unicast copy is consumed by its receiver;
#: - ``ROLE_REP`` — a route reply: watched up to its origin;
#: - ``ROLE_OTHER`` — any other monitored type: remembered and checked
#:   for fabrication, never watched.
ROLE_RERR, ROLE_DATA, ROLE_IGNORED, ROLE_REQ, ROLE_REP, ROLE_OTHER = range(6)

#: Packet class -> role, filled by :func:`packet_role` on first sight.
_ROLES: Dict[type, int] = {}


def packet_role(packet: Packet) -> int:
    """The guard's role for ``packet``'s class (see ``ROLE_*``).

    Classified once per class, then read from a table; ``monitored`` is a
    per-class constant on every packet type.
    """
    cls = type(packet)
    role = _ROLES.get(cls)
    if role is None:
        if isinstance(packet, RouteErrorPacket):
            role = ROLE_RERR
        elif isinstance(packet, DataPacket):
            role = ROLE_DATA
        elif not packet.monitored:
            role = ROLE_IGNORED
        elif isinstance(packet, RouteRequest):
            role = ROLE_REQ
        elif isinstance(packet, RouteReply):
            role = ROLE_REP
        else:
            role = ROLE_OTHER
        _ROLES[cls] = role
    return role


class LocalMonitor:
    """The per-node guard: overheard store, watch buffer, MalC updates.

    Each frame is judged in one pass (:meth:`observe`): one neighbor
    lookup each for the transmitter, the announced previous hop and the
    link destination, and one role lookup for the packet class.

    The overheard store remembers who was heard sending which packet for
    ``overheard_window`` seconds.  It is two generations of plain dicts:
    once per window the current one becomes the old one and the old one
    is dropped, which only happens when every stamp in it has expired.
    The latest reception loss is one timestamp.

    On the C kernel's simulator the monitor builds a ``Guard``
    (``repro.sim._ckernel``, chosen by :func:`repro.sim.accel.kernel_type`)
    that runs the judgement body in C and owns the overheard store as a
    C table with the same answers.  :meth:`observe`, :meth:`observe_own`,
    :meth:`heard_transmission` and :meth:`reset` then delegate to it.
    The guard also runs the watch buffer's common path:
    :meth:`_add_expectation` while no liveness predicate is set (the
    deadline is still an ``Event`` of :meth:`_expectation_expired`,
    stored in the monitor's own ``_expectations``) and
    :meth:`_note_watch_size`, building its throttled ``watch_buffer``
    record itself as the channel's medium builds ``rx_lost`` records.
    Each runs in C only while the monitor's class still resolves its name
    to the function this class defines (``_GUARD_METHODS``, asked per
    call and answered once per class version), so a wrapper installed on
    the class, even mid-run, sees every call.  The counters, ``_last_loss``,
    the expiry and every accusation stay here, and the guard calls back
    into them.  ``enabled``, ``delta`` and :data:`WATCH_SAMPLE_PERIOD` are
    read once, when the guard is built.  On the Python engine the methods
    below are the whole implementation and the reference.
    """

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
        # (packet key, transmitter) -> last transmission time, in two
        # generations: _overheard since the latest rotation, _overheard_old
        # before it.  An entry counts as heard iff its stamp is
        # >= _overheard_cutoff, the cutoff of the latest _remember.
        self._overheard: Dict[WatchKey, float] = {}
        self._overheard_old: Dict[WatchKey, float] = {}
        self._overheard_cutoff = -math.inf
        self._overheard_rotated_at = -math.inf
        # (packet key, watched node) -> deadline event.
        self._expectations: Dict[WatchKey, Event] = {}
        self._detected: Set[NodeId] = set()
        # Time of the latest garbled reception.
        self._last_loss = -math.inf
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
        guard_type = accel.kernel_type(sim, "Guard")
        #: The C judgement body and overheard store, or None (Python engine).
        self.guard = None if guard_type is None else guard_type(
            monitor=self, sim=sim, owner=owner,
            first=table._first, second=table._second,
            # Never rebound: reset() clears it in place.
            expectations=self._expectations,
            enabled=self.enabled, watch_data=config.watch_data,
            watch_request_drops=config.watch_request_drops,
            fabrication_grace=config.fabrication_grace,
            overheard_window=config.overheard_window,
            v_fabricate=config.v_fabricate, delta=config.delta,
            sample_period=WATCH_SAMPLE_PERIOD, methods=_GUARD_METHODS,
            packet_role=packet_role, active=STATUS_ACTIVE, revoked=STATUS_REVOKED,
            trace=trace, layout=accel.kernel_layout(sim),
        )

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
        expectations, the overheard store, and the latest loss.  The
        set of already-detected nodes survives — detection state rides the
        (nonvolatile) neighbor table's revocations."""
        for event in self._expectations.values():
            event.cancel()
        self._expectations.clear()
        self._overheard.clear()
        self._overheard_old.clear()
        self._overheard_cutoff = -math.inf
        self._overheard_rotated_at = -math.inf
        if self.guard is not None:
            self.guard.clear()
        self._last_loss = -math.inf
        self._note_watch_size()

    # ------------------------------------------------------------------
    # Collision awareness
    # ------------------------------------------------------------------
    def note_reception_loss(self, time: float) -> None:
        """Record that the radio sensed a garbled reception at ``time``.
        The C medium runs this body itself (:data:`MONITOR_NOTE_LOSS`)."""
        self._last_loss = time

    # ------------------------------------------------------------------
    # Observation entry points
    # ------------------------------------------------------------------
    def observe(self, frame: Frame, own: bool = False) -> None:
        """Promiscuous tap: judge one frame the radio delivered.

        The single judgement body, also behind :meth:`observe_own`.  In
        order: clear a watch on a route error; remember the transmission
        and clear the transmitter's own watch entry; check the announced
        previous hop for fabrication (overheard frames only); arm a watch
        on the next hop that should forward the packet.
        """
        guard = self.guard
        if guard is not None:
            guard.observe(frame, own)
            return
        if not self.enabled:
            return
        table = self.table
        transmitter = frame.transmitter
        if not own and table.record(transmitter) is None:
            # A guard judges only what its own neighbors transmit.
            return
        packet = frame.packet
        role = _ROLES.get(type(packet))
        if role is None:
            role = packet_role(packet)
        if role == ROLE_RERR:
            # The transmitter legitimately cannot forward: clear the watch.
            pending = self._expectations.pop((packet.inner_key, transmitter), None)
            if pending is not None:
                pending.cancel()
                self._note_watch_size()
            return
        if role == ROLE_IGNORED or (role == ROLE_DATA and not self.config.watch_data):
            return

        config = self.config
        now = self.sim.now
        key = packet.key()
        heard_key = (key, transmitter)
        self._remember(heard_key, now)
        pending = self._expectations.pop(heard_key, None)
        if pending is not None:
            pending.cancel()
            self._note_watch_size()

        prev = frame.prev_hop
        if (
            not own
            and prev is not None
            # Only a guard of the claimed link (prev's neighbor) can judge.
            and table.record(prev) is not None
            and not self._heard((key, prev))
        ):
            if self._last_loss >= now - config.fabrication_grace:
                # Our own radio was impaired recently: the missing
                # transmission may simply have been lost on us.  Withhold
                # judgment.
                self.suppressed_accusations += 1
            else:
                self.fabrications_seen += 1
                self._accuse(transmitter, config.v_fabricate, "fabrication", key)

        watched = frame.link_dst
        if watched is None:
            if role == ROLE_REQ and config.watch_request_drops:
                self._watch_request_forwarders(packet, key, transmitter)
            return
        # Expect a forward unless the receiver legitimately consumes the
        # packet: a reply at its origin, data at its destination, and any
        # other monitored type at its link destination.
        if role == ROLE_REP:
            if watched == packet.origin:
                return
        elif role == ROLE_DATA:
            if watched == packet.destination:
                return
        else:
            return
        if watched == self.owner:
            return
        record = table.record(watched)
        if record is not None and record.status == STATUS_ACTIVE:
            self._add_expectation(key, watched)

    # ``observe_own`` enters the body under this second name, so a wrapper
    # installed on ``observe`` (a call counter, say) sees received frames
    # only, never an own frame twice.  The guard compares the class's
    # ``observe`` with it to tell whether such a wrapper is installed.
    _process = observe

    def observe_own(self, frame: Frame) -> None:
        """Called for every frame this node itself transmits."""
        guard = self.guard
        if guard is not None:
            guard.observe(frame, True)
        else:
            self._process(frame, True)

    def _watch_request_forwarders(
        self, packet: RouteRequest, key: PacketKey, transmitter: NodeId
    ) -> None:
        """Optional: expect every common neighbor to rebroadcast a flooded
        request unless it already did or is the origin/target."""
        if self._last_loss >= self.sim.now - self.config.fabrication_grace:
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
            if self.heard_transmission(key, candidate):
                continue
            self._add_expectation(key, candidate)

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
        if self._last_loss >= created_at:
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
        cutoff = now - self.config.overheard_window
        self._overheard_cutoff = cutoff
        if cutoff >= self._overheard_rotated_at:
            # Every stamp in the old generation predates the last rotation,
            # so is below this cutoff (and every later one: simulated time
            # never runs backwards).  Dropping it changes no answer.
            self._overheard_old = self._overheard
            self._overheard = {}
            self._overheard_rotated_at = now
        self._overheard[watch_key] = now

    def _heard(self, watch_key: WatchKey) -> bool:
        stamp = self._overheard.get(watch_key)
        if stamp is None:
            stamp = self._overheard_old.get(watch_key)
            if stamp is None:
                return False
        return stamp >= self._overheard_cutoff

    def heard_transmission(self, key: PacketKey, transmitter: NodeId) -> bool:
        """Whether the guard remembers ``transmitter`` sending ``key``."""
        if self.guard is not None:
            return self.guard.heard(key, transmitter)
        return self._heard((key, transmitter))


#: The methods whose bodies the C guard runs, each only while the
#: monitor's class still has it (class docstring): ``observe``,
#: ``_add_expectation`` and ``_note_watch_size``.
_GUARD_METHODS = (
    LocalMonitor._process, LocalMonitor._add_expectation, LocalMonitor._note_watch_size,
)
#: ``observe_own`` as defined here.  The agent registers its guard's send
#: filter, which enters the guard's own judgement directly, only while
#: the monitor's class still has it (see :mod:`repro.core.agent`).
MONITOR_OBSERVE_OWN = LocalMonitor.observe_own

#: The reference loss handler.  The C medium stores a loss's time on the
#: monitor itself in place of calling it, but only while the monitor's
#: class still has this function (:mod:`repro.net.channel`), so a wrapper
#: installed on the class sees every call.
MONITOR_NOTE_LOSS = LocalMonitor.note_reception_loss
