"""Neighbor tables and malicious counters.

Each node stores (paper 4.2.1 / 5.2):

- its **first-hop neighbor list** with, per neighbor, a status (active or
  revoked) and the MalC malicious counter;
- the **neighbor list of each neighbor** ``R_n`` (the second-hop view) used
  by the legitimacy checks and by guard determination;
- the **alert buffer**: which guards have accused which neighbor.

MalC is accumulated over a sliding window of ``window`` seconds, matching
the paper's per-window analysis (fabrications "occur within a certain time
window, T").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

NodeId = int

STATUS_ACTIVE = "active"
STATUS_REVOKED = "revoked"


@dataclass(slots=True)
class NeighborRecord:
    """Per-neighbor state: status plus timestamped MalC increments.

    Slotted, so LITEWORP's C guard reads ``status`` by offset for every
    frame it judges.  A subclass that makes ``status`` anything but a
    plain slot (a property, say) is read through attribute access.
    """

    node: NodeId
    status: str = STATUS_ACTIVE
    malc_events: List[Tuple[float, int]] = field(default_factory=list)

    def malc(self, now: float, window: float) -> int:
        """MalC value over the trailing ``window`` seconds (prunes old)."""
        cutoff = now - window
        if self.malc_events and self.malc_events[0][0] < cutoff:
            self.malc_events = [(t, v) for t, v in self.malc_events if t >= cutoff]
        return sum(v for _, v in self.malc_events)

    def add(self, now: float, value: int, window: float) -> int:
        """Record an increment and return the updated windowed MalC."""
        self.malc_events.append((now, value))
        return self.malc(now, window)


class NeighborTable:
    """First/second-hop neighbor knowledge plus the alert buffer."""

    def __init__(self, owner: NodeId) -> None:
        self.owner = owner
        self._first: Dict[NodeId, NeighborRecord] = {}
        self._second: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._alerts: Dict[NodeId, Set[NodeId]] = {}
        # The receive path looks a neighbor up several times per frame, so
        # these two accessors are the dicts' own lookups rather than
        # methods wrapping them (the dicts are never rebound).
        #: ``record(node)``: the live :class:`NeighborRecord` of ``node``
        #: (any status), or None if unknown.  One lookup answers both
        #: :meth:`is_neighbor` and the status tests, and the record is
        #: updated in place, so it stays current while held.
        self.record: Callable[[NodeId], Optional[NeighborRecord]] = self._first.get
        #: ``neighbors_of(node)``: ``R_node`` if known, else None.
        self.neighbors_of: Callable[[NodeId], Optional[FrozenSet[NodeId]]] = (
            self._second.get
        )

    # ------------------------------------------------------------------
    # First hop
    # ------------------------------------------------------------------
    def add_neighbor(self, node: NodeId) -> None:
        """Record a verified first-hop neighbor (idempotent)."""
        if node == self.owner:
            raise ValueError("a node is not its own neighbor")
        if node not in self._first:
            self._first[node] = NeighborRecord(node=node)

    def neighbors(self) -> Tuple[NodeId, ...]:
        """All first-hop neighbors, regardless of status."""
        return tuple(self._first)

    def active_neighbors(self) -> Tuple[NodeId, ...]:
        """First-hop neighbors not yet revoked."""
        return tuple(n for n, r in self._first.items() if r.status == STATUS_ACTIVE)

    def is_neighbor(self, node: NodeId) -> bool:
        """Whether ``node`` is a known first-hop neighbor (any status)."""
        return node in self._first

    def is_active_neighbor(self, node: NodeId) -> bool:
        """Whether ``node`` is a first-hop neighbor in good standing."""
        record = self._first.get(node)
        return record is not None and record.status == STATUS_ACTIVE

    def is_revoked(self, node: NodeId) -> bool:
        """Whether ``node`` has been revoked locally."""
        record = self._first.get(node)
        return record is not None and record.status == STATUS_REVOKED

    def revoke(self, node: NodeId) -> bool:
        """Mark a neighbor revoked; returns False if it already was (or is
        unknown, in which case a tombstone record is created)."""
        record = self._first.get(node)
        if record is None:
            record = NeighborRecord(node=node, status=STATUS_REVOKED)
            self._first[node] = record
            return True
        if record.status == STATUS_REVOKED:
            return False
        record.status = STATUS_REVOKED
        return True

    # ------------------------------------------------------------------
    # Second hop
    # ------------------------------------------------------------------
    def set_neighbor_list(self, node: NodeId, neighbor_list: Iterable[NodeId]) -> None:
        """Store the verified neighbor list ``R_node`` (a frozenset is
        stored as is, so tables may share one)."""
        self._second[node] = frozenset(neighbor_list)

    def knows_second_hop(self, node: NodeId) -> bool:
        """Whether ``R_node`` has been received and verified."""
        return node in self._second

    def second_hop_neighbors(self) -> FrozenSet[NodeId]:
        """Union of all stored neighbor lists minus self and first hop."""
        combined: Set[NodeId] = set()
        for members in self._second.values():
            combined.update(members)
        combined.discard(self.owner)
        combined.difference_update(self._first)
        return frozenset(combined)

    def guards_of_link(self, from_node: NodeId, to_node: NodeId) -> Tuple[NodeId, ...]:
        """Guard candidates for the link ``from_node -> to_node`` as derivable
        from this table (common members of both neighbor lists)."""
        near_from = self._second.get(from_node)
        near_to = self._second.get(to_node)
        if near_from is None or near_to is None:
            return ()
        guards = set(near_from & near_to)
        guards.add(from_node)
        guards.discard(to_node)
        return tuple(sorted(guards))

    # ------------------------------------------------------------------
    # MalC
    # ------------------------------------------------------------------
    def record_malicious(self, node: NodeId, value: int, now: float, window: float) -> int:
        """Add ``value`` to MalC(owner, node); returns the windowed total.

        Creating an implicit record for unknown nodes is deliberate —
        monitoring can only ever accuse first-hop neighbors, so the entry
        exists; tests may call this directly.
        """
        record = self._first.get(node)
        if record is None:
            record = NeighborRecord(node=node)
            self._first[node] = record
        return record.add(now, value, window)

    def malc(self, node: NodeId, now: float, window: float) -> int:
        """Current windowed MalC for ``node`` (0 if unknown)."""
        record = self._first.get(node)
        if record is None:
            return 0
        return record.malc(now, window)

    def clear_malc(self, node: NodeId) -> None:
        """Void all pending MalC mass for ``node`` (liveness exoneration:
        a neighbor declared DEAD had its drop evidence explained by the
        failure, not by malice).  Status is untouched."""
        record = self._first.get(node)
        if record is not None:
            record.malc_events.clear()

    # ------------------------------------------------------------------
    # Alert buffer
    # ------------------------------------------------------------------
    def add_alert(self, accused: NodeId, guard: NodeId) -> int:
        """Record an accepted alert; returns the count of distinct guards."""
        guards = self._alerts.setdefault(accused, set())
        guards.add(guard)
        return len(guards)

    def alert_count(self, accused: NodeId) -> int:
        """Distinct guards that have accused ``accused`` so far."""
        return len(self._alerts.get(accused, ()))

    def alert_guards(self, accused: NodeId) -> FrozenSet[NodeId]:
        """The accusing guard set for ``accused``."""
        return frozenset(self._alerts.get(accused, ()))

    # ------------------------------------------------------------------
    # Storage accounting (section 5.2)
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        """Modelled memory footprint: 5 bytes per first-hop entry (4-byte id
        + 1-byte MalC) plus 4 bytes per stored second-hop id."""
        first = 5 * len(self._first)
        second = sum(4 * len(members) for members in self._second.values())
        return first + second
