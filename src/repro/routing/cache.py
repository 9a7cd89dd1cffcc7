"""Route cache with timeout eviction.

Every node — origin and intermediate forwarders alike — keeps next-hop
entries installed by passing route replies.  Entries expire ``timeout``
seconds after installation (paper: "A route, once established, is not used
forever but is evicted from the cache after a timeout period expires").
The cache is passive: expiry is checked on access against the supplied
clock, so no timer events are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

NodeId = int


@dataclass(slots=True)
class RouteEntry:
    """A next-hop pointer toward ``destination``.

    Slotted, so the C medium builds one by offset when it forwards a route
    reply (see :mod:`repro.routing.ondemand`).
    """

    destination: NodeId
    next_hop: NodeId
    installed_at: float
    expires_at: float
    hop_count: int = 0
    path: Tuple[NodeId, ...] = ()
    request_id: int = -1

    def fresh(self, now: float) -> bool:
        """Whether the entry is still usable at time ``now``."""
        return now < self.expires_at


class RouteTable:
    """Per-node collection of :class:`RouteEntry` with lazy expiry."""

    def __init__(self, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self._timeout = timeout
        self._entries: Dict[NodeId, RouteEntry] = {}

    @property
    def timeout(self) -> float:
        """The eviction timeout (``TOut_Route``)."""
        return self._timeout

    def install(
        self,
        destination: NodeId,
        next_hop: NodeId,
        now: float,
        hop_count: int = 0,
        path: Tuple[NodeId, ...] = (),
        request_id: int = -1,
    ) -> RouteEntry:
        """Install (or replace) the route toward ``destination``."""
        entry = RouteEntry(
            destination=destination,
            next_hop=next_hop,
            installed_at=now,
            expires_at=now + self._timeout,
            hop_count=hop_count,
            path=path,
            request_id=request_id,
        )
        self._entries[destination] = entry
        return entry

    def lookup(self, destination: NodeId, now: float) -> Optional[RouteEntry]:
        """Fresh entry toward ``destination``, or None (expired entries are
        removed as a side effect)."""
        entry = self._entries.get(destination)
        if entry is None:
            return None
        if not entry.fresh(now):
            del self._entries[destination]
            return None
        return entry

    def evict(self, destination: NodeId) -> None:
        """Drop the entry toward ``destination`` if present."""
        self._entries.pop(destination, None)

    def evict_via(self, next_hop: NodeId) -> int:
        """Drop every entry whose next hop is ``next_hop`` (used when a
        neighbor is revoked); returns the number evicted."""
        doomed = [dst for dst, e in self._entries.items() if e.next_hop == next_hop]
        for dst in doomed:
            del self._entries[dst]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._entries)

    def destinations(self) -> Tuple[NodeId, ...]:
        """Destinations with an entry (possibly stale until next lookup)."""
        return tuple(self._entries)
