"""Structured trace log.

The experiment harness and many integration tests assert on *what happened*
rather than on return values — which node detected which attacker, when a
route through a wormhole was established, when a packet was dropped.  The
trace log is the single sink for those facts: protocol code emits
``TraceRecord``s, and consumers filter by kind.

Records are compact, because by default every one stays resident: a
slotted object holding the time, the kind, a field-name tuple shared by
every record of the same layout, and a values tuple.  A ``packet=``
field holds the packet's own key tuple, which is computed once per packet
and shared across hops (:meth:`repro.net.packet.Packet.key`), so the
records of one route discovery share it too.

Observability extensions (see :mod:`repro.obs` and docs/OBSERVABILITY.md):

- **Sinks** — :meth:`TraceLog.attach_sink` streams every record to an
  external consumer (e.g. a JSONL file) the moment it is emitted, so the
  full trace can leave the process without ever being resident in memory.
- **Bounded residency** — constructing the log with a ``capacity`` turns
  the in-memory store into a ring buffer: the newest ``capacity`` records
  stay queryable, older ones are evicted (and counted).  Subscribers and
  sinks always see every record regardless of eviction.
- **Validation** — :meth:`set_validator` installs a per-record check
  (the schema registry's strict mode) that runs before the record is
  stored or forwarded.
- **Degradation** — a sink whose ``write`` raises :class:`OSError`
  (ENOSPC, EIO, a yanked mount) is detached with a warning instead of
  aborting the run; if the log was unbounded it falls back to a bounded
  ring buffer so the loss of the export path cannot exhaust memory.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional, Tuple, Union

#: Ring capacity adopted when an unbounded log loses its sink to an IO
#: error: large enough to keep a useful post-mortem window, small enough
#: never to look like the unbounded store it replaces.
DEGRADED_RING_CAPACITY = 65536


#: One field-name tuple per record layout: every record emitted with the
#: same field names in the same order shares the tuple interned here.
#: Interning only decides which equal tuple a record holds, never a value.
_LAYOUTS: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


class TraceRecord:
    """One trace fact: a timestamp, a kind tag, and free-form fields.

    Slotted and compact: the field names live in a tuple shared by every
    record of the same layout, the values in a per-record tuple.  ``time``
    and ``kind`` are read-only and :attr:`fields` returns a fresh dict;
    ``record[name]``, :meth:`get`, :meth:`keys` and :meth:`items` read the
    fields without building one.
    """

    __slots__ = ("_time", "_kind", "_names", "_values")

    def __init__(self, time: float, kind: str, fields: Optional[Mapping[str, Any]] = None) -> None:
        names: Tuple[str, ...] = ()
        values: Tuple[Any, ...] = ()
        if fields:
            names = tuple(fields)
            names = _LAYOUTS.setdefault(names, names)
            values = tuple(fields.values())
        self._time = time
        self._kind = kind
        self._names = names
        self._values = values

    @property
    def time(self) -> float:
        """Simulated time of the fact."""
        return self._time

    @property
    def kind(self) -> str:
        """The record's kind tag."""
        return self._kind

    @property
    def fields(self) -> Dict[str, Any]:
        """The record's fields as a new dict (changing it leaves the
        record as it is)."""
        return dict(zip(self._names, self._values))

    def keys(self) -> Tuple[str, ...]:
        """The field names, in emission order."""
        return self._names

    def items(self) -> Iterator[Tuple[str, Any]]:
        """``(name, value)`` pairs in emission order, without a dict."""
        return zip(self._names, self._values)

    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[self._names.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def get(self, key: str, default: Any = None) -> Any:
        """Field accessor with a default, mirroring ``dict.get``."""
        try:
            return self._values[self._names.index(key)]
        except ValueError:
            return default

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._names is other._names:
            return (self._time, self._kind, self._values) == (other._time, other._kind, other._values)
        return (self._time, self._kind, self.fields) == (other._time, other._kind, other.fields)

    __hash__ = None  # type: ignore[assignment]  # compared by value, like a dict

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(time={self._time!r}, kind={self._kind!r}, "
            f"fields={self.fields!r})"
        )

    def __reduce__(self) -> Tuple[Any, ...]:
        return (type(self), (self._time, self._kind, self.fields))


class TraceLog:
    """Append-only log of :class:`TraceRecord` with filtered retrieval.

    Subscribers may register live callbacks per kind (the metric collectors
    do this) so that experiments do not need to re-scan the log.

    Parameters
    ----------
    capacity:
        ``None`` (default) keeps every record in memory — the historical
        behaviour every test relies on.  A positive integer bounds the
        resident store to the newest ``capacity`` records (ring-buffer
        mode); evicted records are still delivered to subscribers and
        sinks, and counted in :attr:`dropped_records`.

    Slotted, so the C medium reads the store and its counters by offset
    when it stores an ``rx_lost`` record itself (see :meth:`_publish`).
    """

    __slots__ = (
        "capacity", "_records", "_subscribers", "_sinks", "_validator",
        "total_emitted", "peak_resident", "degraded_sinks",
    )

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive or None, got {capacity!r}")
        self.capacity = capacity
        self._records: Union[List[TraceRecord], Deque[TraceRecord]] = (
            [] if capacity is None else deque(maxlen=capacity)
        )
        self._subscribers: Dict[str, List[Callable[[TraceRecord], None]]] = {}
        self._sinks: List[Any] = []
        self._validator: Optional[Callable[[TraceRecord], None]] = None
        self.total_emitted = 0
        self.peak_resident = 0
        self.degraded_sinks: List[str] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def resident_records(self) -> int:
        """Records currently held in memory (≤ capacity in ring mode)."""
        return len(self._records)

    @property
    def dropped_records(self) -> int:
        """Records evicted by the ring buffer since construction."""
        return self.total_emitted - len(self._records)

    def emit(self, time: float, kind: str, **fields: Any) -> TraceRecord:
        """Record a fact and notify validator, sinks, and subscribers."""
        return self._publish(TraceRecord(time, kind, fields))

    def _publish(self, record: TraceRecord) -> TraceRecord:
        """Validate, store, count and hand on one built record: the one
        path every record takes.  :meth:`emit` builds its record and calls
        this; so does the channel's C medium for the ``rx_lost`` records
        it builds itself while ``emit`` is this class's own.

        The medium also runs this body itself for such a record, but only
        while the log's class still has this method (:data:`TRACE_PUBLISH`)
        and nothing but the store sees the record: no validator, no sink,
        no ``rx_lost`` subscriber.  It then appends the record, counts it
        in ``total_emitted`` and raises ``peak_resident`` as this method
        does; otherwise it calls the method."""
        if self._validator is not None:
            self._validator(record)
        self._records.append(record)
        self.total_emitted += 1
        if len(self._records) > self.peak_resident:
            self.peak_resident = len(self._records)
        for sink in tuple(self._sinks):
            try:
                sink.write(record)
            except OSError as exc:
                self._degrade_sink(sink, exc, record._time)
        for callback in self._subscribers.get(record._kind, ()):
            callback(record)
        return record

    def _degrade_sink(self, sink: Any, exc: OSError, time: float) -> None:
        # An export sink hitting ENOSPC/EIO must not abort a multi-hour
        # run: detach it, keep what we can in memory, and say so loudly.
        # The marker carries the time of the record whose write failed,
        # so the resident trace stays in time order.
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        close = getattr(sink, "close", None)
        if callable(close):
            try:
                close()
            except OSError:
                pass
        label = type(sink).__name__
        self.degraded_sinks.append(label)
        if self.capacity is None:
            # Without the export path an unbounded store would grow until
            # OOM; cap it at a post-mortem-sized ring instead.
            self.capacity = DEGRADED_RING_CAPACITY
            self._records = deque(self._records, maxlen=DEGRADED_RING_CAPACITY)
        warnings.warn(
            f"trace sink {label} failed ({exc}); sink detached, falling "
            f"back to in-memory ring buffer (capacity {self.capacity})",
            RuntimeWarning,
            stacklevel=5,
        )
        self.emit(time, "sink_degraded", sink=label, error=str(exc))

    def subscribe(self, kind: str, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback`` for every future record of ``kind``."""
        self._subscribers.setdefault(kind, []).append(callback)

    # ------------------------------------------------------------------
    # Sinks and validation
    # ------------------------------------------------------------------
    def attach_sink(self, sink: Any) -> None:
        """Stream every future record to ``sink`` (an object with a
        ``write(record)`` method and, optionally, ``close()``).  Sinks see
        records in emission order, before ring-buffer eviction."""
        if not callable(getattr(sink, "write", None)):
            raise TypeError(f"sink must have a write(record) method: {sink!r}")
        self._sinks.append(sink)

    def detach_sink(self, sink: Any) -> None:
        """Stop streaming to ``sink`` (does not close it)."""
        self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple:
        """The currently attached sinks, in attachment order."""
        return tuple(self._sinks)

    def close_sinks(self) -> None:
        """Close and detach every attached sink (flushes file sinks)."""
        sinks, self._sinks = self._sinks, []
        for sink in sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()

    def set_validator(self, validator: Optional[Callable[[TraceRecord], None]]) -> None:
        """Install (or clear, with ``None``) a per-record validator invoked
        on every emit before the record is stored.  The schema registry's
        strict mode (:func:`repro.obs.schema.install_strict`) uses this."""
        self._validator = validator

    # ------------------------------------------------------------------
    # Queries (over the resident window)
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All resident records with the given kind, in emission order."""
        return [r for r in self._records if r.kind == kind]

    def first(self, kind: str, **match: Any) -> Optional[TraceRecord]:
        """First resident record of ``kind`` whose fields include ``match``."""
        for record in self._records:
            if record.kind != kind:
                continue
            if all(record.get(k) == v for k, v in match.items()):
                return record
        return None

    def count(self, kind: str, **match: Any) -> int:
        """Number of resident records of ``kind`` matching ``match``."""
        total = 0
        for record in self._records:
            if record.kind != kind:
                continue
            if all(record.get(k) == v for k, v in match.items()):
                total += 1
        return total

    def clear(self) -> None:
        """Drop all stored records (subscribers and sinks are kept)."""
        self._records.clear()


#: ``TraceLog.emit`` as defined here.  The channel's C medium builds
#: ``rx_lost`` records itself only while a log's class still holds this
#: function, so a wrapper installed on ``TraceLog.emit`` sees every record.
TRACE_EMIT = TraceLog.emit
#: ``TraceLog._publish`` as defined here; the medium runs its body for an
#: ``rx_lost`` record only while a log's class still holds this function.
TRACE_PUBLISH = TraceLog._publish
