"""Streaming trace sinks.

A sink is any object with a ``write(record)`` method (and optionally
``close()``); :meth:`repro.sim.trace.TraceLog.attach_sink` forwards every
emitted record to each attached sink *before* ring-buffer eviction, so a
sink always observes the complete trace even when the in-memory log is
bounded.

:class:`JsonlSink` is the workhorse: one JSON object per line, appended
to an unbuffered append-mode file in writes of whole lines only, so
parallel sweep workers can safely share one file.  By default each
record is written when it is handed over; a ``batched`` sink (the one a
scenario's ``ObsConfig.trace_path`` attaches) gathers lines and writes
them :data:`BATCH_BYTES` at a time.  Every line carries a ``run`` tag so
multi-replication exports can be regrouped per run downstream
(``repro trace check`` does exactly that).

:func:`record_to_json` is the reference encoding.  When the C kernel is
enabled (:func:`repro.sim.accel.enabled`) the sink encodes each line with
the kernel's ``encode_line`` instead, which yields the same bytes and
returns None for any value it does not handle (sets, dicts, subclasses,
NaN/inf); such a record then goes through :func:`record_to_json`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.sim import accel
from repro.sim.trace import TraceRecord


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of trace field values to JSON-encodable
    forms (tuples/sets become lists, unknown objects become repr)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        try:
            return [_jsonable(v) for v in items]
        except TypeError:  # unsortable set
            return [_jsonable(v) for v in value]
    return repr(value)


def record_to_json(record: TraceRecord, run: Optional[Any] = None) -> str:
    """Serialize one record to a single JSON line (no trailing newline)."""
    payload: Dict[str, Any] = {
        "time": record.time,
        "kind": record.kind,
        "fields": {k: _jsonable(v) for k, v in record.items()},
    }
    if run is not None:
        payload["run"] = _jsonable(run)
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def record_from_json(line: str) -> TraceRecord:
    """Parse one JSONL line back into a :class:`TraceRecord`.

    The ``run`` tag, if present, is preserved as a ``__run__`` field so
    downstream tooling can group records per run.
    """
    payload = json.loads(line)
    fields = dict(payload.get("fields", {}))
    if "run" in payload:
        fields["__run__"] = payload["run"]
    return TraceRecord(time=payload["time"], kind=payload["kind"], fields=fields)


#: Encoded layouts for the C line encoder, one per interned field-name
#: tuple: ``(value index, b'"name":')`` pairs in sorted-name order, the
#: order ``json.dumps(..., sort_keys=True)`` writes the fields in.
_LINE_LAYOUTS: Dict[Tuple[str, ...], Tuple[Tuple[int, bytes], ...]] = {}


def _line_layout(names: Tuple[str, ...]) -> Tuple[Tuple[int, bytes], ...]:
    layout = tuple(
        (index, (json.dumps(name) + ":").encode())
        for index, name in sorted(enumerate(names), key=lambda pair: pair[1])
    )
    _LINE_LAYOUTS[names] = layout
    return layout


#: How many bytes of whole lines a batched :class:`JsonlSink` gathers
#: before it writes them: one ``write`` per batch instead of one per line.
BATCH_BYTES = 64 * 1024


class JsonlSink:
    """Append-only JSONL file sink, safe for concurrent writers.

    The file is opened lazily on the first write, unbuffered in append
    mode.  Encoded lines gather in a buffer that goes out as one ``write``
    (a short write is continued), so every write holds whole lines only
    and multiple sweep workers may stream into the same path without
    interleaving partial lines.  An unbatched sink writes the buffer after
    every line; a ``batched`` one once it holds :data:`BATCH_BYTES`, on
    :meth:`close` (``TraceLog.close_sinks``, which ``Scenario.run`` makes
    in its ``finally``) and when it is collected.
    An ``OSError`` from a write propagates to the log, which degrades the
    sink.  The line encoder is chosen at open: the C kernel's when it is
    enabled, else :func:`record_to_json`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        append: bool = True,
        run: Optional[Any] = None,
        batched: bool = False,
    ) -> None:
        self._pending = bytearray()
        self.path = Path(path)
        self.run = run
        self._mode = "ab" if append else "wb"
        self._handle = None
        self._encode: Optional[Callable[..., Optional[bytes]]] = None
        self._run_part = b"" if run is None else (
            ',"run":' + json.dumps(_jsonable(run), separators=(",", ":"), sort_keys=True)
        ).encode()
        self._flush_at = BATCH_BYTES if batched else 1
        self.records_written = 0

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, self._mode, buffering=0)
        self._mode = "ab"  # reopen after close never truncates
        self._encode = accel.kernel_function("encode_line")

    def write(self, record: TraceRecord) -> None:
        if self._handle is None:
            self._open()
        line = None
        if self._encode is not None:
            names = record._names
            layout = _LINE_LAYOUTS.get(names)
            if layout is None:
                layout = _line_layout(names)
            line = self._encode(
                layout, record._values, record._kind, record._time, self._run_part
            )
        if line is None:
            line = (record_to_json(record, run=self.run) + "\n").encode()
        self._pending += line
        self.records_written += 1
        if len(self._pending) >= self._flush_at:
            self._flush()

    def _flush(self) -> None:
        """Write every buffered line in one ``write``.  The buffer is
        emptied first, so lines whose write raised are not written again."""
        if not self._pending:
            return
        data = memoryview(self._pending)
        self._pending = bytearray()
        written = self._handle.write(data)
        while written < len(data):
            data = data[written:]
            written = self._handle.write(data)

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._flush()
            finally:
                self._handle.close()
                self._handle = None

    def __del__(self) -> None:
        if self._pending:
            try:
                self.close()
            except OSError:
                pass

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class MemorySink:
    """Sink that keeps every record in a list — the test double, and the
    way to observe evicted records when the log runs in ring mode."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self.closed = False

    def write(self, record: TraceRecord) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True

    def __len__(self) -> int:
        return len(self.records)


class ReadStats:
    """Mutable side-channel for :func:`read_jsonl` bookkeeping."""

    def __init__(self) -> None:
        self.records = 0
        self.partial_lines = 0


def read_jsonl(
    path: Union[str, Path],
    tolerate_partial: bool = False,
    stats: Optional[ReadStats] = None,
) -> Iterator[TraceRecord]:
    """Stream records back from a JSONL trace export, skipping blank
    lines.  Raises ``ValueError`` naming the offending line number on
    malformed JSON.

    A sweep worker killed mid-write (crash, SIGKILL, out-of-disk) can
    legitimately leave a truncated *final* line behind.  With
    ``tolerate_partial`` such a trailing fragment is skipped — and
    counted in ``stats.partial_lines`` — instead of raising; malformed
    JSON followed by further records is still corruption and raises
    either way.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = record_from_json(stripped)
            except (json.JSONDecodeError, KeyError) as exc:
                if tolerate_partial and isinstance(exc, json.JSONDecodeError):
                    remainder = handle.read()
                    if not remainder.strip():
                        # Truncated trailing line: a killed writer's last
                        # O_APPEND never completed.  Skip and count it.
                        if stats is not None:
                            stats.partial_lines += 1
                        return
                raise ValueError(
                    f"{path}:{lineno}: malformed trace line: {exc}"
                ) from exc
            if stats is not None:
                stats.records += 1
            yield record
