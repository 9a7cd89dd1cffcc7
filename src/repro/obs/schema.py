"""Trace-schema registry: the declared field set of every emitted kind.

``TraceLog.emit(time, kind, **fields)`` is stringly-typed by design — it
keeps protocol code free of ceremony — but the flip side is that a typo'd
kind or field name produces silently-empty queries instead of an error.
The registry closes that hole: every kind the simulator emits is declared
here with its required and optional fields, and :func:`install_strict`
turns the declaration into a per-emit check that raises
:class:`TraceSchemaError` on any unknown kind, missing required field, or
undeclared field.

The registry is also the documentation of record for the trace format
(docs/PROTOCOL.md renders it as a table) and what ``repro trace check``
validates exported JSONL files against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.sim.trace import TraceLog, TraceRecord


class TraceSchemaError(ValueError):
    """An emitted record does not match its declared schema."""


#: Fields contributed by ``Frame.describe()`` — several kinds splat it.
FRAME_FIELDS: Tuple[str, ...] = ("packet", "tx", "dst", "prev")


@dataclass(frozen=True)
class TraceSchema:
    """Declared shape of one trace kind."""

    kind: str
    required: FrozenSet[str]
    optional: FrozenSet[str] = field(default_factory=frozenset)
    description: str = ""

    def errors(self, record: TraceRecord) -> List[str]:
        """Human-readable mismatches between ``record`` and this schema."""
        problems = []
        present = set(record.keys())
        missing = self.required - present
        if missing:
            problems.append(
                f"{self.kind}: missing required field(s) {sorted(missing)}"
            )
        unknown = present - self.required - self.optional
        if unknown:
            problems.append(
                f"{self.kind}: undeclared field(s) {sorted(unknown)} "
                f"(declared: {sorted(self.required | self.optional)})"
            )
        return problems


class SchemaRegistry:
    """Mapping of trace kind -> :class:`TraceSchema` with validation."""

    def __init__(self, schemas: Iterable[TraceSchema] = ()) -> None:
        self._schemas: Dict[str, TraceSchema] = {}
        # (kind, field names) pairs that passed validate(): a record's
        # verdict depends on nothing else, so each layout is checked once.
        self._passed: Set[Tuple[str, Tuple[str, ...]]] = set()
        for schema in schemas:
            self.register(schema)

    def register(self, schema: TraceSchema) -> TraceSchema:
        """Add (or replace) the schema for one kind."""
        self._schemas[schema.kind] = schema
        self._passed.clear()
        return schema

    def declare(
        self,
        kind: str,
        required: Iterable[str] = (),
        optional: Iterable[str] = (),
        description: str = "",
    ) -> TraceSchema:
        """Convenience: build and register a schema in one call."""
        return self.register(
            TraceSchema(
                kind=kind,
                required=frozenset(required),
                optional=frozenset(optional),
                description=description,
            )
        )

    def get(self, kind: str) -> Optional[TraceSchema]:
        """The schema for ``kind``, or None if undeclared."""
        return self._schemas.get(kind)

    def kinds(self) -> List[str]:
        """All declared kinds, sorted."""
        return sorted(self._schemas)

    def __len__(self) -> int:
        return len(self._schemas)

    def __iter__(self) -> Iterator[TraceSchema]:
        return iter(self._schemas.values())

    def __contains__(self, kind: str) -> bool:
        return kind in self._schemas

    def errors(self, record: TraceRecord) -> List[str]:
        """Schema mismatches for ``record`` (empty when valid)."""
        schema = self._schemas.get(record.kind)
        if schema is None:
            return [f"unknown trace kind {record.kind!r}"]
        return schema.errors(record)

    def validate(self, record: TraceRecord) -> None:
        """Raise :class:`TraceSchemaError` if ``record`` is malformed."""
        layout = (record._kind, record._names)
        if layout in self._passed:
            return
        problems = self.errors(record)
        if problems:
            raise TraceSchemaError("; ".join(problems))
        self._passed.add(layout)

    def markdown_table(self) -> str:
        """The registry rendered as a GitHub-flavored markdown table
        (docs/PROTOCOL.md embeds this)."""
        lines = [
            "| kind | required fields | optional fields | meaning |",
            "|---|---|---|---|",
        ]
        for kind in self.kinds():
            schema = self._schemas[kind]
            req = ", ".join(sorted(schema.required)) or "—"
            opt = ", ".join(sorted(schema.optional)) or "—"
            lines.append(f"| `{kind}` | {req} | {opt} | {schema.description} |")
        return "\n".join(lines)


def install_strict(trace: TraceLog, registry: Optional[SchemaRegistry] = None) -> None:
    """Turn on strict emission for ``trace``: every ``emit`` is validated
    against ``registry`` (default: :data:`DEFAULT_REGISTRY`) and raises
    :class:`TraceSchemaError` on mismatch."""
    target = registry if registry is not None else DEFAULT_REGISTRY
    trace.set_validator(target.validate)


def _build_default_registry() -> SchemaRegistry:
    r = SchemaRegistry()
    frame = FRAME_FIELDS
    # -- link layer ----------------------------------------------------
    r.declare("mac_drop", ["node", *frame],
              description="CSMA gave up after the backoff budget")
    r.declare("arq_failure", ["node", *frame],
              description="link-layer ARQ exhausted its retries")
    r.declare("rx_lost", ["receiver", "collided", *frame],
              description="a reception was garbled (collision or loss)")
    # -- routing -------------------------------------------------------
    r.declare("route_request_sent", ["origin", "target", "request_id", "attempt"],
              description="origin flooded a route request")
    r.declare("route_established",
              ["origin", "target", "request_id", "hop_count", "path", "next_hop"],
              description="origin installed a route from a reply")
    r.declare("data_origin", ["packet", "origin", "destination"],
              description="a data packet entered the network")
    r.declare("data_delivered", ["packet", "origin", "destination"],
              description="a data packet reached its destination")
    r.declare("data_no_route", ["packet", "node"],
              description="no (usable) route at a hop; packet stalled")
    r.declare("data_blocked", ["packet", "node", "next_hop"],
              description="next hop unusable (revoked/dead); not forwarded")
    r.declare("data_discovery_failed", ["packet", "reason"],
              description="route discovery abandoned for a queued packet")
    r.declare("rep_stranded", ["node", "packet"],
              description="a route reply had no reverse-path entry")
    # -- attack ground truth -------------------------------------------
    r.declare("attack_activated", ["colluders"],
              description="the wormhole coordinator switched on")
    r.declare("wormhole_activity", ["node"],
              description="a colluder touched traffic (ground truth)")
    r.declare("malicious_drop", ["node", "packet"],
              description="a malicious node swallowed a data packet")
    r.declare("wormhole_rep_stranded", ["node", "origin", "request_id"],
              description="a tunneled reply could not be planted")
    # -- LITEWORP: discovery, monitoring, isolation --------------------
    r.declare("nd_complete", ["node", "neighbors", "second_hop_lists"],
              description="secure neighbor discovery finished")
    r.declare("nd_reply_rejected", ["node", "responder"],
              description="HELLO reply failed authentication")
    r.declare("nd_list_rejected", ["node", "sender"],
              description="neighbor-list broadcast failed authentication")
    r.declare("watch_buffer", ["guard", "size", "peak"],
              description="sampled watch-buffer occupancy gauge (1 Hz/guard)")
    r.declare("malc_increment", ["guard", "accused", "value", "reason", "packet", "total"],
              description="a guard raised MalC for fabrication/drop")
    r.declare("malc_suspended", ["guard", "accused", "reason"],
              description="accusation withheld: accused believed dead")
    r.declare("guard_detection", ["guard", "accused"],
              description="a guard's MalC crossed C_t; local revocation")
    r.declare("alert_sent", ["guard", "accused", "recipient"],
              description="guard dispatched an authenticated alert")
    r.declare("alert_undeliverable", ["guard", "accused", "recipient"],
              description="alert transmission could not be attempted")
    r.declare("alert_retransmit", ["guard", "accused", "recipient", "attempt"],
              description="unacked alert re-sent (bounded backoff)")
    r.declare("alert_abandoned", ["guard", "accused", "recipient", "attempts"],
              description="alert retry budget exhausted without ack")
    r.declare("alert_ack_verified", ["guard", "accused", "recipient"],
              description="guard verified a recipient's alert ack")
    r.declare("alert_accepted", ["node", "guard", "accused", "count"],
              description="recipient verified and counted an alert")
    r.declare("alert_rejected", ["node", "guard", "accused", "reason"],
              description="alert failed auth / neighbor / guard checks")
    r.declare("isolation", ["node", "accused", "alerts"],
              description="θ distinct guards reached: neighbor revoked")
    r.declare("frame_rejected", ["node", "reason", *frame],
              description="legitimacy filter discarded a frame")
    r.declare("send_blocked", ["node", "next_hop", *frame],
              description="refused to transmit to a revoked neighbor")
    # -- liveness ------------------------------------------------------
    r.declare("neighbor_suspect", ["node", "neighbor"],
              description="silence past the heartbeat timeout; probing")
    r.declare("neighbor_dead", ["node", "neighbor"],
              description="probe retries exhausted; declared DEAD")
    r.declare("neighbor_recovered", ["node", "neighbor"],
              description="a DEAD neighbor spoke again")
    # -- faults --------------------------------------------------------
    fault_fields = ["at", "node", "downtime", "a", "b", "probability",
                    "duration", "rate", "payload_size", "skew"]
    r.declare("fault_plan_armed", ["plan", "faults"],
              description="a fault plan was scheduled onto the run")
    r.declare("fault_injected", ["fault"], fault_fields,
              description="a planned fault fired")
    r.declare("fault_cleared", ["fault"], fault_fields,
              description="a fault's effect ended (recovery)")
    # -- harness / campaign --------------------------------------------
    r.declare("campaign_job", ["job", "digest", "source"],
              ["replication", "point"],
              description="campaign job completed (source: run/cache/journal); "
                          "time is wall-clock seconds since campaign start")
    r.declare("worker_timeout", ["job", "digest", "seconds"],
              description="a job ran past the supervision wall-clock "
                          "timeout; its worker was preempted")
    r.declare("campaign_retry", ["count", "wave"],
              description="failed jobs re-dispatched for another wave")
    r.declare("campaign_dead_letter", ["job", "digest", "error"],
              ["attempts"],
              description="a poison job exhausted its retry budget and "
                          "was quarantined to the journal")
    r.declare("campaign_interrupted", ["reason"], ["completed"],
              description="campaign stopped gracefully "
                          "(signal/max_jobs/torn_write)")
    r.declare("sink_degraded", ["sink", "error"],
              description="a trace sink hit an IO error and was detached; "
                          "records fall back to the in-memory ring buffer")
    # -- defense plugins -----------------------------------------------
    r.declare("leash_rejected", ["node", "reason", *frame],
              description="packet-leash baseline discarded a frame")
    r.declare("rtt_link_flagged", ["node", "peer", "reason"],
              ["rtt", "baseline", "misses"],
              description="RTT detector flagged a link as wormhole-like")
    r.declare("snd_link_verified", ["node", "peer", "elapsed"],
              description="time-of-flight handshake verified a neighbor")
    r.declare("snd_link_rejected", ["node", "peer", "reason"], ["elapsed"],
              description="SND challenge late/unanswered/unverified link")
    return r


#: The registry covering every kind the simulator emits today.
DEFAULT_REGISTRY: SchemaRegistry = _build_default_registry()
