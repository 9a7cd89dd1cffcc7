"""Online protocol invariant checking.

The trace is not just a debugging aid — it encodes the protocol's causal
contract.  An ``isolation`` can only follow θ distinct ``alert_accepted``
events; a guard never raises MalC against a node it already revoked; an
``alert_ack_verified`` implies a matching ``alert_sent``.  The checker
subscribes to the relevant kinds (or replays an exported trace) and turns
each broken contract into a :class:`Violation`.

Violations come in two categories:

- ``protocol`` — the implementation broke its own rules.  These should
  never occur; CI fails on any.
- ``attack`` — ground-truth adversarial activity was observed
  (``malicious_drop``, ``wormhole_activity``).  Expected on wormhole
  scenarios, absent on attack-free runs — which is itself an invariant
  the acceptance tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Set, Tuple

from repro.sim.trace import TraceLog, TraceRecord

PROTOCOL = "protocol"
ATTACK = "attack"


@dataclass(frozen=True)
class Violation:
    """One broken invariant (or one piece of observed attack activity)."""

    rule: str
    category: str  # PROTOCOL or ATTACK
    time: float
    message: str
    details: Dict[str, Any] = field(default_factory=dict)


class InvariantChecker:
    """Stateful checker over a stream of trace records.

    Attach to a live :class:`~repro.sim.trace.TraceLog` with
    :meth:`attach` (violations accumulate as the simulation runs), or
    replay an export record-by-record through :meth:`process`.  One
    checker instance covers one run — state is causal, so records from
    different runs must not be interleaved (see :func:`check_export`).
    """

    #: Kinds the checker consumes; everything else is ignored.
    KINDS: Tuple[str, ...] = (
        "alert_sent",
        "alert_accepted",
        "alert_ack_verified",
        "alert_retransmit",
        "guard_detection",
        "isolation",
        "malc_increment",
        "malicious_drop",
        "wormhole_activity",
    )

    def __init__(self, theta: int = 3) -> None:
        if theta < 1:
            raise ValueError(f"theta must be positive, got {theta!r}")
        self.theta = theta
        self.violations: List[Violation] = []
        self.records_checked = 0
        # (node, accused) -> guards whose alerts the node accepted.
        self._accepted_guards: Dict[Tuple[Any, Any], Set[Any]] = {}
        # (guard, accused, recipient) triples with an alert_sent on record.
        self._alerts_sent: Set[Tuple[Any, Any, Any]] = set()
        # (observer, accused) pairs where the observer revoked the accused
        # (own guard_detection, or isolation via the alert quorum).
        self._revoked_views: Set[Tuple[Any, Any]] = set()
        # Attack evidence is deduplicated per (rule, node): one colluder
        # touches thousands of frames, one violation per colluder suffices.
        self._attack_seen: Set[Tuple[str, Any]] = set()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, trace: TraceLog) -> None:
        """Subscribe to every relevant kind on a live trace log."""
        for kind in self.KINDS:
            trace.subscribe(kind, self.process)

    @property
    def protocol_violations(self) -> List[Violation]:
        return [v for v in self.violations if v.category == PROTOCOL]

    @property
    def attack_violations(self) -> List[Violation]:
        return [v for v in self.violations if v.category == ATTACK]

    # ------------------------------------------------------------------
    # Record dispatch
    # ------------------------------------------------------------------
    def process(self, record: TraceRecord) -> None:
        """Feed one record through the checker (in emission order)."""
        handler = getattr(self, f"_on_{record.kind}", None)
        if handler is None:
            return
        self.records_checked += 1
        handler(record)

    def check_all(self, records: Iterable[TraceRecord]) -> List[Violation]:
        """Replay ``records`` (one run's worth) and return the violations."""
        for record in records:
            self.process(record)
        return self.violations

    def _flag(self, rule: str, category: str, record: TraceRecord, message: str) -> None:
        self.violations.append(
            Violation(
                rule=rule,
                category=category,
                time=record.time,
                message=message,
                details=record.fields,
            )
        )

    # ------------------------------------------------------------------
    # Protocol rules
    # ------------------------------------------------------------------
    def _on_alert_sent(self, record: TraceRecord) -> None:
        self._alerts_sent.add(
            (record["guard"], record["accused"], record["recipient"])
        )

    def _on_alert_accepted(self, record: TraceRecord) -> None:
        pair = (record["node"], record["accused"])
        self._accepted_guards.setdefault(pair, set()).add(record["guard"])

    def _on_alert_ack_verified(self, record: TraceRecord) -> None:
        triple = (record["guard"], record["accused"], record["recipient"])
        if triple not in self._alerts_sent:
            self._flag(
                "ack_without_send", PROTOCOL, record,
                f"guard {record['guard']} verified an ack from "
                f"{record['recipient']} for accused {record['accused']} "
                "but never sent that alert",
            )

    def _on_alert_retransmit(self, record: TraceRecord) -> None:
        triple = (record["guard"], record["accused"], record["recipient"])
        if triple not in self._alerts_sent:
            self._flag(
                "retransmit_without_send", PROTOCOL, record,
                f"guard {record['guard']} retransmitted to "
                f"{record['recipient']} for accused {record['accused']} "
                "without an original alert_sent",
            )

    def _on_guard_detection(self, record: TraceRecord) -> None:
        self._revoked_views.add((record["guard"], record["accused"]))

    def _on_isolation(self, record: TraceRecord) -> None:
        node, accused = record["node"], record["accused"]
        guards = self._accepted_guards.get((node, accused), set())
        if len(guards) < self.theta:
            self._flag(
                "isolation_without_quorum", PROTOCOL, record,
                f"node {node} isolated {accused} after accepting alerts "
                f"from only {len(guards)} distinct guard(s); θ={self.theta}",
            )
        self._revoked_views.add((node, accused))

    def _on_malc_increment(self, record: TraceRecord) -> None:
        view = (record["guard"], record["accused"])
        if view in self._revoked_views:
            self._flag(
                "malc_after_revocation", PROTOCOL, record,
                f"guard {record['guard']} raised MalC against "
                f"{record['accused']} after already revoking it",
            )

    # ------------------------------------------------------------------
    # Attack evidence
    # ------------------------------------------------------------------
    def _attack(self, rule: str, record: TraceRecord, node: Any, message: str) -> None:
        dedup = (rule, node)
        if dedup in self._attack_seen:
            return
        self._attack_seen.add(dedup)
        self._flag(rule, ATTACK, record, message)

    def _on_malicious_drop(self, record: TraceRecord) -> None:
        node = record["node"]
        self._attack(
            "malicious_drop", record, node,
            f"node {node} maliciously dropped traffic",
        )

    def _on_wormhole_activity(self, record: TraceRecord) -> None:
        node = record["node"]
        self._attack(
            "wormhole_activity", record, node,
            f"wormhole colluder {node} relayed traffic",
        )


def check_export(
    records: Iterable[TraceRecord], theta: int = 3
) -> Tuple[List[Violation], int]:
    """Check an exported (possibly multi-run) trace.

    Records carry a ``__run__`` field when the export was written by a
    run-tagged :class:`~repro.obs.sinks.JsonlSink`; each distinct run gets
    its own checker so causal state never crosses runs.  Untagged records
    all land in one implicit run.  Returns ``(violations, runs_checked)``
    with each violation's ``details`` annotated with its run tag.
    """
    checkers: Dict[Any, InvariantChecker] = {}
    for record in records:
        run = record.get("__run__")
        checker = checkers.get(run)
        if checker is None:
            checker = checkers[run] = InvariantChecker(theta=theta)
        checker.process(record)
    violations: List[Violation] = []
    for run, checker in checkers.items():
        for violation in checker.violations:
            if run is not None:
                violation = Violation(
                    rule=violation.rule,
                    category=violation.category,
                    time=violation.time,
                    message=violation.message,
                    details={**violation.details, "__run__": run},
                )
            violations.append(violation)
    violations.sort(key=lambda v: v.time)
    return violations, len(checkers)
