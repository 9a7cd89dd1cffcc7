"""One-shot run reports over the trace pipeline.

``repro report`` renders a single markdown + JSON report — summary
metrics, per-node counter table, the causal detection-latency
decomposition, protocol time series, and the invariant-check verdict —
from either of the two trace transports:

- **live** — a :class:`ReportBuilder` attached as a sink to the run's
  :class:`~repro.sim.trace.TraceLog` while it executes;
- **offline** — the same builder fed a JSONL export through
  :func:`repro.obs.sinks.read_jsonl`.

Both paths MUST produce byte-identical JSON payloads for the same run
(the CLI test asserts this), which constrains the implementation in two
ways worth knowing about:

1. Replayed records carry a ``__run__`` tag that live records lack, so
   the builder strips it everywhere and labels runs by *first-seen
   order* (``run 0``, ``run 1``, …), never by tag value.
2. Only field values that survive JSON serialisation unchanged (node
   ids, counts, times) feed any computation — tuple-valued fields like
   packet keys come back as lists from a replay and are never touched.

Multi-run exports (a whole figure sweep streamed into one file) are
grouped per run: the latency decomposition and series are computed per
run and aggregated across runs, exactly like
:func:`repro.obs.invariants.check_export` does for violations.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Tuple

from repro.obs.invariants import ATTACK, PROTOCOL, InvariantChecker
from repro.obs.latency import LatencyDecomposer, summarize_decompositions
from repro.obs.schema import DEFAULT_REGISTRY, SchemaRegistry
from repro.obs.series import SeriesRecorder, aggregate_bands, regular_times
from repro.sim.trace import TraceLog, TraceRecord

#: Trace kinds whose total counts form the report's summary block.
SUMMARY_KINDS: Tuple[Tuple[str, str], ...] = (
    ("originated", "data_origin"),
    ("delivered", "data_delivered"),
    ("wormhole_drops", "malicious_drop"),
    ("routes_established", "route_established"),
    ("detections", "guard_detection"),
    ("isolations", "isolation"),
    ("alerts_sent", "alert_sent"),
    ("alerts_accepted", "alert_accepted"),
)

#: (counter name, trace kind, field naming the node) for the node table.
NODE_COUNTER_SOURCES: Tuple[Tuple[str, str, str], ...] = (
    ("data_originated", "data_origin", "origin"),
    ("data_delivered", "data_delivered", "destination"),
    ("malicious_drops", "malicious_drop", "node"),
    ("malc_raised", "malc_increment", "guard"),
    ("malc_accrued", "malc_increment", "accused"),
    ("detections", "guard_detection", "guard"),
    ("alerts_sent", "alert_sent", "guard"),
    ("alerts_accepted", "alert_accepted", "node"),
    ("alerts_rejected", "alert_rejected", "node"),
    ("alert_retransmits", "alert_retransmit", "guard"),
    ("isolations", "isolation", "node"),
    ("frames_rejected", "frame_rejected", "node"),
)

#: How many grid points the report's series are resampled onto when no
#: explicit step is given.
DEFAULT_SERIES_POINTS = 50


class _RunState:
    """Per-run analysis pipelines (one trace run = one causal timeline)."""

    def __init__(self, theta: int) -> None:
        self.latency = LatencyDecomposer()
        self.series = SeriesRecorder()
        self.invariants = InvariantChecker(theta=theta)
        self.records = 0


class ReportBuilder:
    """Single-pass trace consumer that accumulates everything a run
    report needs.  Implements the sink protocol (``write``), so it can be
    attached to a live :class:`~repro.sim.trace.TraceLog` directly, and
    doubles as the replay consumer for JSONL exports."""

    def __init__(
        self,
        theta: int = 3,
        step: Optional[float] = None,
        registry: Optional[SchemaRegistry] = None,
    ) -> None:
        if theta < 1:
            raise ValueError(f"theta must be positive, got {theta!r}")
        if step is not None and step <= 0:
            raise ValueError(f"step must be positive, got {step!r}")
        self.theta = theta
        self.step = step
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.kinds: "Counter[str]" = Counter()
        self.records = 0
        self.time_min: Optional[float] = None
        self.time_max: Optional[float] = None
        self.schema_errors = 0
        self._runs: Dict[Any, _RunState] = {}
        self._run_order: List[Any] = []
        self._node_counters: Dict[Any, "Counter[str]"] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def attach(self, trace: TraceLog) -> None:
        """Consume a live trace: every future emit flows through
        :meth:`process` (before ring-buffer eviction)."""
        trace.attach_sink(self)

    def write(self, record: TraceRecord) -> None:
        """Sink protocol entry point."""
        self.process(record)

    def process(self, record: TraceRecord) -> None:
        """Feed one record (in emission order)."""
        # Replayed records carry the export's run tag as a __run__ field;
        # live records don't.  Strip it so both paths see identical
        # records, and use it only for grouping (by first-seen order).
        run_tag = record.get("__run__")
        if run_tag is not None:
            fields = {k: v for k, v in record.items() if k != "__run__"}
            record = TraceRecord(time=record.time, kind=record.kind, fields=fields)
        state = self._runs.get(run_tag)
        if state is None:
            state = self._runs[run_tag] = _RunState(self.theta)
            self._run_order.append(run_tag)

        self.records += 1
        self.kinds[record.kind] += 1
        if self.time_min is None or record.time < self.time_min:
            self.time_min = record.time
        if self.time_max is None or record.time > self.time_max:
            self.time_max = record.time
        self.schema_errors += len(self.registry.errors(record))

        state.records += 1
        state.latency.process(record)
        state.series.process(record)
        state.invariants.process(record)
        self._count_node(record)

    def _count_node(self, record: TraceRecord) -> None:
        for counter, kind, field_name in NODE_COUNTER_SOURCES:
            if record.kind != kind:
                continue
            node = record.get(field_name)
            if node is None:
                continue
            bucket = self._node_counters.get(node)
            if bucket is None:
                bucket = self._node_counters[node] = Counter()
            bucket[counter] += 1

    # ------------------------------------------------------------------
    # Payload assembly
    # ------------------------------------------------------------------
    def _ordered_states(self) -> List[_RunState]:
        return [self._runs[tag] for tag in self._run_order]

    def _series_step(self) -> float:
        if self.step is not None:
            return self.step
        horizon = self.time_max if self.time_max else 0.0
        if horizon <= 0.0:
            return 1.0
        return horizon / DEFAULT_SERIES_POINTS

    def payload(self) -> Dict[str, Any]:
        """The complete JSON-ready report payload (deterministic)."""
        states = self._ordered_states()
        step = self._series_step()
        times = regular_times(self.time_max or 0.0, step)

        per_run_latency: List[Dict[str, Any]] = []
        for state in states:
            decomposition = state.latency.decomposition()
            per_run_latency.append(
                {str(node): decomposition[node].to_dict()
                 for node in sorted(decomposition, key=str)}
            )
        latency_summary = summarize_decompositions(
            state.latency.decomposition() for state in states
        )

        series_runs: List[Dict[str, List[float]]] = []
        for state in states:
            recorded = state.series.series()
            series_runs.append(
                {
                    name: [float(v) for v in recorded[name].resample(times)]
                    for name in SeriesRecorder.GLOBAL_SERIES
                    if name in recorded
                }
            )
        bands: Dict[str, Dict[str, List[float]]] = {}
        for name in SeriesRecorder.GLOBAL_SERIES:
            stack = [
                state.series.get(name)
                for state in states
                if state.series.get(name) is not None
            ]
            if stack:
                bands[name] = aggregate_bands(stack, times)  # type: ignore[arg-type]

        protocol_rules: "Counter[str]" = Counter()
        attack_rules: "Counter[str]" = Counter()
        for state in states:
            for violation in state.invariants.violations:
                if violation.category == PROTOCOL:
                    protocol_rules[violation.rule] += 1
                elif violation.category == ATTACK:
                    attack_rules[violation.rule] += 1
        protocol_total = sum(protocol_rules.values())
        attack_total = sum(attack_rules.values())

        return {
            "meta": {
                "records": self.records,
                "runs": len(states),
                "time_min": self.time_min,
                "time_max": self.time_max,
                "theta": self.theta,
                "kinds": dict(self.kinds),
            },
            "summary": {
                name: self.kinds.get(kind, 0) for name, kind in SUMMARY_KINDS
            },
            "latency": {
                "per_run": per_run_latency,
                "summary": latency_summary,
            },
            "series": {
                "step": step,
                "times": [float(t) for t in times],
                "runs": series_runs,
                "bands": bands,
            },
            "node_counters": {
                str(node): dict(sorted(self._node_counters[node].items()))
                for node in sorted(self._node_counters, key=str)
            },
            "invariants": {
                "schema_errors": self.schema_errors,
                "protocol_violations": protocol_total,
                "protocol_rules": dict(protocol_rules),
                "attack_observations": attack_total,
                "attack_rules": dict(attack_rules),
                "verdict": "fail" if (self.schema_errors or protocol_total) else "pass",
            },
        }

    def report(self) -> "RunReport":
        """Freeze the accumulated state into a :class:`RunReport`."""
        return RunReport(payload=self.payload())


@dataclass
class RunReport:
    """A finished report: one JSON payload plus renderers."""

    payload: Dict[str, Any]

    def to_json(self) -> str:
        """Deterministic JSON rendering (byte-identical for identical
        record streams, live or replayed)."""
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    @property
    def complete_decompositions(self) -> int:
        """How many (run, node) decompositions reached every stage."""
        total = 0
        for run in self.payload["latency"]["per_run"]:
            for entry in run.values():
                if all(v is not None for v in entry["stages"].values()):
                    total += 1
        return total

    def to_markdown(self) -> str:
        """Human-oriented markdown rendering of the same payload."""
        p = self.payload
        meta, summary = p["meta"], p["summary"]
        lines = [
            "# Run report",
            "",
            f"{meta['records']} trace records across {meta['runs']} run(s), "
            f"simulated time {_fmt(meta['time_min'])} – {_fmt(meta['time_max'])} s "
            f"(θ={meta['theta']}).",
            "",
            "## Summary",
            "",
            "| metric | value |",
            "|---|---|",
        ]
        for name, _ in SUMMARY_KINDS:
            lines.append(f"| {name} | {summary[name]} |")
        lines += ["", "## Detection-latency decomposition", ""]
        if any(p["latency"]["per_run"]):
            lines += [
                "| run | node | attack start | first MalC | local revocation "
                "| quorum | full isolation | total (s) |",
                "|---|---|---|---|---|---|---|---|",
            ]
            for run_index, run in enumerate(p["latency"]["per_run"]):
                for node, entry in run.items():
                    stages = entry["stages"]
                    lines.append(
                        f"| {run_index} | {node} "
                        f"| {_fmt(stages['attack_start'])} "
                        f"| {_fmt(stages['first_malc'])} "
                        f"| {_fmt(stages['local_revocation'])} "
                        f"| {_fmt(stages['quorum'])} "
                        f"| {_fmt(stages['full_isolation'])} "
                        f"| {_fmt(entry['total'])} |"
                    )
            lines += ["", "Stage durations across runs (seconds):", "",
                      "| stage | count | mean | p50 | p90 | p99 |",
                      "|---|---|---|---|---|---|"]
            for stage, stats in p["latency"]["summary"].items():
                s = stats["summary"]
                lines.append(
                    f"| {stage} | {s['count']} | {_fmt(s['mean'])} "
                    f"| {_fmt(s['p50'])} | {_fmt(s['p90'])} | {_fmt(s['p99'])} |"
                )
        else:
            lines.append("No attack activity observed — nothing to decompose.")
        lines += ["", "## Time series (mean across runs)", ""]
        bands = p["series"]["bands"]
        times = p["series"]["times"]
        if bands and times:
            picks = _spread_indices(len(times), 6)
            header = "| series | " + " | ".join(
                f"t={_fmt(times[i])}" for i in picks
            ) + " | final |"
            lines += [header, "|---|" + "---|" * (len(picks) + 1)]
            for name in sorted(bands):
                mean = bands[name]["mean"]
                cells = " | ".join(_fmt(mean[i]) for i in picks)
                lines.append(f"| {name} | {cells} | {_fmt(mean[-1])} |")
        else:
            lines.append("No series data recorded.")
        lines += ["", "## Node counters", ""]
        counters = p["node_counters"]
        if counters:
            names = sorted({c for bucket in counters.values() for c in bucket})
            lines += [
                "| node | " + " | ".join(names) + " |",
                "|---|" + "---|" * len(names),
            ]
            for node, bucket in counters.items():
                cells = " | ".join(str(bucket.get(name, 0)) for name in names)
                lines.append(f"| {node} | {cells} |")
        else:
            lines.append("No per-node activity recorded.")
        inv = p["invariants"]
        lines += [
            "",
            "## Invariants",
            "",
            f"Verdict: **{inv['verdict']}** — {inv['schema_errors']} schema "
            f"error(s), {inv['protocol_violations']} protocol violation(s), "
            f"{inv['attack_observations']} attack observation(s).",
        ]
        for rule, count in sorted(inv["protocol_rules"].items()):
            lines.append(f"- protocol `{rule}`: {count}")
        for rule, count in sorted(inv["attack_rules"].items()):
            lines.append(f"- attack `{rule}`: {count}")
        return "\n".join(lines) + "\n"


@dataclass
class MatrixReport:
    """A finished defense × attack matrix: one JSON payload plus renderers.

    Produced by :func:`repro.experiments.matrix.aggregate_matrix` from the
    per-attack campaign journals; the payload is a pure function of the
    journaled reports, so an interrupted-and-resumed matrix renders
    byte-identical JSON to an uninterrupted one (the CI smoke job asserts
    this).
    """

    payload: Dict[str, Any]

    #: (section title, cell-metric key) pairs rendered as grids.
    GRID_METRICS: ClassVar[Tuple[Tuple[str, str], ...]] = (
        ("Detection rate", "detection_rate"),
        ("Mean isolation latency (s)", "mean_isolation_latency"),
        ("Delivery fraction", "delivery_fraction"),
        ("Wormhole drop fraction", "wormhole_drop_fraction"),
    )

    def to_json(self) -> str:
        """Deterministic JSON rendering."""
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    def cell(self, attack: str, defense: str) -> Optional[Dict[str, Any]]:
        """The metrics block for one (attack, defense) cell, or None."""
        for entry in self.payload["cells"]:
            if entry["attack"] == attack and entry["defense"] == defense:
                return entry["metrics"]
        return None

    def to_markdown(self) -> str:
        """Human-oriented markdown rendering: one grid per headline
        metric (defenses down, attacks across), then per-cell detail."""
        p = self.payload
        attacks: List[str] = list(p["attacks"])
        defenses: List[str] = list(p["defenses"])
        index = {
            (entry["attack"], entry["defense"]): entry["metrics"]
            for entry in p["cells"]
        }
        lines = [
            f"# Defense × attack matrix: {p['matrix']}",
            "",
            f"{p['runs']} replication(s) per cell over {len(defenses)} "
            f"defense(s) × {len(attacks)} attack mode(s).",
        ]
        for title, key in self.GRID_METRICS:
            lines += [
                "",
                f"## {title}",
                "",
                "| defense | " + " | ".join(attacks) + " |",
                "|---|" + "---|" * len(attacks),
            ]
            for defense in defenses:
                cells = " | ".join(
                    _fmt(index.get((attack, defense), {}).get(key))
                    for attack in attacks
                )
                lines.append(f"| {defense} | {cells} |")
        lines += [
            "",
            "## Per-cell detail",
            "",
            "| attack | defense | detections | isolations | false isolations "
            "| plugin metrics |",
            "|---|---|---|---|---|---|",
        ]
        for entry in p["cells"]:
            metrics = entry["metrics"]
            extras = ", ".join(
                f"{name}={_fmt(value)}"
                for name, value in sorted(metrics.get("contribution", {}).items())
            ) or "—"
            lines.append(
                f"| {entry['attack']} | {entry['defense']} "
                f"| {_fmt(metrics.get('detections'))} "
                f"| {_fmt(metrics.get('isolations'))} "
                f"| {_fmt(metrics.get('false_isolations'))} "
                f"| {extras} |"
            )
        return "\n".join(lines) + "\n"


def _fmt(value: Optional[float]) -> str:
    """Compact numeric cell (``—`` for absent values)."""
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _spread_indices(length: int, count: int) -> List[int]:
    """Up to ``count`` roughly evenly spaced indices into a sequence."""
    if length <= count:
        return list(range(length))
    return [round(i * (length - 1) / (count - 1)) for i in range(count)]


def build_report(
    records: Iterable[TraceRecord],
    theta: int = 3,
    step: Optional[float] = None,
) -> RunReport:
    """Replay ``records`` (e.g. from :func:`repro.obs.sinks.read_jsonl`)
    into a finished :class:`RunReport`."""
    builder = ReportBuilder(theta=theta, step=step)
    for record in records:
        builder.process(record)
    return builder.report()
