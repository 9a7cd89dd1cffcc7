"""Observability subsystem: trace schemas, streaming sinks, invariant
checking, and per-node counter snapshots.

The trace log (:mod:`repro.sim.trace`) is the protocol's flight recorder;
this package is everything needed to make that trace *operable* at
production scale:

- :mod:`repro.obs.schema` — the registry declaring the field set of every
  emitted trace kind, with a strict mode that turns typos into errors.
- :mod:`repro.obs.sinks` — the streaming sink protocol (JSONL file sink,
  in-memory sink) that lets multi-minute runs export their full trace
  while the in-memory log stays bounded (ring mode).
- :mod:`repro.obs.invariants` — an online checker that subscribes to
  trace kinds and flags protocol violations as they happen.
- :mod:`repro.obs.counters` — per-node counter snapshots (MalC totals,
  watch-buffer peaks, alert send/accept/reject/retransmit counts)
  exported into :class:`~repro.metrics.collector.MetricsReport`.
- :mod:`repro.obs.config` — :class:`ObsConfig`, the frozen knob bundle a
  :class:`~repro.experiments.scenario.ScenarioConfig` carries to switch
  all of the above on for a run or a whole sweep.
- :mod:`repro.obs.latency` — the causal detection-latency decomposition
  (attack start → first MalC → local revocation → quorum → full
  isolation) with cross-replication p50/p90/p99 summaries.
- :mod:`repro.obs.series` — event-driven time series (watch-buffer
  occupancy, cumulative MalC, alerts in flight, revoked neighbors,
  wormhole drops) with fixed-step resampling and aggregation bands.
- :mod:`repro.obs.spans` — nested wall-clock span profiling of the
  experiment harness (build / run / collect / cache / fan-out).
- :mod:`repro.obs.report` — one markdown + JSON run report combining all
  of the above, identical from a live trace and a JSONL replay.

See docs/OBSERVABILITY.md for the walkthrough and CLI examples.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.config import ObsConfig
    from repro.obs.counters import snapshot_counters
    from repro.obs.invariants import InvariantChecker, Violation
    from repro.obs.latency import (
        LatencyDecomposer,
        StageLatency,
        summarize_decompositions,
    )
    from repro.obs.report import ReportBuilder, RunReport, build_report
    from repro.obs.schema import (
        DEFAULT_REGISTRY,
        SchemaRegistry,
        TraceSchema,
        TraceSchemaError,
        install_strict,
    )
    from repro.obs.series import Series, SeriesRecorder, aggregate_bands
    from repro.obs.sinks import JsonlSink, MemorySink, ReadStats, read_jsonl
    from repro.obs.spans import SpanProfiler, activate, span

__all__ = [
    "DEFAULT_REGISTRY",
    "InvariantChecker",
    "JsonlSink",
    "LatencyDecomposer",
    "MemorySink",
    "ObsConfig",
    "ReadStats",
    "ReportBuilder",
    "RunReport",
    "SchemaRegistry",
    "Series",
    "SeriesRecorder",
    "SpanProfiler",
    "StageLatency",
    "TraceSchema",
    "TraceSchemaError",
    "Violation",
    "activate",
    "aggregate_bands",
    "build_report",
    "install_strict",
    "read_jsonl",
    "snapshot_counters",
    "span",
    "summarize_decompositions",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.config": ("ObsConfig",),
    "repro.obs.counters": ("snapshot_counters",),
    "repro.obs.invariants": ("InvariantChecker", "Violation"),
    "repro.obs.latency": ("LatencyDecomposer", "StageLatency", "summarize_decompositions"),
    "repro.obs.report": ("ReportBuilder", "RunReport", "build_report"),
    "repro.obs.schema": (
        "DEFAULT_REGISTRY", "SchemaRegistry", "TraceSchema", "TraceSchemaError",
        "install_strict",
    ),
    "repro.obs.series": ("Series", "SeriesRecorder", "aggregate_bands"),
    "repro.obs.sinks": ("JsonlSink", "MemorySink", "ReadStats", "read_jsonl"),
    "repro.obs.spans": ("SpanProfiler", "activate", "span"),
})
