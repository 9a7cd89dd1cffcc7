"""Campaign orchestration: the one executor for batches of scenario runs.

Every sweep in the repository runs through :class:`CampaignRunner`:
figure regenerators, :func:`~repro.experiments.scenario.average_runs`
and :func:`repro.api.sweep` hand it an explicit config list
(:func:`run_sweep`); campaigns and the defense matrix hand it a
declarative spec.  A *campaign* is a base
:class:`~repro.experiments.scenario.ScenarioConfig`, a grid of field
overrides (``axes``), and a replication count — compiled into a flat job
list and executed through a pluggable :class:`ExecutionBackend`.  A
campaign is built to be killed:

- **Content-addressed jobs** — every job is keyed by the existing
  :func:`~repro.experiments.cache.config_digest` of its concrete config,
  so "is this job done?" is a pure function of the spec, independent of
  process, host, or ordering.
- **Append-only journal** — each completed job is appended to a JSONL
  journal (one atomic line per job, like
  :class:`~repro.obs.sinks.JsonlSink`) together with its full-fidelity
  report state.  Appends are fsynced by default, and a journal whose
  previous writer died mid-append is self-healed on reopen (the
  unterminated tail fragment is truncated before new lines land).
  Resuming loads the journal, skips every recorded job, and produces
  byte-identical aggregates to an uninterrupted run.
- **Pluggable execution** — ``inline`` (serial, in-process) and
  ``process`` (a worker pool, one future per job) backends share one
  retry/backoff loop: a crashed worker fails only its own job, which is
  re-dispatched up to :class:`RetryPolicy.retries` times.
- **Supervision** — a :class:`SupervisionPolicy` adds per-job wall-clock
  timeouts (hung workers are preempted and their pool torn down), result
  payload validation, and poison-job quarantine: a job that keeps
  killing its worker is dead-lettered to the journal with its traceback
  instead of wedging the campaign.  Crash-suspect jobs are re-dispatched
  in *isolation* (one fresh single-worker pool each) so a poison job
  cannot take innocent neighbours down with it twice.
- **Interruptibility** — a ``stop`` callable (the CLI wires SIGINT /
  SIGTERM to it) halts dispatch between jobs, flushes a final
  ``interrupt`` journal line, and reports the partial result; the CLI
  exits 75 exactly like ``--max-jobs``.

An explicit-list sweep is the same loop with no journal, no aggregate,
no retries and no quarantine: a failing scenario raises
:class:`CampaignError` chained from the worker's exception.

Every one of those failure paths is reproducible through
:mod:`repro.faults.harness`: a :class:`HarnessFaultController` injects
worker crashes, hangs, corrupt payloads, and torn journal writes, and a
campaign resumed after injected churn must produce byte-identical
aggregates to a fault-free run (see tests/test_campaign_supervision.py
and the ``campaign-chaos`` CI job).  ``repro campaign doctor``
(:mod:`repro.experiments.doctor`) audits and repairs damaged journals.

Specs load from TOML or JSON (:func:`load_spec`) or are built in Python;
``repro campaign {run,plan,status,doctor}`` is the CLI surface and
:func:`repro.api.campaign` the stable programmatic entry point.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
import traceback as traceback_module
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.cache import ResultCache, config_digest
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.experiments.seeds import child_seed
from repro.experiments.stats import summarize, summarize_optional
from repro.faults.harness import HarnessFaultController, HarnessInterrupt
from repro.metrics.collector import MetricsReport
from repro.obs.progress import CampaignProgress
from repro.obs.spans import span
from repro.sim.trace import TraceLog

#: Journal line format version (bump on shape changes; old journals are
#: rejected with a clear error rather than misread).
JOURNAL_VERSION = 1


class CampaignError(RuntimeError):
    """A campaign could not be compiled, resumed, or completed."""


class JobTimeoutError(CampaignError):
    """A job exceeded the supervision wall-clock timeout."""


class WorkerLostError(CampaignError):
    """A worker (or its whole pool) died before the job finished."""


class CorruptResultError(CampaignError):
    """A worker completed but returned a payload that is not a report."""


class WorkerPreempted(CampaignError):
    """A job was torn down through no fault of its own (its pool was
    killed because a *neighbour* hung or crashed).  Collateral failures
    are always re-dispatched and never count toward dead-lettering."""

    collateral = True


# ----------------------------------------------------------------------
# Job helpers
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker-count policy: None/0/1 -> serial, -1 -> all CPUs, n -> n."""
    if jobs is None or jobs == 0 or jobs == 1:
        return 1
    if jobs < 0:
        return max(1, os.cpu_count() or 1)
    return int(jobs)


def replication_configs(config: ScenarioConfig, runs: int) -> List[ScenarioConfig]:
    """The ``runs`` child configs of one sweep point (hash-derived seeds)."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    return [
        dataclasses.replace(config, seed=child_seed(config.seed, index))
        for index in range(runs)
    ]


def run_config(config: ScenarioConfig) -> MetricsReport:
    """Module-level worker body (must be picklable for process pools)."""
    return run_scenario(config)


# ----------------------------------------------------------------------
# Spec: the declarative description of a campaign
# ----------------------------------------------------------------------
def apply_overrides(config: ScenarioConfig, overrides: Mapping[str, Any]) -> ScenarioConfig:
    """Return ``config`` with dotted-path field overrides applied.

    ``{"n_malicious": 2}`` replaces a top-level field;
    ``{"liteworp.theta": 4}`` recurses into the nested dataclass.  Unknown
    field names raise :class:`CampaignError` naming the offender.
    """
    # Group dotted paths by head so sibling overrides of one nested config
    # (liteworp.theta + liteworp.gamma) collapse into a single replace.
    flat: Dict[str, Any] = {}
    nested: Dict[str, Dict[str, Any]] = {}
    for name in sorted(overrides):
        value = overrides[name]
        if "." in name:
            head, rest = name.split(".", 1)
            nested.setdefault(head, {})[rest] = value
        else:
            flat[name] = value
    field_names = {f.name for f in dataclasses.fields(config)}
    for name in itertools.chain(flat, nested):
        if name not in field_names:
            raise CampaignError(
                f"unknown {type(config).__name__} field {name!r} in campaign overrides"
            )
    for head, sub in nested.items():
        inner = getattr(config, head)
        if not dataclasses.is_dataclass(inner):
            raise CampaignError(
                f"cannot apply dotted override to non-dataclass field {head!r}"
            )
        flat[head] = apply_overrides(inner, sub)
    return dataclasses.replace(config, **flat)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign: base config × axis grid × replications.

    ``axes`` maps a (possibly dotted) :class:`ScenarioConfig` field path
    to the sequence of values to sweep; the campaign is the cartesian
    product over all axes in sorted-name order, each point replicated
    ``runs`` times with hash-derived seeds.
    """

    name: str
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    runs: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign needs a non-empty name")
        if self.runs < 1:
            raise CampaignError(f"runs must be at least 1, got {self.runs!r}")
        normalized = tuple(
            (str(axis), tuple(values)) for axis, values in sorted(self.axes)
        )
        for axis, values in normalized:
            if not values:
                raise CampaignError(f"axis {axis!r} has no values")
        object.__setattr__(self, "axes", normalized)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from the TOML/JSON document shape::

            {"name": ..., "runs": 2,
             "base": {"n_nodes": 30, "liteworp.theta": 4, ...},
             "axes": {"n_malicious": [0, 2], "defense": ["none", "liteworp"]}}

        ``base`` accepts dotted paths for nested configs exactly like the
        axes do.
        """
        payload = dict(payload)
        unknown = set(payload) - {"name", "base", "axes", "runs"}
        if unknown:
            raise CampaignError(f"unknown campaign spec key(s) {sorted(unknown)}")
        if "name" not in payload:
            raise CampaignError("campaign spec needs a 'name'")
        try:
            base = apply_overrides(ScenarioConfig(), dict(payload.get("base", {})))
        except (TypeError, ValueError) as exc:
            raise CampaignError(f"bad campaign base config: {exc}") from exc
        axes_raw = payload.get("axes", {})
        axes = tuple((name, tuple(values)) for name, values in axes_raw.items())
        return cls(
            name=str(payload["name"]),
            base=base,
            axes=axes,
            runs=int(payload.get("runs", 1)),
        )

    def axes_dict(self) -> Dict[str, Tuple[Any, ...]]:
        """The axis grid as a plain mapping (sorted by axis name)."""
        return dict(self.axes)

    def points(self) -> List[Tuple[Tuple[str, Any], ...]]:
        """Every sweep point as a tuple of ``(axis, value)`` pairs, in
        deterministic grid order (axes sorted by name, values as given)."""
        if not self.axes:
            return [()]
        names = [axis for axis, _ in self.axes]
        grids = [values for _, values in self.axes]
        return [
            tuple(zip(names, combo)) for combo in itertools.product(*grids)
        ]

    def digest(self) -> str:
        """Stable identity of this spec (guards journal/resume mismatches)."""
        return config_digest(
            {
                "campaign": self.name,
                "base": self.base,
                "axes": {axis: list(values) for axis, values in self.axes},
                "runs": self.runs,
            }
        )


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CampaignError(f"cannot read campaign spec {path}: {exc}") from exc
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise CampaignError(f"{path}: invalid TOML: {exc}") from exc
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise CampaignError(f"{path}: campaign spec must be a table/object")
    return CampaignSpec.from_dict(payload)


# ----------------------------------------------------------------------
# Compilation: spec -> content-addressed job list
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignJob:
    """One concrete simulation of the campaign, keyed by config digest."""

    index: int
    point: Tuple[Tuple[str, Any], ...]
    replication: int
    config: ScenarioConfig
    digest: str

    def label(self) -> str:
        """Human-readable ``axis=value,... #rep`` tag."""
        point = ",".join(f"{axis}={value}" for axis, value in self.point) or "-"
        return f"{point} #{self.replication}"


def compile_campaign(spec: CampaignSpec) -> List[CampaignJob]:
    """Expand ``spec`` into its flat, deterministic job list.

    Point order is the sorted-axis cartesian product; within a point,
    replications use the hash-derived child seeds of
    :func:`replication_configs`.
    """
    with span("campaign.compile"):
        jobs: List[CampaignJob] = []
        for point in spec.points():
            try:
                point_config = apply_overrides(spec.base, dict(point))
            except (TypeError, ValueError) as exc:
                raise CampaignError(
                    f"invalid sweep point {dict(point)!r}: {exc}"
                ) from exc
            for replication, config in enumerate(
                replication_configs(point_config, spec.runs)
            ):
                jobs.append(
                    CampaignJob(
                        index=len(jobs),
                        point=point,
                        replication=replication,
                        config=config,
                        digest=config_digest(config),
                    )
                )
        return jobs


# ----------------------------------------------------------------------
# Journal: append-only completion log
# ----------------------------------------------------------------------
@dataclass
class JournalState:
    """Parsed journal contents (see :func:`load_journal`)."""

    spec_digest: Optional[str] = None
    total_jobs: Optional[int] = None
    reports: Dict[str, MetricsReport] = field(default_factory=dict)
    partial_lines: int = 0
    interrupts: int = 0
    dead_letters: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.reports)


class CampaignJournal:
    """Append-only JSONL journal of completed campaign jobs.

    Crash-consistency discipline:

    - every entry is one line-buffered ``O_APPEND`` write, fsynced by
      default (``fsync=False`` trades durability for speed — the bench
      measures the difference);
    - reopening a journal whose previous writer died mid-append
      truncates the unterminated tail fragment first (the bytes are
      unrecoverable; the job simply re-runs on resume), so a fresh
      ``begin`` line can never be glued onto a torn one;
    - with a :class:`~repro.faults.harness.HarnessFaultController`
      attached, planned :class:`~repro.faults.harness.TornJournalWrite`
      faults cut a completion append short and raise
      :class:`~repro.faults.harness.HarnessInterrupt` — the reproducible
      stand-in for dying at the worst possible byte.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync: bool = True,
        faults: Optional[HarnessFaultController] = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.faults = faults
        self._handle = None
        self.entries_written = 0
        self.completions = 0
        self.torn = False
        self.repaired_tail_bytes = 0

    def _repair_tail(self) -> None:
        # A writer killed mid-append leaves an unterminated final line;
        # appending after it would glue two entries into one corrupt
        # mid-file line.  Truncate back to the last newline instead.
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size == 0:
            return
        with open(self.path, "rb+") as handle:
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            last_newline = -1
            position = size
            while position > 0 and last_newline < 0:
                start = max(0, position - 4096)
                handle.seek(start)
                chunk = handle.read(position - start)
                found = chunk.rfind(b"\n")
                if found >= 0:
                    last_newline = start + found
                position = start
            handle.truncate(last_newline + 1)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        self.repaired_tail_bytes = size - (last_newline + 1)

    def _write_raw(self, text: str) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._repair_tail()
            self._handle = open(self.path, "a", buffering=1, encoding="utf-8")
        self._handle.write(text)
        if self.fsync:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def _append(self, payload: Dict[str, Any]) -> None:
        self._write_raw(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
        self.entries_written += 1

    def begin(self, spec: CampaignSpec, total_jobs: int) -> None:
        """Record a (re)start: spec identity + compiled job count."""
        with span("campaign.journal"):
            self._append(
                {
                    "event": "begin",
                    "version": JOURNAL_VERSION,
                    "campaign": spec.name,
                    "spec": spec.digest(),
                    "jobs": total_jobs,
                }
            )

    def record(self, job: CampaignJob, report: MetricsReport) -> None:
        """Record one completed job with its full-fidelity report state.

        Raises :class:`~repro.faults.harness.HarnessInterrupt` when an
        injected torn write fires on this completion entry — the partial
        line is on disk, nothing else is, and the caller must stop as if
        the process died.
        """
        with span("campaign.journal"):
            payload = {
                "event": "complete",
                "digest": job.digest,
                "index": job.index,
                "point": {axis: value for axis, value in job.point},
                "replication": job.replication,
                "seed": job.config.seed,
                "report": report.to_state(),
            }
            entry = self.completions
            self.completions += 1
            if self.faults is not None:
                fault = self.faults.claim_torn_write(entry)
                if fault is not None:
                    line = (
                        json.dumps(payload, separators=(",", ":"), sort_keys=True)
                        + "\n"
                    )
                    keep = max(1, int(len(line) * fault.fraction))
                    self._write_raw(line[:keep])
                    self.torn = True
                    raise HarnessInterrupt(
                        f"injected torn journal write at completion entry {entry}"
                    )
            self._append(payload)

    def dead_letter(
        self, job: CampaignJob, error: BaseException, attempts: int
    ) -> None:
        """Quarantine a poison job: record its identity and traceback so
        the campaign can continue (and a human can post-mortem)."""
        with span("campaign.journal"):
            self._append(
                {
                    "event": "dead_letter",
                    "digest": job.digest,
                    "index": job.index,
                    "point": {axis: value for axis, value in job.point},
                    "replication": job.replication,
                    "attempts": attempts,
                    "error": f"{type(error).__name__}: {error}",
                    "traceback": "".join(
                        traceback_module.format_exception(
                            type(error), error, error.__traceback__
                        )
                    ),
                }
            )

    def interrupt(self, reason: str, completed: int) -> None:
        """Record a graceful stop (signal / --max-jobs) as the final
        journal line, so post-mortems can tell a clean interrupt from a
        crash."""
        if self.torn:
            # The previous append was deliberately left unterminated;
            # writing after it would corrupt the torn line further.
            return
        with span("campaign.journal"):
            self._append(
                {"event": "interrupt", "reason": reason, "completed": completed}
            )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def load_journal(
    path: Union[str, Path], tolerate_partial: bool = True
) -> JournalState:
    """Parse a campaign journal back into completed-job reports.

    A truncated *final* line (the writer was killed mid-append) is
    skipped and counted when ``tolerate_partial`` is set; mid-file
    corruption and version/spec mismatches raise :class:`CampaignError`
    naming the line, its byte offset, and the ``repro campaign doctor``
    invocation that can repair the file.
    """
    path = Path(path)
    state = JournalState()
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CampaignError(f"cannot read campaign journal {path}: {exc}") from exc
    offset = 0
    with handle:
        # Binary iteration keeps byte offsets exact even when the damage
        # is invalid UTF-8 (a diagnostic must never crash on the very
        # bytes it is diagnosing).
        for lineno, line in enumerate(handle, start=1):
            line_offset = offset
            offset += len(line)
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
                if not isinstance(payload, dict):
                    raise ValueError(
                        f"entry is {type(payload).__name__}, not an object"
                    )
            except ValueError as exc:  # JSON or UTF-8 decode failure
                if tolerate_partial and not handle.read().strip():
                    state.partial_lines += 1
                    break
                raise CampaignError(
                    f"{path}:{lineno}: corrupt journal line at byte offset "
                    f"{line_offset}: {exc}; run 'repro campaign doctor "
                    f"{path} --repair' to quarantine it"
                ) from exc
            event = payload.get("event")
            if event == "begin":
                version = payload.get("version")
                if version != JOURNAL_VERSION:
                    raise CampaignError(
                        f"{path}:{lineno}: journal version {version!r} "
                        f"(this build writes {JOURNAL_VERSION}); run "
                        f"'repro campaign doctor {path}' to audit it"
                    )
                spec_digest = payload.get("spec")
                if state.spec_digest is not None and spec_digest != state.spec_digest:
                    raise CampaignError(
                        f"{path}:{lineno}: journal mixes two campaign specs"
                    )
                state.spec_digest = spec_digest
                state.total_jobs = payload.get("jobs")
            elif event == "complete":
                try:
                    report = MetricsReport.from_state(payload["report"])
                    digest = payload["digest"]
                except (KeyError, TypeError, ValueError) as exc:
                    raise CampaignError(
                        f"{path}:{lineno}: malformed completion entry at byte "
                        f"offset {line_offset}: {exc}; run 'repro campaign "
                        f"doctor {path} --repair' to quarantine it"
                    ) from exc
                state.reports[digest] = report
            elif event == "dead_letter":
                digest = payload.get("digest")
                if digest is not None:
                    state.dead_letters[digest] = payload
            elif event == "interrupt":
                state.interrupts += 1
            else:
                raise CampaignError(
                    f"{path}:{lineno}: unknown journal event {event!r}"
                )
    return state


# ----------------------------------------------------------------------
# Execution backends
# ----------------------------------------------------------------------
#: Worker signature: one concrete config in, its report out.
JobFn = Callable[[ScenarioConfig], MetricsReport]


class ExecutionBackend:
    """How one wave of campaign jobs is executed.

    ``run_batch`` maps ``fn`` over ``(key, config)`` items and *never
    raises for a job failure*: it returns per-key results and per-key
    exceptions so the campaign's retry loop can re-dispatch exactly the
    failed jobs.  Supervision hooks:

    - ``timeout`` — per-job wall-clock seconds; overdue jobs fail with
      :class:`JobTimeoutError` (the process backend preempts the hung
      worker by tearing the pool down; inline enforces post-hoc).
    - ``should_stop`` — polled between jobs/completions; when it turns
      true the backend returns early, leaving undispatched items in
      *neither* dict.
    - ``isolate`` — run each item in its own fresh single-worker pool so
      a crash is attributed to exactly one job (the poison-job probe).
    """

    name = "abstract"

    def run_batch(
        self,
        fn: JobFn,
        items: Sequence[Tuple[int, ScenarioConfig]],
        *,
        timeout: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        isolate: bool = False,
    ) -> Tuple[Dict[int, MetricsReport], Dict[int, BaseException]]:
        raise NotImplementedError


class InlineBackend(ExecutionBackend):
    """Serial in-process execution — the deterministic reference backend.

    A single thread cannot preempt a hung job, so ``timeout`` is
    enforced post-hoc: a job that ran past the deadline still finished,
    but its result is discarded and recorded as a
    :class:`JobTimeoutError` (deadline semantics stay uniform across
    backends)."""

    name = "inline"

    def run_batch(self, fn, items, *, timeout=None, should_stop=None, isolate=False):
        results: Dict[int, MetricsReport] = {}
        failures: Dict[int, BaseException] = {}
        for key, config in items:
            if should_stop is not None and should_stop():
                break
            started = time.monotonic()
            try:
                result = fn(config)
            except Exception as exc:  # noqa: BLE001 - collected for retry
                failures[key] = exc
                continue
            elapsed = time.monotonic() - started
            if timeout is not None and elapsed > timeout:
                failures[key] = JobTimeoutError(
                    f"job took {elapsed:.3f}s, past the {timeout:g}s wall-clock timeout"
                )
            else:
                results[key] = result
        return results, failures


def _future_error(future: Any) -> Optional[BaseException]:
    """The future's exception, with cancellation reported as an error
    rather than raised (``Future.exception()`` raises on cancelled)."""
    try:
        return future.exception()
    except BaseException as exc:  # noqa: BLE001 - CancelledError
        return exc


def _reset_worker_signals() -> None:
    """Restore default signal dispositions in pool worker processes.

    Fork-started workers inherit whatever SIGINT/SIGTERM handlers the
    parent CLI installed, which would make them *survive* the
    ``terminate()`` used to preempt hung jobs (the inherited handler
    merely sets the parent's stop flag).  Workers must die on SIGTERM
    and leave Ctrl-C handling to the supervising parent.
    """
    import signal as signal_module

    try:
        signal_module.signal(signal_module.SIGTERM, signal_module.SIG_DFL)
        signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass


class ProcessBackend(ExecutionBackend):
    """Process-pool execution: jobs are dispatched to the picklable
    :func:`run_config` worker body, one future per job so a crashed worker
    fails only its own job.
    """

    name = "process"

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs

    def _kill(self, executor: ProcessPoolExecutor) -> None:
        """Tear an executor down without waiting for hung workers.

        ``ProcessPoolExecutor`` offers no per-future kill, so preemption
        is wholesale: terminate the worker processes, then discard the
        pool."""
        processes = getattr(executor, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001 - already-dead workers
                    pass
        executor.shutdown(wait=False, cancel_futures=True)

    def run_batch(self, fn, items, *, timeout=None, should_stop=None, isolate=False):
        results: Dict[int, MetricsReport] = {}
        failures: Dict[int, BaseException] = {}
        if not items:
            return results, failures
        if isolate:
            # Poison-probe mode: one fresh single-worker pool per job, so
            # a pool-killing crash is attributed to exactly that job.
            for key, config in items:
                if should_stop is not None and should_stop():
                    break
                sub_results, sub_failures = self._run_window(
                    fn, [(key, config)], 1, timeout, should_stop
                )
                results.update(sub_results)
                failures.update(sub_failures)
            return results, failures
        workers = min(resolve_jobs(self.jobs), len(items))
        return self._run_window(fn, list(items), max(1, workers), timeout, should_stop)

    def _run_window(self, fn, queue, workers, timeout, should_stop):
        results: Dict[int, MetricsReport] = {}
        failures: Dict[int, BaseException] = {}
        executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_reset_worker_signals
        )
        inflight: Dict[Any, Tuple[int, float]] = {}
        broken = False
        if timeout is not None:
            poll = max(0.01, min(0.1, timeout / 4.0))
        elif should_stop is not None:
            poll = 0.1
        else:
            poll = None
        try:
            while queue or inflight:
                # Keep at most ``workers`` jobs in flight so a job's
                # wall clock starts at dispatch, not at batch submission
                # (a queued job must not "time out" while waiting).
                while queue and len(inflight) < workers:
                    key, config = queue.pop(0)
                    try:
                        future = executor.submit(fn, config)
                    except BaseException as exc:  # noqa: BLE001 - pool already broken
                        failures[key] = exc
                        broken = True
                        break
                    inflight[future] = (key, time.monotonic())
                if broken:
                    break
                if not inflight:
                    continue
                try:
                    done, _ = wait(
                        set(inflight), timeout=poll, return_when=FIRST_COMPLETED
                    )
                except BaseException:  # noqa: BLE001 - pool died under wait
                    broken = True
                    break
                for future in done:
                    key, _started = inflight.pop(future)
                    try:
                        results[key] = future.result()
                    except Exception as exc:  # noqa: BLE001 - collected for retry
                        failures[key] = exc
                        if isinstance(exc, BrokenExecutor):
                            broken = True
                if broken:
                    break
                if should_stop is not None and should_stop():
                    # Graceful stop: abandon in-flight work silently (the
                    # runner sees the missing keys and records the
                    # interruption); nothing is marked failed.
                    self._kill(executor)
                    inflight.clear()
                    queue.clear()
                    return results, failures
                if timeout is not None:
                    now = time.monotonic()
                    overdue = [
                        future
                        for future, (_key, started) in inflight.items()
                        if now - started > timeout
                    ]
                    if overdue:
                        for future in overdue:
                            key, started = inflight.pop(future)
                            failures[key] = JobTimeoutError(
                                f"job exceeded the {timeout:g}s wall-clock "
                                f"timeout ({now - started:.3f}s elapsed)"
                            )
                        # No per-worker kill exists, so preempt wholesale:
                        # the pool dies, innocents come back as collateral.
                        self._kill(executor)
                        for future, (key, _started) in inflight.items():
                            if future.done() and _future_error(future) is None:
                                results[key] = future.result()
                            else:
                                failures[key] = WorkerPreempted(
                                    "pool torn down while a neighbour job hung"
                                )
                        inflight.clear()
                        for key, _config in queue:
                            failures[key] = WorkerPreempted(
                                "pool torn down before dispatch"
                            )
                        queue.clear()
                        return results, failures
            if broken:
                # The pool itself died: in-flight jobs are crash suspects
                # (counted failures); never-dispatched ones are collateral.
                for future, (key, _started) in list(inflight.items()):
                    if key in results or key in failures:
                        continue
                    exc = _future_error(future) if future.done() else None
                    failures[key] = exc if exc is not None else WorkerLostError(
                        "worker pool broke before the job finished"
                    )
                for key, _config in queue:
                    failures[key] = WorkerPreempted("pool broke before dispatch")
        finally:
            # A broken pool is discarded wholesale; the next wave gets a
            # fresh one.
            executor.shutdown(wait=False, cancel_futures=True)
        return results, failures


BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    "inline": lambda jobs=None: InlineBackend(),
    "process": ProcessBackend,
}


def make_backend(name: str, jobs: Optional[int] = None) -> ExecutionBackend:
    """Instantiate a backend by name (``inline`` or ``process``)."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise CampaignError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return factory(jobs=jobs)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job retry with exponential backoff between waves."""

    retries: int = 2
    backoff: float = 0.1
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries!r}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff!r}")

    def delay(self, attempt: int) -> float:
        """Sleep before retry wave ``attempt`` (1-based)."""
        return self.backoff * (self.multiplier ** max(0, attempt - 1))


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the campaign watches its workers.

    Parameters
    ----------
    timeout:
        Per-job wall-clock seconds before a worker counts as hung and is
        preempted (None disables deadline enforcement).
    quarantine:
        When a job exhausts its :class:`RetryPolicy` budget, dead-letter
        it to the journal (error + traceback) and keep going, instead of
        raising :class:`CampaignError` and abandoning every other job.
    """

    timeout: Optional[float] = None
    quarantine: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be positive or None, got {self.timeout!r}"
            )


# ----------------------------------------------------------------------
# Aggregation + result
# ----------------------------------------------------------------------
def _summary_dict(summary) -> Dict[str, object]:
    return {"mean": summary.mean, "std": summary.std, "count": summary.count}


def aggregate_campaign(
    spec: CampaignSpec, jobs: Sequence[CampaignJob], reports: Mapping[int, MetricsReport]
) -> Dict[str, object]:
    """Per-point metric summaries over every replication.

    Pure function of the reports: running the same campaign twice — or
    interrupting and resuming it — yields byte-identical JSON.
    """
    points: List[Dict[str, object]] = []
    by_point: Dict[Tuple[Tuple[str, Any], ...], List[MetricsReport]] = {}
    order: List[Tuple[Tuple[str, Any], ...]] = []
    for job in jobs:
        if job.point not in by_point:
            by_point[job.point] = []
            order.append(job.point)
        by_point[job.point].append(reports[job.index])
    for point in order:
        group = by_point[point]
        metrics = {
            "originated": _summary_dict(summarize([r.originated for r in group])),
            "delivered": _summary_dict(summarize([r.delivered for r in group])),
            "wormhole_drops": _summary_dict(summarize([r.wormhole_drops for r in group])),
            "fraction_wormhole_dropped": _summary_dict(
                summarize([r.fraction_wormhole_dropped for r in group])
            ),
            "fraction_malicious_routes": _summary_dict(
                summarize([r.fraction_malicious_routes for r in group])
            ),
            "detections": _summary_dict(summarize([r.detections for r in group])),
            "isolations": _summary_dict(summarize([r.isolations for r in group])),
            "mean_isolation_latency": _summary_dict(
                summarize_optional([r.mean_isolation_latency() for r in group])
            ),
            "mean_detection_latency": _summary_dict(
                summarize_optional([r.mean_detection_latency() for r in group])
            ),
        }
        points.append(
            {
                "point": {axis: value for axis, value in point},
                "jobs": len(group),
                "metrics": metrics,
            }
        )
    return {
        "campaign": spec.name,
        "spec": spec.digest(),
        "runs": spec.runs,
        "points": points,
    }


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` invocation.

    A complete spec run publishes its ``aggregate``; a complete
    explicit-list run publishes ``reports``, one per config in input
    order.
    """

    spec: CampaignSpec
    total_jobs: int
    executed: int
    from_cache: int
    from_journal: int
    retried: int
    complete: bool
    aggregate: Optional[Dict[str, object]] = None
    timeouts: int = 0
    dead_lettered: int = 0
    interrupted: Optional[str] = None
    reports: List[MetricsReport] = field(default_factory=list)

    @property
    def completed_jobs(self) -> int:
        return self.executed + self.from_cache + self.from_journal

    def to_json(self) -> str:
        """Deterministic aggregate JSON (the campaign's published output)."""
        if self.aggregate is None:
            raise CampaignError("campaign is incomplete; no aggregate to render")
        return json.dumps(self.aggregate, indent=2, sort_keys=True) + "\n"

    def format(self) -> str:
        """Stable one-screen text summary."""
        header = (
            f"campaign {self.spec.name}"
            f" jobs={self.total_jobs}"
            f" executed={self.executed}"
            f" cache={self.from_cache}"
            f" journal={self.from_journal}"
            f" retried={self.retried}"
            f" complete={'yes' if self.complete else 'no'}"
        )
        if self.timeouts:
            header += f" timeouts={self.timeouts}"
        if self.dead_lettered:
            header += f" dead_lettered={self.dead_lettered}"
        if self.interrupted is not None:
            header += f" interrupted={self.interrupted}"
        lines = [header]
        if self.aggregate is not None:
            for entry in self.aggregate["points"]:
                point = ",".join(f"{k}={v}" for k, v in entry["point"].items()) or "-"
                drops = entry["metrics"]["fraction_wormhole_dropped"]["mean"]
                routes = entry["metrics"]["fraction_malicious_routes"]["mean"]
                lines.append(
                    f"  {point:<40s} drop={drops:.4f} malroutes={routes:.4f}"
                    f" (n={entry['jobs']})"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The orchestrator
# ----------------------------------------------------------------------
class CampaignRunner:
    """Compiles and executes a campaign with journaling, caching, retry,
    and worker supervision.

    Parameters
    ----------
    spec:
        The campaign to run.
    backend:
        An :class:`ExecutionBackend` instance (default: inline).
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache`; consulted
        before dispatch and populated after every executed job.  Jobs that
        stream a trace export bypass cache reads (their records must hit
        the sink).
    journal_path:
        Where to append the completion journal; None disables journaling
        (and therefore resume).
    resume:
        Load the journal first and skip every job it records.  The
        journal's spec digest must match ``spec``.  Dead-lettered jobs
        are *not* skipped — a resume gives every poison job a fresh
        chance.
    retry:
        Per-job :class:`RetryPolicy` for worker crashes.
    supervision:
        :class:`SupervisionPolicy` — per-job timeout and poison-job
        quarantine.  The default enables quarantine with no timeout.
    progress:
        Optional :class:`~repro.obs.progress.CampaignProgress` receiving
        live counter updates.
    trace:
        Optional :class:`~repro.sim.trace.TraceLog`; ``campaign_job``,
        ``worker_timeout``, ``campaign_retry``, ``campaign_dead_letter``
        and ``campaign_interrupted`` records are emitted (wall-clock
        seconds since start), so attached sinks stream live.
    max_jobs:
        Execute at most this many *new* jobs, then stop (journal intact,
        result marked incomplete).  The deterministic interruption hook
        used by the resume tests and the CI smoke job.
    stop:
        Zero-argument callable polled between jobs and waves; returning
        True stops dispatch gracefully (journal flushed, result marked
        ``interrupted="signal"``).  The CLI wires SIGINT/SIGTERM here.
    fsync:
        fsync every journal append (default True; see
        :class:`CampaignJournal`).
    harness_faults:
        Optional :class:`~repro.faults.harness.HarnessFaultController`
        injecting worker/journal faults for chaos testing.
    worker:
        Job body override (tests inject flaky workers); defaults to
        :func:`run_config`.
    sleep:
        Backoff sleep override for tests.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        backend: Optional[ExecutionBackend] = None,
        *,
        cache: Optional[ResultCache] = None,
        journal_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        retry: RetryPolicy = RetryPolicy(),
        supervision: SupervisionPolicy = SupervisionPolicy(),
        progress: Optional[CampaignProgress] = None,
        trace: Optional[TraceLog] = None,
        max_jobs: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        fsync: bool = True,
        harness_faults: Optional[HarnessFaultController] = None,
        worker: JobFn = run_config,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if resume and journal_path is None:
            raise CampaignError("--resume needs a journal path")
        self.spec = spec
        self.backend = backend or InlineBackend()
        self.cache = cache
        self.journal_path = Path(journal_path) if journal_path is not None else None
        self.resume = resume
        self.retry = retry
        self.supervision = supervision
        self.progress = progress
        self.trace = trace
        self.max_jobs = max_jobs
        self.stop = stop
        self.fsync = fsync
        self.harness_faults = harness_faults
        self.worker = worker
        self.sleep = sleep

    # -- helpers -------------------------------------------------------
    def _should_stop(self) -> bool:
        return self.stop is not None and bool(self.stop())

    def _note(self, job: CampaignJob, source: str, started: float) -> None:
        if self.progress is not None:
            self.progress.job_done(source)
        if self.trace is not None:
            self.trace.emit(
                time.perf_counter() - started,
                "campaign_job",
                job=job.index,
                digest=job.digest[:12],
                source=source,
                replication=job.replication,
            )

    def _emit(self, started: float, kind: str, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.emit(time.perf_counter() - started, kind, **fields)

    # -- the run -------------------------------------------------------
    def run(self, configs: Optional[Sequence[ScenarioConfig]] = None) -> CampaignResult:
        """Execute the compiled spec, or exactly ``configs`` when given.

        An explicit config list is not aggregated; its reports come back
        in input order as ``result.reports``.
        """
        started = time.perf_counter()
        if configs is None:
            jobs = compile_campaign(self.spec)
        else:
            jobs = [
                CampaignJob(index, (), index, config, config_digest(config))
                for index, config in enumerate(configs)
            ]
        if self.progress is not None:
            self.progress.start(total=len(jobs), name=self.spec.name)
        reports: Dict[int, MetricsReport] = {}
        from_journal = from_cache = executed = retried = 0
        timeouts = 0
        dead_lettered: List[int] = []
        interrupted: Optional[str] = None

        if self.resume and self.journal_path is not None and self.journal_path.exists():
            with span("campaign.resume"):
                state = load_journal(self.journal_path, tolerate_partial=True)
            if state.spec_digest is not None and state.spec_digest != self.spec.digest():
                raise CampaignError(
                    f"journal {self.journal_path} records a different campaign "
                    f"spec ({state.spec_digest[:12]} != {self.spec.digest()[:12]})"
                )
            for job in jobs:
                report = state.reports.get(job.digest)
                if report is not None:
                    reports[job.index] = report
                    from_journal += 1
                    self._note(job, "journal", started)

        journal = (
            CampaignJournal(
                self.journal_path, fsync=self.fsync, faults=self.harness_faults
            )
            if self.journal_path is not None
            else None
        )
        truncated = False
        try:
            if journal is not None:
                journal.begin(self.spec, total_jobs=len(jobs))

            pending = [job for job in jobs if job.index not in reports]
            if self.cache is not None:
                with span("campaign.cache"):
                    still: List[CampaignJob] = []
                    for job in pending:
                        exporting = (
                            job.config.obs is not None
                            and job.config.obs.trace_path is not None
                        )
                        cached = None if exporting else self.cache.get(job.config)
                        if cached is not None:
                            try:
                                if journal is not None:
                                    journal.record(job, cached)
                            except HarnessInterrupt:
                                interrupted = "torn_write"
                                break
                            reports[job.index] = cached
                            from_cache += 1
                            self._note(job, "cache", started)
                        else:
                            still.append(job)
                    pending = still

            if self.max_jobs is not None and len(pending) > self.max_jobs:
                pending = pending[: self.max_jobs]
                truncated = True

            by_index = {job.index: job for job in jobs}
            worker = self.worker
            if self.harness_faults is not None:
                worker = self.harness_faults.wrap_worker(
                    worker, {job.digest: job.index for job in jobs}
                )
            batch = [(job.index, job.config) for job in pending]
            fail_counts: Dict[int, int] = {}
            wave = 0
            isolate = False
            # Progress guard: every productive wave either completes,
            # dead-letters, or burns a retry; anything past this bound is
            # supervision spinning its wheels.
            max_waves = self.retry.retries + len(batch) + 3
            with span("campaign.execute"):
                while batch and interrupted is None:
                    if self._should_stop():
                        interrupted = "signal"
                        break
                    wave += 1
                    if wave > max_waves:
                        raise CampaignError(
                            f"supervision made no progress after {wave - 1} "
                            f"dispatch waves; aborting"
                        )
                    results, failures = self.backend.run_batch(
                        worker,
                        batch,
                        timeout=self.supervision.timeout,
                        should_stop=self.stop,
                        isolate=isolate,
                    )
                    isolate = False
                    # A worker can finish yet hand back garbage (injected
                    # payload corruption, a broken custom worker): validate
                    # before anything touches the journal or cache.
                    for index in sorted(results):
                        if not isinstance(results[index], MetricsReport):
                            failures[index] = CorruptResultError(
                                f"worker returned "
                                f"{type(results[index]).__name__!r}, "
                                f"not a MetricsReport"
                            )
                    torn = False
                    for index in sorted(results):
                        if index in failures:
                            continue
                        job = by_index[index]
                        report = results[index]
                        try:
                            if journal is not None:
                                journal.record(job, report)
                        except HarnessInterrupt:
                            # The torn line never became durable: the job
                            # is *not* complete; resume re-runs it.
                            interrupted = "torn_write"
                            torn = True
                            break
                        reports[index] = report
                        executed += 1
                        if self.cache is not None:
                            self.cache.put(job.config, report)
                        self._note(job, "run", started)
                    if torn:
                        break

                    retry_keys: List[int] = []
                    dead_now: List[int] = []
                    for index in sorted(failures):
                        exc = failures[index]
                        if isinstance(exc, JobTimeoutError):
                            timeouts += 1
                            if self.progress is not None:
                                self.progress.timeout(1)
                            self._emit(
                                started,
                                "worker_timeout",
                                job=index,
                                digest=by_index[index].digest[:12],
                                seconds=self.supervision.timeout,
                            )
                        if getattr(exc, "collateral", False):
                            retry_keys.append(index)
                            continue
                        fail_counts[index] = fail_counts.get(index, 0) + 1
                        if fail_counts[index] > self.retry.retries:
                            dead_now.append(index)
                        else:
                            retry_keys.append(index)

                    if dead_now and not self.supervision.quarantine:
                        causes = "; ".join(
                            f"{by_index[i].label()}: {failures[i]}"
                            for i in dead_now[:3]
                        )
                        raise CampaignError(
                            f"{len(dead_now)} job(s) failed after "
                            f"{self.retry.retries} retr(ies): {causes}"
                        ) from failures[dead_now[0]]
                    for index in dead_now:
                        job = by_index[index]
                        if journal is not None:
                            journal.dead_letter(
                                job, failures[index], attempts=fail_counts[index]
                            )
                        dead_lettered.append(index)
                        if self.progress is not None:
                            self.progress.dead_letter(1)
                        self._emit(
                            started,
                            "campaign_dead_letter",
                            job=index,
                            digest=job.digest[:12],
                            error=f"{type(failures[index]).__name__}: "
                            f"{failures[index]}",
                            attempts=fail_counts[index],
                        )

                    # Jobs the backend returned in neither dict were never
                    # dispatched — that only happens on a graceful stop.
                    missing = [
                        key
                        for key, _config in batch
                        if key not in results and key not in failures
                    ]
                    if missing:
                        if self._should_stop():
                            interrupted = "signal"
                            break
                        retry_keys.extend(missing)

                    if not retry_keys:
                        break
                    # If any failure this wave broke its whole pool, probe
                    # the suspects one-per-pool next wave so the poison job
                    # is identified instead of dragging innocents down.
                    isolate = any(
                        isinstance(failures.get(index), (BrokenExecutor, WorkerLostError))
                        for index in retry_keys
                    )
                    retried += len(retry_keys)
                    if self.progress is not None:
                        self.progress.retry(len(retry_keys))
                    self._emit(
                        started, "campaign_retry", count=len(retry_keys), wave=wave
                    )
                    delay = self.retry.delay(wave)
                    if delay > 0:
                        self.sleep(delay)
                    batch = [
                        (index, by_index[index].config)
                        for index in sorted(retry_keys)
                    ]

            if journal is not None:
                if interrupted is not None:
                    journal.interrupt(reason=interrupted, completed=len(reports))
                elif truncated:
                    journal.interrupt(reason="max_jobs", completed=len(reports))
        finally:
            if journal is not None:
                journal.close()

        if interrupted is not None:
            if self.progress is not None:
                self.progress.interrupt(interrupted)
            self._emit(
                started, "campaign_interrupted",
                reason=interrupted, completed=len(reports),
            )
        complete = (
            len(reports) == len(jobs)
            and not truncated
            and interrupted is None
            and not dead_lettered
        )
        aggregate = None
        ordered: List[MetricsReport] = []
        if complete and configs is None:
            with span("campaign.aggregate"):
                aggregate = aggregate_campaign(self.spec, jobs, reports)
        elif complete:
            ordered = [reports[job.index] for job in jobs]
        return CampaignResult(
            spec=self.spec,
            total_jobs=len(jobs),
            executed=executed,
            from_cache=from_cache,
            from_journal=from_journal,
            retried=retried,
            complete=complete,
            aggregate=aggregate,
            timeouts=timeouts,
            dead_lettered=len(dead_lettered),
            interrupted=interrupted,
            reports=ordered,
        )


def run_campaign(
    spec: Union[CampaignSpec, Mapping[str, Any], str, Path],
    *,
    backend: Union[str, ExecutionBackend] = "inline",
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    retry: RetryPolicy = RetryPolicy(),
    supervision: SupervisionPolicy = SupervisionPolicy(),
    progress: Optional[CampaignProgress] = None,
    trace: Optional[TraceLog] = None,
    max_jobs: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
    fsync: bool = True,
    harness_faults: Optional[HarnessFaultController] = None,
) -> CampaignResult:
    """One-call campaign execution (the :mod:`repro.api` entry point).

    ``spec`` may be a :class:`CampaignSpec`, a dict in the
    :meth:`CampaignSpec.from_dict` shape, or a path to a TOML/JSON spec
    file.  ``backend`` is a name (``inline`` or ``process``) or a
    ready :class:`ExecutionBackend` instance.
    """
    if isinstance(spec, (str, Path)):
        spec = load_spec(spec)
    elif isinstance(spec, Mapping):
        spec = CampaignSpec.from_dict(spec)
    if isinstance(backend, str):
        backend = make_backend(backend, jobs=jobs)
    runner = CampaignRunner(
        spec,
        backend,
        cache=cache,
        journal_path=journal,
        resume=resume,
        retry=retry,
        supervision=supervision,
        progress=progress,
        trace=trace,
        max_jobs=max_jobs,
        stop=stop,
        fsync=fsync,
        harness_faults=harness_faults,
    )
    return runner.run()


def run_sweep(
    configs: Sequence[ScenarioConfig],
    *,
    jobs: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path]] = None,
) -> CampaignResult:
    """Execute an explicit config list: the figures' and replication
    averages' path through :class:`CampaignRunner`.

    ``jobs`` picks the backend (:func:`resolve_jobs` of 1 runs inline,
    anything else a process pool of that size).  There are no retries and
    no quarantine: a failing scenario raises :class:`CampaignError`
    chained from the worker's exception.  ``cache`` may be a
    :class:`~repro.experiments.cache.ResultCache` or a directory path.
    """
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    backend = InlineBackend() if resolve_jobs(jobs) == 1 else ProcessBackend(jobs)
    runner = CampaignRunner(
        CampaignSpec(name="sweep"),
        backend,
        cache=cache,
        retry=RetryPolicy(retries=0),
        supervision=SupervisionPolicy(quarantine=False),
    )
    return runner.run(configs)


__all__ = [
    "BACKENDS",
    "CampaignError",
    "CampaignJob",
    "CampaignJournal",
    "CampaignProgress",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CorruptResultError",
    "ExecutionBackend",
    "InlineBackend",
    "JobTimeoutError",
    "JournalState",
    "ProcessBackend",
    "RetryPolicy",
    "SupervisionPolicy",
    "WorkerLostError",
    "WorkerPreempted",
    "aggregate_campaign",
    "apply_overrides",
    "compile_campaign",
    "load_journal",
    "load_spec",
    "make_backend",
    "replication_configs",
    "resolve_jobs",
    "run_campaign",
    "run_sweep",
]
