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
  byte-identical aggregates to an uninterrupted run.  The format, its
  writer and its one reader live in :mod:`repro.experiments.journal`.
- **Pluggable execution** — ``inline`` (serial, in-process) and
  ``process`` (worker processes the backend owns, one pipe each)
  backends share one retry/backoff loop: a crashed worker fails only
  its own job, which is re-dispatched up to :class:`RetryPolicy.retries`
  times.
- **Supervision** — a :class:`SupervisionPolicy` adds per-job wall-clock
  timeouts (a hung job's worker is killed and replaced; no other job is
  touched), result payload validation, and poison-job quarantine: a job
  that keeps killing its worker is dead-lettered to the journal with its
  traceback instead of wedging the campaign.
- **Interruptibility** — a ``stop`` callable (the CLI wires SIGINT /
  SIGTERM to it) halts dispatch between jobs, flushes a final
  ``interrupt`` journal line, and reports the partial result; the CLI
  exits 75 exactly like ``--max-jobs``.  Jobs in flight on the process
  backend are ended with their workers and left for the resume.

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
import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.cache import ResultCache, config_digest, open_cache
from repro.experiments.journal import (
    CampaignError,
    CampaignJournal,
    JournalState,
    load_journal,
)
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.experiments.seeds import child_seed
from repro.experiments.stats import summarize, summarize_optional
from repro.faults.harness import HarnessFaultController, HarnessInterrupt
from repro.metrics.collector import MetricsReport
from repro.obs.progress import CampaignProgress
from repro.obs.spans import span
from repro.sim.trace import TraceLog

class JobTimeoutError(CampaignError):
    """A job exceeded the supervision wall-clock timeout."""


class WorkerLostError(CampaignError):
    """A worker process died before its job finished."""


class CorruptResultError(CampaignError):
    """A worker completed but returned a payload that is not a report."""


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
    """Module-level worker body (must be picklable for process workers)."""
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
      :class:`JobTimeoutError` (the process backend kills the hung
      job's worker; inline enforces post-hoc).
    - ``should_stop`` — polled between jobs/completions; when it turns
      true the backend returns early, leaving every unfinished item in
      *neither* dict.
    """

    name = "abstract"

    def run_batch(
        self,
        fn: JobFn,
        items: Sequence[Tuple[int, ScenarioConfig]],
        *,
        timeout: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
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

    def run_batch(self, fn, items, *, timeout=None, should_stop=None):
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


def _reset_worker_signals() -> None:
    """Restore default signal dispositions in backend worker processes.

    Fork-started workers inherit whatever SIGINT/SIGTERM handlers the
    parent CLI installed, which would make them *survive* a SIGTERM
    sent to the process group (the inherited handler merely sets the
    parent's stop flag).  Workers must die on SIGTERM and leave Ctrl-C
    handling to the supervising parent.
    """
    import signal as signal_module

    try:
        signal_module.signal(signal_module.SIGTERM, signal_module.SIG_DFL)
        signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass


class _RemoteTraceback(Exception):
    """A worker-side traceback, chained as ``__cause__`` of the error the
    parent records, so journal tracebacks show the worker's frames."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _portable_error(exc: BaseException) -> Tuple[BaseException, str]:
    """``exc`` (or, if it does not survive pickling, a stand-in carrying
    its type name and message) and its formatted traceback."""
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return pickle.loads(pickle.dumps(exc)), text
    except Exception:  # noqa: BLE001 - any pickling failure gets the stand-in
        return CampaignError(f"{type(exc).__name__}: {exc}"), text


def _worker_loop(conn: Any, fn: JobFn) -> None:
    """Body of one backend worker: run every config received on ``conn``
    and answer ``(True, report)`` or ``(False, (error, traceback))``,
    until the parent closes the pipe.  A job that exits the process
    (``sys.exit``, ``os._exit``, a signal) is seen by the parent as a
    lost worker."""
    _reset_worker_signals()
    while True:
        try:
            config = conn.recv()
        except EOFError:
            return
        try:
            conn.send((True, fn(config)))
        except Exception as exc:  # noqa: BLE001 - every job failure goes to the parent
            conn.send((False, _portable_error(exc)))


class _Worker:
    """One worker process, the parent's end of its duplex pipe, and the
    key and dispatch time of the last job sent to it."""

    def __init__(self, context: Any, fn: JobFn) -> None:
        self.conn, child = context.Pipe()
        self.process = context.Process(target=_worker_loop, args=(child, fn))
        self.process.start()
        child.close()
        self.key: Optional[int] = None
        self.started = 0.0

    def dispatch(self, key: int, config: ScenarioConfig) -> None:
        self.key, self.started = key, time.monotonic()
        try:
            self.conn.send(config)
        except OSError:
            pass  # the worker is dead: the supervisor reads its EOF next

    def retire(self) -> Optional[int]:
        """Kill the process (a no-op if it already exited) and reap it;
        return its exit code."""
        self.conn.close()
        self.process.kill()
        self.process.join()
        return self.process.exitcode


class ProcessBackend(ExecutionBackend):
    """Process execution on ``resolve_jobs(jobs)`` worker processes the
    backend starts itself, one duplex pipe each.

    The supervisor knows which job each worker holds, so it acts on one
    worker at a time: an overdue job's worker is killed and replaced, and
    a worker that dies fails only its own job with
    :class:`WorkerLostError`.  No other job is touched.  A job that
    raises comes back with its worker-side traceback as ``__cause__``.
    """

    name = "process"

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs

    def run_batch(self, fn, items, *, timeout=None, should_stop=None):
        results: Dict[int, MetricsReport] = {}
        failures: Dict[int, BaseException] = {}
        queue = list(reversed(items))
        workers = resolve_jobs(self.jobs)
        context = multiprocessing.get_context()
        idle: List[_Worker] = []
        busy: Dict[Any, _Worker] = {}
        if timeout is not None:
            poll = max(0.01, min(0.1, timeout / 4.0))
        elif should_stop is not None:
            poll = 0.1
        else:
            poll = None
        try:
            while True:
                # A job's wall clock starts when it reaches a worker, not
                # when the batch was handed over.  Workers start on first
                # use; a dead or killed one is simply not reused.
                while queue and len(busy) < workers:
                    worker = idle.pop() if idle else _Worker(context, fn)
                    worker.dispatch(*queue.pop())
                    busy[worker.conn] = worker
                if not busy:
                    return results, failures
                for conn in wait(list(busy), timeout=poll):
                    worker = busy.pop(conn)
                    try:
                        ok, payload = conn.recv()
                    except (EOFError, OSError):
                        failures[worker.key] = WorkerLostError(
                            f"worker exited with code {worker.retire()} "
                            f"before the job finished"
                        )
                        continue
                    except Exception as exc:  # noqa: BLE001 - payload did not unpickle
                        failures[worker.key] = exc
                    else:
                        if ok:
                            results[worker.key] = payload
                        else:
                            error, text = payload
                            error.__cause__ = _RemoteTraceback(text)
                            failures[worker.key] = error
                    idle.append(worker)
                if should_stop is not None and should_stop():
                    # In-flight jobs end with their workers below and land
                    # in neither dict; the runner leaves them for resume.
                    return results, failures
                if timeout is not None:
                    now = time.monotonic()
                    for conn, worker in list(busy.items()):
                        if now - worker.started > timeout:
                            del busy[conn]
                            worker.retire()
                            failures[worker.key] = JobTimeoutError(
                                f"job exceeded the {timeout:g}s wall-clock "
                                f"timeout ({now - worker.started:.3f}s elapsed)"
                            )
        finally:
            for worker in idle + list(busy.values()):
                worker.retire()


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

    @property
    def stopped_early(self) -> bool:
        """Dispatch stopped before every job was tried: a stop signal,
        ``max_jobs`` or a torn write.  A run that only dead-lettered jobs
        tried them all."""
        return self.completed_jobs + self.dead_lettered < self.total_jobs

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

    The one place the campaign options are declared: :func:`run_campaign`
    (``api.campaign``), :func:`~repro.experiments.matrix.run_matrix`
    (``api.matrix``) and the CLI's ``campaign run`` / ``matrix`` flags all
    pass them through to here.

    Parameters
    ----------
    spec:
        The campaign to run: a :class:`CampaignSpec`, a mapping in the
        :meth:`CampaignSpec.from_dict` shape, or a path to a TOML/JSON
        spec file (:func:`load_spec`).
    backend:
        An :class:`ExecutionBackend` instance, or a backend name
        (``inline`` or ``process``, see :func:`make_backend`).
    jobs:
        Worker count for a backend given by name (:func:`resolve_jobs`).
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache` or cache
        directory; consulted before dispatch and populated after every
        executed job.  Jobs that stream a trace export bypass cache reads
        (their records must hit the sink).
    journal:
        Where to append the completion journal; None disables journaling
        (and therefore resume).
    resume:
        Load the journal first and skip every job it records.  The
        journal's spec digest must match ``spec``.  Dead-lettered jobs
        are *not* skipped — a resume gives every poison job a fresh
        chance.
    retry:
        Per-job :class:`RetryPolicy` for worker crashes; the backoff
        between waves is a :func:`time.sleep`.
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
    """

    def __init__(
        self,
        spec: Union[CampaignSpec, Mapping[str, Any], str, Path],
        backend: Union[str, ExecutionBackend] = "inline",
        *,
        jobs: Optional[int] = None,
        cache: Optional[Union[ResultCache, str, Path]] = None,
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
        worker: JobFn = run_config,
    ) -> None:
        if isinstance(spec, (str, Path)):
            spec = load_spec(spec)
        elif isinstance(spec, Mapping):
            spec = CampaignSpec.from_dict(spec)
        if resume and journal is None:
            raise CampaignError("--resume needs a journal path")
        self.spec = spec
        self.backend = make_backend(backend, jobs=jobs) if isinstance(backend, str) else backend
        self.cache = open_cache(cache)
        self.journal = Path(journal) if journal is not None else None
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

    # -- helpers -------------------------------------------------------
    def _should_stop(self) -> bool:
        return self.stop is not None and bool(self.stop())

    def _emit(self, run: "_Run", kind: str, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.emit(time.perf_counter() - run.started, kind, **fields)

    def _note(self, run: "_Run", job: CampaignJob, source: str) -> None:
        run.done[source] += 1
        if self.progress is not None:
            self.progress.job_done(source)
        self._emit(
            run, "campaign_job",
            job=job.index, digest=job.digest[:12], source=source, replication=job.replication,
        )

    def _complete(self, run: "_Run", job: CampaignJob, report: MetricsReport, source: str) -> bool:
        """Record ``job`` as done from ``source`` (``cache`` or ``run``).

        Returns False when an injected torn write stops the campaign: the
        torn line never became durable, so the job is *not* complete and
        a resume re-runs it.
        """
        try:
            if run.journal is not None:
                run.journal.record(job, report)
        except HarnessInterrupt:
            run.interrupted = "torn_write"
            return False
        run.reports[job.index] = report
        if source == "run" and self.cache is not None:
            self.cache.put(job.config, report)
        self._note(run, job, source)
        return True

    # -- the run -------------------------------------------------------
    def run(self, configs: Optional[Sequence[ScenarioConfig]] = None) -> CampaignResult:
        """Execute the compiled spec, or exactly ``configs`` when given.

        An explicit config list is not aggregated; its reports come back
        in input order as ``result.reports``.
        """
        if configs is None:
            jobs = compile_campaign(self.spec)
        else:
            jobs = [
                CampaignJob(index, (), index, config, config_digest(config))
                for index, config in enumerate(configs)
            ]
        run = _Run(jobs=jobs, started=time.perf_counter())
        if self.progress is not None:
            self.progress.start(total=len(jobs), name=self.spec.name)

        if self.resume and self.journal is not None and self.journal.exists():
            with span("campaign.resume"):
                state = load_journal(self.journal, tolerate_partial=True)
            if state.spec_digest is not None and state.spec_digest != self.spec.digest():
                raise CampaignError(
                    f"journal {self.journal} records a different campaign "
                    f"spec ({state.spec_digest[:12]} != {self.spec.digest()[:12]})"
                )
            for job in jobs:
                report = state.reports.get(job.digest)
                if report is not None:
                    run.reports[job.index] = report
                    self._note(run, job, "journal")

        if self.journal is not None:
            run.journal = CampaignJournal(
                self.journal, fsync=self.fsync, faults=self.harness_faults
            )
        truncated = False
        try:
            if run.journal is not None:
                run.journal.begin(self.spec, total_jobs=len(jobs))
            pending = [job for job in jobs if job.index not in run.reports]
            if self.cache is not None:
                pending = self._serve_from_cache(run, pending)
            if self.max_jobs is not None and len(pending) > self.max_jobs:
                pending = pending[: self.max_jobs]
                truncated = True
            with span("campaign.execute"):
                self._execute(run, pending)
            if run.journal is not None:
                if run.interrupted is not None:
                    run.journal.interrupt(reason=run.interrupted, completed=len(run.reports))
                elif truncated:
                    run.journal.interrupt(reason="max_jobs", completed=len(run.reports))
        finally:
            if run.journal is not None:
                run.journal.close()

        if run.interrupted is not None:
            if self.progress is not None:
                self.progress.interrupt(run.interrupted)
            self._emit(
                run, "campaign_interrupted",
                reason=run.interrupted, completed=len(run.reports),
            )
        complete = (
            len(run.reports) == len(jobs)
            and not truncated
            and run.interrupted is None
            and not run.dead_lettered
        )
        aggregate = None
        ordered: List[MetricsReport] = []
        if complete and configs is None:
            with span("campaign.aggregate"):
                aggregate = aggregate_campaign(self.spec, jobs, run.reports)
        elif complete:
            ordered = [run.reports[job.index] for job in jobs]
        return CampaignResult(
            spec=self.spec,
            total_jobs=len(jobs),
            executed=run.done["run"],
            from_cache=run.done["cache"],
            from_journal=run.done["journal"],
            retried=run.retried,
            complete=complete,
            aggregate=aggregate,
            timeouts=run.timeouts,
            dead_lettered=run.dead_lettered,
            interrupted=run.interrupted,
            reports=ordered,
        )

    def _serve_from_cache(self, run: "_Run", pending: List[CampaignJob]) -> List[CampaignJob]:
        """Complete every pending job the result cache holds; return the
        misses.  Jobs that stream a trace export skip the read (their
        records must hit the sink)."""
        with span("campaign.cache"):
            missed: List[CampaignJob] = []
            for job in pending:
                exporting = job.config.obs is not None and job.config.obs.trace_path is not None
                cached = None if exporting else self.cache.get(job.config)
                if cached is None:
                    missed.append(job)
                elif not self._complete(run, job, cached, "cache"):
                    break
            return missed

    def _execute(self, run: "_Run", pending: List[CampaignJob]) -> None:
        """Dispatch ``pending`` in waves until each job is done, dead-lettered
        or abandoned by a stop; failed jobs are retried with backoff."""
        by_index = {job.index: job for job in run.jobs}
        worker = self.worker
        if self.harness_faults is not None:
            worker = self.harness_faults.wrap_worker(
                worker, {job.digest: job.index for job in run.jobs}
            )
        batch = [(job.index, job.config) for job in pending]
        fail_counts: Dict[int, int] = {}
        wave = 0
        # Progress guard: every productive wave either completes,
        # dead-letters, or burns a retry; anything past this bound is
        # supervision spinning its wheels.
        max_waves = self.retry.retries + len(batch) + 3
        while batch and run.interrupted is None:
            if self._should_stop():
                run.interrupted = "signal"
                return
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
            )
            # A worker can finish yet hand back garbage (injected payload
            # corruption, a broken custom worker): validate before
            # anything touches the journal or cache.
            for index in sorted(results):
                if not isinstance(results[index], MetricsReport):
                    failures[index] = CorruptResultError(
                        f"worker returned {type(results[index]).__name__!r}, "
                        f"not a MetricsReport"
                    )
            for index in sorted(results):
                if index not in failures and not self._complete(
                    run, by_index[index], results[index], "run"
                ):
                    return
            retry_keys = self._triage(run, failures, fail_counts, by_index)
            # Jobs the backend returned in neither dict never finished —
            # that only happens on a graceful stop.
            missing = [
                key for key, _config in batch if key not in results and key not in failures
            ]
            if missing:
                if self._should_stop():
                    run.interrupted = "signal"
                    return
                retry_keys.extend(missing)
            if not retry_keys:
                return
            run.retried += len(retry_keys)
            if self.progress is not None:
                self.progress.retry(len(retry_keys))
            self._emit(run, "campaign_retry", count=len(retry_keys), wave=wave)
            delay = self.retry.delay(wave)
            if delay > 0:
                time.sleep(delay)
            batch = [(index, by_index[index].config) for index in sorted(retry_keys)]

    def _triage(
        self,
        run: "_Run",
        failures: Dict[int, BaseException],
        fail_counts: Dict[int, int],
        by_index: Dict[int, CampaignJob],
    ) -> List[int]:
        """Count this wave's failures; dead-letter the jobs out of retries
        (or raise without quarantine) and return the keys to retry."""
        retry_keys: List[int] = []
        dead_now: List[int] = []
        for index in sorted(failures):
            exc = failures[index]
            if isinstance(exc, JobTimeoutError):
                run.timeouts += 1
                if self.progress is not None:
                    self.progress.timeout(1)
                self._emit(
                    run, "worker_timeout",
                    job=index, digest=by_index[index].digest[:12], seconds=self.supervision.timeout,
                )
            fail_counts[index] = fail_counts.get(index, 0) + 1
            if fail_counts[index] > self.retry.retries:
                dead_now.append(index)
            else:
                retry_keys.append(index)

        if dead_now and not self.supervision.quarantine:
            causes = "; ".join(
                f"{by_index[i].label()}: {failures[i]}" for i in dead_now[:3]
            )
            raise CampaignError(
                f"{len(dead_now)} job(s) failed after "
                f"{self.retry.retries} retr(ies): {causes}"
            ) from failures[dead_now[0]]
        for index in dead_now:
            job, error = by_index[index], failures[index]
            if run.journal is not None:
                run.journal.dead_letter(job, error, attempts=fail_counts[index])
            run.dead_lettered += 1
            if self.progress is not None:
                self.progress.dead_letter(1)
            self._emit(
                run, "campaign_dead_letter",
                job=index, digest=job.digest[:12],
                error=f"{type(error).__name__}: {error}", attempts=fail_counts[index],
            )
        return retry_keys


@dataclass
class _Run:
    """Bookkeeping of one :meth:`CampaignRunner.run` call."""

    jobs: List[CampaignJob]
    started: float
    journal: Optional[CampaignJournal] = None
    reports: Dict[int, MetricsReport] = field(default_factory=dict)
    #: Completed jobs by source: ``journal``, ``cache`` or ``run``.
    done: Dict[str, int] = field(default_factory=lambda: {"journal": 0, "cache": 0, "run": 0})
    retried: int = 0
    timeouts: int = 0
    dead_lettered: int = 0
    interrupted: Optional[str] = None


def run_campaign(
    spec: Union[CampaignSpec, Mapping[str, Any], str, Path], **options: Any
) -> CampaignResult:
    """One-call campaign execution (the :mod:`repro.api` entry point):
    ``CampaignRunner(spec, **options).run()``.  The options are
    :class:`CampaignRunner`'s; an unknown one raises :class:`TypeError`."""
    return CampaignRunner(spec, **options).run()


def run_sweep(
    configs: Sequence[ScenarioConfig],
    *,
    jobs: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path]] = None,
) -> CampaignResult:
    """Execute an explicit config list: the figures' and replication
    averages' path through :class:`CampaignRunner`.

    ``jobs`` picks the backend (:func:`resolve_jobs` of 1 runs inline,
    anything else that many worker processes).  There are no retries and
    no quarantine: a failing scenario raises :class:`CampaignError`
    chained from the worker's exception.  ``cache`` may be a
    :class:`~repro.experiments.cache.ResultCache` or a directory path.
    """
    runner = CampaignRunner(
        CampaignSpec(name="sweep"),
        "inline" if resolve_jobs(jobs) == 1 else "process",
        jobs=jobs,
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
