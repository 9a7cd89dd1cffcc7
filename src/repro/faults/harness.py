"""Harness-level fault injection for the campaign orchestrator.

:mod:`repro.faults.plan` breaks the *simulated* network; this module
breaks the *experiment harness itself* — the workers, journal, and trace
sinks that ROADMAP-scale campaigns depend on.  A
:class:`HarnessFaultPlan` is pure data (JSON round-trip, seeded
construction) describing which campaign jobs crash, hang, slow down, or
return corrupt payloads, which journal appends are torn mid-write, and
which sink writes fail with an IO error.  The
:class:`HarnessFaultController` arms a plan against a live
:class:`~repro.experiments.campaign.CampaignRunner`.

Determinism across processes
----------------------------
Campaign workers may run in separate processes, so "fire this fault
``times`` times and never again" cannot be an in-memory counter.  The
controller claims firing slots through **marker files** created with
``O_CREAT | O_EXCL`` in a state directory: each successful create is one
atomic, cross-process claim.  The same state directory shared between an
interrupted run and its resume therefore guarantees a fault injected
before the interruption is not re-injected afterwards — which is exactly
what the resume byte-identity proof needs.

Fault taxonomy
--------------
``WorkerCrash``
    The worker executing the target job dies: ``hard`` crashes call
    ``os._exit`` (killing the worker process — the poison-job path),
    otherwise an :class:`InjectedWorkerCrash` is raised (a clean per-job
    failure).
``WorkerHang``
    The worker sleeps ``seconds`` before running the job — set it past
    the supervision timeout to simulate a wedged worker.
``WorkerSlowdown``
    As above but meant to stay *under* the timeout (latency, not death).
``CorruptResult``
    The worker completes but returns a non-``MetricsReport`` payload;
    the runner's result validation must catch it.
``TornJournalWrite``
    The Nth journal completion append writes only a prefix of its line
    and then raises :class:`HarnessInterrupt` — a crash at the worst
    possible byte.
``SinkIOError``
    The Nth write on a wrapped trace sink raises ``OSError`` (ENOSPC by
    default); the trace layer must degrade, not abort.
"""

from __future__ import annotations

import errno
import json
import os
import random
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type, Union


class HarnessFaultError(ValueError):
    """A harness fault plan is malformed."""


class InjectedWorkerCrash(RuntimeError):
    """A planned (soft) worker crash fired."""


class HarnessInterrupt(RuntimeError):
    """A planned fault simulated a process death mid-operation; the
    campaign must stop as if killed (journal consistent up to the torn
    byte) and be resumable."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise HarnessFaultError(message)


# ----------------------------------------------------------------------
# Fault types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HarnessFault:
    """Base class: one planned harness misbehaviour.

    ``times`` bounds how often the fault fires over the *whole campaign
    lifetime* (including resumes sharing the state directory).
    """

    times: int = 1

    kind = "harness_fault"

    def validate(self) -> None:
        _require(self.times >= 1, f"{self.kind}: times must be >= 1, got {self.times!r}")

    def fault_id(self) -> str:
        """Stable identity used for marker files and trace records."""
        fields = ",".join(
            f"{k}={v}" for k, v in sorted(asdict(self).items()) if k != "times"
        )
        return f"{self.kind}({fields})"


@dataclass(frozen=True)
class _JobFault(HarnessFault):
    """A fault targeting one compiled campaign job by index."""

    job: int = 0

    def validate(self) -> None:
        super().validate()
        _require(self.job >= 0, f"{self.kind}: job index must be >= 0, got {self.job!r}")


@dataclass(frozen=True)
class WorkerCrash(_JobFault):
    """The worker running ``job`` dies before producing a result."""

    hard: bool = False
    kind = "worker_crash"


@dataclass(frozen=True)
class WorkerHang(_JobFault):
    """The worker running ``job`` wedges for ``seconds`` before working."""

    seconds: float = 3600.0
    kind = "worker_hang"

    def validate(self) -> None:
        super().validate()
        _require(self.seconds > 0, f"{self.kind}: seconds must be positive, got {self.seconds!r}")


@dataclass(frozen=True)
class WorkerSlowdown(_JobFault):
    """The worker running ``job`` stalls ``seconds`` but still finishes."""

    seconds: float = 0.25
    kind = "worker_slowdown"

    def validate(self) -> None:
        super().validate()
        _require(self.seconds > 0, f"{self.kind}: seconds must be positive, got {self.seconds!r}")


@dataclass(frozen=True)
class CorruptResult(_JobFault):
    """The worker running ``job`` returns garbage instead of a report."""

    kind = "corrupt_result"


@dataclass(frozen=True)
class TornJournalWrite(HarnessFault):
    """The ``entry``-th completion append (0-based, per campaign
    lifetime) writes only ``fraction`` of its line, then the process
    "dies" (:class:`HarnessInterrupt`)."""

    entry: int = 0
    fraction: float = 0.5
    kind = "torn_journal_write"

    def validate(self) -> None:
        super().validate()
        _require(self.entry >= 0, f"{self.kind}: entry must be >= 0, got {self.entry!r}")
        _require(
            0.0 < self.fraction < 1.0,
            f"{self.kind}: fraction must be in (0, 1), got {self.fraction!r}",
        )


@dataclass(frozen=True)
class SinkIOError(HarnessFault):
    """The ``write``-th record written to a wrapped sink raises
    ``OSError(errno_code)`` — ENOSPC by default."""

    write: int = 0
    errno_code: int = errno.ENOSPC
    kind = "sink_io_error"

    def validate(self) -> None:
        super().validate()
        _require(self.write >= 0, f"{self.kind}: write must be >= 0, got {self.write!r}")


_FAULT_TYPES: Dict[str, Type[HarnessFault]] = {
    cls.kind: cls
    for cls in (
        WorkerCrash,
        WorkerHang,
        WorkerSlowdown,
        CorruptResult,
        TornJournalWrite,
        SinkIOError,
    )
}


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HarnessFaultPlan:
    """An immutable, validated schedule of harness faults.

    Faults sort by kind then field values, so two plans built from the
    same events in any order compare — and serialize — identically.
    """

    faults: Tuple[HarnessFault, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.faults,
                key=lambda f: (f.kind, tuple(sorted(asdict(f).items()))),
            )
        )
        object.__setattr__(self, "faults", ordered)
        for fault in ordered:
            fault.validate()

    @classmethod
    def of(cls, *faults: HarnessFault) -> "HarnessFaultPlan":
        """Build a plan from faults given in any order."""
        return cls(faults=tuple(faults))

    @classmethod
    def sampled(
        cls,
        seed: int,
        n_jobs: int,
        *,
        crashes: int = 0,
        hard_crashes: int = 0,
        hangs: int = 0,
        slowdowns: int = 0,
        corruptions: int = 0,
        torn_writes: int = 0,
        sink_errors: int = 0,
        hang_seconds: float = 3600.0,
        slowdown_seconds: float = 0.25,
    ) -> "HarnessFaultPlan":
        """A deterministic, seeded plan over ``n_jobs`` compiled jobs.

        Job targets are drawn without replacement per fault class from
        ``random.Random(seed)``, so the same seed and job count always
        produce the same plan — chaos runs are replayable by seed.
        """
        _require(n_jobs >= 1, f"sampled plan needs n_jobs >= 1, got {n_jobs!r}")
        wanted = crashes + hard_crashes + hangs + slowdowns + corruptions
        _require(
            wanted <= n_jobs,
            f"cannot target {wanted} job fault(s) across {n_jobs} job(s)",
        )
        rng = random.Random(seed)
        targets = rng.sample(range(n_jobs), wanted)
        it = iter(targets)
        faults: List[HarnessFault] = []
        faults.extend(WorkerCrash(job=next(it)) for _ in range(crashes))
        faults.extend(WorkerCrash(job=next(it), hard=True) for _ in range(hard_crashes))
        faults.extend(WorkerHang(job=next(it), seconds=hang_seconds) for _ in range(hangs))
        faults.extend(
            WorkerSlowdown(job=next(it), seconds=slowdown_seconds)
            for _ in range(slowdowns)
        )
        faults.extend(CorruptResult(job=next(it)) for _ in range(corruptions))
        faults.extend(
            TornJournalWrite(entry=rng.randrange(n_jobs)) for _ in range(torn_writes)
        )
        faults.extend(
            SinkIOError(write=rng.randrange(64)) for _ in range(sink_errors)
        )
        return cls(faults=tuple(faults))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def job_faults(self, job: int) -> Tuple[HarnessFault, ...]:
        """Faults targeting campaign job ``job``, in plan order."""
        return tuple(
            f for f in self.faults if isinstance(f, _JobFault) and f.job == job
        )

    def torn_writes(self) -> Tuple[TornJournalWrite, ...]:
        return tuple(f for f in self.faults if isinstance(f, TornJournalWrite))

    def sink_errors(self) -> Tuple[SinkIOError, ...]:
        return tuple(f for f in self.faults if isinstance(f, SinkIOError))

    # ------------------------------------------------------------------
    # JSON round-trip (mirrors FaultPlan)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        entries: List[Dict[str, Any]] = []
        for fault in self.faults:
            entry = {"kind": fault.kind}
            entry.update(asdict(fault))
            entries.append(entry)
        return {"harness_faults": entries}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HarnessFaultPlan":
        raw = data.get("harness_faults")
        if not isinstance(raw, list):
            raise HarnessFaultError(
                "harness fault plan document must contain a 'harness_faults' list"
            )
        faults: List[HarnessFault] = []
        for entry in raw:
            if not isinstance(entry, dict) or "kind" not in entry:
                raise HarnessFaultError(
                    f"each fault entry needs a 'kind' field, got {entry!r}"
                )
            kind = entry["kind"]
            fault_type = _FAULT_TYPES.get(kind)
            if fault_type is None:
                known = ", ".join(sorted(_FAULT_TYPES))
                raise HarnessFaultError(
                    f"unknown harness fault kind {kind!r} (known: {known})"
                )
            fields = {k: v for k, v in entry.items() if k != "kind"}
            try:
                faults.append(fault_type(**fields))
            except TypeError as exc:
                raise HarnessFaultError(
                    f"bad fields for harness fault kind {kind!r}: {exc}"
                ) from exc
        return cls(faults=tuple(faults))

    @classmethod
    def from_json(cls, text: str) -> "HarnessFaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise HarnessFaultError(f"invalid harness fault plan JSON: {exc}") from exc
        if not isinstance(payload, Mapping):
            raise HarnessFaultError("harness fault plan must be a JSON object")
        return cls.from_dict(payload)


def load_harness_plan(path: Union[str, Path]) -> HarnessFaultPlan:
    """Load a :class:`HarnessFaultPlan` from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise HarnessFaultError(f"cannot read harness fault plan {path}: {exc}") from exc
    return HarnessFaultPlan.from_json(text)


# ----------------------------------------------------------------------
# The controller: arming a plan against a live campaign
# ----------------------------------------------------------------------
class HarnessFaultController:
    """Arms a :class:`HarnessFaultPlan` with cross-process firing state.

    Parameters
    ----------
    plan:
        What goes wrong.
    state_dir:
        Directory for the marker files that make each fault fire exactly
        ``times`` times across every process — and every resume — that
        shares it.  Created on first claim.
    """

    def __init__(self, plan: HarnessFaultPlan, state_dir: Union[str, Path]) -> None:
        self.plan = plan
        self.state_dir = Path(state_dir)

    # -- claim protocol ------------------------------------------------
    def claim(self, fault: HarnessFault) -> bool:
        """Atomically claim the next firing slot for ``fault``.

        Returns True exactly ``fault.times`` times across all processes
        sharing the state directory, False forever after.
        """
        return _claim(self.state_dir, fault)

    def fired(self, fault: HarnessFault) -> int:
        """How many of ``fault``'s firing slots have been claimed."""
        count = 0
        for slot in range(fault.times):
            if (self.state_dir / _marker_name(fault, slot)).exists():
                count += 1
        return count

    # -- integration points --------------------------------------------
    def wrap_worker(
        self, worker: Callable[[Any], Any], index_by_digest: Mapping[str, int]
    ) -> "FaultyWorker":
        """A picklable worker that injects this plan's job faults around
        ``worker``.  ``index_by_digest`` maps config digests to compiled
        job indices (faults target jobs by index; workers only see
        configs)."""
        return FaultyWorker(
            worker=worker,
            plan=self.plan,
            state_dir=str(self.state_dir),
            index_by_digest=dict(index_by_digest),
        )

    def wrap_sink(self, sink: Any) -> "FaultySink":
        """A sink delegating to ``sink`` whose planned writes raise."""
        return FaultySink(sink, self)

    def claim_torn_write(self, entry: int) -> Optional[TornJournalWrite]:
        """The torn-write fault firing on completion append ``entry``,
        with its slot claimed — or None."""
        for fault in self.plan.torn_writes():
            if fault.entry == entry and self.claim(fault):
                return fault
        return None


def _marker_name(fault: HarnessFault, slot: int) -> str:
    digest = fault.fault_id().replace("/", "_").replace(" ", "")
    return f"{digest}.slot{slot}"


def _claim(state_dir: Path, fault: HarnessFault) -> bool:
    state_dir.mkdir(parents=True, exist_ok=True)
    for slot in range(fault.times):
        marker = state_dir / _marker_name(fault, slot)
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return True
    return False


class FaultyWorker:
    """Picklable worker wrapper injecting job-targeted harness faults.

    The process backend may pickle the worker into each worker process;
    the wrapper carries only plain data (the plan, the state directory path,
    and the digest→index map), so it crosses that boundary intact and
    the marker-file claims stay atomic across workers.
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        plan: HarnessFaultPlan,
        state_dir: str,
        index_by_digest: Dict[str, int],
    ) -> None:
        self.worker = worker
        self.plan = plan
        self.state_dir = state_dir
        self.index_by_digest = index_by_digest

    def __call__(self, config: Any) -> Any:
        from repro.experiments.cache import config_digest

        index = self.index_by_digest.get(config_digest(config))
        corrupt = False
        if index is not None:
            state_dir = Path(self.state_dir)
            for fault in self.plan.job_faults(index):
                if not _claim(state_dir, fault):
                    continue
                if isinstance(fault, WorkerCrash):
                    if fault.hard:
                        # A hard crash takes the worker process with it —
                        # the poison-job path the supervisor must
                        # quarantine, not a tidy exception.
                        os._exit(23)
                    raise InjectedWorkerCrash(
                        f"injected worker crash on job {index}"
                    )
                if isinstance(fault, (WorkerHang, WorkerSlowdown)):
                    time.sleep(fault.seconds)
                elif isinstance(fault, CorruptResult):
                    corrupt = True
        result = self.worker(config)
        if corrupt:
            return {"__corrupt__": "injected payload corruption"}
        return result


class FaultySink:
    """Sink wrapper whose planned write raises ``OSError``."""

    def __init__(self, sink: Any, controller: HarnessFaultController) -> None:
        self.sink = sink
        self.controller = controller
        self.writes = 0

    def write(self, record: Any) -> None:
        index = self.writes
        self.writes += 1
        for fault in self.controller.plan.sink_errors():
            if fault.write == index and self.controller.claim(fault):
                raise OSError(
                    fault.errno_code,
                    f"injected sink IO error on write {index}: "
                    f"{os.strerror(fault.errno_code)}",
                )
        self.sink.write(record)

    def close(self) -> None:
        close = getattr(self.sink, "close", None)
        if callable(close):
            close()


__all__ = [
    "CorruptResult",
    "FaultySink",
    "FaultyWorker",
    "HarnessFault",
    "HarnessFaultController",
    "HarnessFaultError",
    "HarnessFaultPlan",
    "HarnessInterrupt",
    "InjectedWorkerCrash",
    "SinkIOError",
    "TornJournalWrite",
    "WorkerCrash",
    "WorkerHang",
    "WorkerSlowdown",
    "load_harness_plan",
]
