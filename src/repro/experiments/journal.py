"""The campaign journal format: one writer, one reader.

A campaign journal is append-only JSONL, one line per event:

- ``begin`` — a (re)start: ``version`` (:data:`JOURNAL_VERSION`), the
  campaign name, its ``spec`` digest and compiled job count;
- ``complete`` — one finished job: its config ``digest``, index, sweep
  point, replication, seed and full-fidelity ``report`` state;
- ``dead_letter`` — a quarantined poison job with its traceback;
- ``interrupt`` — a graceful stop (signal, ``max_jobs``, torn write).

:class:`CampaignJournal` writes it; :func:`scan_journal` is the one
reader.  It classifies every line, and both :func:`load_journal`
(resume, ``repro campaign status``, matrix aggregation) and
:mod:`repro.experiments.doctor` (audit and repair) consume its
classification, so they agree about every line.  A final line with no
trailing newline is torn, whatever it holds: the append never became
whole, resume skips it (the job re-runs), and reopening the journal
for append truncates exactly those bytes.
"""

from __future__ import annotations

import json
import os
import traceback as traceback_module
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.faults.harness import HarnessFaultController, HarnessInterrupt
from repro.metrics.collector import MetricsReport
from repro.obs.spans import span

if TYPE_CHECKING:
    from repro.experiments.campaign import CampaignJob, CampaignSpec

#: Journal line format version (bump on shape changes; old journals are
#: rejected with a clear error rather than misread).
JOURNAL_VERSION = 1


class CampaignError(RuntimeError):
    """A campaign could not be compiled, resumed, or completed."""


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
      default (``fsync=False`` trades durability for speed);
    - reopening a journal whose previous writer died mid-append
      truncates the unterminated tail fragment first — the same bytes
      :func:`scan_journal` calls a torn tail and resume skips, so the
      job re-runs — and a fresh ``begin`` line can never be glued onto
      a torn one;
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


#: Problem classification (stable strings; tests and CI grep for them).
PROBLEM_KINDS = (
    "torn_tail",        # unterminated final line (writer died mid-append)
    "corrupt",          # line is not valid JSON
    "bad_version",      # begin entry from a different JOURNAL_VERSION
    "malformed_entry",  # valid JSON but required fields missing/broken
    "unknown_event",    # event tag this build does not know
    "spec_mix",         # journal interleaves two campaign specs
)


@dataclass(frozen=True)
class Problem:
    """One defect found in a journal, pinned to its exact location."""

    lineno: int
    offset: int
    kind: str
    message: str

    def format(self) -> str:
        return f"line {self.lineno} (byte {self.offset}): {self.kind}: {self.message}"


@dataclass(frozen=True)
class JournalLine:
    """One non-blank physical journal line as :func:`scan_journal` read it.

    ``raw`` keeps the original bytes (a torn tail has no newline) so
    repair can rewrite the file without re-encoding anything; ``spec``
    is the spec digest of the most recent ``begin`` at or before this
    line.  A decoded completion carries its ``report``.
    """

    lineno: int
    offset: int
    raw: bytes
    spec: Optional[str]
    event: Optional[str] = None
    payload: Optional[Dict[str, Any]] = None
    report: Optional[MetricsReport] = None
    problem: Optional[Problem] = None


def _classify_entry(
    payload: Dict[str, Any], specs: List[str]
) -> Tuple[Optional[str], str, Optional[MetricsReport]]:
    """``(problem kind or None, message, decoded report)`` of one parsed
    journal entry; ``specs`` collects the spec digests begun so far."""
    event = payload.get("event")
    if event == "begin":
        version, spec = payload.get("version"), payload.get("spec")
        if version != JOURNAL_VERSION:
            return (
                "bad_version",
                f"journal version {version!r} (this build writes {JOURNAL_VERSION})",
                None,
            )
        if not isinstance(spec, str):
            return "malformed_entry", "begin entry without a spec digest", None
        if spec not in specs:
            specs.append(spec)
        if len(specs) > 1:
            return (
                "spec_mix",
                f"journal mixes two campaign specs: begin for spec {spec[:16]} "
                f"in a journal opened by spec {specs[0][:16]}",
                None,
            )
        return None, "", None
    if event == "complete":
        try:
            report = MetricsReport.from_state(payload["report"])
            if not isinstance(payload["digest"], str):
                raise TypeError("completion digest is not a string")
        except (KeyError, TypeError, ValueError) as exc:
            return (
                "malformed_entry",
                f"completion entry does not decode to a report: {exc}",
                None,
            )
        return None, "", report
    if event == "dead_letter":
        if not isinstance(payload.get("digest"), str):
            return "malformed_entry", "dead_letter entry without a job digest", None
        return None, "", None
    if event == "interrupt":
        return None, "", None
    return "unknown_event", f"unknown journal event {event!r}", None


def scan_journal(path: Union[str, Path]) -> Iterator[JournalLine]:
    """Read and classify every non-blank line of a campaign journal.

    The one reader of the journal format: :func:`load_journal` and
    :mod:`repro.experiments.doctor` both consume it.  A final line with
    no trailing newline is torn, whatever it holds: the writer died
    before the append became whole, and reopening the journal truncates
    exactly those bytes (:meth:`CampaignJournal._repair_tail`).
    """
    path = Path(path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CampaignError(f"cannot read campaign journal {path}: {exc}") from exc
    specs: List[str] = []
    current: Optional[str] = None
    offset = 0
    with handle:
        # Binary iteration keeps byte offsets exact even when the damage
        # is invalid UTF-8 (a diagnostic must never crash on the very
        # bytes it is diagnosing).
        for lineno, raw in enumerate(handle, start=1):
            line_offset = offset
            offset += len(raw)
            if not raw.strip():
                continue
            payload = report = None
            if not raw.endswith(b"\n"):
                kind = "torn_tail"
                message = (
                    f"unterminated final line ({len(raw)} bytes); the writer "
                    f"died mid-append"
                )
            else:
                try:
                    payload = json.loads(raw)
                    if not isinstance(payload, dict):
                        raise ValueError(
                            f"entry is {type(payload).__name__}, not an object"
                        )
                except ValueError as exc:  # JSON or UTF-8 decode failure
                    payload = None
                    kind, message = "corrupt", str(exc)
                else:
                    if payload.get("event") == "begin" and isinstance(
                        payload.get("spec"), str
                    ):
                        current = payload["spec"]
                    kind, message, report = _classify_entry(payload, specs)
            yield JournalLine(
                lineno,
                line_offset,
                raw,
                current,
                event=None if payload is None else payload.get("event"),
                payload=payload,
                report=report,
                problem=Problem(lineno, line_offset, kind, message) if kind else None,
            )


def _load_error(path: Path, problem: Problem) -> CampaignError:
    where = f"{path}:{problem.lineno}"
    if problem.kind == "bad_version":
        return CampaignError(
            f"{where}: {problem.message}; run 'repro campaign doctor {path}' "
            f"to audit it"
        )
    if problem.kind in ("spec_mix", "unknown_event"):
        return CampaignError(f"{where}: {problem.message}")
    what = "malformed entry" if problem.kind == "malformed_entry" else "corrupt journal line"
    return CampaignError(
        f"{where}: {what} at byte offset {problem.offset}: {problem.message}; "
        f"run 'repro campaign doctor {path} --repair' to quarantine it"
    )


def load_journal(
    path: Union[str, Path], tolerate_partial: bool = True
) -> JournalState:
    """Parse a campaign journal back into completed-job reports.

    A torn final line (see :func:`scan_journal`) is skipped and counted
    when ``tolerate_partial`` is set, so its job re-runs on resume.
    Every other problem raises :class:`CampaignError` naming the line,
    its byte offset, and the ``repro campaign doctor`` invocation that
    can repair the file.
    """
    path = Path(path)
    state = JournalState()
    for line in scan_journal(path):
        if line.problem is not None:
            if line.problem.kind == "torn_tail" and tolerate_partial:
                state.partial_lines += 1
                continue
            raise _load_error(path, line.problem)
        if line.event == "begin":
            state.spec_digest = line.spec
            state.total_jobs = line.payload.get("jobs")
        elif line.event == "complete":
            state.reports[line.payload["digest"]] = line.report
        elif line.event == "dead_letter":
            state.dead_letters[line.payload["digest"]] = line.payload
        else:
            state.interrupts += 1
    return state


__all__ = [
    "JOURNAL_VERSION",
    "PROBLEM_KINDS",
    "CampaignError",
    "CampaignJournal",
    "JournalLine",
    "JournalState",
    "Problem",
    "load_journal",
    "scan_journal",
]
