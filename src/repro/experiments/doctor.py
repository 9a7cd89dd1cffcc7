"""Audit and repair campaign journals and result caches.

A campaign journal is append-only JSONL, fsynced line by line — but the
world still finds ways to damage it: a writer killed mid-append leaves a
torn tail, a bad disk flips bytes mid-file, an old binary leaves
version-skewed entries, two campaigns accidentally share one path.
:func:`~repro.experiments.journal.load_journal` refuses to guess about
such files; this module is the guessing that *is* safe.  Both read the
journal through one classifier,
:func:`~repro.experiments.journal.scan_journal`, so they agree on every
line:

- :func:`audit_journal` classifies every defect with its line number and
  byte offset, without modifying anything;
- :func:`repair_journal` rewrites the journal atomically (temp + fsync +
  rename), keeping every healthy line byte-for-byte and quarantining the
  damaged ones to ``<journal>.quarantine.jsonl`` for post-mortems —
  repair never destroys bytes, it only relocates them;
- :func:`audit_cache` / :func:`repair_cache` do the same for the
  content-addressed :class:`~repro.experiments.cache.ResultCache`
  (corrupt or version-skewed entries are renamed to ``*.quarantine``).

``repro campaign doctor`` is the CLI wrapper; exit status 0 means
healthy (or successfully repaired), 2 means problems were found in
audit-only mode.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.experiments.cache import CACHE_SCHEMA_VERSION
from repro.experiments.journal import (
    PROBLEM_KINDS,
    JournalLine,
    Problem,
    scan_journal,
)
from repro.metrics.collector import MetricsReport
from repro.obs.spans import span


@dataclass
class JournalAudit:
    """Everything :func:`audit_journal` learned about one journal."""

    path: Path
    lines: int = 0
    begins: int = 0
    completes: int = 0
    dead_letters: int = 0
    interrupts: int = 0
    spec_digests: List[str] = field(default_factory=list)
    problems: List[Problem] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return not self.problems

    def format(self) -> str:
        """Stable multi-line report for the CLI."""
        state = "healthy" if self.healthy else f"{len(self.problems)} problem(s)"
        lines = [
            f"journal {self.path}: {state}",
            f"  lines={self.lines} begins={self.begins} "
            f"completes={self.completes} dead_letters={self.dead_letters} "
            f"interrupts={self.interrupts}",
        ]
        for digest in self.spec_digests:
            lines.append(f"  spec {digest[:16]}")
        for problem in self.problems:
            lines.append(f"  {problem.format()}")
        return "\n".join(lines)


def _scan(path: Path) -> Tuple[JournalAudit, List[JournalLine]]:
    """The audit of ``path`` plus every line :func:`scan_journal` read."""
    lines = list(scan_journal(path))
    healthy = Counter(line.event for line in lines if line.problem is None)
    audit = JournalAudit(
        path=path,
        lines=len(lines),
        begins=healthy["begin"],
        completes=healthy["complete"],
        dead_letters=healthy["dead_letter"],
        interrupts=healthy["interrupt"],
        spec_digests=list(
            dict.fromkeys(line.spec for line in lines if line.event == "begin" and line.spec)
        ),
        problems=[line.problem for line in lines if line.problem is not None],
    )
    return audit, lines


def audit_journal(path: Union[str, Path]) -> JournalAudit:
    """Classify every defect in a journal without touching it."""
    with span("doctor.audit"):
        audit, _records = _scan(Path(path))
        return audit


@dataclass
class RepairResult:
    """Outcome of :func:`repair_journal`."""

    audit: JournalAudit
    kept: int = 0
    quarantined: int = 0
    dropped_foreign: int = 0
    quarantine_path: Optional[Path] = None
    repaired: bool = False

    def format(self) -> str:
        if not self.repaired:
            return f"journal {self.audit.path}: already healthy, nothing to repair"
        lines = [
            f"journal {self.audit.path}: repaired "
            f"(kept {self.kept}, quarantined {self.quarantined}"
            + (f", dropped {self.dropped_foreign} foreign-spec" if self.dropped_foreign else "")
            + ")"
        ]
        if self.quarantine_path is not None:
            lines.append(f"  damaged lines preserved in {self.quarantine_path}")
        return "\n".join(lines)


def repair_journal(
    path: Union[str, Path], spec_digest: Optional[str] = None
) -> RepairResult:
    """Rewrite ``path`` keeping only healthy lines (byte-for-byte).

    Damaged lines are appended verbatim to ``<path>.quarantine.jsonl``
    rather than deleted.  With ``spec_digest``, lines belonging to any
    *other* campaign spec are dropped too (quarantined), resolving
    ``spec_mix`` journals; without it, a mixed journal keeps both specs'
    healthy lines.  The rewrite is atomic (temp file, fsync, rename, and
    a directory fsync), so a crash mid-repair leaves the original file
    intact.
    """
    with span("doctor.repair"):
        path = Path(path)
        audit, records = _scan(path)
        needs_spec_filter = spec_digest is not None and any(
            line.spec not in (None, spec_digest) for line in records
        )
        if audit.healthy and not needs_spec_filter:
            return RepairResult(audit=audit)
        keep: List[bytes] = []
        quarantine: List[bytes] = []
        kept = quarantined = dropped_foreign = 0
        for line in records:
            raw = line.raw
            if line.problem is not None:
                quarantine.append(raw if raw.endswith(b"\n") else raw + b"\n")
                quarantined += 1
            elif spec_digest is not None and line.spec not in (None, spec_digest):
                quarantine.append(raw)
                dropped_foreign += 1
            else:
                keep.append(raw)
                kept += 1
        quarantine_path = None
        if quarantine:
            quarantine_path = path.with_name(path.name + ".quarantine.jsonl")
            with open(quarantine_path, "ab") as handle:
                for raw in quarantine:
                    handle.write(raw)
                handle.flush()
                os.fsync(handle.fileno())
        fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".repair")
        try:
            with os.fdopen(fd, "wb") as handle:
                for raw in keep:
                    handle.write(raw)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, path)
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return RepairResult(
            audit=audit,
            kept=kept,
            quarantined=quarantined,
            dropped_foreign=dropped_foreign,
            quarantine_path=quarantine_path,
            repaired=True,
        )


# ----------------------------------------------------------------------
# Cache auditing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheProblem:
    """One damaged or version-skewed cache entry."""

    path: Path
    kind: str  # corrupt | malformed_entry | bad_version
    message: str

    def format(self) -> str:
        return f"{self.path}: {self.kind}: {self.message}"


def audit_cache(root: Union[str, Path]) -> List[CacheProblem]:
    """Scan every ``<salt>/<digest>.json`` entry under ``root``.

    Entries from a different code salt are *not* problems (the salt
    directory partitions them already); entries that do not parse, do
    not decode to a report, or carry a foreign schema version are.
    """
    with span("doctor.audit"):
        root = Path(root)
        problems: List[CacheProblem] = []
        for entry in sorted(root.glob("*/*.json")):
            try:
                payload = json.loads(entry.read_text(encoding="utf-8"))
                if not isinstance(payload, dict):
                    raise ValueError(
                        f"entry is {type(payload).__name__}, not an object"
                    )
            except (OSError, ValueError) as exc:
                problems.append(CacheProblem(entry, "corrupt", str(exc)))
                continue
            schema = payload.get("schema")
            if schema != CACHE_SCHEMA_VERSION:
                problems.append(
                    CacheProblem(
                        entry, "bad_version",
                        f"schema {schema!r}, this build writes "
                        f"{CACHE_SCHEMA_VERSION}",
                    )
                )
                continue
            try:
                MetricsReport.from_state(payload["report"])
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(
                    CacheProblem(
                        entry, "malformed_entry",
                        f"entry does not decode to a report: {exc}",
                    )
                )
        return problems


def repair_cache(root: Union[str, Path]) -> List[CacheProblem]:
    """Quarantine every damaged cache entry (rename to ``*.quarantine``).

    The cache treats unreadable entries as misses already, so repair is
    about keeping the store auditable: damaged bytes move aside instead
    of being re-read (and re-logged) forever.  Returns the problems that
    were quarantined.
    """
    with span("doctor.repair"):
        problems = audit_cache(root)
        for problem in problems:
            target = problem.path.with_name(problem.path.name + ".quarantine")
            try:
                os.replace(problem.path, target)
            except OSError:
                pass
        return problems


__all__ = [
    "PROBLEM_KINDS",
    "CacheProblem",
    "JournalAudit",
    "Problem",
    "RepairResult",
    "audit_cache",
    "audit_journal",
    "repair_cache",
    "repair_journal",
]
