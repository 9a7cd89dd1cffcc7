"""Nested wall-clock span profiling for the experiment harness.

The trace log records *simulated* time; this module records where the
harness spends *wall-clock* time — scenario assembly, the event loop,
metrics collection, cache lookups and stores, campaign dispatch.  A
:class:`SpanProfiler` is a tree of named spans: entering a span under an
already-open span nests it, and re-entering the same name accumulates
into one node (count + total seconds), so a 90-replication sweep produces
a handful of aggregate rows rather than 90 samples.

Instrumentation sites call the module-level :func:`span` helper, which is
a zero-cost no-op unless a profiler has been installed with
:func:`activate`::

    profiler = SpanProfiler()
    with activate(profiler):
        run_fig8(...)
    print(profiler.format())

The end-to-end benchmark (``benchmarks/e2e``) activates a profiler
around each workload and reads these span names into its per-layer
table, so harness overhead (cache, fan-out, metrics) is measured
alongside the simulator itself.

The profiler is deliberately not thread-safe: the harness is
single-threaded per process, and worker processes of a ``process``
campaign backend simply see no active profiler (their spans are absorbed
into the parent's ``campaign.execute`` wall clock).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class SpanNode:
    """One named span: accumulated wall clock, entry count, children."""

    name: str
    count: int = 0
    seconds: float = 0.0
    children: Dict[str, "SpanNode"] = field(default_factory=dict)

    def child(self, name: str) -> "SpanNode":
        """The child span named ``name``, created on first use."""
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready nested rendering (children keyed by name)."""
        payload: Dict[str, object] = {"count": self.count, "seconds": self.seconds}
        if self.children:
            payload["children"] = {
                name: child.to_dict() for name, child in sorted(self.children.items())
            }
        return payload


class SpanProfiler:
    """Collects a tree of nested wall-clock spans.

    Parameters
    ----------
    clock:
        Monotonic time source (seconds); tests inject a fake clock to get
        deterministic durations.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.root = SpanNode("")
        self._stack: List[SpanNode] = [self.root]

    @contextmanager
    def span(self, name: str) -> Iterator[SpanNode]:
        """Open a span named ``name`` nested under the innermost open span."""
        node = self._stack[-1].child(name)
        self._stack.append(node)
        started = self._clock()
        try:
            yield node
        finally:
            node.seconds += self._clock() - started
            node.count += 1
            self._stack.pop()

    @property
    def depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack) - 1

    def to_dict(self) -> Dict[str, object]:
        """The whole tree as nested JSON-ready dicts, keyed by span name."""
        return {
            name: child.to_dict() for name, child in sorted(self.root.children.items())
        }

    def flat(self) -> Dict[str, Dict[str, object]]:
        """``"a/b/c" -> {count, seconds}`` rows for every span path."""
        rows: Dict[str, Dict[str, object]] = {}

        def walk(node: SpanNode, prefix: str) -> None:
            for name, child in sorted(node.children.items()):
                path = f"{prefix}/{name}" if prefix else name
                rows[path] = {"count": child.count, "seconds": child.seconds}
                walk(child, path)

        walk(self.root, "")
        return rows

    def format(self) -> str:
        """Human-readable indented table, one line per span path."""
        lines = []
        for path, row in self.flat().items():
            depth = path.count("/")
            name = path.rsplit("/", 1)[-1]
            lines.append(
                f"{'  ' * depth}{name:<{30 - 2 * depth}s} "
                f"{row['seconds']:9.4f} s  x{row['count']}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Module-level activation (the zero-cost default)
# ----------------------------------------------------------------------
_ACTIVE: Optional[SpanProfiler] = None


def active_profiler() -> Optional[SpanProfiler]:
    """The currently installed profiler, or None."""
    return _ACTIVE


@contextmanager
def activate(profiler: SpanProfiler) -> Iterator[SpanProfiler]:
    """Install ``profiler`` as the target of :func:`span` for the block.

    Nesting restores the previously active profiler on exit, so test
    suites can activate without trampling each other.
    """
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, profiler
    try:
        yield profiler
    finally:
        _ACTIVE = previous


@contextmanager
def span(name: str) -> Iterator[Optional[SpanNode]]:
    """Record a span on the active profiler; a no-op when none is active.

    This is what harness code calls — instrumentation stays in place
    permanently and costs one global read when profiling is off.
    """
    profiler = _ACTIVE
    if profiler is None:
        yield None
        return
    with profiler.span(name) as node:
        yield node


def merge_flat(
    target: Dict[str, Dict[str, object]], extra: Dict[str, Dict[str, object]]
) -> Dict[str, Dict[str, object]]:
    """Accumulate one ``flat()`` mapping into another (count/seconds sum)."""
    for path, row in extra.items():
        existing = target.get(path)
        if existing is None:
            target[path] = {"count": row["count"], "seconds": row["seconds"]}
        else:
            existing["count"] = int(existing["count"]) + int(row["count"])  # type: ignore[arg-type]
            existing["seconds"] = float(existing["seconds"]) + float(row["seconds"])  # type: ignore[arg-type]
    return target


__all__: Tuple[str, ...] = (
    "SpanNode",
    "SpanProfiler",
    "activate",
    "active_profiler",
    "merge_flat",
    "span",
)
