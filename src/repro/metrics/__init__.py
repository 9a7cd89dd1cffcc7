"""Experiment metrics.

:class:`~repro.metrics.collector.MetricsCollector` subscribes to the trace
log and accumulates the paper's output parameters live: cumulative data
packets dropped, routes established / malicious routes, detection and
isolation events, and isolation latency per malicious node.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.metrics.collector import MetricsCollector, MetricsReport
    from repro.metrics.robustness import RobustnessCollector, RobustnessReport

__all__ = [
    "MetricsCollector",
    "MetricsReport",
    "RobustnessCollector",
    "RobustnessReport",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.metrics.collector": ("MetricsCollector", "MetricsReport"),
    "repro.metrics.robustness": ("RobustnessCollector", "RobustnessReport"),
})
