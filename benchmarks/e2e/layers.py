"""Outside-in layer accounting for the traced child.

The program is not edited: each layer's public entry points are wrapped,
on their classes, in spans of one :class:`~repro.obs.spans.SpanProfiler`,
which is also activated for :func:`repro.obs.spans.span`, so the
harness's own spans (``scenario.build``, ``scenario.run``,
``metrics.collect``, ``campaign.*``) nest in the same tree.  The wrappers go on before the
scenario is built, so bound methods captured at wiring time (the channel
holds ``node.deliver``, the trace holds ``registry.validate``) resolve to
them too.

A layer's self time is its span time minus the time of its child spans.
Callbacks the kernel enters through private methods (MAC backoff, channel
batch finish, monitor expiry, traffic timers) are not wrapped, so their
own work lands in ``scenario.run``'s self time: ``sim.other_self_s`` is
kernel dispatch plus that, not pure kernel time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from typing import Any, Dict, Iterator, List, Tuple

#: (span name, module, class, method) for every wrapped entry point.
#: ``observe`` and ``observe_own`` share one span name: both are the
#: monitor's way in.
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("channel.transmit", "repro.net.channel", "Channel", "transmit"),
    ("node.deliver", "repro.net.node", "Node", "deliver"),
    ("mac.send", "repro.net.mac", "CsmaMac", "send"),
    ("routing.on_frame", "repro.routing.ondemand", "OnDemandRouting", "on_frame"),
    ("routing.send_data", "repro.routing.ondemand", "OnDemandRouting", "send_data"),
    ("monitor.observe", "repro.core.monitor", "LocalMonitor", "observe"),
    ("monitor.observe", "repro.core.monitor", "LocalMonitor", "observe_own"),
    ("isolation.on_frame", "repro.core.isolation", "IsolationManager", "on_frame"),
    ("trace.emit", "repro.sim.trace", "TraceLog", "emit"),
    ("sink.write", "repro.obs.sinks", "JsonlSink", "write"),
    ("schema.validate", "repro.obs.schema", "SchemaRegistry", "validate"),
)


def _spanned(profiler, name: str, fn):
    # The profiler's own ``span`` rather than the module-level helper: one
    # context manager per call instead of two, and the same tree.
    span = profiler.span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def _patched(patches: List[Tuple[Any, str, Any]]) -> Iterator[None]:
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, value in patches:
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class ScenarioTally:
    """Totals read off every scenario after its ``run`` returns.

    Installed in every child, traced or not: the campaign workload runs
    48 scenarios inside ``run_campaign`` and this is how their event
    counts reach the benchmark.  It adds one call per scenario.
    """

    def __init__(self) -> None:
        self.totals: Counter = Counter()
        self.kernels: set = set()

    def observe(self, scenario, report) -> None:
        sim = scenario.sim
        network = scenario.network
        nodes = [network.node(n) for n in network.node_ids()]
        monitors = [agent.monitor for agent in scenario.agents.values()]
        self.kernels.add(type(sim).__module__)
        self.totals.update(
            events=sim.events_processed,
            pending_end=sim.pending_count,
            collisions=network.channel.collisions,
            frames_received=sum(node.frames_received for node in nodes),
            frames_rejected=sum(node.frames_rejected for node in nodes),
            watch_buffer_end=sum(m.watch_buffer_size for m in monitors),
            malc_total=sum(m.malc_total for m in monitors),
            detections=report.detections,
            resident_end=scenario.trace.resident_records,
        )

    @contextlib.contextmanager
    def installed(self) -> Iterator["ScenarioTally"]:
        from repro.experiments.scenario import Scenario

        run = Scenario.run

        def tallied_run(scenario):
            report = run(scenario)
            self.observe(scenario, report)
            return report

        with _patched([(Scenario, "run", functools.wraps(run)(tallied_run))]):
            yield self


class LayerTracer:
    """Wraps every entry point in :data:`SPANS` under one profiler."""

    def __init__(self) -> None:
        from repro.obs.spans import SpanProfiler

        self.profiler = SpanProfiler()
        self.mac_queue_max = 0

    def _sampling_queue(self, send):
        # The MAC's queue depth is only visible between calls, so its
        # wrapper also samples the queue after each enqueue.
        @functools.wraps(send)
        def wrapper(mac, *args, **kwargs):
            send(mac, *args, **kwargs)
            self.mac_queue_max = max(self.mac_queue_max, mac.queue_length)

        return wrapper

    def _patches(self) -> List[Tuple[Any, str, Any]]:
        patches = []
        for name, module, cls_name, method in SPANS:
            owner = getattr(importlib.import_module(module), cls_name)
            wrapped = _spanned(self.profiler, name, getattr(owner, method))
            if name == "mac.send":
                wrapped = self._sampling_queue(wrapped)
            patches.append((owner, method, wrapped))

        # scenario.py imported the function by name; wrap it where it is
        # called from, so only the scenario's own topology draw counts.
        scenario_module = importlib.import_module("repro.experiments.scenario")
        patches.append(
            (
                scenario_module,
                "generate_connected_topology",
                _spanned(
                    self.profiler,
                    "topology.generate",
                    scenario_module.generate_connected_topology,
                ),
            )
        )
        return patches

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        from repro.obs.spans import activate

        with _patched(self._patches()), activate(self.profiler):
            yield self

    def span_totals(self) -> Tuple[Counter, Counter, Counter]:
        """``(calls, total_s, self_s)`` summed per span name over the tree."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()

        def walk(node) -> None:
            for child in node.children.values():
                calls[child.name] += child.count
                total[child.name] += child.seconds
                own[child.name] += child.seconds - sum(
                    grandchild.seconds for grandchild in child.children.values()
                )
                walk(child)

        walk(self.profiler.root)
        return calls, total, own


def per_layer_metrics(
    tracer: LayerTracer, tally: ScenarioTally, import_s: float, run_s: float, campaign: bool
) -> Dict[str, float]:
    """Every per-layer metric of one traced child, by name.

    ``traced_overhead`` needs an untraced run to divide by, so the parent
    adds it.
    """
    calls, total, own = tracer.span_totals()
    t = tally.totals

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "sim.events": t["events"],
        "sim.pending_end": t["pending_end"],
        "sim.other_self_s": own["scenario.run"],
        "channel.transmit.calls": calls["channel.transmit"],
        "channel.transmit.self_s": own["channel.transmit"],
        "channel.rx_per_tx": ratio(calls["node.deliver"], calls["channel.transmit"]),
        "channel.collisions": t["collisions"],
        "node.deliver.calls": calls["node.deliver"],
        "node.deliver.self_s": own["node.deliver"],
        "node.reject_ratio": ratio(t["frames_rejected"], t["frames_received"]),
        "mac.send.calls": calls["mac.send"],
        "mac.send.self_s": own["mac.send"],
        "mac.queue_max": tracer.mac_queue_max,
        "routing.on_frame.calls": calls["routing.on_frame"],
        "routing.on_frame.self_s": own["routing.on_frame"],
        "routing.send_data.calls": calls["routing.send_data"],
        "monitor.observe.calls": calls["monitor.observe"],
        "monitor.observe.self_s": own["monitor.observe"],
        "monitor.watch_buffer_end": t["watch_buffer_end"],
        "monitor.malc_total": t["malc_total"],
        "isolation.on_frame.calls": calls["isolation.on_frame"],
        "isolation.on_frame.self_s": own["isolation.on_frame"],
        "isolation.local_detections": t["detections"],
        "trace.emit.calls": calls["trace.emit"],
        "trace.emit.self_s": own["trace.emit"],
        "trace.resident_end": t["resident_end"],
        "sink.write.self_s": own["sink.write"],
        "schema.validate.self_s": own["schema.validate"],
        "metrics.collect_s": total["metrics.collect"],
        "setup.import_s": import_s,
        "setup.build_s": total["scenario.build"],
        "topology.generate_s": total["topology.generate"],
        "campaign.journal_s": total["campaign.journal"],
        "campaign.aggregate_s": total["campaign.aggregate"],
        "campaign.scenario_share": (
            ratio(total["scenario.build"] + total["scenario.run"], run_s) if campaign else 0.0
        ),
    }
