"""The shared receive path on the C medium against the reference stack.

On the C kernel's simulator the channel's ``Medium`` runs
``Node.deliver``'s body itself, builds each ``rx_lost`` record without
``TraceLog.emit`` and stores a LITEWORP monitor's loss time without
calling ``LocalMonitor.note_reception_loss`` (see the
:mod:`repro.net.channel` docstring).  The
differential tests run seeded scenarios under every defense that hooks
the node pipeline (observers, filters, listeners, frame stampers) on both
stacks, with a crash and a link flap, a ring-buffer trace and a strict
JSONL export, and require equal reports, equal traces record for record,
equal export bytes and equal per-node frame counters.  The other tests
cover the wrapper rule, hooks added during a delivery, a crash in the
middle of a reception, and the lifetime of the medium's references.
"""

import contextlib
import functools
import gc
import json
import sys
import weakref

import pytest

from repro.core.monitor import MONITOR_NOTE_LOSS, LocalMonitor
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.faults.plan import CrashRecover, FaultPlan, LinkFlap
from repro.net.network import Network
from repro.net.node import NODE_DELIVER, Node
from repro.net.packet import DataPacket, Frame, RouteReply, RouteRequest
from repro.net.topology import grid_topology
from repro.obs.config import ObsConfig
from repro.routing.config import RoutingConfig
from repro.routing.ondemand import OnDemandRouting
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TRACE_EMIT, TraceLog

pytestmark = pytest.mark.skipif(
    not accel.kernel_available(), reason="C kernel unavailable"
)

DEFENSES = ("none", "liteworp", "rtt", "snd", "temporal_leash")


def _config(defense, seed, **overrides):
    values = dict(
        n_nodes=24, duration=80.0, seed=seed, attack_mode="outofband",
        n_malicious=2, attack_start=15.0, defense=defense,
    )
    values.update(overrides)
    return ScenarioConfig(**values)


def _run(config, reference):
    """Run ``config`` on one stack; everything the two must agree on."""
    stack = accel.reference_mode() if reference else contextlib.nullcontext()
    with stack:
        scenario = build_scenario(config)
        report = scenario.run()
    assert (scenario.network.channel._medium is None) == reference
    trace = scenario.trace
    nodes = [scenario.network.node(n) for n in scenario.network.node_ids()]
    return {
        "report": json.dumps(report.to_state(), sort_keys=True),
        "records": [(r.time, r.kind, r.keys(), tuple(v for _, v in r.items())) for r in trace],
        "emitted": (trace.total_emitted, trace.peak_resident, trace.dropped_records),
        "frames": {node.node_id: (node.frames_received, node.frames_rejected) for node in nodes},
    }


def _assert_same(config):
    fast, ref = _run(config, reference=False), _run(config, reference=True)
    assert fast["report"] == ref["report"]
    assert len(fast["records"]) == len(ref["records"])
    for a, b in zip(fast["records"], ref["records"]):
        assert a == b
    assert fast["emitted"] == ref["emitted"]
    assert fast["frames"] == ref["frames"]
    return fast


@pytest.mark.parametrize("defense", DEFENSES)
def test_scenario_matches_reference(defense):
    state = _assert_same(_config(defense, seed=5))
    kinds = {kind for _, kind, _, _ in state["records"]}
    assert "rx_lost" in kinds
    if defense == "liteworp":
        # The guards' filter rejected something, so the reject branch ran.
        assert sum(rejected for _, rejected in state["frames"].values()) > 0


def test_faults_match_reference():
    base = _config("liteworp", seed=9, n_nodes=26)
    adjacency = build_scenario(base).topology.adjacency()
    node = min(adjacency)
    peer = min(adjacency[node])
    plan = FaultPlan(faults=(
        CrashRecover(at=21.0, node=peer, downtime=9.0),
        LinkFlap(at=24.0, a=node, b=peer, downtime=10.0),
    ))
    state = _assert_same(_config("liteworp", seed=9, n_nodes=26, fault_plan=plan))
    kinds = [kind for _, kind, _, _ in state["records"]]
    assert kinds.count("fault_injected") == 2 and kinds.count("fault_cleared") == 2


def test_ring_buffer_and_strict_export_match_reference(tmp_path):
    exports = {}
    for reference in (False, True):
        path = tmp_path / f"{'ref' if reference else 'fast'}.jsonl"
        obs = ObsConfig(trace_path=str(path), strict=True, ring_capacity=150)
        state = _run(_config("liteworp", seed=7, obs=obs), reference)
        exports[reference] = (path.read_bytes(), state)
    (fast_bytes, fast), (ref_bytes, ref) = exports[False], exports[True]
    assert fast_bytes == ref_bytes
    assert fast_bytes.count(b'"kind":"rx_lost"') > 0
    assert fast == ref
    assert len(fast["records"]) == 150 and fast["emitted"][2] > 0


def _isinstance_on_frame(self, frame):
    """Routing's dispatch without the early exit for duplicate requests."""
    packet = frame.packet
    if isinstance(packet, RouteRequest):
        self._on_request(frame, packet)
    elif isinstance(packet, RouteReply):
        if frame.link_dst == self.node.node_id:
            self._on_reply(frame, packet)
    elif isinstance(packet, DataPacket):
        if frame.link_dst == self.node.node_id:
            self._on_data(frame, packet)


@pytest.mark.parametrize("suppression", [0, 2])
@pytest.mark.parametrize("attack", ["outofband", "rushing"])
def test_duplicate_request_exit_matches_full_dispatch(monkeypatch, suppression, attack):
    config = _config(
        "liteworp", seed=5, attack_mode=attack, n_malicious=2 if attack == "outofband" else 1,
        routing=RoutingConfig(suppression_threshold=suppression),
    )
    fast = _run(config, reference=False)
    monkeypatch.setattr(OnDemandRouting, "on_frame", _isinstance_on_frame)
    assert _run(config, reference=False) == fast


# ----------------------------------------------------------------------
# The fast paths are taken, and a wrapper on the class switches them off
# ----------------------------------------------------------------------
def _python_calls(code, config):
    """Python-level calls of ``code`` while ``config`` builds and runs."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    scenario = build_scenario(config)
    sys.setprofile(profile)
    try:
        scenario.run()
    finally:
        sys.setprofile(None)
    return calls[0], scenario


def test_medium_runs_deliver_and_rx_lost_without_python_frames():
    config = _config("liteworp", seed=5, duration=30.0)
    deliver_calls, scenario = _python_calls(NODE_DELIVER.__code__, config)
    received = sum(
        scenario.network.node(n).frames_received for n in scenario.network.node_ids()
    )
    assert received > 0 and deliver_calls == 0
    emit_calls, scenario = _python_calls(TRACE_EMIT.__code__, config)
    lost = sum(1 for record in scenario.trace if record.kind == "rx_lost")
    assert lost > 0
    assert emit_calls == scenario.trace.total_emitted - lost


def _counting(counts, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_wrapped_deliver_and_emit_see_every_call(monkeypatch):
    """The layer tracer's situation: wrappers installed on the classes
    before the scenario is built see every reception and every record."""
    counts = {"deliver": 0, "emit": 0}
    monkeypatch.setattr(Node, "deliver", _counting(counts, "deliver", Node.deliver))
    monkeypatch.setattr(TraceLog, "emit", _counting(counts, "emit", TraceLog.emit))
    config = _config("liteworp", seed=5, duration=30.0)
    state = _run(config, reference=False)
    monkeypatch.undo()
    assert counts["emit"] == state["emitted"][0]
    # Every delivery handed to a live node counts once in frames_received;
    # the wrapper also sees the few handed to a crashed one (none here).
    assert counts["deliver"] == sum(received for received, _ in state["frames"].values())
    assert state == _run(config, reference=True)


def _loss_times(scenario):
    return {node: agent.monitor._last_loss for node, agent in scenario.agents.items()}


def test_medium_stores_loss_time_without_python_frames():
    config = _config("liteworp", seed=5, duration=30.0)
    fast_calls, fast = _python_calls(MONITOR_NOTE_LOSS.__code__, config)
    with accel.reference_mode():
        ref_calls, ref = _python_calls(MONITOR_NOTE_LOSS.__code__, config)
    assert fast_calls == 0 and ref_calls > 0
    assert _loss_times(fast) == _loss_times(ref)
    assert any(time > 0 for time in _loss_times(fast).values())


def test_wrapped_or_overridden_loss_handler_sees_every_call(monkeypatch):
    """A wrapper installed on the class, or a subclass override, is
    called for every loss, as many times as on the reference stack."""
    config = _config("liteworp", seed=5, duration=30.0)
    counts = {"loss": 0}
    monkeypatch.setattr(
        LocalMonitor, "note_reception_loss",
        _counting(counts, "loss", LocalMonitor.note_reception_loss),
    )
    fast = _run(config, reference=False)
    fast_count, counts["loss"] = counts["loss"], 0
    ref = _run(config, reference=True)
    assert fast_count == counts["loss"] > 0
    assert fast == ref
    monkeypatch.undo()

    overridden = []

    class Tapped(LocalMonitor):
        def note_reception_loss(self, time):
            overridden.append(time)
            super().note_reception_loss(time)

    monkeypatch.setattr("repro.core.agent.LocalMonitor", Tapped)
    assert _run(config, reference=False) == fast
    assert len(overridden) == fast_count


def test_emit_wrapped_after_build_sees_rx_lost(monkeypatch):
    """The emit check is made per record, as the reference path looks the
    method up per record."""
    config = _config("none", seed=5, duration=30.0)
    scenario = build_scenario(config)
    kinds = []

    def spy(self, time, kind, **fields):
        kinds.append(kind)
        return TRACE_EMIT(self, time, kind, **fields)

    monkeypatch.setattr(TraceLog, "emit", spy)
    scenario.run()
    assert kinds.count("rx_lost") == scenario.trace.count("rx_lost") > 0


def test_subclass_override_of_deliver_is_called():
    seen = []

    class Tapped(Node):
        def deliver(self, frame):
            seen.append(frame)
            super().deliver(frame)

    sim, net = _line(accel._load().Simulator)
    tapped = net.node(1)
    tapped.__class__ = Tapped
    net.channel.attach(1, tapped.deliver)
    net.node(0).broadcast(DataPacket(origin=0, destination=2), jitter=0.0)
    sim.run()
    assert len(seen) == 1 and tapped.frames_received == 1


# ----------------------------------------------------------------------
# Small hand-wired networks on both stacks
# ----------------------------------------------------------------------
def _simclasses():
    return [pytest.param(Simulator, id="python"),
            pytest.param("ckernel", id="ckernel")]


def _line(simcls, columns=3):
    if simcls == "ckernel":
        simcls = accel._load().Simulator
    sim = simcls()
    topology = grid_topology(columns=columns, rows=1, spacing=20.0, tx_range=30.0)
    return sim, Network(sim, topology, RngRegistry(0), trace=TraceLog())


@pytest.mark.parametrize("simcls", _simclasses())
def test_hooks_added_during_delivery_run_like_node_deliver(simcls):
    sim, net = _line(simcls)
    node = net.node(1)
    calls = []

    def late_listener(frame):
        calls.append(("late", frame.packet.sequence))

    def first_listener(frame):
        calls.append(("first", frame.packet.sequence))
        if frame.packet.sequence == 1:
            node.add_listener(late_listener)

    def observer(frame):
        calls.append(("observer", frame.packet.sequence))
        if frame.packet.sequence == 2:
            # Added before the filter loop starts: it judges this frame.
            node.add_filter(lambda f: f.packet.sequence != 2)

    node.add_observer(observer)
    node.add_listener(first_listener)
    for sequence in (1, 2, 3):
        sim.schedule(sequence * 1.0, net.node(0).broadcast,
                     DataPacket(origin=0, destination=2, sequence=sequence), None, 0.0)
    sim.run()
    assert calls == [
        ("observer", 1), ("first", 1), ("late", 1),
        ("observer", 2),
        ("observer", 3), ("first", 3), ("late", 3),
    ]
    assert (node.frames_received, node.frames_rejected) == (3, 1)


@pytest.mark.parametrize("simcls", _simclasses())
def test_crash_mid_reception(simcls):
    sim, net = _line(simcls)
    packet = DataPacket(origin=1, destination=2, payload_size=200)
    air = net.channel.duration_of(Frame(packet, 1))
    heard = {n: [] for n in (0, 2)}
    for n in heard:
        net.node(n).add_listener(heard[n].append)
    net.node(1).broadcast(packet, jitter=0.0)
    # Node 0 crashes while the frame is on the air and stays down past
    # its end; node 2 crashes and reboots inside the air time.
    sim.schedule(air / 2, net.node(0).fail)
    sim.schedule(air / 3, net.node(2).fail)
    sim.schedule(air / 2, net.node(2).recover)
    sim.run(until=air * 2)
    assert net.node(0).frames_received == 0 and heard[0] == []
    assert net.node(2).frames_received == 1 and len(heard[2]) == 1


# ----------------------------------------------------------------------
# Lifetime
# ----------------------------------------------------------------------
def _count_media():
    medium_type = accel._load().Medium
    return sum(1 for obj in gc.get_objects() if type(obj) is medium_type)


def test_finished_scenario_medium_and_nodes_die_in_one_collection():
    gc.collect()
    before = _count_media()
    scenario = build_scenario(_config("liteworp", seed=3, n_nodes=16, duration=20.0))
    scenario.run()
    channel = weakref.ref(scenario.network.channel)
    nodes = [weakref.ref(scenario.network.node(n)) for n in scenario.network.node_ids()]
    assert _count_media() == before + 1
    del scenario
    gc.collect()
    assert channel() is None
    assert all(node() is None for node in nodes)
    assert _count_media() == before
