"""Addressed forwarding and LITEWORP's send tap and watch buffer on the
C medium, against the reference stack.

On the C kernel's simulator the channel's ``Medium`` forwards an honest
``OnDemandRouting``'s addressed data and route replies at intermediate
hops (see the :mod:`repro.routing.ondemand` docstring), and a LITEWORP
node's ``Guard`` runs the agent's send filter and ``usable`` hook and
the monitor's watch-buffer bookkeeping, building its ``watch_buffer``
and ``frame_rejected`` records itself (see :mod:`repro.core.agent` and
:mod:`repro.core.monitor`).  The differential tests run seeded scenarios
under every defense, the attack modes, crash-recover and link-flap
faults and LITEWORP configs with the liveness layer, the second-hop
check and data watching each on and off, and require equal reports,
traces record for record, frame counters, route tables, watch buffers
and monitor counters as the reference stack, and as the Python hooks on
the same kernel (equal event counts there).  The rest checks that the
Python methods are no longer entered on the common path, the wrapper
rule for each method the kernel stands in for, and that a class patched
mid-run takes effect at once.

Without the C kernel (``REPRO_ACCEL=off``) the wrapper tests run on the
reference stack alone; the rest are skipped.
"""

import contextlib
import functools
import json
import sys
from dataclasses import replace

import pytest

from repro.core.agent import LiteworpAgent
from repro.core.config import LiteworpConfig
from repro.core.monitor import LocalMonitor
from repro.core.tables import NeighborRecord
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.faults.plan import CrashRecover, FaultPlan, LinkFlap
from repro.net.node import Node
from repro.net.packet import DataPacket, Frame, Packet, RouteReply, RouteRequest
from repro.obs.config import ObsConfig
from repro.obs.sinks import JsonlSink
from repro.routing import ondemand
from repro.routing.cache import RouteTable
from repro.routing.ondemand import OnDemandRouting
from repro.sim import accel
from repro.sim.trace import TraceLog
from repro.traffic.generator import TrafficConfig

KERNEL = accel.kernel_available()
needs_kernel = pytest.mark.skipif(not KERNEL, reason="C kernel unavailable")

DEFENSES = ("none", "liteworp", "rtt", "snd", "temporal_leash")
#: The hooks the guard runs; wrapped, each keeps its Python body.
GUARD_HOOKS = (
    (LiteworpAgent, "_send_filter"), (LiteworpAgent, "is_usable"), (LiteworpAgent, "_reject"),
    (LocalMonitor, "observe_own"), (LocalMonitor, "_add_expectation"),
    (LocalMonitor, "_note_watch_size"),
)


def _config(defense="liteworp", seed=5, **overrides):
    values = dict(
        n_nodes=26, duration=100.0, seed=seed, attack_mode="outofband",
        n_malicious=2, attack_start=15.0, defense=defense,
        traffic=TrafficConfig(data_rate=0.5),
    )
    values.update(overrides)
    return ScenarioConfig(**values)


def _passthrough(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def _stack(stack):
    """``stack`` is "medium" (the C kernel, everything in C),
    "python_hooks" (the C kernel, forwarding and the guard's hooks kept in
    Python) or "reference" (the pure-Python stack)."""
    with contextlib.ExitStack() as context:
        if stack == "reference":
            context.enter_context(accel.reference_mode())
        if stack == "python_hooks":
            patch = context.enter_context(pytest.MonkeyPatch.context())
            patch.setattr(ondemand, "runs_in_medium", lambda agent: False)
            for owner, name in GUARD_HOOKS:
                patch.setattr(owner, name, _passthrough(getattr(owner, name)))
        yield


def _routes(router):
    return sorted(
        (dst, e.next_hop, e.installed_at, e.expires_at, e.hop_count, e.path, e.request_id)
        for dst, e in router.routes._entries.items()
    )


def _watch(agent):
    monitor = agent.monitor
    return (
        sorted((key, event.time, event.pending) for key, event in monitor._expectations.items()),
        monitor.watch_buffer_peak, monitor._watch_sampled_at, monitor._watch_sampled_size,
        monitor.fabrications_seen, monitor.drops_seen, monitor.suppressed_accusations,
        monitor.suspended_accusations, monitor.malc_total, dict(agent.rejects),
    )


def _run(config, stack, prepare=None):
    with _stack(stack):
        scenario = build_scenario(config)
        if prepare is not None:
            prepare(scenario)
        report = scenario.run()
    network = scenario.network
    return {
        "report": json.dumps(report.to_state(), sort_keys=True),
        "records": [(r.time, r.kind, r.keys(), tuple(v for _, v in r.items()))
                    for r in scenario.trace],
        "frames": {
            node_id: (node.frames_received, node.frames_rejected)
            for node_id, node in sorted(network.nodes.items())
        },
        "routes": {node_id: _routes(router) for node_id, router in sorted(scenario.routers.items())},
        "seen": {
            node_id: sorted(router._seen_requests.items())
            for node_id, router in sorted(scenario.routers.items())
        },
        "watch": {node_id: _watch(agent) for node_id, agent in sorted(scenario.agents.items())},
        "channel": (network.channel.transmissions, network.channel.collisions),
        "now": scenario.sim.now,
        # The reference channel finishes each reception with an event of
        # its own, the medium each transmission: event counts are equal
        # on one simulator only.
        "events": (scenario.sim.events_processed, scenario.sim.pending_count),
    }


def _assert_same(config, prepare=None):
    fast, ref = _run(config, "medium", prepare), _run(config, "reference", prepare)
    assert fast["report"] == ref["report"]
    assert len(fast["records"]) == len(ref["records"])
    for a, b in zip(fast["records"], ref["records"]):
        assert a == b
    for name in ("frames", "routes", "seen", "watch", "channel", "now"):
        assert fast[name] == ref[name], name
    assert _run(config, "python_hooks", prepare) == fast
    return fast


def _kinds(state):
    return [kind for _, kind, _, _ in state["records"]]


# ----------------------------------------------------------------------
# Seeded scenarios on every stack
# ----------------------------------------------------------------------
@needs_kernel
@pytest.mark.parametrize("defense", DEFENSES)
def test_defenses_match_reference(defense):
    state = _assert_same(_config(defense, seed=6, n_nodes=30))
    assert _kinds(state).count("data_delivered") > 0


@needs_kernel
@pytest.mark.parametrize(
    "attack", ["outofband", "encapsulation", "highpower", "relay", "rushing"]
)
def test_attack_modes_match_reference(attack):
    state = _assert_same(_config(
        "liteworp", seed=8, attack_mode=attack, n_nodes=28,
        n_malicious=2 if attack in ("outofband", "encapsulation") else 1,
    ))
    # A rusher only races the flood; every other wormhole is rejected.
    assert (_kinds(state).count("frame_rejected") > 0) == (attack != "rushing")


@needs_kernel
@pytest.mark.parametrize("fault", ["crash", "flap"])
def test_faults_match_reference(fault):
    base = _config(seed=9, n_nodes=28)
    adjacency = build_scenario(base).topology.adjacency()
    busiest = sorted(adjacency, key=lambda n: (-len(adjacency[n]), n))[:4]
    if fault == "crash":
        faults = tuple(
            CrashRecover(at=16.0 + 7.3 * i, node=node, downtime=0.05 + 2.0 * i)
            for i, node in enumerate(busiest)
        )
    else:
        faults = tuple(
            LinkFlap(at=12.0 + 9.1 * i, a=node, b=min(adjacency[node]), downtime=3.0 + i)
            for i, node in enumerate(busiest)
        )
    state = _assert_same(replace(base, fault_plan=FaultPlan(faults=faults)))
    assert _kinds(state).count("fault_injected") == 4


@needs_kernel
@pytest.mark.parametrize("heartbeat", [None, 2.0], ids=["no_liveness", "liveness"])
@pytest.mark.parametrize("second_hop", [True, False], ids=["second_hop", "no_second_hop"])
@pytest.mark.parametrize("watch_data", [False, True], ids=["no_watch_data", "watch_data"])
def test_liteworp_configs_match_reference(heartbeat, second_hop, watch_data):
    config = _config(
        seed=11, attack_mode="encapsulation",
        liteworp=LiteworpConfig(
            heartbeat_period=heartbeat, second_hop_check=second_hop, watch_data=watch_data,
        ),
    )
    state = _assert_same(config)
    assert _kinds(state).count("watch_buffer") > 0


@needs_kernel
def test_stranded_reply_and_unrouted_data_take_the_python_path():
    """A reply at a hop that never saw its request and data at a hop
    with no route are left to ``on_frame``, which strands them with a
    route error; ``usable`` refuses a node that is no neighbour."""
    unknown = 10_000

    def prepare(scenario):
        adjacency = scenario.topology.adjacency()
        sender = min(adjacency)
        hop = min(adjacency[sender])
        other = max(n for n in adjacency if n not in (sender, hop))
        node = scenario.network.node(sender)
        reply = RouteReply(origin=other, request_id=999, target=sender, hop_count=1, path=(sender,))
        scenario.sim.schedule_at(5.0, node.unicast, reply, hop)
        data = DataPacket(origin=sender, destination=unknown, flow_id=unknown, sequence=1)
        scenario.sim.schedule_at(6.0, node.unicast, data, hop)
        router = scenario.routers[sender]
        scenario.sim.schedule_at(7.0, lambda: verdicts.append(router.usable(unknown)))

    verdicts = []
    state = _assert_same(
        _config(seed=12, n_nodes=16, duration=40.0, attack_mode="none", n_malicious=0), prepare,
    )
    kinds = _kinds(state)
    assert kinds.count("rep_stranded") >= 1 and kinds.count("data_no_route") >= 1
    assert verdicts == [False] * 3


@needs_kernel
def test_every_medium_and_guard_shares_the_kernels_layout():
    """The kernel learns the Python classes it reads once: every medium
    and guard, of one scenario and of the next, holds the same layout."""
    layouts = []
    for seed in (5, 6):
        scenario = build_scenario(_config(seed=seed, n_nodes=20, duration=20.0))
        layouts.append(scenario.network.channel._medium.layout)
        layouts.extend(agent.monitor.guard.layout for agent in scenario.agents.values())
    # A medium and the 18 honest nodes' guards per scenario.
    assert len(layouts) == 2 * (1 + 18)
    assert all(layout is accel.kernel_layout(scenario.sim) for layout in layouts)


# ----------------------------------------------------------------------
# The common path enters no Python frame
# ----------------------------------------------------------------------
def _python_calls(codes, config):
    """Python-level calls of each code object while ``config`` runs, and
    the scenario."""
    calls = dict.fromkeys(codes, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    scenario = build_scenario(config)
    sys.setprofile(profile)
    try:
        scenario.run()
    finally:
        sys.setprofile(None)
    return calls, scenario


@needs_kernel
def test_kernel_runs_forwarding_and_the_guard_hooks_without_python_frames():
    functions = {
        "_send_filter": LiteworpAgent._send_filter, "is_usable": LiteworpAgent.is_usable,
        "_reject": LiteworpAgent._reject, "_on_data": OnDemandRouting._on_data,
        "_on_reply": OnDemandRouting._on_reply, "unicast": Node.unicast,
        "_add_expectation": LocalMonitor._add_expectation,
        "_note_watch_size": LocalMonitor._note_watch_size,
        "_expectation_expired": LocalMonitor._expectation_expired,
    }
    codes = {name: fn.__code__ for name, fn in functions.items()}
    config = _config(seed=5, n_nodes=40, duration=120.0)
    counts = {}
    for stack in ("reference", "medium"):
        with _stack(stack):
            calls, scenario = _python_calls(codes.values(), config)
        counts[stack] = {name: calls[code] for name, code in codes.items()}
        kinds = [record.kind for record in scenario.trace]
    fast, ref = counts["medium"], counts["reference"]
    assert all(ref[name] > 0 for name in ref)
    # A blocked send is the Python filter's to record; nothing else is.
    assert fast["_send_filter"] == kinds.count("send_blocked")
    assert fast["_reject"] == fast["_add_expectation"] == fast["is_usable"] == 0
    # Only an expiry samples the gauge in Python.
    assert fast["_note_watch_size"] == fast["_expectation_expired"] == ref["_expectation_expired"]
    # The forwarding hops are the medium's; origins and destinations are not.
    for name in ("_on_data", "_on_reply", "unicast"):
        assert fast[name] < ref[name] / 3, name


# ----------------------------------------------------------------------
# The wrapper rule
# ----------------------------------------------------------------------
def _counting(counts, fn):
    if isinstance(fn, property):
        return property(_counting(counts, fn.fget))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[0] += 1
        return fn(*args, **kwargs)

    return wrapper


TARGETS = GUARD_HOOKS + (
    (OnDemandRouting, "_on_data"), (OnDemandRouting, "_forward_data"),
    (OnDemandRouting, "_on_reply"), (OnDemandRouting, "_forward_reply"),
    (Node, "unicast"), (RouteTable, "lookup"), (RouteTable, "install"),
    # What the kernel's layout stands in for when it builds a record, times
    # a frame or reads a packet's cached key.
    (Frame, "describe"), (Frame, "size_bytes"), (Packet, "key"),
    (DataPacket, "size_bytes"), (RouteReply, "size_bytes"),
    # Where a record the kernel built goes: the log's one publish path and
    # the export's sink (run with a strict export, so it has a caller).
    (TraceLog, "_publish"), (JsonlSink, "write"),
)


@pytest.mark.parametrize(
    "owner,name", TARGETS, ids=[f"{owner.__name__}.{name}" for owner, name in TARGETS]
)
def test_wrapped_method_sees_every_call(tmp_path, monkeypatch, owner, name):
    """A wrapper installed on the class before the scenario is built
    keeps the method in Python, so it is called as often as on the
    reference stack."""
    counts = [0]
    monkeypatch.setattr(owner, name, _counting(counts, getattr(owner, name)))
    config = _config(seed=7, n_nodes=24, duration=80.0)
    seen = {}
    for stack in ("reference", "medium") if KERNEL else ("reference",):
        counts[0] = 0
        if owner is JsonlSink:
            export = ObsConfig(trace_path=str(tmp_path / f"{stack}.jsonl"), strict=True)
            config = replace(config, obs=export)
        with _stack(stack):
            scenario = build_scenario(config)
            scenario.run()
        seen[stack] = (counts[0], [(r.time, r.kind) for r in scenario.trace])
    assert seen["reference"][0] > 0
    assert seen.get("medium", seen["reference"]) == seen["reference"]


# ----------------------------------------------------------------------
# The slot rule's answers follow a class patched mid-run
# ----------------------------------------------------------------------
def _run_patched_at(at, owner, name, make):
    """Run a scenario that sets ``owner.name = make(original)`` at
    simulated time ``at`` (None: never; undone afterwards); its trace's
    records."""
    config = _config(seed=5, n_nodes=24, duration=60.0)
    scenario = build_scenario(config)
    with pytest.MonkeyPatch.context() as patch:
        original = getattr(owner, name)
        if at is not None:
            scenario.sim.schedule_at(at, lambda: patch.setattr(owner, name, make(original)))
        scenario.run()
    return [(r.time, r.kind, tuple(r.items())) for r in scenario.trace]


@needs_kernel
def test_wrapper_installed_mid_run_sees_every_later_call():
    """The guard asks whether ``LocalMonitor.observe`` is its own per
    frame, the answer kept per class version: a wrapper installed at
    t=30 s sees exactly the frames the reference stack's does."""
    seen = {}
    for stack in ("reference", "medium"):
        counts = [0]
        with _stack(stack):
            records = _run_patched_at(30.0, LocalMonitor, "observe",
                                      functools.partial(_counting, counts))
        seen[stack] = (counts[0], records)
    assert seen["medium"][0] > 0
    assert seen["medium"] == seen["reference"]


def _run_key_wrapped_with_a_decision_pending(counts):
    """Run a scenario that wraps ``Packet.key`` (undone afterwards) the
    first time, after t=30 s, a node hears a request's first copy, so
    that the node's rebroadcast decision is pending; its trace's records."""
    scenario = build_scenario(_config(seed=5, n_nodes=24, duration=60.0))
    node_id = scenario.honest_ids[0]
    router = scenario.routers[node_id]
    with pytest.MonkeyPatch.context() as patch:
        def wrap(frame):
            packet = frame.packet
            if (not counts and scenario.sim.now >= 30.0 and type(packet) is RouteRequest
                    and router._copy_counts.get(packet._key) == 0):
                counts.append(0)
                patch.setattr(Packet, "key", _counting(counts, Packet.key))

        scenario.network.node(node_id).add_listener(wrap)
        scenario.run()
    return [(r.time, r.kind, tuple(r.items())) for r in scenario.trace]


@needs_kernel
def test_key_wrapped_with_a_decision_pending_sees_every_later_call():
    """The kernel's one answer for ``Packet.key``, kept per class version,
    is shared by the medium, the flood and the guards: a wrapper installed
    mid-run, while a rebroadcast decision the medium scheduled is pending,
    sees exactly the calls the reference stack's does."""
    seen = {}
    for stack in ("reference", "medium"):
        counts = []
        with _stack(stack):
            records = _run_key_wrapped_with_a_decision_pending(counts)
        seen[stack] = (counts, records)
    assert seen["medium"][0][0] > 0
    assert seen["medium"] == seen["reference"]


@needs_kernel
def test_member_slot_replaced_mid_run_is_read_through_the_descriptor():
    """The kernel reads ``NeighborRecord.status`` by slot offset while it
    is a plain member slot.  A property put in its place at t=30 s is
    read from then on, and the run is unchanged."""
    member = NeighborRecord.status
    reads = [0]

    def make(_original):
        def get(record):
            reads[0] += 1
            return member.__get__(record, NeighborRecord)

        return property(get, member.__set__)

    plain = _run_patched_at(None, NeighborRecord, "status", make)
    assert reads[0] == 0
    patched = _run_patched_at(30.0, NeighborRecord, "status", make)
    assert reads[0] > 0
    assert patched == plain
