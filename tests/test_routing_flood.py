"""The route-request flood on the C medium against the reference stack.

On the C kernel's simulator the channel's ``Medium`` runs an honest
``OnDemandRouting``'s common receive paths and its rebroadcast decision
(see the :mod:`repro.routing.ondemand` docstring), and stores the
``rx_lost`` records it builds itself (see ``TraceLog._publish``).  The
differential tests run seeded scenarios under every defense, the five
attack modes, crash-recover faults and routing configs that switch the
C paths off, and require equal reports, traces record for record, equal
frame counters, equal seen-request and copy-count tables and the same
packet uid sequence as the reference stack and as the Python listener on
the same kernel (equal event counts there).  Hand-built networks pin a
crash while a rebroadcast decision is pending, a listener added during
delivery and the release of unreleased agents by one ``gc.collect()``; a
hypothesis test draws ``RoutingConfig``s.  The rest covers the wrapper
rule for each method the medium stands in for, and the store path of
``_publish`` against a ring, a sink and an ``rx_lost`` subscriber.

Without the C kernel (``REPRO_ACCEL=off``) the hand-built, hypothesis
and wrapper tests run on the reference stack alone and still check what
it must do; the rest are skipped.
"""

import contextlib
import functools
import gc
import json
import sys
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.faults.plan import CrashRecover, FaultPlan
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import RouteRequest, _packet_uids
from repro.net.topology import grid_topology
from repro.routing import ondemand
from repro.routing.config import RoutingConfig
from repro.routing.ondemand import FLOOD_METHODS, OnDemandRouting
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TRACE_PUBLISH, TraceLog
from repro.traffic.generator import TrafficConfig

KERNEL = accel.kernel_available()
needs_kernel = pytest.mark.skipif(not KERNEL, reason="C kernel unavailable")

DEFENSES = ("none", "liteworp", "rtt", "snd", "temporal_leash")
STACKS = ("reference", "python_flood", "medium")


def _config(defense="liteworp", seed=5, **overrides):
    values = dict(
        n_nodes=24, duration=120.0, seed=seed, attack_mode="outofband",
        n_malicious=2, attack_start=15.0, defense=defense,
    )
    values.update(overrides)
    return ScenarioConfig(**values)


def _uid_base():
    """The next uid ``_packet_uids`` will hand out, without drawing it."""
    return int(repr(_packet_uids)[len("count("):-1])


@contextlib.contextmanager
def _stack(stack):
    """``stack`` is "medium" (the C kernel, the flood in the medium),
    "python_flood" (the C kernel, the routing listener kept in Python) or
    "reference" (the pure-Python stack)."""
    with contextlib.ExitStack() as context:
        if stack == "reference":
            context.enter_context(accel.reference_mode())
        if stack == "python_flood":
            patch = context.enter_context(pytest.MonkeyPatch.context())
            patch.setattr(ondemand, "runs_in_medium", lambda agent: False)
        yield


def _floods(node):
    medium_mac = node.mac._medium_mac
    return medium_mac is not None and medium_mac.floods


def _state(sim, network, routers, trace, base, uids):
    """Everything the stacks must agree on, but the event counts."""
    return {
        "records": [(r.time, r.kind, r.keys(), tuple(v for _, v in r.items())) for r in trace],
        "frames": {
            node_id: (node.frames_received, node.frames_rejected)
            for node_id, node in sorted(network.nodes.items())
        },
        "routing": {
            node_id: (list(router._seen_requests.items()), list(router._copy_counts.items()))
            for node_id, router in sorted(routers.items())
        },
        "uids": [uid - base for uid in uids],
        "drawn": _uid_base() - base,
        "channel": (network.channel.transmissions, network.channel.collisions),
        "now": sim.now,
    }


def _run(config, stack, honest_floods=True):
    with _stack(stack):
        base = _uid_base()
        scenario = build_scenario(config)
        uids = []
        scenario.network.channel.add_tx_observer(lambda s, frame, t: uids.append(frame.packet.uid))
        report = scenario.run()
    network = scenario.network
    flooding = {
        node_id for node_id, node in network.nodes.items() if _floods(node)
    }
    if stack != "medium":
        assert flooding == set()
    elif honest_floods:
        honest = set(network.nodes) - set(scenario.malicious_ids)
        assert honest <= flooding
    state = _state(scenario.sim, network, scenario.routers, scenario.trace, base, uids)
    state["report"] = json.dumps(report.to_state(), sort_keys=True)
    # The reference channel finishes each reception with an event of its
    # own, the medium each transmission: event counts are equal on one
    # simulator only.
    state["events"] = (scenario.sim.events_processed, scenario.sim.pending_count)
    state["malicious"] = set(scenario.malicious_ids)
    return state, flooding


def _assert_same(config, honest_floods=True):
    fast, flooding = _run(config, "medium", honest_floods)
    ref, _ = _run(config, "reference")
    slow, _ = _run(config, "python_flood")
    assert fast["report"] == ref["report"]
    assert len(fast["records"]) == len(ref["records"])
    for a, b in zip(fast["records"], ref["records"]):
        assert a == b
    for name in ("frames", "routing", "uids", "drawn", "channel", "now"):
        assert fast[name] == ref[name], name
    assert slow == fast
    return fast, flooding


def _kinds(state):
    return [kind for _, kind, _, _ in state["records"]]


# ----------------------------------------------------------------------
# Seeded scenarios on both stacks
# ----------------------------------------------------------------------
@needs_kernel
@pytest.mark.parametrize("defense", DEFENSES)
def test_defenses_match_reference(defense):
    state, flooding = _assert_same(_config(defense, seed=6, n_nodes=30))
    assert flooding
    assert _kinds(state).count("route_established") > 0


@needs_kernel
@pytest.mark.parametrize(
    "attack", ["outofband", "encapsulation", "highpower", "relay", "rushing"]
)
def test_attack_modes_match_reference(attack):
    state, flooding = _assert_same(_config(
        "liteworp", seed=8, attack_mode=attack, n_nodes=28,
        n_malicious=2 if attack in ("outofband", "encapsulation") else 1,
    ))
    # The attack agents that override a flood hook keep the Python path;
    # the relay attacker runs plain routing, so its node floods in C.
    assert state["malicious"]
    assert (state["malicious"] <= flooding) == (attack == "relay")


@needs_kernel
def test_crash_recover_faults_match_reference():
    """Crashes of the busiest nodes, some landing while their rebroadcast
    decisions are pending."""
    base = _config("liteworp", seed=9, n_nodes=28)
    adjacency = build_scenario(base).topology.adjacency()
    busiest = sorted(adjacency, key=lambda n: (-len(adjacency[n]), n))[:4]
    plan = FaultPlan(faults=tuple(
        CrashRecover(at=16.0 + 7.3 * i, node=node, downtime=0.05 + 2.0 * i)
        for i, node in enumerate(busiest)
    ))
    config = _config(
        "liteworp", seed=9, n_nodes=28, fault_plan=plan, traffic=TrafficConfig(data_rate=1.0),
    )
    state, _ = _assert_same(config)
    assert _kinds(state).count("fault_injected") == 4


@needs_kernel
@pytest.mark.parametrize(
    "routing",
    [
        RoutingConfig(suppression_threshold=0),
        RoutingConfig(suppression_threshold=1),
        RoutingConfig(suppression_threshold=2, forward_jitter=0.05),
        RoutingConfig(forward_jitter=0.0),
        RoutingConfig(metric="first"),
    ],
    ids=["threshold0", "threshold1", "threshold2", "jitter0", "first"],
)
def test_routing_configs_match_reference(routing):
    _assert_same(_config("none", seed=7, n_nodes=30, routing=routing))


# ----------------------------------------------------------------------
# Hand-built networks
# ----------------------------------------------------------------------
def _grid(simcls, routing=None, columns=3, rows=1, spacing=20.0, trace=None, agent_cls=None):
    sim = simcls()
    topology = grid_topology(columns=columns, rows=rows, spacing=spacing, tx_range=30.0)
    trace = TraceLog() if trace is None else trace
    network = Network(sim, topology, RngRegistry(3), trace=trace)
    routing = routing or RoutingConfig()
    routers = {
        node_id: (agent_cls or OnDemandRouting)(
            sim, network.node(node_id), routing, trace,
            network.rng.stream(f"routing:{node_id}"),
        )
        for node_id in topology.node_ids
    }
    return sim, network, routers


def _both(script):
    """Run ``script(simcls)`` on each stack there is; it returns ``(sim,
    network, routers)``.  Returns the state (with the event counts of the
    C kernel), which all of them share."""
    states = {}
    for stack in STACKS if KERNEL else ("reference",):
        with _stack(stack):
            simcls = Simulator if stack == "reference" else accel._load().Simulator
            base = _uid_base()
            uids = []
            sim, network, routers = script(simcls, uids)
        assert all(_floods(node) == (stack == "medium") for node in network.nodes.values())
        state = _state(sim, network, routers, network.trace, base, uids)
        state["events"] = (sim.events_processed, sim.pending_count)
        states[stack] = state
    if not KERNEL:
        return states["reference"]
    medium, reference = states["medium"], states["reference"]
    assert states["python_flood"] == medium
    del medium["events"], reference["events"]
    assert reference == medium
    return states["python_flood"]


def _observe_uids(network, uids):
    network.channel.add_tx_observer(lambda s, frame, t: uids.append(frame.packet.uid))


def test_crash_while_a_decision_is_pending_matches_reference():
    def script(simcls, uids):
        sim, network, routers = _grid(simcls, columns=4)
        _observe_uids(network, uids)
        routers[0].send_data(3)
        # Node 1 hears the request after one air time (no MAC jitter at
        # the origin) and decides up to forward_jitter later: it is down
        # at that moment, and back before the retry.
        sim.schedule(0.02, network.node(1).fail)
        sim.schedule(1.0, network.node(1).recover)
        sim.run(until=20.0)
        return sim, network, routers

    state = _both(script)
    # The first request died at node 1, whose decision still made (and
    # dropped) its copy; the retry after the timeout got through.
    kinds = _kinds(state)
    assert kinds.count("route_request_sent") == 2
    assert kinds.count("data_delivered") == 1
    assert state["drawn"] > len(set(state["uids"]))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    routing=st.builds(
        RoutingConfig,
        metric=st.sampled_from(["shortest", "first"]),
        reply_window=st.sampled_from([0.0, 0.1, 0.6]),
        forward_jitter=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.5)),
        suppression_threshold=st.integers(min_value=0, max_value=3),
    ),
    flows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=8),
            st.floats(min_value=0.0, max_value=3.0),
        ),
        min_size=1, max_size=5,
    ),
    crash=st.one_of(st.none(), st.floats(min_value=0.0, max_value=3.0)),
)
def test_random_routing_configs_match_reference(routing, flows, crash):
    def script(simcls, uids):
        sim, network, routers = _grid(simcls, routing, columns=3, rows=3)
        _observe_uids(network, uids)
        for origin, destination, at in flows:
            if origin != destination:
                sim.schedule_at(at, routers[origin].send_data, destination)
        if crash is not None:
            sim.schedule_at(crash, network.node(4).fail)
            sim.schedule_at(crash + 0.1, network.node(4).recover)
        sim.run(until=12.0)
        return sim, network, routers

    _both(script)


def test_listener_added_during_delivery_runs_for_that_frame():
    """The medium reads a node's listeners by index, as ``Node.deliver``'s
    loop does: one appended while a frame is delivered hears that frame,
    after the routing agent's listener (run in C here)."""
    heard = {}

    def script(simcls, uids):
        calls = []
        sim = simcls()
        topology = grid_topology(columns=3, rows=1, spacing=20.0, tx_range=30.0)
        network = Network(sim, topology, RngRegistry(3), trace=TraceLog())
        _observe_uids(network, uids)
        node = network.node(1)

        def late(frame):
            calls.append(("late", sim.now, frame.packet.uid))

        def first(frame):
            calls.append(("first", sim.now, frame.packet.uid))
            if len(calls) == 1:
                node.add_listener(late)

        node.add_listener(first)
        routers = {
            node_id: OnDemandRouting(
                sim, network.node(node_id), RoutingConfig(), network.trace,
                network.rng.stream(f"routing:{node_id}"),
            )
            for node_id in topology.node_ids
        }
        routers[0].send_data(2)
        sim.run(until=10.0)
        heard[simcls] = calls
        return sim, network, routers

    _both(script)
    for calls in heard.values():
        assert calls[0][0] == "first" and calls[1][0] == "late"
        assert calls[0][1:] == calls[1][1:]
        assert len(calls) == 2 * sum(1 for kind, _, _ in calls if kind == "first")


@needs_kernel
def test_unreleased_agents_die_in_one_collection():
    """A network dropped without ``release()``: the medium holds each
    agent, and the agent (through its node and MAC) the medium, so only
    the cyclic collector can free them; one collection does."""
    sim, network, routers = _grid(accel._load().Simulator, columns=4)
    routers[0].send_data(3)
    sim.run(until=0.05)  # decisions pending
    assert sim.pending_count > 0
    assert all(_floods(node) for node in network.nodes.values())
    refs = [weakref.ref(router) for router in routers.values()]
    refs += [weakref.ref(network.channel), weakref.ref(network.node(0))]
    del sim, network, routers
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


# ----------------------------------------------------------------------
# The wrapper rule
# ----------------------------------------------------------------------
def _counting(counts, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[0] += 1
        return fn(*args, **kwargs)

    return wrapper


TARGETS = [(OnDemandRouting, name) for name in FLOOD_METHODS] + [
    (Node, "broadcast"), (Node, "_submit"), (RouteRequest, "forwarded_by"),
]


@pytest.mark.parametrize(
    "owner,name", TARGETS, ids=[f"{owner.__name__}.{name}" for owner, name in TARGETS]
)
def test_wrapped_method_sees_every_call(monkeypatch, owner, name):
    """The layer tracer's situation: a wrapper installed on the class
    before the network is built keeps every agent's flood in Python, so
    it is called as often as on the reference stack."""
    counts = [0]
    monkeypatch.setattr(owner, name, _counting(counts, getattr(owner, name)))
    seen = {}
    for stack in ("reference", "medium") if KERNEL else ("reference",):
        counts[0] = 0
        with _stack(stack):
            simcls = Simulator if stack == "reference" else accel._load().Simulator
            sim, network, routers = _grid(simcls, columns=3, rows=2)
            for origin, destination in ((0, 5), (2, 3), (4, 0)):
                routers[origin].send_data(destination)
            sim.run(until=10.0)
        assert not any(_floods(node) for node in network.nodes.values())
        seen[stack] = (counts[0], [(r.time, r.kind) for r in network.trace])
    assert seen["reference"][0] > 0
    assert seen.get("medium", seen["reference"]) == seen["reference"]


@needs_kernel
def test_subclass_override_keeps_the_python_path():
    class Tapped(OnDemandRouting):
        def _forward_decision(self, prev_hop, request):
            super()._forward_decision(prev_hop, request)

    sim, network, routers = _grid(accel._load().Simulator, agent_cls=Tapped)
    assert not any(_floods(node) for node in network.nodes.values())
    sim, network, routers = _grid(accel._load().Simulator)
    assert all(_floods(node) for node in network.nodes.values())


def _python_calls(codes, run):
    """Python-level calls of each code object while ``run()`` runs."""
    calls = dict.fromkeys(codes, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


@needs_kernel
def test_medium_runs_the_flood_without_python_frames():
    scenario = build_scenario(_config("none", seed=5, duration=30.0, n_malicious=0))
    codes = {
        name: fn.__code__
        for name, fn in dict(FLOOD_METHODS, forwarded_by=RouteRequest.forwarded_by).items()
    }
    calls = _python_calls(codes.values(), scenario.run)
    by_name = {name: calls[code] for name, code in codes.items()}
    received = sum(node.frames_received for node in scenario.network.nodes.values())
    assert received > 0
    # Left to Python: requests at their origin or target and addressed
    # replies and data (and the other packets' listener calls).
    assert 0 < by_name["on_frame"] < received / 4
    assert by_name["_forward_request"] == by_name["_forward_decision"] == 0
    assert by_name["forwarded_by"] == 0


# ----------------------------------------------------------------------
# rx_lost records: TraceLog._publish's body in C
# ----------------------------------------------------------------------
class _ListSink:
    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)


def _publish_run(simcls, capacity=None, sink=False, subscriber=False):
    trace = TraceLog(capacity=capacity)
    extra = []
    if sink:
        trace.attach_sink(_ListSink())
    if subscriber:
        trace.subscribe("rx_lost", extra.append)
    sim, network, routers = _grid(simcls, columns=4, rows=3, spacing=12.0, trace=trace)
    for origin, destination in ((0, 11), (3, 8), (9, 2), (5, 6)):
        routers[origin].send_data(destination)
    lost_publishes = [0]

    def run():
        sim.run(until=10.0)

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code is TRACE_PUBLISH.__code__
                and frame.f_locals["record"].kind == "rx_lost"):
            lost_publishes[0] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    written = [(r.time, r.kind, tuple(r.items())) for r in trace.sinks[0].records] if sink else []
    return {
        "records": [(r.time, r.kind, tuple(r.items())) for r in trace],
        "counters": (trace.total_emitted, trace.peak_resident, trace.dropped_records),
        "sink": written,
        "subscriber": [(r.time, tuple(r.items())) for r in extra],
    }, lost_publishes[0]


@pytest.mark.parametrize(
    "options",
    [{}, {"capacity": 50}, {"sink": True}, {"subscriber": True}],
    ids=["store", "ring", "sink", "subscriber"],
)
def test_rx_lost_records_match_reference(options):
    reference, python_calls = _publish_run(Simulator, **options)
    assert python_calls > 0  # collisions happened
    if not KERNEL:
        return
    medium, c_calls = _publish_run(accel._load().Simulator, **options)
    assert medium == reference
    # The store alone (ring or list) needs no Python frame; a sink or a
    # subscriber gets the method.
    assert (c_calls > 0) == bool(options.get("sink") or options.get("subscriber"))
