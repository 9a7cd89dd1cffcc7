"""The send path on the C medium against the reference stack.

On the C kernel's simulator each node's ``CsmaMac`` state lives in its
slot of the channel's ``Medium``, which runs ``send``, the carrier-sense
attempts with backoff, the ARQ outcome and ``Channel.transmit``'s body
(see the :mod:`repro.net.mac` docstring).  The differential tests run
seeded scenarios under every defense and the attack modes that reach the
send path differently, with crashes and a MAC tuned to drop and to
exhaust its retries, and require equal reports, equal traces record for
record, equal per-node MAC counters and equal event counts.  Hand-built
networks pin a crash during a backoff and during an ARQ wait, and a
hypothesis test draws ``MacConfig``s.  The rest covers the wrapper rule:
a wrapper on ``CsmaMac.send`` or ``Channel.transmit`` sees every call.

Without the C kernel (``REPRO_ACCEL=off``) the hand-built, hypothesis and
wrapper tests run on the reference stack alone and still check what it
must do; the rest are skipped.
"""

import contextlib
import functools
import json
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.faults.plan import CrashRecover, FaultPlan
from repro.net.channel import CHANNEL_TRANSMIT, Channel
from repro.net.mac import MAC_METHODS, CsmaMac, MacConfig
from repro.net.network import Network, NetworkConfig
from repro.net.packet import DataPacket, Frame
from repro.net.topology import grid_topology
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog
from repro.traffic.generator import TrafficConfig

KERNEL = accel.kernel_available()
needs_kernel = pytest.mark.skipif(not KERNEL, reason="C kernel unavailable")

DEFENSES = ("none", "liteworp", "rtt", "snd", "temporal_leash")


def _config(defense="liteworp", seed=5, **overrides):
    values = dict(
        n_nodes=24, duration=80.0, seed=seed, attack_mode="outofband",
        n_malicious=2, attack_start=15.0, defense=defense,
    )
    values.update(overrides)
    return ScenarioConfig(**values)


def _mac_counters(network):
    return {
        node_id: (node.mac.sent, node.mac.dropped, node.mac.arq_failures, node.mac.queue_length)
        for node_id, node in sorted(network.nodes.items())
    }


def _run(config, stack):
    """Run ``config`` on one stack; everything the stacks must agree on.

    ``stack`` is "medium" (the C kernel, the MAC in the medium),
    "python_mac" (the C kernel, the MAC kept in Python) or "reference"
    (the pure-Python stack)."""
    with contextlib.ExitStack() as context:
        if stack == "reference":
            context.enter_context(accel.reference_mode())
        if stack == "python_mac":
            patch = context.enter_context(pytest.MonkeyPatch.context())
            patch.setattr(Channel, "medium_mac", lambda *args: None)
        scenario = build_scenario(config)
        report = scenario.run()
    network = scenario.network
    in_medium = {node.mac._medium_mac is not None for node in network.nodes.values()}
    assert in_medium == {stack == "medium"}
    return {
        "report": json.dumps(report.to_state(), sort_keys=True),
        "records": [(r.time, r.kind, r.keys(), tuple(v for _, v in r.items()))
                    for r in scenario.trace],
        "macs": _mac_counters(network),
        "channel": (network.channel.transmissions, network.channel.collisions),
        # The reference channel finishes each reception with an event of
        # its own, the medium each transmission: event counts are equal
        # on one simulator only.
        "events": (scenario.sim.events_processed, scenario.sim.pending_count),
    }


def _assert_same(config):
    fast, ref = _run(config, "medium"), _run(config, "reference")
    assert fast["report"] == ref["report"]
    assert len(fast["records"]) == len(ref["records"])
    for a, b in zip(fast["records"], ref["records"]):
        assert a == b
    assert fast["macs"] == ref["macs"]
    assert fast["channel"] == ref["channel"]
    slow = _run(config, "python_mac")
    assert slow == fast
    return fast


def _kinds(state):
    return [kind for _, kind, _, _ in state["records"]]


# ----------------------------------------------------------------------
# Seeded scenarios on both stacks
# ----------------------------------------------------------------------
@needs_kernel
@pytest.mark.parametrize("defense", DEFENSES)
def test_defenses_match_reference(defense):
    state = _assert_same(_config(defense, seed=6))
    assert sum(sent for sent, _, _, _ in state["macs"].values()) > 0


@needs_kernel
@pytest.mark.parametrize("attack", ["relay", "highpower", "encapsulation", "rushing"])
def test_attack_modes_match_reference(attack):
    # highpower raises the attacker's range mid-run (activate), and
    # rushing forwards with zero jitter.
    _assert_same(_config(
        "liteworp", seed=8, attack_mode=attack,
        n_malicious=2 if attack == "encapsulation" else 1, n_nodes=26,
    ))


@needs_kernel
def test_drops_arq_failures_and_crashes_match_reference():
    """A MAC that gives up quickly, under crashes that land in backoffs
    and ARQ waits of a busy network."""
    base = _config("liteworp", seed=9, n_nodes=28)
    adjacency = build_scenario(base).topology.adjacency()
    busiest = sorted(adjacency, key=lambda n: (-len(adjacency[n]), n))[:4]
    plan = FaultPlan(faults=tuple(
        CrashRecover(at=16.0 + 7.3 * i, node=node, downtime=0.05 + 2.0 * i)
        for i, node in enumerate(busiest)
    ))
    config = _config(
        "liteworp", seed=9, n_nodes=28, fault_plan=plan,
        traffic=TrafficConfig(data_rate=1.0),
        network=NetworkConfig(mac=MacConfig(base_backoff=0.004, max_attempts=2, arq_retries=1)),
    )
    state = _assert_same(config)
    kinds = _kinds(state)
    assert kinds.count("mac_drop") > 0 and kinds.count("arq_failure") > 0
    assert kinds.count("fault_injected") == 4
    dropped = sum(dropped for _, dropped, _, _ in state["macs"].values())
    assert dropped > kinds.count("mac_drop")  # the crashes dropped queued frames


# ----------------------------------------------------------------------
# Hand-built networks: a crash during a backoff and during an ARQ wait
# ----------------------------------------------------------------------
def _line(simcls, columns=3, spacing=20.0, mac=None):
    sim = simcls()
    topology = grid_topology(columns=columns, rows=1, spacing=spacing, tx_range=30.0)
    config = NetworkConfig(mac=mac) if mac is not None else None
    return sim, Network(sim, topology, RngRegistry(3), trace=TraceLog(), config=config)


def _outcome(sim, net):
    return (
        [(r.time, r.kind, tuple(r.items())) for r in net.trace],
        _mac_counters(net),
        sim.events_processed,
        net.channel.transmissions,
    )


def _both(script):
    """Run ``script(simcls)`` on each stack there is (see :func:`_run`);
    returns the outcome, which all of them share."""
    outcomes = {}
    for stack in ("reference", "python_mac", "medium") if KERNEL else ("reference",):
        with pytest.MonkeyPatch.context() as patch:
            if stack == "python_mac":
                patch.setattr(Channel, "medium_mac", lambda *args: None)
            simcls = Simulator if stack == "reference" else accel._load().Simulator
            sim, net = script(simcls)
        assert (net.node(0).mac._medium_mac is not None) == (stack == "medium")
        outcomes[stack] = _outcome(sim, net)
    if not KERNEL:
        return outcomes["reference"]
    medium, reference = outcomes["medium"], outcomes["reference"]
    assert outcomes["python_mac"] == medium
    # All but the event count, which differs across kernels (see _run).
    assert reference[:2] + reference[3:] == medium[:2] + medium[3:]
    return medium


def test_crash_during_backoff_matches_reference():
    def script(simcls):
        sim, net = _line(simcls, mac=MacConfig(base_backoff=0.05, max_attempts=6))
        blocker = Frame(DataPacket(origin=1, destination=9, payload_size=2_000), 1)
        net.channel.transmit(1, blocker)
        for sequence in range(3):
            net.node(0).broadcast(DataPacket(origin=0, destination=2, sequence=sequence))
        sim.schedule(0.06, net.node(0).fail)
        sim.schedule(0.2, net.node(0).recover)
        sim.schedule(0.21, net.node(0).broadcast, DataPacket(origin=0, destination=2, sequence=9))
        sim.run()
        return sim, net

    _, macs, _, _ = _both(script)
    sent, dropped, _, _ = macs[0]
    assert (sent, dropped) == (1, 3)  # the three queued frames died in the crash


def test_crash_during_arq_wait_matches_reference():
    def script(simcls):
        # Node 2 is out of node 0's range: no ACK ever comes.
        sim, net = _line(simcls, columns=3, spacing=25.0, mac=MacConfig(arq_retries=3))
        node = net.node(0)
        node.unicast(DataPacket(origin=0, destination=2), 2, jitter=0.0)
        node.unicast(DataPacket(origin=0, destination=2, sequence=1), 2, jitter=0.0)
        air = net.channel.duration_of(Frame(DataPacket(origin=0, destination=2), 0, 2))
        # Down while the first frame is on the air, up before its outcome.
        sim.schedule(air / 3, node.fail)
        sim.schedule(air / 2, node.recover)
        sim.schedule(air / 2, node.unicast, DataPacket(origin=0, destination=2, sequence=2), 2)
        sim.run()
        return sim, net

    records, macs, _, _ = _both(script)
    sent, dropped, failures, queued = macs[0]
    # The frame in flight at the crash is not retried; the one queued
    # behind it is dropped; the one sent after the reboot uses all its
    # retries and fails.
    assert (sent, dropped, failures, queued) == (1 + 4, 1, 1, 0)
    assert [kind for _, kind, _ in records].count("arq_failure") == 1


def test_max_attempts_exhausted_matches_reference():
    def script(simcls):
        sim, net = _line(simcls, mac=MacConfig(base_backoff=0.002, max_attempts=3))
        net.channel.transmit(1, Frame(DataPacket(origin=1, destination=9, payload_size=5_000), 1))
        for sequence in range(4):
            net.node(0).broadcast(DataPacket(origin=0, destination=2, sequence=sequence), jitter=0.0)
        sim.run()
        return sim, net

    records, macs, _, _ = _both(script)
    assert [kind for _, kind, _ in records].count("mac_drop") == 4
    assert macs[0][:2] == (0, 4)


def test_send_on_a_disabled_mac_counts_a_drop_matches_reference():
    """A crashed node's MAC asked to send directly (``Node._submit``
    checks ``alive`` first, so only a caller holding the MAC gets here)
    drops the frame and counts it, and serves again after the reboot."""
    def script(simcls):
        sim, net = _line(simcls)
        node = net.node(0)
        node.fail()
        for sequence in range(2):
            node.mac.send(Frame(DataPacket(origin=0, destination=2, sequence=sequence), 0))
        assert not node.mac.enabled and node.mac.queue_length == 0
        sim.schedule(0.5, node.recover)
        sim.schedule(0.6, node.mac.send, Frame(DataPacket(origin=0, destination=2, sequence=9), 0))
        sim.run()
        return sim, net

    _, macs, _, transmissions = _both(script)
    assert macs[0] == (1, 2, 0, 0)
    assert transmissions == 1


# ----------------------------------------------------------------------
# MacConfig, drawn
# ----------------------------------------------------------------------
mac_configs = st.builds(
    MacConfig,
    base_backoff=st.floats(min_value=1e-4, max_value=0.05),
    max_attempts=st.integers(min_value=1, max_value=8),
    default_jitter=st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=0.05)),
    arq_retries=st.integers(min_value=0, max_value=4),
)
sends = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),           # sender
        st.sampled_from([None, 1, 2, 3, 7]),             # link destination (7: absent)
        st.floats(min_value=0.0, max_value=0.3),         # time
        st.sampled_from([None, 0.0, 0.01]),              # jitter
        st.integers(min_value=8, max_value=400),         # payload
    ),
    min_size=1, max_size=14,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=mac_configs, schedule=sends, crash=st.one_of(st.none(), st.floats(0.0, 0.3)))
def test_random_mac_configs_match_reference(config, schedule, crash):
    def script(simcls):
        sim, net = _line(simcls, columns=4, spacing=15.0, mac=config)
        for sender, dst, at, jitter, payload in schedule:
            packet = DataPacket(origin=sender, destination=9, payload_size=payload)
            frame = Frame(packet, sender, None if dst == sender else dst)
            sim.schedule_at(at, net.node(sender).raw_send, frame, jitter)
        if crash is not None:
            sim.schedule_at(crash, net.node(1).fail)
            sim.schedule_at(crash + 0.02, net.node(1).recover)
        sim.run(until=30.0)
        return sim, net

    _both(script)


# ----------------------------------------------------------------------
# The wrapper rule
# ----------------------------------------------------------------------
def _counting(counts, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _python_calls(codes, config):
    """Python-level calls of each code object while ``config`` runs."""
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
def test_medium_runs_the_mac_without_python_frames():
    codes = [fn.__code__ for fn in MAC_METHODS.values()] + [CHANNEL_TRANSMIT.__code__]
    calls, scenario = _python_calls(codes, _config("liteworp", seed=5, duration=30.0))
    assert scenario.network.channel.transmissions > 0
    assert all(count == 0 for count in calls.values())


@pytest.mark.parametrize("target", ["send", "transmit", "_attempt"])
def test_wrapped_method_sees_every_call(monkeypatch, target):
    """The layer tracer's situation: a wrapper installed on the class
    before the scenario is built keeps the MAC in Python, so it is
    called for every frame, and the run is the reference run."""
    owner = Channel if target == "transmit" else CsmaMac
    config = _config("liteworp", seed=5, duration=30.0)
    counts = {target: 0}
    monkeypatch.setattr(owner, target, _counting(counts, target, getattr(owner, target)))
    wrapped = _run(config, "python_mac")
    reference_calls = counts[target]
    counts[target] = 0
    scenario = build_scenario(config)
    assert all(node.mac._medium_mac is None for node in scenario.network.nodes.values())
    report = scenario.run()
    assert counts[target] == reference_calls > 0
    if target == "transmit":
        assert counts[target] == scenario.network.channel.transmissions
    assert json.dumps(report.to_state(), sort_keys=True) == wrapped["report"]
    assert _mac_counters(scenario.network) == wrapped["macs"]
    assert scenario.sim.events_processed == wrapped["events"][0]


@needs_kernel
def test_subclass_override_keeps_the_mac_in_python():
    class Tapped(CsmaMac):
        def _next_frame(self, epoch):
            super()._next_frame(epoch)

    sim = accel._load().Simulator()
    net = _line(lambda: sim)[1]
    mac = Tapped(sim, net.channel, 0, random.Random(0))
    assert mac._medium_mac is None
    assert net.node(0).mac._medium_mac is not None


@needs_kernel
def test_counters_outlive_the_medium():
    sim, net = _line(accel._load().Simulator)
    net.node(0).broadcast(DataPacket(origin=0, destination=2), jitter=0.0)
    net.node(0).broadcast(DataPacket(origin=0, destination=2), jitter=0.0)
    sim.run()
    net.release()
    assert _mac_counters(net)[0] == (2, 0, 0, 0)
    assert net.channel.transmissions == 2
