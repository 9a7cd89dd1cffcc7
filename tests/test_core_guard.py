"""The C guard against the Python receive hook it replaces.

On the C kernel's simulator every LITEWORP monitor carries a ``Guard``
(``repro.sim._ckernel``) that runs the agent's receive hook, the
monitor's judgement and the overheard store in C.  The differential test
feeds the guard and the Python hook (``LiteworpAgent._receive`` and
``LocalMonitor.observe`` on the Python engine) the same seeded frame
streams and requires the same counters, MalC, trace records, pending
expectations and detections.  The other tests cover the guard's edges:
a packet class first seen mid-run, frames and packets that are not the
slotted dataclasses, exceptions from callbacks, crash and recovery,
garbage collection, and a wrapper installed on ``LocalMonitor.observe``.
"""

import contextlib
import functools
import gc
import random
import weakref
from dataclasses import dataclass

import pytest

from repro.core.agent import LiteworpAgent
from repro.core.config import LiteworpConfig
from repro.core.monitor import LocalMonitor
from repro.core.tables import NeighborTable
from repro.crypto.keys import PairwiseKeyManager
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.net.network import Network
from repro.net.packet import (
    AlertPacket,
    DataPacket,
    Frame,
    HelloPacket,
    Packet,
    RouteErrorPacket,
    RouteReply,
    RouteRequest,
)
from repro.net.topology import grid_topology
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

pytestmark = pytest.mark.skipif(
    not accel.kernel_available(), reason="C kernel unavailable"
)

#: Ids that are nobody's neighbour: outside the network, or far past int64.
STRANGERS = (99, 2**70)


def _csim():
    return accel._load().Simulator


class Net:
    """20 LITEWORP nodes on a 5x4 grid, every one a guard of its links."""

    def __init__(self, simcls, config, seed=0):
        self.topology = grid_topology(columns=5, rows=4, spacing=20.0, tx_range=30.0)
        self.sim = simcls()
        self.trace = TraceLog()
        self.config = config
        self.network = Network(self.sim, self.topology, RngRegistry(seed), trace=self.trace)
        keys = PairwiseKeyManager()
        adjacency = self.topology.adjacency()
        self.agents = {}
        self.accepted = {}
        for node_id in self.network.node_ids():
            node = self.network.node(node_id)
            agent = LiteworpAgent(self.sim, node, keys.enroll(node_id), config, self.trace)
            self.network.channel.attach_loss_handler(
                node_id, agent.monitor.note_reception_loss
            )
            agent.install_oracle(adjacency)
            self.agents[node_id] = agent
            accepted = self.accepted[node_id] = []
            node.add_listener(lambda frame, log=accepted: log.append(frame.describe()))

    def state(self, keys):
        """Everything the two hooks must agree on."""
        now = self.sim.now
        per_node = {}
        for node_id, agent in self.agents.items():
            monitor, table = agent.monitor, agent.table
            node = self.network.node(node_id)
            per_node[node_id] = {
                "rejects": dict(agent.rejects),
                "counters": (
                    monitor.fabrications_seen, monitor.drops_seen,
                    monitor.suppressed_accusations, monitor.suspended_accusations,
                    monitor.watch_buffer_peak, monitor.malc_total,
                ),
                "pending": sorted(map(repr, monitor._expectations)),
                "detected": sorted(monitor._detected),
                "malc": {n: table.malc(n, now, self.config.malc_window)
                         for n in table.neighbors()},
                "revoked": sorted(n for n in table.neighbors() if table.is_revoked(n)),
                "frames": (node.frames_received, node.frames_rejected),
                "accepted": self.accepted[node_id],
                "heard": [monitor.heard_transmission(key, n)
                          for key in keys for n in self.agents],
            }
        # Not sim.events_processed: the channel's C medium finishes a
        # transmission with one event, its reference path with one per
        # receiver.
        records = [(r.time, r.kind, r.fields) for r in self.trace]
        return per_node, records


def _packets(rng):
    """A small pool, so keys repeat across frames and guards."""
    pool = []
    for rid in range(4):
        origin = rng.randrange(20)
        pool.append(RouteRequest(origin=origin, request_id=rid, target=rng.randrange(20)))
        pool.append(RouteReply(origin=origin, request_id=rid, target=rng.randrange(20)))
        pool.append(DataPacket(origin=origin, destination=rng.randrange(20),
                               flow_id=rid, sequence=rng.randrange(3)))
    pool.append(HelloPacket(sender=3))
    pool.append(RouteErrorPacket(reporter=5, inner_key=pool[1].key()))
    return pool


def _script(seed, adjacency, steps=400):
    """A seeded stream of actions, independent of the simulator."""
    rng = random.Random(seed)
    nodes = sorted(adjacency)
    pool = _packets(rng)
    script = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.12:
            # Mostly short gaps; some reach or jump past overheard_window
            # (2 s).  Dyadic, so stamps land exactly on the grace and
            # window boundaries.
            script.append(("run", rng.choice([0.0625, 0.25, 0.5, 0.5, 2.0, 2.5, 7.0])))
            continue
        if roll < 0.17:
            script.append(("loss", rng.choice(nodes)))
            continue
        if roll < 0.19:
            script.append(("revoke", rng.choice(nodes), rng.choice(nodes)))
            continue
        receiver = rng.choice(nodes)
        packet = rng.choice(pool)
        if rng.random() < 0.15 and packet.key()[0] != "RERR":
            # A route error for a packet the receiver may be watching.
            packet = RouteErrorPacket(reporter=rng.choice(nodes), inner_key=packet.key())
        near = adjacency[receiver]
        transmitter = rng.choice(
            near * 6 + (rng.choice(nodes),) + STRANGERS
        )
        others = adjacency.get(transmitter, near)
        prev = rng.choice([None, None, rng.choice(others), rng.choice(nodes), 77])
        link_dst = rng.choice([None, receiver, rng.choice(others), rng.choice(nodes)])
        if rng.random() < 0.2:
            # An own transmission: the send filter, the MAC, then the radio.
            frame = Frame(packet=packet, transmitter=receiver,
                          link_dst=rng.choice([None] + list(near)), prev_hop=prev)
            script.append(("send", receiver, frame))
        else:
            frame = Frame(packet=packet, transmitter=transmitter,
                          link_dst=link_dst, prev_hop=prev)
            script.append(("deliver", receiver, frame))
    return script, [packet.key() for packet in pool]


def _play(net, script):
    for action in script:
        kind = action[0]
        if kind == "run":
            net.sim.run(until=net.sim.now + action[1])
        elif kind == "loss":
            net.agents[action[1]].monitor.note_reception_loss(net.sim.now)
        elif kind == "revoke":
            net.agents[action[1]].table.revoke(action[2])
        elif kind == "send":
            net.network.node(action[1]).raw_send(action[2])
        else:
            net.network.node(action[1]).deliver(action[2])
    net.sim.run(until=net.sim.now + 5.0)


@pytest.mark.parametrize("seed", range(6))
def test_guard_matches_python_hook_on_random_streams(seed):
    config = LiteworpConfig(
        c_t=4, theta=2, delta=0.5, overheard_window=2.0, fabrication_grace=0.5,
        watch_data=True, watch_request_drops=seed % 2 == 0,
    )
    adjacency = grid_topology(columns=5, rows=4, spacing=20.0, tx_range=30.0).adjacency()
    script, keys = _script(seed, adjacency)
    reference = Net(Simulator, config, seed)
    accelerated = Net(_csim(), config, seed)
    assert all(a.monitor.guard is None for a in reference.agents.values())
    assert all(a.monitor.guard is not None for a in accelerated.agents.values())
    _play(reference, script)
    _play(accelerated, script)
    expected = reference.state(keys)
    assert accelerated.state(keys) == expected
    # The stream reaches every branch the hooks share.
    per_node = expected[0].values()
    for reason in ("nonneighbor", "revoked", "secondhop"):
        assert sum(node["rejects"][reason] for node in per_node) > 0, reason
    kinds = {record[1] for record in expected[1]}
    assert {"malc_increment", "frame_rejected", "watch_buffer"} <= kinds


# ----------------------------------------------------------------------
# Packet classes and frames the guard has not seen before
# ----------------------------------------------------------------------
class LooseFrame:
    """Duck-typed frame: the same attributes, none of the slots."""

    def __init__(self, packet, transmitter, link_dst=None, prev_hop=None):
        self.packet = packet
        self.transmitter = transmitter
        self.link_dst = link_dst
        self.prev_hop = prev_hop

    def describe(self):
        return Frame.describe(self)


def _unusual_frames():
    """Frames for node 6, whose neighbours are 0, 1, 2, 5, 7, 10, 11, 12.

    The packet classes are made here, not at module level, so no other
    test that walks ``Packet.__subclasses__()`` sees them.
    """

    @dataclass(frozen=True, slots=True)
    class Beacon(Packet):
        """A monitored type no scenario sends: judged as ``ROLE_OTHER``."""

        sender: int = 0
        sequence: int = 0

        def _make_key(self):
            return ("BEACON", self.sender, self.sequence)

        @property
        def size_bytes(self):
            return 16

        @property
        def monitored(self):
            return True

    class CustomKey(RouteRequest):
        """Not slotted, and overrides key(): read through attribute lookup."""

        def key(self):
            return ("CUSTOM", self.origin, self.request_id)

    return [
        Frame(packet=RouteRequest(origin=9, request_id=1), transmitter=1),
        # Unheard previous hop 0 (and not in R_2): fabrication, second-hop reject.
        Frame(packet=Beacon(sender=2, sequence=1), transmitter=2, prev_hop=0),
        Frame(packet=Beacon(sender=2, sequence=1), transmitter=1, prev_hop=2),
        # Unheard previous hop 7: fabrication.
        Frame(packet=CustomKey(origin=9, request_id=2), transmitter=1, prev_hop=7),
        # Unheard previous hop 5: fabrication; 7 is now watched.
        LooseFrame(RouteReply(origin=9, request_id=3), 1, link_dst=7, prev_hop=5),
        # 7 forwards from 1 (heard): clears its watch, arms one on 12.
        LooseFrame(RouteReply(origin=9, request_id=3), 7, link_dst=12, prev_hop=1),
        LooseFrame(CustomKey(origin=9, request_id=4), 99),
    ]


def test_new_packet_classes_and_loose_frames():
    frames = _unusual_frames()
    keys = [frame.packet.key() for frame in frames]
    states = []
    for simcls in (Simulator, _csim()):
        net = Net(simcls, LiteworpConfig(c_t=100))
        net.sim.run(until=1.0)
        for frame in frames:
            net.network.node(6).deliver(frame)
            net.sim.run(until=net.sim.now + 0.1)
        agent = net.agents[6]
        assert agent.monitor.fabrications_seen == 3
        assert agent.rejects == {"nonneighbor": 1, "revoked": 0, "secondhop": 1}
        assert agent.monitor.heard_transmission(("CUSTOM", 9, 2), 1)
        assert agent.monitor.watch_buffer_size == 1
        states.append(net.state(keys))
    assert states[0] == states[1]


def test_any_int_node_id():
    """Ids past 64 bits and negative ids work as neighbours and as keys of
    the overheard store, with the Python store's answers."""
    big, negative = 2**70, -5
    answers = []
    for simcls in (Simulator, _csim()):
        sim = simcls()
        table = NeighborTable(owner=0)
        for n in (big, negative, 3):
            table.add_neighbor(n)
        trace = TraceLog()
        monitor = LocalMonitor(sim, 0, table, LiteworpConfig(), trace, lambda n: None)
        request = RouteRequest(origin=9, request_id=1)
        monitor.observe(Frame(packet=request, transmitter=big))
        monitor.observe(Frame(packet=request, transmitter=negative, prev_hop=big))
        monitor.observe(Frame(packet=request, transmitter=3, prev_hop=big + 1))
        answers.append((
            [monitor.heard_transmission(request.key(), n)
             for n in (big, big + 1, negative, 3, "x")],
            monitor.fabrications_seen,
            [(r.kind, r.fields) for r in trace],
        ))
    assert answers[0] == answers[1]
    assert answers[0][0] == [True, False, True, True, False]


# ----------------------------------------------------------------------
# Errors, lifecycle, memory
# ----------------------------------------------------------------------
def test_handler_exception_propagates_out_of_deliver():
    net = Net(_csim(), LiteworpConfig())
    agent = net.agents[1]

    def boom(frame):
        raise RuntimeError("handler failed")

    agent._handlers[AlertPacket] = boom
    alert = Frame(packet=AlertPacket(guard=0, accused=2, recipient=1), transmitter=0,
                  link_dst=1)
    with pytest.raises(RuntimeError, match="handler failed"):
        net.network.node(1).deliver(alert)
    # Through the channel, the same exception leaves sim.run().
    net.network.node(0).raw_send(alert, jitter=0.0)
    with pytest.raises(RuntimeError, match="handler failed"):
        net.sim.run(until=1.0)


def test_monitor_callback_exception_propagates(monkeypatch):
    net = Net(_csim(), LiteworpConfig())

    def refuse(self, *args):
        raise ValueError("accuse failed")

    monkeypatch.setattr(LocalMonitor, "_accuse", refuse)
    fabricated = Frame(packet=RouteRequest(origin=9, request_id=1), transmitter=2,
                       prev_hop=6)
    with pytest.raises(ValueError, match="accuse failed"):
        net.network.node(1).deliver(fabricated)


def test_crash_and_recover_toggle_the_guard():
    net = Net(_csim(), LiteworpConfig())
    agent, node = net.agents[1], net.network.node(1)
    guard = agent.monitor.guard
    request = RouteRequest(origin=9, request_id=1)
    node.deliver(Frame(packet=request, transmitter=2))
    assert guard.activated and agent.monitor.heard_transmission(request.key(), 2)
    stranger = Frame(packet=RouteRequest(origin=9, request_id=2), transmitter=99)

    node.fail()
    assert not agent.activated and not guard.activated
    # The crash emptied the C overheard store with the rest of the monitor.
    assert not agent.monitor.heard_transmission(request.key(), 2)
    assert guard.receive(stranger)  # inactive: checks are off
    assert agent.rejects["nonneighbor"] == 0

    node.recover()
    assert agent.activated and guard.activated
    node.deliver(stranger)
    assert agent.rejects["nonneighbor"] == 1


def _count_guards():
    guard_type = accel._load().Guard
    return sum(1 for obj in gc.get_objects() if type(obj) is guard_type)


def test_dropped_scenario_guards_are_collected():
    gc.collect()
    before = _count_guards()
    scenario = build_scenario(ScenarioConfig(
        n_nodes=16, duration=20.0, seed=3, attack_mode="outofband", n_malicious=2,
        attack_start=5.0, defense="liteworp",
    ))
    scenario.run()
    monitor = weakref.ref(next(iter(scenario.agents.values())).monitor)
    assert monitor().guard is not None
    assert _count_guards() > before
    del scenario
    gc.collect()
    assert monitor() is None
    assert _count_guards() == before


def test_observe_wrapper_sees_every_received_and_own_frame(monkeypatch):
    counts = {"observe": 0, "observe_own": 0}

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(LocalMonitor, name, counted(name, getattr(LocalMonitor, name)))
    config = ScenarioConfig(
        n_nodes=16, duration=40.0, seed=3, attack_mode="outofband", n_malicious=2,
        attack_start=10.0, defense="liteworp",
    )
    seen = []
    for reference in (True, False):
        counts.update(observe=0, observe_own=0)
        with accel.reference_mode() if reference else contextlib.nullcontext():
            scenario = build_scenario(config)
        guards = {agent.monitor.guard is None for agent in scenario.agents.values()}
        assert guards == {reference}
        report = scenario.run()
        guarded = [scenario.network.node(n) for n in scenario.agents]
        assert counts["observe"] == sum(node.frames_received for node in guarded)
        assert counts["observe_own"] > 0
        seen.append((dict(counts), report.to_state()))
    assert seen[0] == seen[1]
