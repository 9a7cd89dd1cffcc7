"""State the C kernel reads by slot offset, and the path it falls back to.

``Node``, ``NeighborRecord`` and ``TraceLog`` are slotted, so the C
medium reads a node's ``alive`` and bumps its frame counters, LITEWORP's
C guard reads a neighbour record's ``status``, and the medium stores an
``rx_lost`` record into the log, all by offset.  An attribute that is
not a plain member slot of the object's class -- a subclass's property,
say -- is read and written through attribute access instead.  The
differential tests run seeded scenarios with a ``Node`` subclass whose
``alive`` and ``frames_received`` are properties (one node is muted for
a while) and a ``NeighborRecord`` subclass whose ``status`` is one (a
node reads as revoked for a while, and one is revoked outright), under
four defenses, and require the C stack, the Python receive hook on the
same kernel and the reference stack to agree on reports, traces, frame
counters and rejects, with the properties actually called.  The rest
checks that the three classes still copy and pickle.

Without the C kernel (``REPRO_ACCEL=off``) the scenarios run on the
reference stack alone.
"""

import collections
import contextlib
import copy
import json
import pickle

import pytest

from repro.core import tables
from repro.core.tables import STATUS_ACTIVE, STATUS_REVOKED, NeighborRecord
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.net import network as network_module
from repro.net.node import Node
from repro.sim import accel
from repro.sim.trace import TraceLog

KERNEL = accel.kernel_available()
STACKS = ("medium", "python_hook", "reference") if KERNEL else ("reference",)

#: Calls of the subclasses' properties, per run.
CALLS = collections.Counter()
#: Nodes whose records read as revoked.
DISTRUSTED = set()

_ALIVE = Node.alive
_RECEIVED = Node.frames_received
_STATUS = NeighborRecord.status


class MutedNode(Node):
    """A node that reads as down while muted."""

    __slots__ = ()

    @property
    def alive(self):
        CALLS["alive"] += 1
        return _ALIVE.__get__(self) and not self.__dict__.get("muted", False)

    @alive.setter
    def alive(self, value):
        _ALIVE.__set__(self, value)

    @property
    def frames_received(self):
        return _RECEIVED.__get__(self)

    @frames_received.setter
    def frames_received(self, value):
        CALLS["frames_received"] += 1
        _RECEIVED.__set__(self, value)


class DistrustRecord(NeighborRecord):
    """A neighbour record that reads as revoked while its node is distrusted."""

    __slots__ = ()

    @property
    def status(self):
        CALLS["status"] += 1
        return STATUS_REVOKED if self.node in DISTRUSTED else _STATUS.__get__(self)

    @status.setter
    def status(self, value):
        _STATUS.__set__(self, value)


@contextlib.contextmanager
def _stack(stack):
    """"medium": the C kernel with its guard; "python_hook": the C kernel
    with LITEWORP's Python receive hook; "reference": the pure-Python
    stack."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "Node", MutedNode)
        patch.setattr(tables, "NeighborRecord", DistrustRecord)
        if stack == "python_hook":
            kernel_type = accel.kernel_type
            patch.setattr(accel, "kernel_type",
                          lambda sim, name: None if name == "Guard" else kernel_type(sim, name))
        with accel.reference_mode() if stack == "reference" else contextlib.nullcontext():
            yield


def _schedule_changes(scenario):
    """Mute one node, distrust another, revoke a third, each mid-run."""
    honest = scenario.honest_ids
    adjacency = scenario.topology.adjacency()
    busy = sorted(honest, key=lambda n: (-len(adjacency[n]), n))
    muted, distrusted, revoked = busy[0], busy[1], busy[2]
    node = scenario.network.node(muted)
    sim = scenario.sim
    sim.schedule_at(20.0, node.__dict__.__setitem__, "muted", True)
    sim.schedule_at(32.0, node.__dict__.__setitem__, "muted", False)
    sim.schedule_at(25.0, DISTRUSTED.add, distrusted)
    sim.schedule_at(40.0, DISTRUSTED.discard, distrusted)
    for agent in scenario.agents.values():
        if agent.table.is_neighbor(revoked):
            sim.schedule_at(30.0, agent.table.revoke, revoked)


def _run(defense, stack):
    CALLS.clear()
    DISTRUSTED.clear()
    config = ScenarioConfig(
        n_nodes=24, duration=60.0, seed=6, attack_mode="outofband",
        n_malicious=2, attack_start=15.0, defense=defense,
    )
    with _stack(stack):
        scenario = build_scenario(config)
        assert all(type(node) is MutedNode for node in scenario.network.nodes.values())
        _schedule_changes(scenario)
        report = scenario.run()
    if stack == "medium":
        assert scenario.network.channel._medium is not None
        guards = {agent.monitor.guard is not None for agent in scenario.agents.values()}
        assert guards <= {True}
    if stack == "python_hook":
        assert all(agent.monitor.guard is None for agent in scenario.agents.values())
    nodes = scenario.network.nodes
    return {
        "report": json.dumps(report.to_state(), sort_keys=True),
        "records": [(r.time, r.kind, r.keys(), tuple(v for _, v in r.items()))
                    for r in scenario.trace],
        "frames": {n: (node.frames_received, node.frames_rejected) for n, node in nodes.items()},
        "rejects": {n: dict(agent.rejects) for n, agent in scenario.agents.items()},
        "calls": dict(CALLS),
    }


@pytest.mark.parametrize("defense", ["none", "liteworp", "rtt", "snd"])
def test_properties_are_honoured_on_every_stack(defense):
    states = {stack: _run(defense, stack) for stack in STACKS}
    first = states[STACKS[0]]
    for stack in STACKS[1:]:
        state = states[stack]
        assert state["report"] == first["report"], stack
        assert state["records"] == first["records"], stack
        assert state["frames"] == first["frames"], stack
        assert state["rejects"] == first["rejects"], stack
    for state in states.values():
        assert state["calls"]["alive"] > 0 and state["calls"]["frames_received"] > 0
    if defense == "liteworp":
        for state in states.values():
            assert state["calls"]["status"] > 0
            rejected = collections.Counter()
            for counts in state["rejects"].values():
                rejected.update(counts)
            assert rejected["revoked"] > 0


def test_the_properties_change_what_happens():
    """The muted node and the distrusted record make a difference, so
    the tests above would notice a stack that read the slots."""
    with_changes = _run("liteworp", STACKS[0])
    CALLS.clear()
    config = ScenarioConfig(
        n_nodes=24, duration=60.0, seed=6, attack_mode="outofband",
        n_malicious=2, attack_start=15.0, defense="liteworp",
    )
    with accel.reference_mode() if not KERNEL else contextlib.nullcontext():
        plain = build_scenario(config)
        report = plain.run()
    frames = {n: (node.frames_received, node.frames_rejected)
              for n, node in plain.network.nodes.items()}
    assert json.dumps(report.to_state(), sort_keys=True) != with_changes["report"]
    assert frames != with_changes["frames"]


# ----------------------------------------------------------------------
# Copying and pickling
# ----------------------------------------------------------------------
def test_neighbor_record_copies_and_pickles():
    record = NeighborRecord(3, STATUS_REVOKED, [(1.0, 2), (2.5, 1)])
    assert record == NeighborRecord(node=3, status=STATUS_REVOKED, malc_events=[(1.0, 2), (2.5, 1)])
    assert record != NeighborRecord(3)
    assert NeighborRecord(3).status == STATUS_ACTIVE and NeighborRecord(3).malc_events == []
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is NeighborRecord
    deep = copy.deepcopy(record)
    deep.add(3.0, 4, window=10.0)
    assert record.malc_events == [(1.0, 2), (2.5, 1)]
    assert repr(record) == "NeighborRecord(node=3, status='revoked', malc_events=[(1.0, 2), (2.5, 1)])"
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        hash(record)


def test_trace_log_copies_and_pickles():
    for capacity in (None, 2):
        log = TraceLog(capacity=capacity)
        for i in range(3):
            log.emit(float(i), "hello", node=i, packet=("HELLO", i))
        for clone in (copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
            assert list(clone) == list(log)
            assert (clone.capacity, clone.total_emitted, clone.peak_resident) == (
                log.capacity, log.total_emitted, log.peak_resident)
            clone.emit(9.0, "hello", node=9)
            assert clone.total_emitted == log.total_emitted + 1
        assert list(copy.copy(log)) == list(log)


def test_node_copies_and_pickles_with_extra_attributes():
    node = Node(4, (1.0, 2.0), mac=None)
    node.frames_received = 7
    node.note = "extra"
    for clone in (copy.copy(node), pickle.loads(pickle.dumps(node))):
        assert (clone.node_id, clone.position, clone.frames_received, clone.alive) == (
            4, (1.0, 2.0), 7, True)
        assert clone.note == "extra"
    muted = MutedNode(5, (0.0, 0.0), mac=None)
    muted.muted = True
    assert not muted.alive and not pickle.loads(pickle.dumps(muted)).alive
