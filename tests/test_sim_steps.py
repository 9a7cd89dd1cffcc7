"""The medium's own events in the C kernel's queue.

On the C kernel's simulator the channel's ``Medium`` queues its own
events -- a MAC attempt or next-frame step, a forwarder's rebroadcast
decision and the finish of a transmission's receptions -- as bare queue
entries ("steps") without the ``Event`` handle ``schedule`` returns.  The
tests here drive a simulator holding such entries mid-run through
``pending_count``, ``queue_depth``, ``compact()``, ``peek_time()``,
``step()`` and ``release()``, against the same run with the MAC and the
flood kept in Python (whose events are ``Event`` handles) on the same
kernel, and check what a step keeps alive, before and after it runs.
The ``rx_lost`` records the medium builds are untracked by the cyclic
collector; the last tests hold them to the reference stack's records.

Without the C kernel (``REPRO_ACCEL=off``) the scenario tests run on the
reference stack alone; the rest are skipped.
"""

import contextlib
import gc
import sys
import weakref

import pytest

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.net.channel import Channel
from repro.net.mac import MacConfig
from repro.net.network import Network, NetworkConfig
from repro.net.packet import DataPacket, Frame
from repro.net.topology import grid_topology
from repro.routing import ondemand
from repro.routing.config import RoutingConfig
from repro.routing.ondemand import OnDemandRouting
from repro.sim import accel
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

KERNEL = accel.kernel_available()
needs_kernel = pytest.mark.skipif(not KERNEL, reason="C kernel unavailable")


class WeakFrame(Frame):
    """A frame a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)


@contextlib.contextmanager
def _stack(stack):
    """"medium": the MAC and the flood in the medium (steps); "python":
    both kept in Python on the same kernel (Events)."""
    with pytest.MonkeyPatch.context() as patch:
        if stack == "python":
            patch.setattr(Channel, "medium_mac", lambda *args: None)
            patch.setattr(ondemand, "runs_in_medium", lambda agent: False)
        yield


def _flood(routing=None):
    """A 3x3 grid of routing agents on the C kernel, a few discoveries
    under way: MAC backoffs, transmissions and rebroadcast decisions."""
    sim = accel._load().Simulator()
    topology = grid_topology(columns=3, rows=3, spacing=20.0, tx_range=30.0)
    mac = MacConfig(base_backoff=0.004, default_jitter=0.003)
    network = Network(sim, topology, RngRegistry(3), trace=TraceLog(),
                      config=NetworkConfig(mac=mac))
    routers = {
        node_id: OnDemandRouting(
            sim, network.node(node_id), routing or RoutingConfig(), network.trace,
            network.rng.stream(f"routing:{node_id}"),
        )
        for node_id in topology.node_ids
    }
    flows = ((0, 8, 0.0), (6, 2, 0.01), (4, 0, 0.02), (8, 0, 0.5), (2, 6, 1.0), (7, 1, 1.5))
    for origin, destination, at in flows:
        sim.schedule_at(at, routers[origin].send_data, destination)
    return sim, network, routers


def _events_queued(sim):
    """How many of the queue's entries are Events: the queue hands the
    collector each Event it holds, and a step's references instead."""
    return sum(type(ref).__name__ == "Event" for ref in gc.get_referents(sim))


def _view(sim):
    return (sim.now, sim.events_processed, sim.pending_count, sim.queue_depth, sim.peek_time())


def _records(trace):
    return [(r.time, r.kind, r.keys(), tuple(v for _, v in r.items())) for r in trace]


# ----------------------------------------------------------------------
# The queue's API over steps
# ----------------------------------------------------------------------
@needs_kernel
def test_step_and_peek_match_the_python_stack_event_by_event():
    """Stepped one event at a time, a queue holding steps reports the same
    clock, counts and next time as one holding Events for the same
    events, and ends in the same state."""
    views, states, steps = {}, {}, {}
    for stack in ("medium", "python"):
        with _stack(stack):
            sim, network, routers = _flood()
            seen, held = [], 0
            while sim.peek_time() is not None and sim.now < 3.0:
                held = max(held, sim.queue_depth - _events_queued(sim))
                assert sim.step()
                seen.append(_view(sim))
        views[stack], steps[stack] = seen, held
        states[stack] = (_records(network.trace), {
            n: (node.frames_received, node.mac.sent, node.mac.dropped)
            for n, node in network.nodes.items()
        })
    assert len(views["medium"]) > 200
    assert views["medium"] == views["python"]
    assert states["medium"] == states["python"]
    # Both queue each transmission's finish as a step; only the medium
    # queues its MAC steps and decisions that way.
    assert steps["medium"] > steps["python"] > 0


@needs_kernel
def test_compact_keeps_every_step():
    sim, network, routers = _flood()
    sim.run(until=0.03)
    depth, pending = sim.queue_depth, sim.pending_count
    assert depth == pending > _events_queued(sim)
    cancelled = [sim.schedule(0.5 + i, print) for i in range(50)]
    for event in cancelled:
        event.cancel()
    assert sim.queue_depth == depth + 50 and sim.pending_count == pending
    sim.compact()
    assert sim.queue_depth == sim.pending_count == pending
    sim.run(until=6.0)

    reference, _, _ = _flood()
    reference.run(until=6.0)
    assert _view(sim) == _view(reference)


@needs_kernel
def test_release_mid_run_frees_the_steps():
    sim, network, routers = _flood()
    sim.run(until=0.03)
    assert sim.queue_depth > _events_queued(sim)  # steps are queued
    medium = network.channel._medium
    assert medium in gc.get_referents(sim)  # each step holds the medium
    held = sys.getrefcount(medium)
    sim.release()
    assert sys.getrefcount(medium) < held
    assert medium not in gc.get_referents(sim)
    assert (sim.pending_count, sim.queue_depth, sim.peek_time()) == (0, 0, None)
    assert sim.step() is False
    now = sim.now
    sim.run(until=now + 5.0)
    assert sim.now == now + 5.0


@needs_kernel
def test_a_finished_step_keeps_nothing_alive():
    """A transmission's finish holds its frame and the medium only while
    it is queued, and so does a MAC step holding a frame in its queue."""
    sim, network, _ = _flood()
    medium = network.channel._medium
    sim.run()
    baseline = sys.getrefcount(medium)

    direct = WeakFrame(DataPacket(origin=0, destination=8), 0)
    queued = WeakFrame(DataPacket(origin=1, destination=8), 1)
    refs = [weakref.ref(direct), weakref.ref(queued)]
    network.channel.transmit(0, direct)
    network.node(1).raw_send(queued, jitter=0.01)
    del direct, queued
    assert all(ref() is not None for ref in refs)
    assert sys.getrefcount(medium) > baseline
    assert refs[0]() in gc.get_referents(sim)
    sim.run()
    assert [ref() for ref in refs] == [None, None]
    assert sys.getrefcount(medium) == baseline
    assert sim.queue_depth == 0


@needs_kernel
def test_a_failing_step_is_freed_and_stops_the_run():
    sim, network, _ = _flood()
    sim.run()
    frame = WeakFrame(DataPacket(origin=0, destination=8), 0)
    ref = weakref.ref(frame)

    def boom(received):
        raise RuntimeError("listener failed")

    network.node(1).add_listener(boom)
    network.channel.transmit(0, frame)
    del frame
    with pytest.raises(RuntimeError, match="listener failed"):
        sim.run()
    assert ref() is None
    assert sim.queue_depth == sim.pending_count


# ----------------------------------------------------------------------
# A crash during a backoff, then the scenario is dropped
# ----------------------------------------------------------------------
WATCHED = frozenset({
    "repro.experiments.scenario.Scenario",
    "repro.net.node.Node",
    "repro.sim._ckernel.Medium",
    "repro.sim._ckernel.Simulator",
    "repro.sim.engine.Simulator",
    "repro.sim.trace.TraceLog",
})


def _name(obj):
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


def _backing_off(scenario):
    """A live node whose MAC holds frames while it is not on the air."""
    channel = scenario.network.channel
    for node_id, node in sorted(scenario.network.nodes.items()):
        if node.alive and node.mac.queue_length and not channel.is_transmitting(node_id):
            return node
    return None


@pytest.mark.parametrize("reference", [False, True], ids=["kernel", "reference"])
def test_crash_during_a_backoff_then_release_frees_everything(reference):
    config = ScenarioConfig(n_nodes=16, duration=30.0, seed=4, attack_start=10.0)
    stack = accel.reference_mode() if reference else contextlib.nullcontext()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = {id(obj) for obj in gc.get_objects() if _name(obj) in WATCHED}
        with stack:
            scenario = build_scenario(config)
            scenario.traffic.start()
            sim = scenario.sim
            crashed = None
            while crashed is None and sim.step():
                crashed = _backing_off(scenario) if sim.now > 11.0 else None
            assert crashed is not None
            crashed.fail()
            sim.run(until=sim.now + 0.001)
            assert sim.pending_count > 0
            del sim, crashed
            del scenario
        alive = sorted(
            _name(obj) for obj in gc.get_objects()
            if _name(obj) in WATCHED and id(obj) not in before
        )
        assert alive == []
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# The medium's rx_lost records are untracked
# ----------------------------------------------------------------------
def _lossy(reference):
    config = ScenarioConfig(n_nodes=24, duration=60.0, seed=5, attack_start=15.0,
                            n_malicious=2, defense="liteworp")
    stack = accel.reference_mode() if reference else contextlib.nullcontext()
    with stack:
        scenario = build_scenario(config)
        scenario.run()
    return scenario


@needs_kernel
def test_rx_lost_records_are_untracked_and_equal_the_reference():
    fast, ref = _lossy(False), _lossy(True)
    lost = fast.trace.of_kind("rx_lost")
    assert len(lost) > 100
    assert not any(gc.is_tracked(record) for record in lost)
    assert not any(gc.is_tracked(record._values) for record in lost)
    assert lost == ref.trace.of_kind("rx_lost")
    assert _records(fast.trace) == _records(ref.trace)
    # Other records are built by TraceLog.emit and tracked as usual.
    assert any(gc.is_tracked(r) for r in fast.trace if r.kind != "rx_lost")


class ListKeyPacket(DataPacket):
    """A packet whose key holds a list, which could be in a cycle."""

    __slots__ = ()

    def key(self):
        return ("LISTKEY", [self.origin, self.sequence])


@needs_kernel
def test_a_record_holding_a_container_stays_tracked():
    """Only a record of atomic values and tuples of them can be in no
    cycle; one whose packet key holds a list stays tracked."""
    sim = accel._load().Simulator()
    topology = grid_topology(columns=2, rows=1, spacing=20.0, tx_range=30.0)
    network = Network(sim, topology, RngRegistry(0), trace=TraceLog())
    # Simultaneous, so each node misses the other's frame.
    network.channel.transmit(0, Frame(ListKeyPacket(origin=0, destination=1), 0))
    network.channel.transmit(1, Frame(DataPacket(origin=1, destination=0), 1))
    sim.run()
    lost = {record["receiver"]: record for record in network.trace.of_kind("rx_lost")}
    assert set(lost) == {0, 1}
    assert gc.is_tracked(lost[1]) and lost[1]["packet"] == ("LISTKEY", [0, 0])
    assert not gc.is_tracked(lost[0])


@pytest.mark.parametrize("reference", [False, True], ids=["kernel", "reference"])
def test_collection_after_a_run_finds_nothing(reference):
    enabled = gc.isenabled()
    gc.collect()
    try:
        scenario = _lossy(reference)
        assert scenario.trace.count("rx_lost") > 0
        del scenario
        gc.disable()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
