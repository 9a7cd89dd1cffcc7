"""The C medium's prefetch pass against the reference stack.

Before it finishes a transmission's receptions, the medium of a network
of at least 512 nodes walks the receivers and prefetches their state
(``batch_prefetch`` in ``_ckernel.c``, docs/PERFORMANCE.md section 5.15).
The pass only reads, so every scenario here, each large enough for it to
run, must give what the pure-Python reference stack gives: reports,
traces record for record, per-node frame counters and LITEWORP's monitor
counters.  The cases are ``mesh1000``'s configuration on a short horizon,
node ids whose ``__hash__``/``__eq__`` count their calls, receivers that
crash, lose their guard or drop their routing listener in the middle of
a batch, a frame whose packet key is not cached yet, and leashed frames.

Skipped without the C kernel.
"""

import contextlib
import json

import pytest

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.net.network import Network
from repro.net.packet import DataPacket
from repro.net.topology import Topology
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog
from repro.traffic.generator import TrafficConfig

pytestmark = pytest.mark.skipif(not accel.kernel_available(), reason="C kernel unavailable")

#: Nodes in the networks below: the pass runs from 512 on.
NODES = 520


def _stack(stack):
    return accel.reference_mode() if stack == "reference" else contextlib.nullcontext()


def _state(scenario, report):
    agents = scenario.agents
    return {
        "report": json.dumps(report.to_state(), sort_keys=True),
        "records": [(r.time, r.kind, tuple(r.items())) for r in scenario.trace],
        "frames": {
            node_id: (node.frames_received, node.frames_rejected, node.alive)
            for node_id, node in sorted(scenario.network.nodes.items())
        },
        "monitors": {
            node_id: (
                agent.monitor.fabrications_seen, agent.monitor.drops_seen,
                agent.monitor.suppressed_accusations, agent.monitor.malc_total,
                agent.monitor.watch_buffer_peak, dict(agent.rejects),
            )
            for node_id, agent in sorted(agents.items())
        },
        "channel": (scenario.network.channel.transmissions, scenario.network.channel.collisions),
    }


def _run(config, stack, prepare=None):
    with _stack(stack):
        scenario = build_scenario(config)
        if scenario.network.channel._medium is not None:
            assert len(scenario.network.nodes) >= 512
        extra = prepare(scenario) if prepare is not None else None
        report = scenario.run()
    return _state(scenario, report), extra


def _assert_same(config, prepare=None):
    fast, fast_extra = _run(config, "medium", prepare)
    ref, ref_extra = _run(config, "reference", prepare)
    assert fast["report"] == ref["report"]
    assert len(fast["records"]) == len(ref["records"])
    for a, b in zip(fast["records"], ref["records"]):
        assert a == b
    for name in ("frames", "monitors", "channel"):
        assert fast[name] == ref[name], name
    assert fast_extra == ref_extra
    return fast, fast_extra


def _config(**overrides):
    values = dict(
        n_nodes=NODES, avg_neighbors=12.0, duration=30.0, attack_start=20.0,
        n_malicious=2, seed=21, traffic=TrafficConfig(data_rate=1.0 / 200.0),
    )
    values.update(overrides)
    return ScenarioConfig(**values)


def test_mesh1000_matches_reference():
    """``mesh1000``'s configuration (benchmarks/e2e) at seed 4, run to
    30 s instead of 70 s so the reference side stays short."""
    config = ScenarioConfig(
        n_nodes=1000, avg_neighbors=12.0, duration=30.0, attack_start=20.0, n_malicious=4,
        seed=4, traffic=TrafficConfig(data_rate=1.0 / 500.0),
    )
    state, _ = _assert_same(config)
    kinds = [kind for _, kind, _ in state["records"]]
    assert kinds.count("frame_rejected") > 0 and kinds.count("data_delivered") > 0


class CountingId(int):
    """A node id that counts the hashes and comparisons made of it."""

    calls = [0, 0]

    def __hash__(self):
        CountingId.calls[0] += 1
        return int.__hash__(self)

    def __eq__(self, other):
        CountingId.calls[1] += 1
        return int.__eq__(self, other)


def _counting_network(simcls, rounds):
    """NODES nodes on a grid 20 m apart (30 m range), each keeping what it
    hears; twenty of them broadcast ``rounds`` times.  The hash and
    comparison calls made of the ids, and every node's inbox."""
    side = 26
    positions = {CountingId(i): (20.0 * (i % side), 20.0 * (i // side)) for i in range(NODES)}
    sim = simcls()
    network = Network(sim, Topology(positions=positions, tx_range=30.0), RngRegistry(3),
                      trace=TraceLog())
    inboxes = {node_id: [] for node_id in positions}
    for node_id, node in network.nodes.items():
        node.add_listener(lambda frame, box=inboxes[node_id]: box.append(
            (sim.now, int(frame.transmitter), frame.packet.sequence)))
    for k, sender in enumerate(sorted(positions)[::NODES // SENDERS]):
        for repeat in range(rounds):
            # An atomic key, cached as a guard's send tap caches it.
            packet = DataPacket(origin=int(sender), destination=0, sequence=repeat)
            packet.key()
            sim.schedule_at(0.5 * k + 0.01 * repeat, network.node(sender).broadcast, packet)
    CountingId.calls[:] = [0, 0]
    sim.run(until=30.0)
    return tuple(CountingId.calls), {int(n): box for n, box in inboxes.items()}


SENDERS = 20


def test_node_ids_are_not_hashed_or_compared_per_reception():
    """Ids that are not exact ints are never hashed, compared or looked
    up by the pass.  The C stack makes fewer id calls than the reference
    (which looks ids up per reception) with or without it, so the check
    is the C stack's own: a second round of broadcasts, with as many
    receptions as the first, costs one hash per transmission (the radio's
    range lookup for its sender) and nothing per reception."""
    kernel = accel._load()
    one, two = (_counting_network(kernel.Simulator, rounds) for rounds in (1, 2))
    assert two[1] == _counting_network(Simulator, 2)[1]
    receptions = [sum(len(box) for box in state[1].values()) for state in (one, two)]
    assert receptions[1] == 2 * receptions[0] > 5 * SENDERS
    assert two[0][0] - one[0][0] == SENDERS
    assert two[0][1] == one[0][1]


def _mid_batch(action):
    """prepare() for a scenario: when the first neighbour of the busiest
    honest node hears it at or after 21 s, that node's other neighbours
    (later in the same batch) crash, lose their guard and hooks, or drop
    their routing listener.  prepare() returns the list that records the
    firing."""

    def prepare(scenario):
        adjacency = scenario.topology.adjacency()
        bad = set(scenario.malicious_ids)
        busiest = max((n for n in adjacency if n not in bad), key=lambda n: (len(adjacency[n]), n))
        neighbours = [n for n in adjacency[busiest] if n not in bad]
        fired = []

        def trigger(frame, me):
            if fired or frame.transmitter != busiest or scenario.sim.now < 21.0:
                return
            fired.append((scenario.sim.now, me))
            for other in neighbours:
                if other == me:
                    continue
                node = scenario.network.node(other)
                if action == "crash":
                    node.fail()
                elif action == "release":
                    scenario.agents[other].release()
                    node.release()
                else:
                    node._listeners.remove(scenario.routers[other].on_frame)

        for n in neighbours:
            scenario.network.node(n).add_observer(lambda frame, me=n: trigger(frame, me))
        return fired

    return prepare


@pytest.mark.parametrize("action", ["crash", "release", "detach"])
def test_receivers_changed_mid_batch(action):
    _, fired = _assert_same(_config(), _mid_batch(action))
    assert len(fired) == 1


def test_uncached_key():
    """A colluder broadcasts data whose key() computes the key on every
    call and never caches it: the pass skips the watch hashes and each
    guard asks key() itself.  The class is made here, not at module
    level, so no test that walks ``Packet.__subclasses__()`` sees it."""

    class UncachedData(DataPacket):
        __slots__ = ()

        def key(self):
            return self._make_key()

    def prepare(scenario):
        sender = min(scenario.malicious_ids)
        packet = UncachedData(origin=sender, destination=sender, flow_id=77, sequence=1)
        seen = []
        for n in scenario.topology.adjacency()[sender]:
            scenario.network.node(n).add_observer(
                lambda frame, n=n: frame.packet is packet and seen.append((n, packet._key)))
        scenario.sim.schedule_at(22.0, scenario.network.node(sender).broadcast, packet)
        return seen

    _, seen = _assert_same(_config(), prepare)
    assert seen and all(key is None for _, key in seen)


def test_leashed_frames():
    """The temporal leash stamps every frame with a leash."""
    _assert_same(_config(defense="temporal_leash"))
