"""Unit tests for network assembly."""

import pytest

from repro.net.network import Network
from repro.net.topology import grid_topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def build():
    topo = grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0)
    return Network(Simulator(), topo, RngRegistry(0)), topo


def test_one_node_per_placement():
    network, topo = build()
    assert set(network.node_ids()) == set(topo.node_ids)
    for node_id in topo.node_ids:
        assert network.node(node_id).position == topo.positions[node_id]


def test_neighbors_match_topology():
    network, topo = build()
    assert set(network.neighbors(1)) == {0, 2}


def test_frames_flow_between_nodes():
    network, _ = build()
    from repro.net.packet import HelloPacket
    seen = []
    network.node(1).add_listener(seen.append)
    network.node(0).broadcast(HelloPacket(sender=0), jitter=0.0)
    network.sim.run()
    assert len(seen) == 1


def test_set_high_power_extends_reach():
    network, _ = build()
    from repro.net.packet import HelloPacket
    seen = []
    network.node(2).add_listener(seen.append)
    network.set_high_power(0, 2.0)
    network.node(0).broadcast(
        HelloPacket(sender=0), jitter=0.0, tx_range=network.radio.tx_range(0)
    )
    network.sim.run()
    assert len(seen) == 1  # 50 m away but high-power reaches 60 m


def test_set_high_power_invalid():
    network, _ = build()
    with pytest.raises(ValueError):
        network.set_high_power(0, 0)


def test_emit_stamps_time():
    network, _ = build()
    network.sim.schedule(2.0, network.emit, "checkpoint", foo=1)
    network.sim.run()
    record = network.trace.first("checkpoint")
    assert record is not None and record.time == 2.0 and record["foo"] == 1


def test_crashed_node_gets_no_reception_until_it_recovers():
    from repro.net.packet import HelloPacket
    network, _ = build()
    heard = []
    network.channel.add_reception_observer(lambda r: heard.append(r.receiver))
    network.node(1).fail()
    network.node(0).broadcast(HelloPacket(sender=0), jitter=0.0)
    network.sim.run()
    assert 1 not in heard
    network.node(1).recover()
    network.node(0).broadcast(HelloPacket(sender=0), jitter=0.0)
    network.sim.run()
    assert heard.count(1) == 1


def test_channel_sees_the_crash_before_agent_listeners_run():
    network, _ = build()
    node = network.node(1)
    seen = []
    node.add_lifecycle_listener(lambda alive: seen.append(1 in network.channel._deaf))
    node.fail()
    node.recover()
    assert seen == [True, False]
