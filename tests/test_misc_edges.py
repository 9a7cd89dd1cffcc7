"""Targeted edge-case tests for paths not covered elsewhere."""

import pytest

from repro.defenses.leash import LeashAgent, LeashConfig
from repro.experiments.figures import _sample_times
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.net.packet import DataPacket, Frame, RouteReply
from repro.net.topology import grid_topology
from tests.conftest import Harness


# ----------------------------------------------------------------------
# Channel frame stamper
# ----------------------------------------------------------------------
def test_channel_stamper_rewrites_frames():
    harness = Harness(grid_topology(columns=2, rows=1, spacing=10.0, tx_range=30.0))
    stamped = []

    def stamper(frame):
        new = Frame(packet=frame.packet, transmitter=frame.transmitter,
                    link_dst=frame.link_dst, prev_hop=99)
        stamped.append(new)
        return new

    harness.network.channel.set_frame_stamper(0, stamper)
    seen = []
    harness.node(1).add_listener(seen.append)
    harness.node(0).broadcast(DataPacket(origin=0, destination=1), jitter=0.0)
    harness.run(1.0)
    assert len(stamped) == 1
    assert seen[0].prev_hop == 99


def test_stamper_applies_at_transmission_not_submission():
    """The stamp happens after MAC queueing: a leash's send time is the
    real air time."""
    harness = Harness(grid_topology(columns=2, rows=1, spacing=10.0, tx_range=30.0))
    config = LeashConfig(comm_range=30.0)
    agent = LeashAgent(
        harness.sim, harness.node(0), harness.network.radio, config,
        harness.trace, verify_incoming=False,
    )
    harness.network.channel.set_frame_stamper(0, agent.stamp)
    seen = []
    harness.node(1).add_listener(seen.append)
    # Queue with a long jitter: submission at t=0, transmission at ~2 s.
    harness.node(0).broadcast(DataPacket(origin=0, destination=1), jitter=2.0)
    harness.run(5.0)
    assert len(seen) == 1
    assert seen[0].leash.sent_at > 0.0


# ----------------------------------------------------------------------
# Figure helpers
# ----------------------------------------------------------------------
def test_sample_times_covers_horizon():
    times = _sample_times(100.0, 30.0)
    assert times == [30.0, 60.0, 90.0, 100.0]


def test_sample_times_exact_multiple():
    times = _sample_times(90.0, 30.0)
    assert times == [30.0, 60.0, 90.0]


def test_sample_times_short_duration():
    assert _sample_times(10.0, 30.0) == [10.0]


# ----------------------------------------------------------------------
# Temporal-leash scenario wiring
# ----------------------------------------------------------------------
def test_temporal_leash_defense_builds_and_runs():
    config = ScenarioConfig(
        n_nodes=20, duration=80.0, seed=3, attack_mode="none", n_malicious=0,
        defense="temporal_leash",
    )
    scenario = build_scenario(config)
    report = scenario.run()
    assert scenario.leash_agents
    for agent in scenario.leash_agents.values():
        assert agent.config.kind == "temporal"
    # The network still functions under temporal leashes.
    assert report.delivered > 0


def test_removed_legacy_flag_raises_pointed_error():
    # The pre-registry boolean is gone: any spelling fails at
    # construction with a message pointing at defense=.
    for value in (True, False):
        with pytest.raises(ValueError, match="defense='liteworp'"):
            ScenarioConfig(n_nodes=20, liteworp_enabled=value)
    with pytest.raises(ValueError, match="liteworp_enabled was removed"):
        ScenarioConfig(n_nodes=20, liteworp_enabled=False, defense="geo_leash")


def test_unknown_defense_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(defense="prayer")


# ----------------------------------------------------------------------
# Reply handling edge: duplicate REP after route installed
# ----------------------------------------------------------------------
def test_duplicate_reply_reinstalls_route_without_error():
    from repro.routing.config import RoutingConfig
    from repro.routing.ondemand import OnDemandRouting

    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    routers = {
        n: OnDemandRouting(harness.sim, harness.node(n), RoutingConfig(),
                           harness.trace, harness.rng.stream(f"r{n}"))
        for n in harness.topology.node_ids
    }
    routers[0].send_data(2)
    harness.run(10.0)
    assert harness.trace.count("route_established", origin=0) == 1
    # A duplicate REP arrives (e.g. a late retransmission).
    rep = RouteReply(origin=0, request_id=1, target=2, hop_count=2, path=(0, 1, 2))
    routers[0]._on_reply(Frame(packet=rep, transmitter=1, link_dst=0), rep)  # noqa: SLF001
    assert harness.trace.count("route_established", origin=0) == 2
    assert routers[0].has_route(2)


# ----------------------------------------------------------------------
# Relay alert forwarding refuses revoked recipients
# ----------------------------------------------------------------------
def test_alert_relay_skips_revoked_recipient():
    from repro.core.agent import LiteworpAgent
    from repro.core.config import LiteworpConfig
    from repro.crypto.auth import Authenticator
    from repro.crypto.keys import PairwiseKeyManager
    from repro.net.packet import AlertPacket

    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    keys = PairwiseKeyManager()
    adjacency = harness.topology.adjacency()
    agents = {}
    for node_id in harness.topology.node_ids:
        agent = LiteworpAgent(
            harness.sim, harness.node(node_id), keys.enroll(node_id),
            LiteworpConfig(theta=1), harness.trace,
        )
        agent.install_oracle(adjacency)
        agents[node_id] = agent
    # Node 1 (the relay) has revoked node 2 and will not forward to it.
    agents[1].table.revoke(2)
    key = keys.pairwise_key(0, 2)
    alert = AlertPacket(
        guard=0, accused=1, recipient=2,
        auth=Authenticator.tag(key, "alert", 0, 1, 2),
        relay_via=1,
    )
    harness.node(0).unicast(alert, next_hop=1, jitter=0.0)
    harness.run(5.0)
    assert agents[2].table.alert_count(1) == 0
