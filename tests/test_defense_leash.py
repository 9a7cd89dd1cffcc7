"""Tests for the packet-leash baseline defense."""

import pytest

from repro.crypto.auth import Authenticator
from repro.defenses.leash import (
    GEO_LEASH_BYTES,
    Leash,
    LeashAgent,
    LeashConfig,
)
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.net.packet import DataPacket, Frame
from repro.net.topology import grid_topology
from tests.conftest import Harness


def build_agent(kind="geographic", positions=None, **cfg):
    harness = Harness(
        grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0)
        if positions is None
        else __import__("repro.net.topology", fromlist=["Topology"]).Topology(
            positions=positions, tx_range=30.0
        )
    )
    config = LeashConfig(kind=kind, comm_range=30.0, **cfg)
    agent = LeashAgent(harness.sim, harness.node(0), harness.network.radio,
                       config, harness.trace)
    return harness, agent


def leashed_frame(agent, transmitter, position, sent_at, link_dst=None):
    leash = Leash(
        sender=transmitter,
        position=position,
        sent_at=sent_at,
        auth=Authenticator.tag(
            agent.leash_key, "leash", transmitter, position[0], position[1], sent_at
        ),
    )
    return Frame(
        packet=DataPacket(origin=transmitter, destination=0),
        transmitter=transmitter,
        link_dst=link_dst,
        leash=leash,
    )


def test_valid_local_frame_accepted():
    harness, agent = build_agent()
    frame = leashed_frame(agent, transmitter=1, position=(25.0, 0.0), sent_at=0.0)
    harness.node(0).deliver(frame)
    assert agent.accepted == 1


def test_distant_leash_rejected_geographic():
    harness, agent = build_agent()
    frame = leashed_frame(agent, transmitter=1, position=(500.0, 0.0), sent_at=0.0)
    harness.node(0).deliver(frame)
    assert agent.rejected_distance == 1
    assert harness.trace.count("leash_rejected", reason="distance") == 1


def test_missing_leash_rejected():
    harness, agent = build_agent()
    bare = Frame(packet=DataPacket(origin=1, destination=0), transmitter=1)
    harness.node(0).deliver(bare)
    assert agent.rejected_missing == 1


def test_missing_leash_tolerated_when_not_required():
    harness, agent = build_agent(require_leash=False)
    bare = Frame(packet=DataPacket(origin=1, destination=0), transmitter=1)
    seen = []
    harness.node(0).add_listener(seen.append)
    harness.node(0).deliver(bare)
    assert len(seen) == 1


def test_forged_leash_rejected():
    harness, agent = build_agent()
    frame = leashed_frame(agent, transmitter=1, position=(25.0, 0.0), sent_at=0.0)
    forged = Frame(
        packet=frame.packet,
        transmitter=1,
        leash=Leash(sender=1, position=(25.0, 0.0), sent_at=0.0,
                    auth=Authenticator.forge()),
    )
    harness.node(0).deliver(forged)
    assert agent.rejected_auth == 1


def test_spoofed_sender_rejected():
    """A leash authenticating node 2 on a frame claiming transmitter 1."""
    harness, agent = build_agent()
    good = leashed_frame(agent, transmitter=2, position=(25.0, 0.0), sent_at=0.0)
    spoofed = Frame(packet=good.packet, transmitter=1, leash=good.leash)
    harness.node(0).deliver(spoofed)
    assert agent.rejected_auth == 1
    assert harness.trace.count("leash_rejected", reason="spoof") == 1


def test_speed_bound_slackens_geographic_check():
    harness, agent = build_agent(speed_bound=10.0)
    harness.sim.run(until=1.0)
    # Sent 1 s ago from 35 m away: 30 + 10 * (1 + eps) >= 35 -> accepted.
    frame = leashed_frame(agent, transmitter=1, position=(35.0, 0.0), sent_at=0.0)
    harness.node(0).deliver(frame)
    assert agent.accepted == 1


def test_temporal_leash_rejects_stale_frames():
    harness, agent = build_agent(kind="temporal", processing_budget=0.002,
                                 clock_error=0.0001)
    frame = leashed_frame(agent, transmitter=1, position=(25.0, 0.0), sent_at=0.0)
    harness.sim.run(until=1.0)  # the frame is now 1 s old: replayed
    harness.node(0).deliver(frame)
    assert agent.rejected_age == 1


def test_temporal_leash_accepts_fresh_frames():
    harness, agent = build_agent(kind="temporal", processing_budget=0.005)
    frame = leashed_frame(agent, transmitter=1, position=(25.0, 0.0), sent_at=0.0)
    # Deliver right after the air time (no sim advance past duration).
    harness.node(0).deliver(frame)
    assert agent.accepted == 1


def test_stamp_attaches_truthful_leash_and_counts_overhead():
    harness, agent = build_agent()
    bare = Frame(packet=DataPacket(origin=0, destination=1), transmitter=0)
    stamped = agent.stamp(bare)
    assert stamped.leash is not None
    assert stamped.leash.sender == 0
    assert stamped.leash.position == harness.network.radio.position(0)
    assert stamped.size_bytes == bare.size_bytes + GEO_LEASH_BYTES
    assert agent.bytes_overhead == GEO_LEASH_BYTES


def test_config_validation():
    with pytest.raises(ValueError):
        LeashConfig(kind="quantum")
    with pytest.raises(ValueError):
        LeashConfig(comm_range=0)
    with pytest.raises(ValueError):
        LeashConfig(clock_error=-1)
    with pytest.raises(ValueError):
        LeashConfig(bandwidth_bps=0)


# ----------------------------------------------------------------------
# Full-scenario comparisons (the paper's related-work claims, measured)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def relay_under_geo_leash():
    config = ScenarioConfig(
        n_nodes=30, duration=150.0, seed=5, attack_mode="relay",
        n_malicious=1, attack_start=30.0, defense="geo_leash",
    )
    scenario = build_scenario(config)
    report = scenario.run()
    return scenario, report


def test_geo_leash_defeats_relay_wormhole(relay_under_geo_leash):
    """Relayed frames die either way the attacker plays it: re-stamping
    them makes the leash contradict the claimed transmitter (spoof), and
    leaving the victim's original leash makes the distance check fail."""
    scenario, report = relay_under_geo_leash
    rejections = sum(
        la.rejected_distance + la.rejected_auth
        for la in scenario.leash_agents.values()
    )
    assert rejections > 0
    assert report.wormhole_drops == 0


def test_geo_leash_cannot_stop_insider_tunnel():
    """The paper's critique: leashes do not neutralise compromised nodes.
    Two colluding insiders re-leash tunnelled traffic as their own and the
    wormhole works as if unprotected."""
    unprotected = build_scenario(
        ScenarioConfig(n_nodes=30, duration=150.0, seed=5, attack_start=30.0,
                       defense="none")
    ).run()
    leashed = build_scenario(
        ScenarioConfig(n_nodes=30, duration=150.0, seed=5, attack_start=30.0,
                       defense="geo_leash")
    ).run()
    assert leashed.wormhole_drops > unprotected.wormhole_drops * 0.5
    assert leashed.isolation_times == {}  # and nobody is ever isolated


def test_leash_adds_per_packet_overhead_liteworp_does_not():
    leashed_scenario = build_scenario(
        ScenarioConfig(n_nodes=20, duration=100.0, seed=5, attack_mode="none",
                       n_malicious=0, defense="geo_leash")
    )
    leashed_scenario.run()
    leash_bytes = sum(la.bytes_overhead for la in leashed_scenario.leash_agents.values())
    assert leash_bytes > 0
    # LITEWORP's steady-state per-packet overhead is zero by construction:
    # it adds no fields to any packet (Frame.leash is None throughout).
    lw_scenario = build_scenario(
        ScenarioConfig(n_nodes=20, duration=100.0, seed=5, attack_mode="none",
                       n_malicious=0, defense="liteworp")
    )
    observed = []
    lw_scenario.network.channel.add_tx_observer(
        lambda s, f, t: observed.append(f.leash)
    )
    lw_scenario.run()
    assert all(leash is None for leash in observed)
