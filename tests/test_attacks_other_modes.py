"""Integration tests for the single-node wormhole modes: high-power
transmission, packet relay, and protocol deviation (rushing)."""

import pytest

from repro.attacks.agents import RushingRouting
from repro.core.config import LiteworpConfig
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.net.packet import Frame, RouteRequest
from repro.net.topology import grid_topology
from repro.routing.config import RoutingConfig
from tests.conftest import Harness


def config(mode, protected=True, seed=5, **kwargs):
    return ScenarioConfig(
        n_nodes=30,
        duration=150.0,
        seed=seed,
        attack_mode=mode,
        n_malicious=1,
        attack_start=30.0,
        defense="liteworp" if protected else "none",
        **kwargs,
    )


# ----------------------------------------------------------------------
# High-power transmission (paper 3.3)
# ----------------------------------------------------------------------
def test_highpower_reaches_distant_nodes_in_baseline():
    scenario = build_scenario(config("highpower", protected=False))
    attacker = scenario.malicious_ids[0]
    received_far = []

    legit = set(scenario.network.neighbors(attacker))

    def spy(frame):
        if frame.transmitter == attacker:
            received_far.append(frame)

    # Attach a spy on some node outside the attacker's legal range.
    far_nodes = [n for n in scenario.network.node_ids() if n not in legit and n != attacker]
    for node in far_nodes:
        scenario.network.node(node).add_observer(spy)
    scenario.run()
    assert received_far  # high-power frames physically reached far nodes


def test_highpower_rejected_by_liteworp_non_neighbor_check():
    scenario = build_scenario(config("highpower", protected=True))
    report = scenario.run()
    attacker = scenario.malicious_ids[0]
    # Far nodes rejected the attacker's frames as non-neighbor.
    rejrelated = [
        record
        for record in scenario.trace.of_kind("frame_rejected")
        if record["reason"] == "nonneighbor" and record["tx"] == attacker
    ]
    assert rejrelated_nonempty(rejrelated=rejrelated)


def rejrelated_nonempty(rejrelated):
    return len(rejrelated) > 0


def test_highpower_attracts_more_routes_than_fair_share_in_baseline():
    baseline = build_scenario(config("highpower", protected=False)).run()
    assert baseline.wormhole_drops >= 0  # attack ran; drops possible
    # The malicious-route fraction should exceed 1/N fair share when the
    # attacker manages to get on routes at all.
    if baseline.malicious_routes:
        assert baseline.fraction_malicious_routes > 1.0 / 30


# ----------------------------------------------------------------------
# Packet relay (paper 3.4)
# ----------------------------------------------------------------------
def test_relay_creates_fake_link_in_baseline():
    scenario = build_scenario(config("relay", protected=False))
    attacker = scenario.relay_attacker
    assert attacker is not None
    scenario.run()
    assert attacker.relayed > 0


def test_relay_victims_are_not_real_neighbors():
    scenario = build_scenario(config("relay", protected=False))
    attacker = scenario.relay_attacker
    a, b = attacker.victims
    assert b not in scenario.network.neighbors(a)
    # ...but both are neighbors of the relay node.
    relay_node = scenario.malicious_ids[0]
    assert a in scenario.network.neighbors(relay_node)
    assert b in scenario.network.neighbors(relay_node)


def test_relay_frames_rejected_by_liteworp():
    scenario = build_scenario(config("relay", protected=True))
    attacker = scenario.relay_attacker
    a, b = attacker.victims
    scenario.run()
    if attacker.relayed == 0:
        pytest.skip("no traffic crossed the victim pair in this horizon")
    # Victim B receives frames claiming transmitter=A: non-neighbor reject.
    rejected = [
        record
        for record in scenario.trace.of_kind("frame_rejected")
        if record["reason"] == "nonneighbor"
        and record["tx"] in (a, b)
        and record["node"] in (a, b)
    ]
    assert rejected


# ----------------------------------------------------------------------
# Protocol deviation / rushing (paper 3.5)
# ----------------------------------------------------------------------
def test_rushing_attacker_gets_on_routes_and_drops():
    baseline = build_scenario(config("rushing", protected=False, seed=9)).run()
    assert baseline.wormhole_drops > 0
    assert baseline.malicious_routes > 0


def test_rushing_not_detected_by_base_liteworp():
    """Paper 4.2.3: LITEWORP cannot detect the protocol-deviation mode."""
    scenario = build_scenario(config("rushing", protected=True, seed=9))
    report = scenario.run()
    attacker = scenario.malicious_ids[0]
    assert report.isolation_latency(attacker) is None
    # No guard ever crossed C_t for the rusher.
    assert scenario.trace.count("guard_detection", accused=attacker) == 0


def test_rushing_detected_with_watch_data_extension():
    """Our extension: watching data packets catches the rusher's drops."""
    lw = LiteworpConfig(watch_data=True)
    scenario = build_scenario(config("rushing", protected=True, seed=9, liteworp=lw))
    report = scenario.run()
    attacker = scenario.malicious_ids[0]
    assert scenario.trace.count("guard_detection", accused=attacker) > 0


def test_inactive_rusher_suppresses_like_an_honest_node():
    """Before activation the rusher forwards as an honest node does: it
    waits its jitter and cancels the rebroadcast once it has overheard
    ``suppression_threshold`` copies.  Once active it rebroadcasts at once."""
    harness = Harness(grid_topology(columns=3, rows=1, spacing=20.0, tx_range=30.0))
    routing = RoutingConfig(forward_jitter=0.5, suppression_threshold=2)
    rusher = RushingRouting(
        harness.sim, harness.node(1), routing, harness.trace, harness.rng.stream("routing:1")
    )
    request = RouteRequest(origin=0, request_id=1, target=9, path=(0,))
    request.key()
    node = harness.node(1)
    node.deliver(Frame(request, 0))
    # Two copies overheard inside the jitter window cancel the rebroadcast.
    for transmitter in (2, 0):
        node.deliver(Frame(request.forwarded_by(transmitter), transmitter))
    harness.run(5.0)
    assert node.mac.sent == 0
    assert rusher._copy_counts == {}

    rusher.activate()
    fresh = RouteRequest(origin=0, request_id=2, target=9, path=(0,))
    fresh.key()
    node.deliver(Frame(fresh, 0))
    harness.run(10.0)
    assert node.mac.sent == 1
