"""Tests for the composed LITEWORP agent: legitimacy filters, send vetoes,
and routing integration.

Every test runs on both receive hooks: the module-level tests on the
pure-Python simulator (``LiteworpAgent._receive``) and again, through
``TestOnCKernel`` at the bottom, on the C kernel's simulator, where the
monitor's C ``Guard`` is the receive hook.
"""

import pytest

from repro.core.agent import LiteworpAgent
from repro.core.config import LiteworpConfig
from repro.core.liveness import ALIVE, SUSPECT
from repro.crypto.keys import PairwiseKeyManager
from repro.net.packet import DataPacket, Frame, RouteReply, RouteRequest
from repro.net.topology import grid_topology
from repro.routing.config import RoutingConfig
from repro.routing.ondemand import OnDemandRouting
from repro.sim import accel
from tests.conftest import Harness


def build_agent(harness, node_id, config=None, keys=None):
    keys = keys or PairwiseKeyManager()
    agent = LiteworpAgent(
        harness.sim,
        harness.node(node_id),
        keys.enroll(node_id),
        config or LiteworpConfig(),
        harness.trace,
    )
    agent.install_oracle(harness.topology.adjacency())
    return agent


def test_non_neighbor_frames_rejected():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    agent = build_agent(harness, 1)
    seen = []
    harness.node(1).add_listener(seen.append)
    # A frame claiming to come from node 99 (not a neighbor).
    ghost = Frame(packet=RouteRequest(origin=99, request_id=1, target=1), transmitter=99)
    harness.node(1).deliver(ghost)
    assert seen == []
    assert agent.rejects["nonneighbor"] == 1
    assert harness.trace.count("frame_rejected", reason="nonneighbor") == 1


def test_second_hop_check_rejects_unknown_prev():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    agent = build_agent(harness, 0)
    seen = []
    harness.node(0).add_listener(seen.append)
    # Node 1 claims the packet came from 77, which is not in R_1.
    frame = Frame(
        packet=RouteRequest(origin=9, request_id=1, target=0),
        transmitter=1,
        prev_hop=77,
    )
    harness.node(0).deliver(frame)
    assert seen == []
    assert agent.rejects["secondhop"] == 1


def test_second_hop_check_accepts_known_prev():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    agent = build_agent(harness, 0)
    seen = []
    harness.node(0).add_listener(seen.append)
    # Node 1's real neighbors are {0, 2}; claiming prev=2 is plausible.
    frame = Frame(
        packet=RouteRequest(origin=9, request_id=1, target=0),
        transmitter=1,
        prev_hop=2,
    )
    harness.node(0).deliver(frame)
    assert len(seen) == 1


def test_second_hop_check_can_be_disabled():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    agent = build_agent(harness, 0, config=LiteworpConfig(second_hop_check=False))
    seen = []
    harness.node(0).add_listener(seen.append)
    frame = Frame(
        packet=RouteRequest(origin=9, request_id=1, target=0), transmitter=1, prev_hop=77
    )
    harness.node(0).deliver(frame)
    assert len(seen) == 1


def test_revoked_transmitter_rejected():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    agent = build_agent(harness, 0)
    agent.table.revoke(1)
    seen = []
    harness.node(0).add_listener(seen.append)
    frame = Frame(packet=RouteRequest(origin=1, request_id=1, target=0), transmitter=1)
    harness.node(0).deliver(frame)
    assert seen == []
    assert agent.rejects["revoked"] == 1


def test_guard_watches_frames_it_rejects_as_revoked():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    agent = build_agent(harness, 0)
    reply = RouteReply(origin=2, request_id=1, target=0)
    # Handing the reply to 1 makes node 0 a guard expecting 1 to forward it.
    assert harness.node(0).unicast(reply, next_hop=1, jitter=0.0)
    assert agent.monitor.watch_buffer_size == 1
    agent.table.revoke(1)
    seen = []
    harness.node(0).add_listener(seen.append)
    forward = Frame(packet=reply, transmitter=1, link_dst=2, prev_hop=0)
    harness.node(0).deliver(forward)
    assert seen == []
    assert agent.rejects["revoked"] == 1
    # The rejected forward still reached the monitor.
    assert agent.monitor.heard_transmission(reply.key(), 1)
    assert agent.monitor.watch_buffer_size == 0


def test_frame_rejected_by_second_hop_check_is_a_life_sign():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    config = LiteworpConfig(
        heartbeat_period=0.5, liveness_timeout_beats=3.0, probe_backoff=10.0
    )
    agent = build_agent(harness, 0, config=config)
    # Node 1 runs no agent, so it never beats and goes SUSPECT.
    harness.run(3.0)
    assert agent.liveness.state_of(1) == SUSPECT
    frame = Frame(
        packet=RouteRequest(origin=9, request_id=1, target=0),
        transmitter=1,
        prev_hop=77,
    )
    harness.node(0).deliver(frame)
    assert agent.rejects["secondhop"] == 1
    assert agent.liveness.state_of(1) == ALIVE


def test_send_to_revoked_vetoed():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    agent = build_agent(harness, 0)
    agent.table.revoke(1)
    sent = harness.node(0).unicast(
        DataPacket(origin=0, destination=1), next_hop=1, jitter=0.0
    )
    assert not sent
    assert harness.trace.count("send_blocked", node=0) == 1


def test_broadcasts_not_vetoed_by_revocation():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    agent = build_agent(harness, 0)
    agent.table.revoke(1)
    sent = harness.node(0).broadcast(
        RouteRequest(origin=0, request_id=1, target=2), jitter=0.0
    )
    assert sent


def test_inactive_agent_accepts_everything():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    keys = PairwiseKeyManager()
    agent = LiteworpAgent(
        harness.sim, harness.node(1), keys.enroll(1), LiteworpConfig(), harness.trace
    )
    # No oracle install, no discovery: not yet activated.
    seen = []
    harness.node(1).add_listener(seen.append)
    frame = Frame(packet=RouteRequest(origin=99, request_id=1, target=1), transmitter=99)
    harness.node(1).deliver(frame)
    assert len(seen) == 1


def test_attach_router_blocks_revoked_next_hops():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    agent = build_agent(harness, 0)
    router = OnDemandRouting(
        harness.sim, harness.node(0), RoutingConfig(), harness.trace,
        harness.rng.stream("r0"),
    )
    agent.attach_router(router)
    assert router.usable(1)
    agent.table.revoke(1)
    assert not router.usable(1)


def test_attach_router_evicts_routes_on_revocation():
    harness = Harness(grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0))
    agent = build_agent(harness, 0, config=LiteworpConfig(theta=1))
    router = OnDemandRouting(
        harness.sim, harness.node(0), RoutingConfig(), harness.trace,
        harness.rng.stream("r0"),
    )
    agent.attach_router(router)
    router.routes.install(destination=2, next_hop=1, now=0.0)
    agent.isolation.handle_local_detection(1)
    assert router.routes.lookup(2, now=0.1) is None


def test_is_usable_before_activation():
    harness = Harness(grid_topology(columns=2, rows=1, spacing=25.0, tx_range=30.0))
    keys = PairwiseKeyManager()
    agent = LiteworpAgent(
        harness.sim, harness.node(0), keys.enroll(0), LiteworpConfig(), harness.trace
    )
    assert agent.is_usable(1)  # everything usable pre-activation


# ----------------------------------------------------------------------
# Every module-level test above, again on the C kernel's guard
# ----------------------------------------------------------------------
@pytest.mark.skipif(not accel.kernel_available(), reason="C kernel unavailable")
class TestOnCKernel:
    """The module-level tests, with the harness on the C kernel's simulator."""

    @pytest.fixture(autouse=True)
    def _ckernel(self, monkeypatch):
        monkeypatch.setattr(Harness, "simcls", accel._load().Simulator)


for _name, _test in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestOnCKernel, _name, staticmethod(_test))
