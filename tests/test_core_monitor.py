"""Unit tests for the local monitor (guard logic).

The monitor is driven directly with hand-built frames — no radio — so each
behaviour (fabrication, drop, clearing, grace suppression, windows) is
isolated.

Every test that builds a monitor runs twice: at module level on the
pure-Python simulator (the Python judgement body) and again, through
``TestOnCKernel`` at the bottom, on the C kernel's simulator, where the
monitor's C ``Guard`` judges each frame.
"""

import inspect

import pytest

from repro.core import monitor as monitor_module
from repro.core.config import LiteworpConfig
from repro.core.monitor import WATCH_SAMPLE_PERIOD, LocalMonitor
from repro.core.tables import NeighborTable
from repro.net import packet as packet_module
from repro.net.packet import (
    DataPacket,
    Frame,
    Packet,
    RouteErrorPacket,
    RouteReply,
    RouteRequest,
)
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog


GUARD = 0

# The simulator class build() uses; TestOnCKernel swaps in the C kernel's
# for the duration of each of its tests.
_default_simcls = [Simulator]


def build(config=None, neighbors=(1, 2, 3)):
    sim = _default_simcls[0]()
    trace = TraceLog()
    table = NeighborTable(owner=GUARD)
    for n in neighbors:
        table.add_neighbor(n)
    detections = []
    monitor = LocalMonitor(
        sim, GUARD, table, config or LiteworpConfig(), trace, detections.append
    )
    return sim, monitor, table, detections, trace


def req(origin=9, rid=1):
    return RouteRequest(origin=origin, request_id=rid, target=8, hop_count=0)


def rep(origin=9, rid=1, target=8):
    return RouteReply(origin=origin, request_id=rid, target=target, hop_count=3)


def test_truthful_forward_not_accused():
    sim, monitor, table, detections, _ = build()
    packet = req()
    # Guard hears node 1 transmit, then node 2 forward claiming prev=1.
    monitor.observe(Frame(packet=packet, transmitter=1))
    monitor.observe(Frame(packet=packet, transmitter=2, prev_hop=1))
    assert monitor.fabrications_seen == 0
    assert table.malc(2, sim.now, 200.0) == 0


def test_fabrication_detected():
    sim, monitor, table, detections, trace = build()
    packet = req()
    # Node 2 forwards claiming prev=1, but 1 never transmitted it.
    monitor.observe(Frame(packet=packet, transmitter=2, prev_hop=1))
    assert monitor.fabrications_seen == 1
    assert table.malc(2, sim.now, 200.0) == LiteworpConfig().v_fabricate
    record = trace.first("malc_increment", reason="fabrication")
    assert record is not None and record["accused"] == 2


def test_fabrication_requires_guard_position():
    sim, monitor, table, detections, _ = build(neighbors=(2,))
    # Claimed prev-hop 1 is NOT our neighbor: we cannot judge.
    monitor.observe(Frame(packet=req(), transmitter=2, prev_hop=1))
    assert monitor.fabrications_seen == 0


def test_fabrication_by_non_neighbor_ignored():
    sim, monitor, table, detections, _ = build(neighbors=(1,))
    monitor.observe(Frame(packet=req(), transmitter=7, prev_hop=1))
    assert monitor.fabrications_seen == 0


def test_originated_packets_never_fabrications():
    sim, monitor, table, detections, _ = build()
    monitor.observe(Frame(packet=req(), transmitter=2, prev_hop=None))
    assert monitor.fabrications_seen == 0


def test_own_transmission_satisfies_fabrication_check():
    sim, monitor, table, detections, _ = build()
    packet = rep()
    monitor.observe_own(Frame(packet=packet, transmitter=GUARD, link_dst=2))
    # Node 2 forwards claiming prev=GUARD: fine, we really sent it...
    # (GUARD is not its own neighbor, so use a neighbor claim instead.)
    assert monitor.heard_transmission(packet.key(), GUARD)


def test_drop_detected_after_deadline():
    config = LiteworpConfig(delta=0.5)
    sim, monitor, table, detections, trace = build(config)
    packet = rep(origin=9)
    # Node 1 hands the reply to node 2 (2 is not the reply's origin).
    monitor.observe(Frame(packet=packet, transmitter=1, link_dst=2, prev_hop=None))
    assert monitor.watch_buffer_size == 1
    sim.run(until=1.0)
    assert monitor.drops_seen == 1
    assert table.malc(2, sim.now, 200.0) == config.v_drop
    assert monitor.watch_buffer_size == 0


def test_watch_buffer_gauge_sampled_and_throttled():
    config = LiteworpConfig(delta=10.0)
    sim, monitor, table, detections, trace = build(config)
    # First insertion emits immediately (size 0 -> 1).
    monitor.observe(Frame(packet=rep(rid=1), transmitter=1, link_dst=2))
    gauges = trace.of_kind("watch_buffer")
    assert len(gauges) == 1
    assert gauges[0]["guard"] == GUARD
    assert gauges[0]["size"] == 1
    # More churn within the sample period stays silent...
    monitor.observe(Frame(packet=rep(rid=2), transmitter=1, link_dst=2))
    monitor.observe(Frame(packet=rep(rid=3), transmitter=1, link_dst=2))
    assert len(trace.of_kind("watch_buffer")) == 1
    # ...but once the period elapses the next size change is recorded.
    sim.run(until=WATCH_SAMPLE_PERIOD + 0.1)
    monitor.observe(Frame(packet=rep(rid=4), transmitter=1, link_dst=2))
    gauges = trace.of_kind("watch_buffer")
    assert len(gauges) == 2
    assert gauges[-1]["size"] == 4
    assert gauges[-1]["peak"] == 4


def test_watch_buffer_gauge_skips_unchanged_size():
    config = LiteworpConfig(delta=0.2)
    sim, monitor, table, detections, trace = build(config)
    monitor.observe(Frame(packet=rep(rid=1), transmitter=1, link_dst=2))
    assert len(trace.of_kind("watch_buffer")) == 1  # 0 -> 1 emits
    # The 0.2 s drop deadline empties the buffer inside the throttle
    # window (no gauge), so a later insertion restoring the last-sampled
    # size (1) is also silent: the gauge records changes relative to the
    # last *emitted* sample, not every transition.
    sim.run(until=2.0)
    monitor.observe(Frame(packet=rep(rid=2), transmitter=1, link_dst=2))
    assert len(trace.of_kind("watch_buffer")) == 1


def test_forward_clears_watch_entry():
    config = LiteworpConfig(delta=0.5)
    sim, monitor, table, detections, _ = build(config)
    packet = rep(origin=3)  # node 3 is the reply's terminal consumer
    monitor.observe(Frame(packet=packet, transmitter=1, link_dst=2, prev_hop=None))
    sim.run(until=0.1)
    monitor.observe(Frame(packet=packet, transmitter=2, link_dst=3, prev_hop=1))
    sim.run(until=2.0)
    assert monitor.drops_seen == 0


def test_reply_terminal_consumer_not_watched():
    sim, monitor, table, detections, _ = build()
    packet = rep(origin=2)  # node 2 IS the reply's origin
    monitor.observe(Frame(packet=packet, transmitter=1, link_dst=2))
    assert monitor.watch_buffer_size == 0


def test_data_not_watched_by_default():
    sim, monitor, table, detections, _ = build()
    data = DataPacket(origin=9, destination=8, flow_id=8, sequence=1)
    monitor.observe(Frame(packet=data, transmitter=1, link_dst=2))
    assert monitor.watch_buffer_size == 0


def test_data_watched_with_extension():
    config = LiteworpConfig(watch_data=True)
    sim, monitor, table, detections, _ = build(config)
    data = DataPacket(origin=9, destination=8, flow_id=8, sequence=1)
    monitor.observe(Frame(packet=data, transmitter=1, link_dst=2))
    assert monitor.watch_buffer_size == 1
    sim.run(until=2.0)
    assert monitor.drops_seen == 1


def test_data_terminal_consumer_not_watched_with_extension():
    config = LiteworpConfig(watch_data=True)
    sim, monitor, table, detections, _ = build(config)
    data = DataPacket(origin=9, destination=2, flow_id=2, sequence=1)
    monitor.observe(Frame(packet=data, transmitter=1, link_dst=2))
    assert monitor.watch_buffer_size == 0


def test_route_error_clears_expectation():
    config = LiteworpConfig(delta=0.5)
    sim, monitor, table, detections, _ = build(config)
    packet = rep(origin=9)
    monitor.observe(Frame(packet=packet, transmitter=1, link_dst=2))
    rerr = RouteErrorPacket(reporter=2, inner_key=packet.key())
    monitor.observe(Frame(packet=rerr, transmitter=2))
    sim.run(until=2.0)
    assert monitor.drops_seen == 0


def test_detection_fires_at_threshold():
    config = LiteworpConfig(c_t=4, v_fabricate=2)
    sim, monitor, table, detections, _ = build(config)
    monitor.observe(Frame(packet=req(rid=1), transmitter=2, prev_hop=1))
    assert detections == []
    monitor.observe(Frame(packet=req(rid=2), transmitter=2, prev_hop=1))
    assert detections == [2]
    assert monitor.has_detected(2)


def test_detection_fires_once():
    config = LiteworpConfig(c_t=2, v_fabricate=2)
    sim, monitor, table, detections, _ = build(config)
    for rid in range(1, 4):
        monitor.observe(Frame(packet=req(rid=rid), transmitter=2, prev_hop=1))
    assert detections == [2]


def test_malc_window_resets_old_evidence():
    config = LiteworpConfig(c_t=4, v_fabricate=2, malc_window=10.0)
    sim, monitor, table, detections, _ = build(config)
    monitor.observe(Frame(packet=req(rid=1), transmitter=2, prev_hop=1))
    sim.run(until=20.0)  # the first increment ages out of the window
    monitor.observe(Frame(packet=req(rid=2), transmitter=2, prev_hop=1))
    assert detections == []
    assert monitor.malc(2) == 2


def test_grace_suppresses_fabrication_after_loss():
    config = LiteworpConfig(fabrication_grace=1.0)
    sim, monitor, table, detections, _ = build(config)
    monitor.note_reception_loss(sim.now)
    monitor.observe(Frame(packet=req(), transmitter=2, prev_hop=1))
    assert monitor.fabrications_seen == 0
    assert monitor.suppressed_accusations == 1


def test_grace_expires():
    config = LiteworpConfig(fabrication_grace=1.0)
    sim, monitor, table, detections, _ = build(config)
    monitor.note_reception_loss(0.0)
    sim.run(until=5.0)
    monitor.observe(Frame(packet=req(), transmitter=2, prev_hop=1))
    assert monitor.fabrications_seen == 1


def test_grace_boundary_is_inclusive():
    config = LiteworpConfig(fabrication_grace=1.0)
    sim, monitor, table, detections, _ = build(config)
    monitor.note_reception_loss(0.0)
    sim.run(until=1.0)  # exactly fabrication_grace after the loss
    monitor.observe(Frame(packet=req(), transmitter=2, prev_hop=1))
    assert monitor.fabrications_seen == 0
    assert monitor.suppressed_accusations == 1


def test_loss_during_watch_suppresses_drop():
    config = LiteworpConfig(delta=0.5)
    sim, monitor, table, detections, _ = build(config)
    packet = rep(origin=9)
    monitor.observe(Frame(packet=packet, transmitter=1, link_dst=2))
    sim.schedule(0.2, monitor.note_reception_loss, 0.2)
    sim.run(until=2.0)
    assert monitor.drops_seen == 0
    assert monitor.suppressed_accusations == 1


def test_overheard_window_expiry_causes_fabrication():
    config = LiteworpConfig(overheard_window=5.0, fabrication_grace=0.5)
    sim, monitor, table, detections, _ = build(config)
    packet = req()
    monitor.observe(Frame(packet=packet, transmitter=1))
    sim.run(until=10.0)  # the overheard entry ages out
    monitor.observe(Frame(packet=packet, transmitter=2, prev_hop=1))
    assert monitor.fabrications_seen == 1


def test_disabled_monitor_sees_nothing():
    config = LiteworpConfig(monitor_enabled=False)
    sim, monitor, table, detections, _ = build(config)
    monitor.observe(Frame(packet=req(), transmitter=2, prev_hop=1))
    assert monitor.fabrications_seen == 0


def test_no_accusation_after_revocation():
    config = LiteworpConfig(c_t=2, v_fabricate=2)
    sim, monitor, table, detections, _ = build(config)
    table.revoke(2)
    monitor.observe(Frame(packet=req(), transmitter=2, prev_hop=1))
    assert table.malc(2, sim.now, 200.0) == 0


def test_watch_buffer_peak_tracked():
    sim, monitor, table, detections, _ = build()
    for rid in range(1, 4):
        monitor.observe(Frame(packet=rep(rid=rid), transmitter=1, link_dst=2))
    assert monitor.watch_buffer_peak == 3


def test_watch_request_drops_extension():
    config = LiteworpConfig(watch_request_drops=True, delta=0.5)
    sim, monitor, table, detections, _ = build(config)
    table.set_neighbor_list(1, (GUARD, 2, 3))
    packet = req(origin=9)
    # Node 1 broadcasts the request; common neighbors 2 and 3 should forward.
    monitor.observe(Frame(packet=packet, transmitter=1))
    assert monitor.watch_buffer_size == 2
    sim.run(until=2.0)
    assert monitor.drops_seen == 2


def test_loss_late_in_long_watch_period_suppresses_drop():
    """Regression: a loss anywhere inside the watch period suppresses the
    drop, even when ``delta`` exceeds ``overheard_window`` and the loss
    comes more than one overheard window after the expectation."""
    config = LiteworpConfig(overheard_window=1.0, delta=5.0)
    sim, monitor, table, detections, _ = build(config)
    monitor.observe(Frame(packet=rep(origin=9), transmitter=1, link_dst=2))
    sim.schedule(3.0, monitor.note_reception_loss, 3.0)
    sim.run(until=10.0)
    assert monitor.drops_seen == 0
    assert monitor.suppressed_accusations == 1


def test_loss_before_expectation_does_not_suppress_drop():
    config = LiteworpConfig(overheard_window=1.0, delta=5.0)
    sim, monitor, table, detections, _ = build(config)
    monitor.note_reception_loss(0.0)
    sim.run(until=1.0)
    monitor.observe(Frame(packet=rep(origin=9), transmitter=1, link_dst=2))
    sim.run(until=10.0)
    assert monitor.drops_seen == 1
    assert monitor.suppressed_accusations == 0


def test_malc_total_counter_accumulates():
    config = LiteworpConfig(v_fabricate=4)
    sim, monitor, table, detections, _ = build(config)
    monitor.observe(Frame(packet=req(rid=1), transmitter=2, prev_hop=1))
    monitor.observe(Frame(packet=req(rid=2), transmitter=2, prev_hop=1))
    assert monitor.malc_total == 8


def _chain_role(packet):
    """The role the per-frame ``isinstance``/``monitored`` chain gave."""
    if isinstance(packet, RouteErrorPacket):
        return monitor_module.ROLE_RERR
    if isinstance(packet, DataPacket):
        return monitor_module.ROLE_DATA
    if not packet.monitored:
        return monitor_module.ROLE_IGNORED
    if isinstance(packet, RouteRequest):
        return monitor_module.ROLE_REQ
    if isinstance(packet, RouteReply):
        return monitor_module.ROLE_REP
    return monitor_module.ROLE_OTHER


#: The guard's role for every packet type; a new type must be added here.
EXPECTED_ROLES = {
    "RouteErrorPacket": monitor_module.ROLE_RERR,
    "DataPacket": monitor_module.ROLE_DATA,
    "RouteRequest": monitor_module.ROLE_REQ,
    "RouteReply": monitor_module.ROLE_REP,
    "HelloPacket": monitor_module.ROLE_IGNORED,
    "HelloReplyPacket": monitor_module.ROLE_IGNORED,
    "NeighborListPacket": monitor_module.ROLE_IGNORED,
    "HeartbeatPacket": monitor_module.ROLE_IGNORED,
    "ProbePacket": monitor_module.ROLE_IGNORED,
    "ProbeAckPacket": monitor_module.ROLE_IGNORED,
    "NoisePacket": monitor_module.ROLE_IGNORED,
    "AlertPacket": monitor_module.ROLE_IGNORED,
    "AlertAckPacket": monitor_module.ROLE_IGNORED,
    "RttProbePacket": monitor_module.ROLE_IGNORED,
    "RttEchoPacket": monitor_module.ROLE_IGNORED,
    "SndChallengePacket": monitor_module.ROLE_IGNORED,
    "SndResponsePacket": monitor_module.ROLE_IGNORED,
}


def test_role_table_matches_type_chain_for_every_packet_type():
    packet_types = {
        name: cls
        for name, cls in inspect.getmembers(packet_module, inspect.isclass)
        if issubclass(cls, Packet) and cls is not Packet
        and cls.__module__ == packet_module.__name__
    }
    assert set(packet_types) == set(EXPECTED_ROLES)
    for name, cls in packet_types.items():
        packet = cls()
        role = monitor_module.packet_role(packet)
        assert role == _chain_role(packet) == EXPECTED_ROLES[name], name
        # Read back from the table, not reclassified.
        assert monitor_module._ROLES[cls] == role



# ----------------------------------------------------------------------
# Every module-level test above, again on the C kernel's guard
# ----------------------------------------------------------------------
@pytest.mark.skipif(not accel.kernel_available(), reason="C kernel unavailable")
class TestOnCKernel:
    """The module-level tests, with build() on the C kernel's simulator."""

    @pytest.fixture(autouse=True)
    def _ckernel(self):
        _default_simcls[0] = accel._load().Simulator
        yield
        _default_simcls[0] = Simulator

    def test_monitor_has_a_guard(self):
        _sim, monitor, *_ = build()
        assert monitor.guard is not None


for _name, _test in list(globals().items()):
    if _name.startswith("test_") and "build" in _test.__code__.co_names:
        setattr(TestOnCKernel, _name, staticmethod(_test))
