"""Unit tests for the CSMA MAC: queueing, carrier sense, backoff, ARQ.

Every test runs on both stacks: the module-level tests on the pure-Python
simulator (the reference ``CsmaMac``) and again, through ``TestOnCKernel``
at the bottom, on the C kernel's simulator, where the channel's
``Medium`` runs the MAC.
"""

import random

import pytest

from repro.net.channel import Channel
from repro.net.mac import CsmaMac, MacConfig
from repro.net.packet import DataPacket, Frame
from repro.net.radio import UnitDiskRadio
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

# The simulator class build() uses; TestOnCKernel swaps in the C kernel's
# for the duration of each of its tests.
_simcls = [Simulator]


class CountingRandom(random.Random):
    """A stream that counts its draws: the MAC draws once per jitter and
    once per backoff, so the count tells how many senses found the medium
    busy, on either stack."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def build(positions, mac_config=None, rng_class=random.Random):
    sim = _simcls[0]()
    radio = UnitDiskRadio(positions, default_range=30.0)
    trace = TraceLog()
    channel = Channel(sim, radio, RngRegistry(0), trace=trace)
    inboxes = {node: [] for node in positions}
    macs = {}
    for node in positions:
        channel.attach(node, inboxes[node].append)
        macs[node] = CsmaMac(
            sim, channel, node, rng_class(node),
            config=mac_config or MacConfig(), trace=trace,
        )
    return sim, channel, macs, inboxes, trace


def frame(tx, dst=None):
    return Frame(packet=DataPacket(origin=tx, destination=dst or 99), transmitter=tx, link_dst=dst)


def test_send_delivers_frame():
    sim, channel, macs, inboxes, _ = build({0: (0, 0), 1: (10, 0)})
    macs[0].send(frame(0), jitter=0.0)
    sim.run()
    assert len(inboxes[1]) == 1
    assert macs[0].sent == 1


def test_queue_drains_in_order():
    sim, channel, macs, inboxes, _ = build({0: (0, 0), 1: (10, 0)})
    for seq in range(3):
        f = Frame(packet=DataPacket(origin=0, destination=9, sequence=seq), transmitter=0)
        macs[0].send(f, jitter=0.0)
    sim.run()
    sequences = [fr.packet.sequence for fr in inboxes[1]]
    assert sequences == [0, 1, 2]


def test_carrier_sense_defers_second_sender():
    """Two in-range senders never overlap: CSMA serialises them."""
    sim, channel, macs, inboxes, _ = build({0: (0, 0), 1: (10, 0), 2: (20, 0)})
    macs[0].send(frame(0), jitter=0.0)
    macs[1].send(frame(1), jitter=0.0)
    sim.run()
    # Node 2 hears both (no collision thanks to deferral).
    assert len(inboxes[2]) == 2


def test_mac_gives_up_after_max_attempts():
    config = MacConfig(max_attempts=2, base_backoff=0.001)
    sim, channel, macs, inboxes, trace = build({0: (0, 0), 1: (10, 0)}, config)
    # Keep the channel busy with a long foreign transmission.
    blocker = Frame(packet=DataPacket(origin=1, destination=9, payload_size=20_000), transmitter=1)
    channel.transmit(1, blocker)
    macs[0].send(frame(0), jitter=0.0)
    sim.run()
    assert macs[0].dropped == 1
    assert trace.count("mac_drop", node=0) == 1


def test_jitter_delays_transmission():
    sim, channel, macs, inboxes, _ = build({0: (0, 0), 1: (10, 0)})
    macs[0].send(frame(0), jitter=5.0)
    sim.run(until=0.001)
    assert inboxes[1] == []  # still waiting out the jitter
    sim.run(until=10.0)
    assert len(inboxes[1]) == 1


def test_zero_jitter_transmits_immediately():
    sim, channel, macs, inboxes, _ = build({0: (0, 0), 1: (10, 0)})
    macs[0].send(frame(0), jitter=0.0)
    assert sim.peek_time() == 0.0  # attempt scheduled at t=0


def test_arq_retransmits_until_delivered():
    """A unicast that collides on the first try is retried and delivered."""
    config = MacConfig(arq_retries=3, base_backoff=0.002)
    positions = {0: (0, 0), 1: (30, 0), 2: (60, 0)}
    sim, channel, macs, inboxes, _ = build(positions, config)
    # A hidden-terminal transmission from node 2 collides with attempt 1.
    channel.transmit(2, frame(2))
    macs[0].send(frame(0, dst=1), jitter=0.0)
    sim.run()
    delivered = [fr for fr in inboxes[1] if fr.transmitter == 0]
    assert len(delivered) == 1
    assert macs[0].sent >= 2  # at least one retransmission happened


def test_arq_gives_up_when_destination_unreachable():
    config = MacConfig(arq_retries=2)
    sim, channel, macs, _, trace = build({0: (0, 0), 1: (100, 0)}, config)
    macs[0].send(frame(0, dst=1), jitter=0.0)
    sim.run()
    assert macs[0].arq_failures == 1
    assert macs[0].sent == 3  # initial + 2 retries
    assert trace.count("arq_failure", node=0) == 1


def test_arq_disabled_means_single_attempt():
    config = MacConfig(arq_retries=0)
    sim, channel, macs, _, _ = build({0: (0, 0), 1: (100, 0)}, config)
    macs[0].send(frame(0, dst=1), jitter=0.0)
    sim.run()
    assert macs[0].sent == 1


def test_broadcast_never_retransmitted():
    config = MacConfig(arq_retries=3)
    positions = {0: (0, 0), 1: (30, 0), 2: (60, 0)}
    sim, channel, macs, inboxes, _ = build(positions, config)
    channel.transmit(2, frame(2))  # collides at node 1
    macs[0].send(frame(0), jitter=0.0)  # broadcast
    sim.run()
    assert macs[0].sent == 1


def test_queue_length_property():
    sim, channel, macs, _, _ = build({0: (0, 0), 1: (10, 0)})
    macs[0].send(frame(0), jitter=1.0)
    macs[0].send(frame(0), jitter=1.0)
    assert macs[0].queue_length == 2


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        MacConfig(base_backoff=0)
    with pytest.raises(ValueError):
        MacConfig(max_attempts=0)
    with pytest.raises(ValueError):
        MacConfig(default_jitter=-1)
    with pytest.raises(ValueError):
        MacConfig(arq_retries=-1)


# ----------------------------------------------------------------------
# Crash and reboot
# ----------------------------------------------------------------------
def _blocked_drop(reboot):
    """Send a frame at t=0.02 while a 40 s transmission holds the medium;
    with ``reboot`` the MAC first serves another frame from t=0 and is
    disabled and enabled at t=0.01 with that frame's backoff pending.
    Returns the new frame's drop time and the draws made for it."""
    config = MacConfig(base_backoff=0.01, max_attempts=3)
    sim, channel, macs, _, trace = build({0: (0, 0), 1: (10, 0)}, config, CountingRandom)
    mac = macs[0]
    channel.transmit(1, Frame(DataPacket(origin=1, destination=9, payload_size=200_000), 1))
    if reboot:
        mac.send(frame(0), jitter=0.0)
        sim.run(until=0.01)
        mac.disable()
        mac.enable()
    sim.run(until=0.02)
    rng = mac._rng
    rng.seed(7)
    rng.draws = 0
    mac.send(frame(0), jitter=0.0)
    sim.run(until=1.0)
    drops = [record.time for record in trace if record.kind == "mac_drop"]
    return drops, rng.draws, mac.dropped


def test_reboot_starts_a_fresh_attempt_count():
    """A frame sent after a reboot gets its own attempts, not a backoff
    timer left over from before the crash (which, pending past t=0.02,
    used to serve it with the old attempt count: one sense, no draw)."""
    fresh = _blocked_drop(reboot=False)
    rebooted = _blocked_drop(reboot=True)
    assert fresh[1] == 2  # three busy senses: two backoffs, then the drop
    assert rebooted[:2] == fresh[:2]
    assert (fresh[2], rebooted[2]) == (1, 2)  # the crash dropped the first frame


def test_outcome_of_a_unicast_in_flight_at_a_crash_is_ignored():
    """The ACK (or its absence) for a frame sent before a crash must not
    requeue that frame into the rebooted MAC."""
    config = MacConfig(arq_retries=3)
    sim, channel, macs, inboxes, _ = build({0: (0, 0), 1: (100, 0)}, config)
    mac = macs[0]
    mac.send(frame(0, dst=1), jitter=0.0)
    sim.run(until=1e-6)
    assert mac.sent == 1
    mac.disable()
    mac.enable()
    sim.run()
    assert (mac.sent, mac.arq_failures, mac.queue_length) == (1, 0, 0)
    mac.send(frame(0, dst=1), jitter=0.0)
    sim.run()
    assert (mac.sent, mac.arq_failures) == (1 + 4, 1)


# ----------------------------------------------------------------------
# Every module-level test above, again on the C kernel
# ----------------------------------------------------------------------
@pytest.mark.skipif(not accel.kernel_available(), reason="C kernel unavailable")
class TestOnCKernel:
    """The module-level tests, with build() on the C kernel's simulator."""

    @pytest.fixture(autouse=True)
    def _ckernel(self):
        _simcls[0] = accel._load().Simulator
        yield
        _simcls[0] = Simulator


for _name, _test in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestOnCKernel, _name, staticmethod(_test))
