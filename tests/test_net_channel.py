"""Unit tests for the wireless channel: delivery, collisions, capture,
half-duplex, ARQ outcomes, and loss notification.

Every test runs on both media: the module-level tests on the pure-Python
simulator (the channel's per-receiver reference path) and again, through
``TestOnCKernel`` at the bottom, on the C kernel's simulator, where the
kernel's ``Medium`` does the per-reception work.  The tests that take
``simcls`` are parametrized over the two directly.
"""

import gc
import random
import weakref

import pytest

from repro.net.channel import Channel, Reception
from repro.net.packet import DataPacket, Frame
from repro.net.radio import UnitDiskRadio
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


def _kernels():
    kernels = [pytest.param(Simulator, id="python")]
    if accel.kernel_available():
        module = accel._load()
        kernels.append(pytest.param(module.Simulator, id="ckernel"))
    return kernels


@pytest.fixture(params=_kernels())
def simcls(request):
    return request.param


# The simulator class build() uses when not given one; TestOnCKernel
# swaps in the C kernel's for the duration of each of its tests.
_default_simcls = [Simulator]


def build(positions, capture_ratio=0.0, ambient_loss=0.0, bandwidth=40_000.0,
          simcls=None):
    sim = (simcls or _default_simcls[0])()
    radio = UnitDiskRadio(positions, default_range=30.0)
    trace = TraceLog()
    channel = Channel(
        sim, radio, RngRegistry(0), trace=trace,
        bandwidth_bps=bandwidth, ambient_loss=ambient_loss, capture_ratio=capture_ratio,
    )
    inboxes = {node: [] for node in positions}
    for node in positions:
        channel.attach(node, inboxes[node].append)
    return sim, channel, inboxes, trace


def frame(tx, dst=None, size=64):
    return Frame(packet=DataPacket(origin=tx, destination=dst or 0, payload_size=size),
                 transmitter=tx, link_dst=dst)


def test_delivery_to_all_in_range():
    positions = {0: (0, 0), 1: (10, 0), 2: (20, 0), 3: (100, 0)}
    sim, channel, inboxes, _ = build(positions)
    channel.transmit(0, frame(0))
    sim.run()
    assert len(inboxes[1]) == 1
    assert len(inboxes[2]) == 1
    assert len(inboxes[3]) == 0  # out of range
    assert len(inboxes[0]) == 0  # sender does not hear itself


def test_duration_scales_with_size_and_bandwidth():
    positions = {0: (0, 0), 1: (10, 0)}
    sim, channel, _, _ = build(positions)
    short = channel.duration_of(frame(0, size=40))
    long = channel.duration_of(frame(0, size=80))
    assert long > short
    assert short == (40 + 12) * 8 / 40_000.0


def test_overlapping_transmissions_collide():
    # 0 and 2 are hidden from each other (60 m apart), 1 in the middle.
    positions = {0: (0, 0), 1: (30, 0), 2: (60, 0)}
    sim, channel, inboxes, trace = build(positions)
    channel.transmit(0, frame(0))
    channel.transmit(2, frame(2))  # same instant: both collide at node 1
    sim.run()
    assert inboxes[1] == []
    assert channel.collisions >= 2
    assert trace.count("rx_lost", receiver=1) == 2


def test_non_overlapping_transmissions_deliver():
    positions = {0: (0, 0), 1: (30, 0), 2: (60, 0)}
    sim, channel, inboxes, _ = build(positions)
    channel.transmit(0, frame(0))
    sim.run()  # finish first transmission completely
    channel.transmit(2, frame(2))
    sim.run()
    assert len(inboxes[1]) == 2


def test_capture_effect_saves_closer_signal():
    # Node 1 at 5 m from sender 0, interferer 2 at 29 m from node 1.
    positions = {0: (0, 0), 1: (5, 0), 2: (34, 0)}
    sim, channel, inboxes, _ = build(positions, capture_ratio=1.5)
    channel.transmit(0, frame(0))
    channel.transmit(2, frame(2))
    sim.run()
    # 0's signal at 5 m vs interference from 29 m: 5 * 1.5 <= 29 -> captured.
    assert len(inboxes[1]) == 1
    assert inboxes[1][0].transmitter == 0


def test_capture_requires_sufficient_ratio():
    positions = {0: (0, 0), 1: (14, 0), 2: (30, 0)}
    sim, channel, inboxes, _ = build(positions, capture_ratio=1.5)
    channel.transmit(0, frame(0))
    channel.transmit(2, frame(2))
    sim.run()
    # 14 * 1.5 = 21 > 16 (distance 2->1): no capture, both die at node 1.
    assert inboxes[1] == []


def test_half_duplex_receiver_misses_frame():
    positions = {0: (0, 0), 1: (10, 0)}
    sim, channel, inboxes, _ = build(positions)
    channel.transmit(1, frame(1))  # node 1 is busy transmitting
    channel.transmit(0, frame(0))
    sim.run()
    assert inboxes[1] == []


def test_transmitting_kills_own_inflight_receptions():
    positions = {0: (0, 0), 1: (10, 0)}
    sim, channel, inboxes, _ = build(positions)
    channel.transmit(0, frame(0))
    # Node 1 starts transmitting mid-reception.
    sim.schedule(0.001, channel.transmit, 1, frame(1))
    sim.run()
    assert inboxes[1] == []


def test_is_busy_during_transmission_and_reception():
    positions = {0: (0, 0), 1: (10, 0), 2: (100, 0)}
    sim, channel, _, _ = build(positions)
    assert not channel.is_busy(0)
    channel.transmit(0, frame(0))
    assert channel.is_busy(0)  # transmitting
    assert channel.is_busy(1)  # receiving
    assert not channel.is_busy(2)  # far away
    sim.run()
    assert not channel.is_busy(0)
    assert not channel.is_busy(1)


def test_ambient_loss_drops_some_receptions():
    positions = {0: (0, 0), 1: (10, 0)}
    sim, channel, inboxes, _ = build(positions, ambient_loss=0.5)
    for _ in range(100):
        channel.transmit(0, frame(0))
        sim.run()
    assert 20 < len(inboxes[1]) < 80


def test_unicast_outcome_success():
    positions = {0: (0, 0), 1: (10, 0)}
    sim, channel, _, _ = build(positions)
    outcomes = []
    channel.transmit(0, frame(0, dst=1), on_unicast_outcome=outcomes.append)
    sim.run()
    assert outcomes == [True]


def test_unicast_outcome_failure_on_collision():
    positions = {0: (0, 0), 1: (30, 0), 2: (60, 0)}
    sim, channel, _, _ = build(positions)
    outcomes = []
    channel.transmit(0, frame(0, dst=1), on_unicast_outcome=outcomes.append)
    channel.transmit(2, frame(2))
    sim.run()
    assert outcomes == [False]


def test_unicast_outcome_failure_when_out_of_range():
    positions = {0: (0, 0), 1: (100, 0)}
    sim, channel, _, _ = build(positions)
    outcomes = []
    channel.transmit(0, frame(0, dst=1), on_unicast_outcome=outcomes.append)
    sim.run()
    assert outcomes == [False]


def test_loss_handler_notified_on_collision():
    positions = {0: (0, 0), 1: (30, 0), 2: (60, 0)}
    sim, channel, _, _ = build(positions)
    losses = []
    channel.attach_loss_handler(1, losses.append)
    channel.transmit(0, frame(0))
    channel.transmit(2, frame(2))
    sim.run()
    assert len(losses) == 2


def test_loss_handler_not_notified_on_success():
    positions = {0: (0, 0), 1: (10, 0)}
    sim, channel, _, _ = build(positions)
    losses = []
    channel.attach_loss_handler(1, losses.append)
    channel.transmit(0, frame(0))
    sim.run()
    assert losses == []


def test_tx_observer_sees_every_transmission():
    positions = {0: (0, 0), 1: (10, 0)}
    sim, channel, _, _ = build(positions)
    seen = []
    channel.add_tx_observer(lambda sender, fr, t: seen.append((sender, fr.packet.key())))
    f = frame(0)
    channel.transmit(0, f)
    sim.run()
    assert seen == [(0, f.packet.key())]


def test_transmission_counter():
    positions = {0: (0, 0), 1: (10, 0)}
    sim, channel, _, _ = build(positions)
    channel.transmit(0, frame(0))
    sim.run()
    channel.transmit(1, frame(1))
    sim.run()
    assert channel.transmissions == 2


def test_invalid_construction_params():
    positions = {0: (0, 0)}
    radio = UnitDiskRadio(positions, 30.0)
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, radio, RngRegistry(0), bandwidth_bps=0)
    with pytest.raises(ValueError):
        Channel(sim, radio, RngRegistry(0), ambient_loss=1.0)
    with pytest.raises(ValueError):
        Channel(sim, radio, RngRegistry(0), capture_ratio=-1)


# ----------------------------------------------------------------------
# Cases that matter for the C medium, on both media
# ----------------------------------------------------------------------
def test_uses_medium_exactly_on_ckernel(simcls):
    _, channel, _, _ = build({0: (0, 0)}, simcls=simcls)
    assert (channel._medium is not None) == (simcls is not Simulator)


#: The slots the kernel's layout reads each of its classes by.
LAYOUT_SLOTS = {
    "record_cls": ("_time", "_kind", "_names", "_values"),
    "packet_cls": ("_key",),
    "frame_cls": ("packet", "transmitter", "link_dst", "prev_hop", "leash"),
    "request_cls": ("uid", "_key", "origin", "request_id", "target", "hop_count", "path"),
    "reply_cls": ("uid", "_key", "origin", "request_id", "target", "hop_count", "path"),
    "data_cls": ("destination",),
    "entry_cls": ("destination", "next_hop", "installed_at", "expires_at", "hop_count",
                  "path", "request_id"),
}


@pytest.mark.skipif(not accel.kernel_available(), reason="no C kernel")
@pytest.mark.parametrize("name", sorted(LAYOUT_SLOTS))
def test_layout_refuses_a_class_without_its_slots(name):
    """The kernel's layout learns every class it reads by slot offset when
    it is made: a class that lacks one of the slots is refused then, by
    name, and one that has them all is taken."""
    module = accel._load()
    arguments = accel._layout_arguments()
    slots = LAYOUT_SLOTS[name]
    partial = type("Partial", (), {"__slots__": slots[:-1]})
    with pytest.raises(TypeError, match=f"Partial lacks its slot '{slots[-1]}'"):
        module.Layout(**dict(arguments, **{name: partial}))
    module.Layout(**dict(arguments, **{name: type("Full", (), {"__slots__": slots})}))


def test_sparse_node_ids(simcls):
    big = 10**9
    positions = {7: (0, 0), 1000: (10, 0), big: (20, 0), 3: (200, 0)}
    sim, channel, inboxes, _ = build(positions, simcls=simcls)
    outcomes = []
    channel.transmit(7, frame(7, dst=big), on_unicast_outcome=outcomes.append)
    assert channel.is_busy(7) and channel.is_busy(1000) and channel.is_busy(big)
    assert channel.is_transmitting(7) and not channel.is_transmitting(big)
    assert not channel.is_busy(3) and not channel.is_busy(12345)
    sim.run()
    assert outcomes == [True]
    assert [len(inboxes[n]) for n in (7, 1000, big, 3)] == [0, 1, 1, 0]
    channel.set_link_down(big, 7)
    outcomes.clear()
    channel.transmit(7, frame(7, dst=big), on_unicast_outcome=outcomes.append)
    sim.run()
    assert outcomes == [False]
    assert [len(inboxes[n]) for n in (1000, big)] == [2, 1]


def test_covered_receiver_without_handler_hears_nothing():
    """A node the radio covers but the channel never attached: it gets no
    reception, senses no carrier and, as a unicast destination, never
    acknowledges.  Both media give the same outcome."""
    positions = {0: (0, 0), 1: (10, 0), 2: (20, 0)}
    outcomes = {}
    for simcls in [param.values[0] for param in _kernels()]:
        sim = simcls()
        channel = Channel(sim, UnitDiskRadio(positions, default_range=30.0), RngRegistry(0),
                          trace=TraceLog())
        inboxes = {0: [], 2: []}
        for node, inbox in inboxes.items():
            channel.attach(node, inbox.append)
        acks = []
        channel.transmit(0, frame(0, dst=1), on_unicast_outcome=acks.append)
        busy = (channel.is_busy(1), channel.is_busy(2))
        channel.transmit(2, frame(2))
        sim.run()
        outcomes[simcls] = (busy, acks, [len(inboxes[0]), len(inboxes[2])], channel.collisions)
    reference = outcomes.pop(Simulator)
    assert reference == ((False, True), [False], [0, 0], 2)
    for outcome in outcomes.values():
        assert outcome == reference


def test_link_down_changes_between_transmissions(simcls):
    positions = {0: (0, 0), 1: (10, 0), 2: (20, 0)}
    sim, channel, inboxes, _ = build(positions, simcls=simcls)
    channel.set_link_down(1, 0)
    assert channel.link_is_down(0, 1)
    channel.transmit(0, frame(0))
    sim.run()
    assert [len(inboxes[1]), len(inboxes[2])] == [0, 1]
    channel.set_link_up(0, 1)
    channel.set_link_up(0, 1)  # idempotent
    channel.transmit(0, frame(0))
    sim.run()
    assert [len(inboxes[1]), len(inboxes[2])] == [1, 2]
    channel.set_link_down(0, 1)
    channel.set_link_down(0, 2)
    channel.set_link_up(1, 0)
    channel.transmit(0, frame(0))
    sim.run()
    assert [len(inboxes[1]), len(inboxes[2])] == [2, 2]


def test_deaf_changes_between_transmissions(simcls):
    positions = {0: (0, 0), 1: (10, 0)}
    sim, channel, inboxes, _ = build(positions, simcls=simcls)
    outcomes = []
    channel.set_deaf(1, True)
    channel.transmit(0, frame(0, dst=1), on_unicast_outcome=outcomes.append)
    assert not channel.is_busy(1)
    sim.run()
    channel.set_deaf(1, False)
    channel.transmit(0, frame(0, dst=1), on_unicast_outcome=outcomes.append)
    sim.run()
    assert outcomes == [False, True]
    assert len(inboxes[1]) == 1


def test_ambient_loss_changes_between_transmissions(simcls):
    positions = {0: (0, 0), 1: (10, 0)}
    sim, channel, inboxes, trace = build(positions, simcls=simcls)
    losses = []
    channel.attach_loss_handler(1, losses.append)
    channel.set_ambient_loss(0.999999)
    assert channel.ambient_loss == 0.999999
    channel.transmit(0, frame(0))
    sim.run()
    channel.set_ambient_loss(0.0)
    channel.transmit(0, frame(0))
    sim.run()
    assert len(inboxes[1]) == 1
    assert len(losses) == 1
    lost = trace.of_kind("rx_lost")
    assert len(lost) == 1 and lost[0].fields["collided"] is False
    assert list(lost[0].fields) == ["receiver", "collided", "packet", "tx", "dst", "prev"]


def test_reception_observers_see_final_flags(simcls):
    # 0 and 2 collide at 1; 0's unicast to 1 fails; 3 hears only 2.
    positions = {0: (0, 0), 1: (30, 0), 2: (60, 0), 3: (80, 0)}
    sim, channel, _, _ = build(positions, simcls=simcls)
    seen = []
    channel.add_reception_observer(seen.append)
    outcomes = []
    f0 = frame(0, dst=1)
    channel.transmit(0, f0, on_unicast_outcome=outcomes.append)
    channel.transmit(2, frame(2))
    sim.run()
    assert outcomes == [False]
    assert all(isinstance(r, Reception) for r in seen)
    flags = sorted(
        (r.receiver, r.frame.transmitter, r.collided, r.lost, r.on_outcome is not None)
        for r in seen
    )
    assert flags == [
        (1, 0, True, False, True),
        (1, 2, True, False, False),
        (3, 2, False, False, False),
    ]
    first = next(r for r in seen if r.frame is f0)
    assert first.start == 0.0 and first.end == channel.duration_of(f0)
    assert first.distance == 30.0


def test_delivery_handler_exception_propagates(simcls):
    positions = {0: (0, 0), 1: (10, 0), 2: (20, 0)}
    sim, channel, inboxes, _ = build(positions, simcls=simcls)

    def explode(_frame):
        raise KeyError("handler failed")

    channel.attach(1, explode)
    channel.transmit(0, frame(0))
    with pytest.raises(KeyError, match="handler failed"):
        sim.run()
    assert not channel.is_busy(1)


def test_dropped_channel_mid_air_is_collected(simcls):
    positions = {0: (0, 0), 1: (10, 0)}

    class Probe:
        pass

    def make():
        sim, channel, inboxes, _ = build(positions, simcls=simcls)
        probe = Probe()
        channel.attach(1, lambda f, p=probe: inboxes[1].append(p))
        channel.transmit(0, frame(0))
        assert channel.is_busy(1)
        return sim, inboxes[1], weakref.ref(probe)

    # Channel dropped, its finish event still queued: it still delivers.
    sim, inbox, _ = make()
    gc.collect()
    sim.run()
    assert len(inbox) == 1

    # Simulator dropped too: the unfinished transmission is collected.
    sim, inbox, probe_ref = make()
    gc.collect()
    del sim
    gc.collect()
    assert probe_ref() is None and inbox == []


# ----------------------------------------------------------------------
# Differential: the two media agree on a random schedule
# ----------------------------------------------------------------------
def _random_run(simcls, seed):
    rng = random.Random(seed)
    positions = {
        node * 7 + 3: (rng.uniform(0, 90), rng.uniform(0, 90)) for node in range(30)
    }
    ids = list(positions)
    sim, channel, _, trace = build(positions, capture_ratio=1.1, simcls=simcls)
    log = []
    for node in ids:
        channel.attach(node, lambda f, n=node: on_frame(n, f))
        channel.attach_loss_handler(node, lambda t, n=node: log.append(("loss", n, t)))
    channel.add_reception_observer(
        lambda r: log.append(("obs", r.receiver, r.frame.packet.sequence, r.collided, r.lost))
    )
    sequence = [0]

    def send(sender, dst=None, tx_range=None):
        sequence[0] += 1
        packet = DataPacket(origin=sender, destination=dst or 0, sequence=sequence[0],
                            payload_size=rng.choice((20, 64, 200)))
        outcome = None
        if dst is not None:
            outcome = lambda ok, s=sequence[0]: log.append(("ack", s, ok, sim.now))
        channel.transmit(sender, Frame(packet=packet, transmitter=sender, link_dst=dst),
                         tx_range=tx_range, on_unicast_outcome=outcome)

    def on_frame(node, f):
        busy = tuple(channel.is_busy(n) for n in ids[:5])
        log.append(("rx", node, f.packet.sequence, sim.now, busy))
        if f.link_dst == node and f.packet.payload_size == 20:
            send(node)  # re-entrant transmit mid-batch

    def tick():
        roll = rng.random()
        sender = rng.choice(ids)
        if roll < 0.05:
            channel.set_ambient_loss(rng.choice((0.0, 0.3)))
        elif roll < 0.1:
            a, b = rng.sample(ids, 2)
            (channel.set_link_down if rng.random() < 0.6 else channel.set_link_up)(a, b)
        elif roll < 0.13:
            channel.set_deaf(rng.choice(ids), rng.random() < 0.5)
        elif roll < 0.5:
            send(sender, dst=rng.choice(ids))
        elif roll < 0.55:
            send(sender, tx_range=60.0)
        else:
            send(sender)
        log.append(("busy", sim.now, channel.is_busy(sender), channel.is_transmitting(sender)))

    t = 0.0
    for _ in range(400):
        t += rng.expovariate(50.0)
        sim.schedule_at(t, tick)
    sim.run()
    lost = [(r.time, dict(r.fields)) for r in trace.of_kind("rx_lost")]
    return log, lost, channel.collisions, channel.transmissions


@pytest.mark.skipif(not accel.kernel_available(), reason="C kernel unavailable")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_media_agree_on_random_schedule(seed):
    reference = _random_run(Simulator, seed)
    medium = _random_run(accel._load().Simulator, seed)
    log, lost, collisions, transmissions = reference
    assert collisions > 0 and lost and transmissions > 300
    kinds = {entry[0] for entry in log}
    assert kinds == {"rx", "loss", "obs", "ack", "busy"}
    assert {entry[2] for entry in log if entry[0] == "ack"} == {True, False}
    assert medium == reference


# ----------------------------------------------------------------------
# Every module-level test above, again on the C kernel's medium
# ----------------------------------------------------------------------
@pytest.mark.skipif(not accel.kernel_available(), reason="C kernel unavailable")
class TestOnCKernel:
    """The module-level tests, with build() on the C kernel's simulator."""

    @pytest.fixture(autouse=True)
    def _ckernel(self):
        _default_simcls[0] = accel._load().Simulator
        yield
        _default_simcls[0] = Simulator


for _name, _test in list(globals().items()):
    if _name.startswith("test_") and "build" in _test.__code__.co_names \
            and "simcls" not in _test.__code__.co_varnames:
        setattr(TestOnCKernel, _name, staticmethod(_test))
