"""Hand-written constructors and draws on the send path keep their results.

``Frame``, ``RouteRequest``, ``RouteReply`` and ``DataPacket`` set their
slots through member descriptors instead of the dataclass's generated
``__init__``; the MAC and the request flood draw ``w * rng.random()``
instead of ``rng.uniform(0.0, w)``; the MAC's ARQ callback is a
``functools.partial``.  These tests hold each to what it replaced.
"""

import copy
import dataclasses
import inspect
import itertools
import pickle
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import packet as packet_module
from repro.net.mac import CsmaMac, MacConfig
from repro.net.packet import DataPacket, Frame, RouteReply, RouteRequest
from repro.net.network import Network
from repro.net.topology import grid_topology
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


def _bits(x):
    return struct.pack("<d", x)


# ----------------------------------------------------------------------
# Draws
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    width=st.one_of(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, 5e-324, 2.2250738585072e-308, 1e-310, 0.015, 0.01 * 2**11]),
    ),
)
def test_scaled_random_is_uniform_bit_for_bit(seed, width):
    scaled = width * random.Random(seed).random()
    uniform = random.Random(seed).uniform(0.0, width)
    assert _bits(scaled) == _bits(uniform)


def test_scaled_random_consumes_one_draw_like_uniform():
    a, b = random.Random(11), random.Random(11)
    for width in (0.0, 0.5, 1e-300, 5e-324):
        width * a.random()
        b.uniform(0.0, width)
    assert a.random() == b.random()


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
HOT = (
    (RouteRequest, dict(origin=3, request_id=7, target=9, hop_count=2, path=(3, 5))),
    (RouteReply, dict(origin=3, request_id=7, target=9, hop_count=2, path=(3, 5, 9))),
    (DataPacket, dict(origin=3, destination=9, flow_id=9, sequence=4, payload_size=80)),
)


@pytest.mark.parametrize("cls,kwargs", HOT, ids=[c.__name__ for c, _ in HOT])
def test_packet_init_keeps_the_dataclass_contract(cls, kwargs, monkeypatch):
    fields = [f for f in dataclasses.fields(cls) if f.init]
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == [f.name for f in fields] == list(kwargs)
    assert [p.default for p in parameters.values()] == [f.default for f in fields]

    monkeypatch.setattr(packet_module, "_packet_uids", itertools.count(100))
    by_name, by_position, default = cls(**kwargs), cls(*kwargs.values()), cls()
    assert [p.uid for p in (by_name, by_position, default)] == [100, 101, 102]
    for f in fields:
        assert getattr(by_name, f.name) == getattr(by_position, f.name) == kwargs[f.name]
        assert getattr(default, f.name) == f.default
    assert by_name._key is None and default._key is None
    assert by_name == by_position and hash(by_name) == hash(by_position)
    assert by_name != default
    assert repr(by_name) == f"{cls.__name__}(uid=100, " + ", ".join(
        f"{name}={value!r}" for name, value in kwargs.items()
    ) + ")"
    with pytest.raises(TypeError):
        cls(**kwargs, uid=5)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), 1)


def test_frame_init_matches_dataclass():
    packet = DataPacket(origin=1, destination=2)
    positional = Frame(packet, 4, 5, 6, None)
    keywords = Frame(packet=packet, transmitter=4, link_dst=5, prev_hop=6)
    assert positional == keywords and hash(positional) == hash(keywords)
    assert Frame(packet, 4) == Frame(packet, 4, None, None, None)
    assert repr(keywords) == (
        f"Frame(packet={packet!r}, transmitter=4, link_dst=5, prev_hop=6, leash=None)"
    )
    with pytest.raises(TypeError):
        Frame(packet)
    with pytest.raises(TypeError):
        Frame(packet, 4, nonsense=1)


@pytest.mark.parametrize(
    "obj",
    [
        Frame(DataPacket(origin=1, destination=2), 1, 2, None),
        RouteRequest(origin=1, request_id=2, target=3, path=(1,)),
        RouteReply(origin=1, request_id=2, target=3, path=(1, 3)),
        DataPacket(origin=1, destination=2, sequence=5),
    ],
    ids=["Frame", "RouteRequest", "RouteReply", "DataPacket"],
)
def test_frozen_pickle_and_copy(obj):
    field = dataclasses.fields(obj)[-1].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, None)
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert clone == obj and hash(clone) == hash(obj)
        assert getattr(clone, "uid", None) == getattr(obj, "uid", None)
    assert dataclasses.replace(obj) == obj


def test_forwarded_by_shares_the_key_tuple():
    request = RouteRequest(origin=1, request_id=2, target=9, path=(1,))
    key = request.key()
    hop = request.forwarded_by(4).forwarded_by(6)
    assert hop.key() is key and hop._key is key
    assert (hop.hop_count, hop.path) == (2, (1, 4, 6))
    assert hop.uid == request.uid + 2


def test_node_send_builds_the_same_frames():
    sim = Simulator()
    net = Network(sim, grid_topology(columns=2, rows=1, spacing=20.0, tx_range=30.0),
                  RngRegistry(0), trace=TraceLog())
    sent = []
    net.channel.add_tx_observer(lambda sender, frame, at: sent.append(frame))
    packet = DataPacket(origin=0, destination=1)
    net.node(0).broadcast(packet, prev_hop=7, jitter=0.0)
    sim.run()
    net.node(0).unicast(packet, 1, prev_hop=8, jitter=0.0)
    sim.run()
    assert sent == [Frame(packet=packet, transmitter=0, link_dst=None, prev_hop=7),
                    Frame(packet=packet, transmitter=0, link_dst=1, prev_hop=8)]


# ----------------------------------------------------------------------
# ARQ
# ----------------------------------------------------------------------
def _simulators():
    sims = [pytest.param(Simulator, id="python")]
    if accel.kernel_available():
        sims.append(pytest.param(accel._load().Simulator, id="ckernel"))
    return sims


@pytest.mark.parametrize("simcls", _simulators())
@pytest.mark.parametrize("reachable", [True, False])
def test_arq_retries_see_the_same_triples(simcls, reachable, monkeypatch):
    seen = []
    outcome = CsmaMac._arq_outcome

    def spy(self, frame, tx_range, tries, delivered):
        seen.append((frame, tx_range, tries, delivered))
        return outcome(self, frame, tx_range, tries, delivered)

    monkeypatch.setattr(CsmaMac, "_arq_outcome", spy)
    sim = simcls()
    spacing = 20.0 if reachable else 200.0
    net = Network(sim, grid_topology(columns=2, rows=1, spacing=spacing, tx_range=30.0),
                  RngRegistry(0), trace=TraceLog())
    mac = net.node(0).mac
    mac._config = MacConfig(arq_retries=2)
    frame = Frame(DataPacket(origin=0, destination=1), 0, 1, None)
    net.node(0).raw_send(frame, jitter=0.0, tx_range=25.0)
    sim.run()
    if reachable:
        assert seen == [(frame, 25.0, 0, True)]
    else:
        assert seen == [(frame, 25.0, t, False) for t in range(3)]
        assert mac.arq_failures == 1
    assert all(entry[0] is frame for entry in seen)
