"""Unit tests for packet and frame definitions."""

import dataclasses
import importlib
import pickle
import pkgutil
import sys

import pytest

from repro.net.packet import (
    AlertPacket,
    DataPacket,
    Frame,
    HelloPacket,
    HelloReplyPacket,
    NeighborListPacket,
    RouteErrorPacket,
    RouteReply,
    RouteRequest,
)


def test_request_key_stable_across_hops():
    request = RouteRequest(origin=1, request_id=5, target=9, hop_count=0, path=(1,))
    forwarded = request.forwarded_by(4)
    assert request.key() == forwarded.key()
    assert forwarded.hop_count == 1
    assert forwarded.path == (1, 4)


def test_request_keys_distinguish_discoveries():
    a = RouteRequest(origin=1, request_id=5, target=9)
    b = RouteRequest(origin=1, request_id=6, target=9)
    c = RouteRequest(origin=2, request_id=5, target=9)
    assert a.key() != b.key()
    assert a.key() != c.key()


def test_reply_key_matches_request_family():
    request = RouteRequest(origin=1, request_id=5, target=9)
    reply = RouteReply(origin=1, request_id=5, target=9)
    assert reply.key()[1:] == request.key()[1:]
    assert reply.key()[0] == "REP"


def test_data_key_includes_sequence():
    a = DataPacket(origin=1, destination=2, flow_id=2, sequence=1)
    b = DataPacket(origin=1, destination=2, flow_id=2, sequence=2)
    assert a.key() != b.key()


def test_uids_unique():
    packets = [HelloPacket(sender=i) for i in range(10)]
    assert len({p.uid for p in packets}) == 10


def test_neighbor_list_auth_lookup():
    packet = NeighborListPacket(sender=1, neighbors=(2, 3), auths=((2, b"t2"), (3, b"t3")))
    assert packet.auth_for(2) == b"t2"
    assert packet.auth_for(4) is None


def test_neighbor_list_size_scales():
    small = NeighborListPacket(sender=1, neighbors=(2,), auths=((2, b"t"),))
    large = NeighborListPacket(
        sender=1, neighbors=tuple(range(2, 12)), auths=tuple((i, b"t") for i in range(2, 12))
    )
    assert large.size_bytes > small.size_bytes


def test_route_error_carries_inner_key():
    reply = RouteReply(origin=1, request_id=2, target=3)
    rerr = RouteErrorPacket(reporter=5, inner_key=reply.key())
    assert rerr.inner_key == reply.key()
    assert rerr.key()[0] == "RERR"


def test_frame_broadcast_vs_unicast():
    packet = HelloPacket(sender=1)
    broadcast = Frame(packet=packet, transmitter=1)
    unicast = Frame(packet=packet, transmitter=1, link_dst=2)
    assert broadcast.is_broadcast
    assert not unicast.is_broadcast


def test_frame_size_adds_header():
    packet = DataPacket(payload_size=64)
    frame = Frame(packet=packet, transmitter=1)
    assert frame.size_bytes == 64 + 12


def test_frame_describe_fields():
    frame = Frame(
        packet=RouteRequest(origin=1, request_id=2, target=3),
        transmitter=7,
        link_dst=None,
        prev_hop=6,
    )
    d = frame.describe()
    assert d["tx"] == 7
    assert d["prev"] == 6
    assert d["dst"] is None
    assert d["packet"][0] == "REQ"


def test_all_packets_have_positive_size():
    for packet in (
        HelloPacket(),
        HelloReplyPacket(),
        NeighborListPacket(),
        RouteRequest(),
        RouteReply(),
        DataPacket(),
        AlertPacket(),
        RouteErrorPacket(),
    ):
        assert packet.size_bytes > 0


# ----------------------------------------------------------------------
# Cached logical keys
# ----------------------------------------------------------------------
def _all_packet_classes():
    # Import every module so a Packet subclass defined anywhere is found.
    import repro
    from repro.net.packet import Packet

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)

    found, stack = set(), list(Packet.__subclasses__())
    while stack:
        cls = stack.pop()
        # ``slots=True`` replaces a dataclass by a new class; skip the
        # discarded original, which can linger in ``__subclasses__()``.
        if getattr(sys.modules[cls.__module__], cls.__name__, None) is cls:
            found.add(cls)
        stack.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


PACKET_CLASSES = _all_packet_classes()


def test_every_packet_class_is_defined_in_net_packet():
    assert PACKET_CLASSES
    assert {cls.__module__ for cls in PACKET_CLASSES} == {"repro.net.packet"}


@pytest.mark.parametrize("cls", PACKET_CLASSES, ids=lambda cls: cls.__name__)
def test_cached_key_equals_recomputed(cls):
    packet = cls()
    key = packet.key()
    assert key == packet._make_key()  # noqa: SLF001 - the uncached computation
    assert packet.key() is key


@pytest.mark.parametrize("cls", PACKET_CLASSES, ids=lambda cls: cls.__name__)
def test_replace_copy_computes_its_own_key(cls):
    packet = cls()
    key = packet.key()
    copy = dataclasses.replace(packet)
    assert copy.key() == key
    assert copy.key() is not key


@pytest.mark.parametrize("cls", PACKET_CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "cached"])
def test_pickle_round_trip_keeps_equality_and_key(cls, warm):
    packet = cls()
    if warm:
        packet.key()
    restored = pickle.loads(pickle.dumps(packet))
    assert restored == packet
    assert restored.key() == packet.key()


@pytest.mark.parametrize("cls", PACKET_CLASSES, ids=lambda cls: cls.__name__)
def test_eq_and_hash_ignore_the_cached_key(cls):
    cached, fresh = cls(), cls()
    cached.key()
    assert cached == fresh
    assert hash(cached) == hash(fresh)
    assert " _key=" not in repr(cached)


def test_forwarded_request_shares_the_key_object():
    request = RouteRequest(origin=1, request_id=5, target=9, path=(1,))
    assert request.forwarded_by(4).key() is request.key()
    assert request.forwarded_by(4).forwarded_by(7).key() is request.key()


def test_replace_with_new_identity_gets_a_new_key():
    request = RouteRequest(origin=1, request_id=5, target=9)
    request.key()
    assert dataclasses.replace(request, request_id=6).key() == ("REQ", 1, 6)


def test_one_key_object_per_discovery_across_all_routers():
    """Every node's duplicate filter holds the same tuple for one discovery."""
    from repro.experiments.scenario import ScenarioConfig, build_scenario

    scenario = build_scenario(
        ScenarioConfig(n_nodes=30, duration=60.0, seed=4, attack_start=20.0)
    )
    scenario.run()
    seen = [key for router in scenario.routers.values() for key in router._seen_requests]  # noqa: SLF001
    assert len(set(seen)) > 5
    assert len({id(key) for key in seen}) == len(set(seen))
