"""Unit tests for the trace log."""

import gc
import pickle
import sys

import pytest

from repro.sim.trace import TraceLog, TraceRecord


def test_emit_and_len():
    log = TraceLog()
    log.emit(1.0, "thing", value=1)
    log.emit(2.0, "thing", value=2)
    assert len(log) == 2


def test_of_kind_filters():
    log = TraceLog()
    log.emit(1.0, "a")
    log.emit(2.0, "b")
    log.emit(3.0, "a")
    assert [r.time for r in log.of_kind("a")] == [1.0, 3.0]
    assert log.of_kind("missing") == []


def test_first_with_field_match():
    log = TraceLog()
    log.emit(1.0, "drop", node=1)
    log.emit(2.0, "drop", node=2)
    record = log.first("drop", node=2)
    assert record is not None and record.time == 2.0
    assert log.first("drop", node=99) is None


def test_count_with_field_match():
    log = TraceLog()
    log.emit(1.0, "x", node=1)
    log.emit(2.0, "x", node=1)
    log.emit(3.0, "x", node=2)
    assert log.count("x") == 3
    assert log.count("x", node=1) == 2


def test_subscribe_receives_live_records():
    log = TraceLog()
    seen = []
    log.subscribe("evt", seen.append)
    log.emit(1.0, "evt", k="v")
    log.emit(2.0, "other")
    assert len(seen) == 1
    assert seen[0]["k"] == "v"


def test_record_get_and_getitem():
    log = TraceLog()
    record = log.emit(1.0, "evt", a=1)
    assert record["a"] == 1
    assert record.get("missing", "default") == "default"


def test_clear_keeps_subscribers():
    log = TraceLog()
    seen = []
    log.subscribe("evt", seen.append)
    log.emit(1.0, "evt")
    log.clear()
    assert len(log) == 0
    log.emit(2.0, "evt")
    assert len(seen) == 2


def test_iteration_order():
    log = TraceLog()
    log.emit(1.0, "a")
    log.emit(0.5, "b")  # emission order, not time order
    assert [r.kind for r in log] == ["a", "b"]


# ----------------------------------------------------------------------
# TraceRecord contract
# ----------------------------------------------------------------------
FIELDS = {"receiver": 3, "collided": True, "packet": ("REQ", 1, 2), "tx": 4, "dst": None, "prev": 1}


def test_record_constructor_positional_and_keyword():
    positional = TraceRecord(12.5, "rx_lost", FIELDS)
    keyword = TraceRecord(time=12.5, kind="rx_lost", fields=dict(FIELDS))
    assert positional == keyword
    assert (positional.time, positional.kind) == (12.5, "rx_lost")
    assert TraceRecord(1.0, "x").fields == {}


def test_record_fields_is_a_detached_copy():
    record = TraceLog().emit(12.5, "rx_lost", **FIELDS)
    assert record.fields == FIELDS
    assert list(record.fields) == list(FIELDS)
    assert record.keys() == tuple(FIELDS)
    assert dict(record.items()) == FIELDS
    copy = record.fields
    copy["receiver"] = 99
    del copy["tx"]
    assert record.fields == FIELDS
    assert record["receiver"] == 3


def test_record_missing_field():
    record = TraceRecord(1.0, "evt", {"a": 1})
    with pytest.raises(KeyError):
        record["b"]
    assert record.get("b") is None
    assert record.get("b", 7) == 7


def test_record_time_and_kind_are_read_only():
    record = TraceRecord(1.0, "evt", {"a": 1})
    with pytest.raises(AttributeError):
        record.time = 2.0
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_equality_repr_and_pickle():
    record = TraceRecord(12.5, "rx_lost", FIELDS)
    reordered = TraceRecord(12.5, "rx_lost", dict(reversed(list(FIELDS.items()))))
    assert record == reordered
    assert record != TraceRecord(12.5, "rx_lost", {**FIELDS, "tx": 5})
    assert record != TraceRecord(12.0, "rx_lost", FIELDS)
    assert record != TraceRecord(12.5, "rx_ok", FIELDS)
    assert record != (12.5, "rx_lost", FIELDS)
    assert repr(record) == (
        "TraceRecord(time=12.5, kind='rx_lost', fields={'receiver': 3, 'collided': True, "
        "'packet': ('REQ', 1, 2), 'tx': 4, 'dst': None, 'prev': 1})"
    )
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record
    assert restored.fields == FIELDS
    with pytest.raises(TypeError):
        hash(record)


def test_record_to_json_bytes_unchanged():
    from repro.obs.sinks import record_from_json, record_to_json

    line = record_to_json(TraceRecord(12.5, "rx_lost", FIELDS), run="4:abc")
    assert line == (
        '{"fields":{"collided":true,"dst":null,"packet":["REQ",1,2],"prev":1,'
        '"receiver":3,"tx":4},"kind":"rx_lost","run":"4:abc","time":12.5}'
    )
    assert record_from_json(line)["__run__"] == "4:abc"


def _deep_size(obj, seen):
    """``sys.getsizeof`` of ``obj`` and everything it references, each
    object counted once across calls sharing ``seen`` (classes excluded)."""
    if id(obj) in seen or isinstance(obj, type):
        return 0
    seen.add(id(obj))
    return sys.getsizeof(obj) + sum(_deep_size(ref, seen) for ref in gc.get_referents(obj))


def test_resident_record_memory_budget():
    """A resident record, with everything it holds, costs under 256 B on
    a 40-node LITEWORP run (shared layouts and packet keys counted once)."""
    from repro.experiments.scenario import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(n_nodes=40, duration=80.0, seed=4))
    scenario.run()
    records = list(scenario.trace)
    assert len(records) > 1000
    seen = set()
    per_record = sum(_deep_size(record, seen) for record in records) / len(records)
    assert per_record < 256, per_record
