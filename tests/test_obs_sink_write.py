"""The trace sink's write path: the C line encoder against the reference
``record_to_json``, whole lines under short writes, IO-error degradation,
and the strict validator's per-layout memory."""

import contextlib
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import sinks
from repro.obs.schema import SchemaRegistry, TraceSchemaError, install_strict
from repro.obs.sinks import JsonlSink, _line_layout, read_jsonl, record_to_json
from repro.sim import accel
from repro.sim.trace import TraceLog, TraceRecord


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


class Tag(str):
    """A str subclass: the C encoder leaves it to the reference."""


def encoder():
    encode = accel.kernel_function("encode_line")
    if encode is None:
        pytest.skip("C kernel not enabled")
    return encode


def run_part(run):
    return JsonlSink("unused.jsonl", run=run)._run_part


def c_line(record, run):
    return encoder()(
        _line_layout(record.keys()), record._values, record.kind, record.time, run_part(run)
    )


def reference_line(record, run):
    return (record_to_json(record, run) + "\n").encode()


simple_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63 - 4, max_value=2**200)
    | st.integers(max_value=-(2**63) + 4, min_value=-(2**200))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.just(-0.0)
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x3F))
)
simple_values = st.recursive(
    simple_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)
awkward_leaves = (
    simple_leaves
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(list(Colour))
    | st.text().map(Tag)
    | st.frozensets(st.integers(), max_size=4)
    | st.sets(st.integers(), max_size=4)
)
awkward_values = st.recursive(
    awkward_leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.integers(), inner, max_size=3)
    ),
    max_leaves=12,
)
times = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)
runs = st.none() | st.text() | st.integers() | st.tuples(st.integers(), st.text())


def records(values, time_values=times):
    return st.builds(
        TraceRecord,
        time=time_values,
        kind=st.text(),
        fields=st.dictionaries(st.text(), values, max_size=6),
    )


@settings(max_examples=300, deadline=None)
@given(record=records(awkward_values, times | st.floats()), run=runs)
def test_c_line_is_the_reference_line_or_none(record, run):
    line = c_line(record, run)
    if line is not None:
        assert line == reference_line(record, run)


@settings(max_examples=300, deadline=None)
@given(record=records(simple_values), run=runs)
def test_c_encoder_handles_plain_values(record, run):
    assert c_line(record, run) == reference_line(record, run)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), Colour.RED, Tag("x"),
    {1: 2}, {3, 1, 2}, frozenset({2, 1}), (1, [2, {3: 4}]),
    [[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]],
])
def test_c_encoder_leaves_awkward_values_to_the_reference(value):
    record = TraceRecord(1.0, "checkpoint", {"value": value})
    assert c_line(record, "r") is None


def test_sink_export_matches_reference_on_both_stacks(tmp_path):
    record_fields = [
        {"packet": ("DATA", 3, 7), "path": [1, 2, 3], "note": "é\x01\""},
        {"reach": frozenset({5, 2}), "value": float("nan"), "colour": Colour.BLUE},
        {},
    ]

    def export(path):
        trace = TraceLog()
        trace.attach_sink(JsonlSink(path, run="7:abc"))
        for i, fields in enumerate(record_fields):
            trace.emit(i * 0.1, "checkpoint", **fields)
        trace.close_sinks()
        return path.read_bytes()

    fast = export(tmp_path / "fast.jsonl")
    with accel.reference_mode():
        reference = export(tmp_path / "reference.jsonl")
    assert fast == reference
    expected = b"".join(
        reference_line(TraceRecord(i * 0.1, "checkpoint", fields), "7:abc")
        for i, fields in enumerate(record_fields)
    )
    assert fast == expected


def test_reference_mode_runs_record_to_json(tmp_path, monkeypatch):
    calls = []
    real = sinks.record_to_json

    def counting(record, run=None):
        calls.append(record.kind)
        return real(record, run)

    monkeypatch.setattr(sinks, "record_to_json", counting)
    with accel.reference_mode():
        trace = TraceLog()
        trace.attach_sink(JsonlSink(tmp_path / "t.jsonl"))
        trace.emit(0.0, "checkpoint", index=1)
        trace.close_sinks()
    assert calls == ["checkpoint"]


class _Trickle:
    """A raw file whose writes accept at most ``step`` bytes."""

    def __init__(self, handle, step):
        self.handle = handle
        self.step = step
        self.calls = 0

    def write(self, data):
        self.calls += 1
        return self.handle.write(bytes(data[: self.step]))

    def close(self):
        self.handle.close()


@pytest.mark.parametrize("reference", [False, True])
def test_short_writes_still_yield_whole_lines(tmp_path, monkeypatch, reference):
    files = []

    def trickling_open(*args, **kwargs):
        files.append(_Trickle(open(*args, **kwargs), step=7))
        return files[-1]

    monkeypatch.setattr(sinks, "open", trickling_open, raising=False)
    path = tmp_path / "t.jsonl"
    trace = TraceLog()
    trace.attach_sink(JsonlSink(path, run="r"))
    with accel.reference_mode() if reference else contextlib.nullcontext():
        for i in range(20):
            trace.emit(float(i), "checkpoint", index=i, label="x" * i)
    trace.close_sinks()

    lines = path.read_bytes().splitlines(keepends=True)
    assert lines == [
        reference_line(TraceRecord(float(i), "checkpoint", {"index": i, "label": "x" * i}), "r")
        for i in range(20)
    ]
    assert files[0].calls > 20  # the writes really were short


def test_os_error_from_the_raw_file_degrades_the_log(tmp_path, monkeypatch):
    class _FullDisk:
        def __init__(self, handle):
            self.handle = handle
            self.writes = 0

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError(28, "No space left on device")
            return self.handle.write(data)

        def close(self):
            self.handle.close()

    monkeypatch.setattr(
        sinks, "open", lambda *a, **k: _FullDisk(open(*a, **k)), raising=False
    )
    path = tmp_path / "t.jsonl"
    trace = TraceLog()
    sink = JsonlSink(path)
    trace.attach_sink(sink)
    trace.emit(0.5, "mac_drop", node=1)
    with pytest.warns(RuntimeWarning, match="JsonlSink failed"):
        trace.emit(0.75, "mac_drop", node=2)
    trace.emit(1.0, "mac_drop", node=3)

    assert trace.degraded_sinks == ["JsonlSink"]
    assert trace.sinks == ()
    assert sink._handle is None  # closed on detach
    (marker,) = trace.of_kind("sink_degraded")
    assert marker.time == 0.75
    assert "No space left" in marker["error"]
    monkeypatch.undo()  # read_jsonl opens the file too
    assert [r["node"] for r in read_jsonl(path)] == [1]
    assert trace.count("mac_drop") == 3


def test_validation_memory_is_per_layout_and_cleared_on_redeclare():
    registry = SchemaRegistry()
    registry.declare("ping", ["node"], ["extra"])
    calls = []
    errors = registry.errors

    def counting_errors(record):
        calls.append(record.keys())
        return errors(record)

    registry.errors = counting_errors
    trace = TraceLog()
    install_strict(trace, registry)
    trace.emit(0.0, "ping", node=1)
    trace.emit(0.1, "ping", node=2)
    assert calls == [("node",)]  # one check per (kind, names)
    trace.emit(0.2, "ping", node=3, extra=True)
    assert calls == [("node",), ("node", "extra")]

    registry.declare("ping", ["node", "extra"])
    with pytest.raises(TraceSchemaError, match="missing required"):
        trace.emit(0.3, "ping", node=4)
    trace.emit(0.4, "ping", node=5, extra=False)
    assert calls[-1] == ("node", "extra")
    assert len(calls) == 4


def test_failed_layout_is_not_remembered():
    registry = SchemaRegistry()
    registry.declare("ping", ["node"])
    record = TraceRecord(0.0, "ping", {"nodes": 1})
    for _ in range(2):
        with pytest.raises(TraceSchemaError, match="undeclared"):
            registry.validate(record)
