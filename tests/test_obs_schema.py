"""Trace-schema registry and strict emission mode."""

import ast
from pathlib import Path

import pytest

import repro
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.obs.config import ObsConfig
from repro.obs.schema import (
    DEFAULT_REGISTRY,
    SchemaRegistry,
    TraceSchema,
    TraceSchemaError,
    install_strict,
)
from repro.sim.trace import TraceLog, TraceRecord


def test_default_registry_covers_the_protocol_vocabulary():
    for kind in (
        "malc_increment", "guard_detection", "alert_sent", "alert_accepted",
        "alert_rejected", "alert_ack_verified", "alert_retransmit",
        "alert_abandoned", "alert_undeliverable", "isolation",
        "frame_rejected", "send_blocked", "data_origin", "data_delivered",
        "malicious_drop", "wormhole_activity", "neighbor_dead",
        "fault_injected",
    ):
        assert kind in DEFAULT_REGISTRY, kind


def test_valid_record_passes():
    record = TraceRecord(1.0, "isolation", {"node": 2, "accused": 4, "alerts": 3})
    assert DEFAULT_REGISTRY.errors(record) == []
    DEFAULT_REGISTRY.validate(record)  # no raise


def test_unknown_kind_is_an_error():
    record = TraceRecord(0.0, "isolaton", {"node": 2})  # typo'd kind
    (problem,) = DEFAULT_REGISTRY.errors(record)
    assert "unknown trace kind" in problem
    with pytest.raises(TraceSchemaError):
        DEFAULT_REGISTRY.validate(record)


def test_missing_required_field_is_an_error():
    record = TraceRecord(0.0, "isolation", {"node": 2, "accused": 4})
    (problem,) = DEFAULT_REGISTRY.errors(record)
    assert "missing required" in problem and "alerts" in problem


def test_undeclared_field_is_an_error():
    record = TraceRecord(
        0.0, "isolation", {"node": 2, "accused": 4, "alerts": 3, "extra": 1}
    )
    (problem,) = DEFAULT_REGISTRY.errors(record)
    assert "undeclared" in problem and "extra" in problem


def test_optional_fields_may_be_absent_or_present():
    registry = SchemaRegistry()
    registry.declare("thing", required=["a"], optional=["b"])
    assert registry.errors(TraceRecord(0.0, "thing", {"a": 1})) == []
    assert registry.errors(TraceRecord(0.0, "thing", {"a": 1, "b": 2})) == []


def test_install_strict_raises_on_emit():
    trace = TraceLog()
    install_strict(trace)
    trace.emit(0.0, "guard_detection", guard=0, accused=4)  # valid
    with pytest.raises(TraceSchemaError):
        trace.emit(0.0, "guard_detection", guard=0)  # missing accused
    # The failing record is not stored.
    assert trace.total_emitted == 1
    assert len(trace) == 1


def test_validator_can_be_cleared():
    trace = TraceLog()
    install_strict(trace)
    trace.set_validator(None)
    trace.emit(0.0, "anything-goes", whatever=1)
    assert trace.count("anything-goes") == 1


def test_registry_iteration_and_markdown_table():
    table = DEFAULT_REGISTRY.markdown_table()
    assert table.startswith("| kind |")
    for schema in DEFAULT_REGISTRY:
        assert isinstance(schema, TraceSchema)
        assert f"`{schema.kind}`" in table
    assert len(DEFAULT_REGISTRY.kinds()) == len(DEFAULT_REGISTRY)


@pytest.mark.parametrize("attack_mode", ["none", "outofband"])
def test_full_scenario_emits_only_declared_records(attack_mode):
    """Strict mode over a real run: every emit matches the registry."""
    config = ScenarioConfig(
        n_nodes=16,
        duration=50.0,
        seed=5,
        attack_mode=attack_mode,
        n_malicious=2 if attack_mode != "none" else 0,
        attack_start=20.0,
        obs=ObsConfig(strict=True),
    )
    build_scenario(config).run()  # TraceSchemaError would propagate


def test_protocol_doc_embeds_the_registry_table():
    doc = Path(__file__).resolve().parents[1] / "docs" / "PROTOCOL.md"
    assert DEFAULT_REGISTRY.markdown_table() in doc.read_text(encoding="utf-8")


def test_every_declared_kind_has_an_emitter():
    package = Path(repro.__file__).resolve().parent
    literals = set()
    for path in package.rglob("*.py"):
        if path == package / "obs" / "schema.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        literals.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    orphans = [kind for kind in DEFAULT_REGISTRY.kinds() if kind not in literals]
    assert orphans == []
