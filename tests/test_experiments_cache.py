"""Content-addressed result cache: digests, round-trips, invalidation."""

import dataclasses
import json
import pathlib
import shutil

import pytest

import repro
from repro.experiments.cache import (
    ResultCache,
    canonical_value,
    code_salt,
    config_digest,
    source_salt,
)
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.metrics.collector import MetricsReport

TINY = ScenarioConfig(n_nodes=16, duration=40.0, seed=4, attack_start=20.0)


def test_digest_is_stable():
    assert config_digest(TINY) == config_digest(TINY)
    rebuilt = ScenarioConfig(n_nodes=16, duration=40.0, seed=4, attack_start=20.0)
    assert config_digest(TINY) == config_digest(rebuilt)


def test_digest_changes_with_any_field():
    assert config_digest(TINY) != config_digest(dataclasses.replace(TINY, seed=5))
    assert config_digest(TINY) != config_digest(
        dataclasses.replace(TINY, duration=41.0)
    )


def test_digest_sees_nested_dataclass_fields():
    deeper = dataclasses.replace(
        TINY, liteworp=dataclasses.replace(TINY.liteworp, theta=TINY.liteworp.theta + 1)
    )
    assert config_digest(TINY) != config_digest(deeper)


def test_canonical_value_tags_dataclass_types():
    rendered = canonical_value(TINY)
    assert rendered["__type__"] == "ScenarioConfig"
    assert rendered["__fields__"]["seed"] == 4


def test_canonical_value_rejects_unhashable_junk():
    with pytest.raises(TypeError):
        canonical_value(object())


def test_code_salt_is_memoized_and_hexadecimal():
    salt = code_salt()
    assert salt == code_salt()
    assert len(salt) == 64
    int(salt, 16)


def test_editing_a_kernel_source_retires_cached_results(tmp_path):
    package = pathlib.Path(repro.__file__).resolve().parent
    tree = tmp_path / "repro"
    shutil.copytree(package, tree, ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    assert source_salt(tree) == code_salt()
    before = ResultCache(tmp_path / "cache", salt=source_salt(tree))
    report = MetricsReport(
        duration=TINY.duration, originated=1, delivered=1, wormhole_drops=0,
        routes_established=1, malicious_routes=0, drop_times=(), isolation_times={},
        first_activity={}, detections=0, isolations=0,
    )
    before.put(TINY, report)
    assert before.get(TINY) is not None

    kernel = tree / "sim" / "_ckernel.c"
    kernel.write_bytes(kernel.read_bytes() + b"/* edited */\n")
    after = ResultCache(tmp_path / "cache", salt=source_salt(tree))
    assert after.salt != before.salt
    assert after.get(TINY) is None  # the old kernel's report is not served

    header = tree / "sim" / "extra.h"
    header.write_bytes(b"/* a header the kernel may include */\n")
    assert source_salt(tree) != after.salt


def test_cache_round_trip_is_identical(tmp_path):
    report = run_scenario(TINY)
    cache = ResultCache(tmp_path)
    assert cache.get(TINY) is None  # miss before put
    path = cache.put(TINY, report)
    assert path.exists()
    fetched = ResultCache(tmp_path).get(TINY)
    assert fetched == report
    # Byte-identical through the serialisation the sweep runner compares.
    assert json.dumps(fetched.to_state(), sort_keys=True) == json.dumps(
        report.to_state(), sort_keys=True
    )


def test_metrics_report_state_round_trip():
    report = run_scenario(TINY)
    assert MetricsReport.from_state(
        json.loads(json.dumps(report.to_state()))
    ) == report


def test_salt_change_invalidates(tmp_path):
    report = run_scenario(TINY)
    ResultCache(tmp_path, salt="a" * 64).put(TINY, report)
    assert ResultCache(tmp_path, salt="a" * 64).get(TINY) == report
    assert ResultCache(tmp_path, salt="b" * 64).get(TINY) is None


def test_corrupt_entry_is_a_miss(tmp_path):
    report = run_scenario(TINY)
    cache = ResultCache(tmp_path)
    path = cache.put(TINY, report)
    path.write_text("{not json")
    fresh = ResultCache(tmp_path)
    assert fresh.get(TINY) is None
    assert fresh.stats() == {"hits": 0, "misses": 1}


def test_hit_and_miss_counters(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(TINY) is None
    cache.put(TINY, run_scenario(TINY))
    assert cache.get(TINY) is not None
    assert cache.stats() == {"hits": 1, "misses": 1}


ATTACKED = ScenarioConfig(
    n_nodes=24, duration=60.0, seed=3, attack_mode="outofband",
    n_malicious=2, attack_start=20.0, defense="liteworp",
)


def test_latency_stages_round_trip_through_cache(tmp_path):
    report = run_scenario(ATTACKED)
    assert report.latency_stages  # the attack must have been observed
    cache = ResultCache(tmp_path)
    cache.put(ATTACKED, report)
    fetched = ResultCache(tmp_path).get(ATTACKED)
    assert fetched.latency_stages == report.latency_stages
    for node in report.latency_stages:
        assert fetched.detection_latency(node) == report.detection_latency(node)
        assert fetched.latency_decomposition(node) == report.latency_decomposition(node)
    assert fetched.mean_detection_latency() == report.mean_detection_latency()


def test_schema_version_2_entry_loads_without_latency_stages(tmp_path):
    """Entries written before latency_stages existed must still load."""
    report = run_scenario(TINY)
    cache = ResultCache(tmp_path)
    path = cache.path_for(TINY)
    path.parent.mkdir(parents=True, exist_ok=True)
    state = report.to_state()
    del state["latency_stages"]  # pin the version-2 on-disk shape
    path.write_text(json.dumps(
        {"schema": 2, "config": repr(TINY), "report": state}
    ))
    loaded = ResultCache(tmp_path).get(TINY)
    assert loaded is not None
    assert loaded.latency_stages == {}
    assert loaded.mean_detection_latency() is None
    assert loaded.originated == report.originated
