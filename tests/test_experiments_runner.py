"""Sweep execution through the campaign executor: determinism, ordering,
caching, fan-out, failure semantics."""

import json

import pytest

from repro import api
from repro.experiments.cache import ResultCache
from repro.experiments.campaign import (
    CampaignError,
    replication_configs,
    resolve_jobs,
    run_sweep,
)
from repro.experiments.scenario import ScenarioConfig, average_runs, run_scenario
from repro.experiments.seeds import child_seed

TINY = ScenarioConfig(n_nodes=16, duration=40.0, seed=4, attack_start=20.0)


def _canonical(reports):
    return [json.dumps(r.to_state(), sort_keys=True) for r in reports]


def test_resolve_jobs_policy():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(-1) >= 1


def test_replication_configs_use_hash_seeds():
    configs = replication_configs(TINY, 3)
    assert [c.seed for c in configs] == [child_seed(4, i) for i in range(3)]
    assert configs[0] == TINY  # index 0 is the base config itself
    with pytest.raises(ValueError):
        replication_configs(TINY, 0)


def test_parallel_equals_serial_byte_identical():
    """The acceptance property: a parallel sweep returns byte-identical
    MetricsReports to a serial sweep of the same configs, in order."""
    configs = replication_configs(TINY, 3)
    serial = run_sweep(configs).reports
    parallel = run_sweep(configs, jobs=2).reports
    assert len(serial) == 3
    assert serial == parallel
    assert _canonical(serial) == _canonical(parallel)


def test_average_runs_parallel_matches_serial():
    serial = average_runs(TINY, 3)
    parallel = average_runs(TINY, 3, jobs=2)
    assert _canonical(serial) == _canonical(parallel)


def test_cache_hit_returns_identical_report(tmp_path):
    """A cold pass, inline or on the process backend, writes the cache
    that a warm pass then serves byte-identically."""
    configs = replication_configs(TINY, 2)
    for jobs in (None, 2):
        cache_dir = tmp_path / f"jobs-{jobs}"
        first = run_sweep(configs, jobs=jobs, cache=ResultCache(cache_dir))
        assert first.executed == 2 and first.from_cache == 0

        second = run_sweep(configs, cache=ResultCache(cache_dir))
        assert second.executed == 0 and second.from_cache == 2
        assert second.reports == first.reports
        assert _canonical(second.reports) == _canonical(first.reports)


def test_partial_cache_only_computes_misses(tmp_path):
    configs = replication_configs(TINY, 3)
    run_sweep(configs[:1], cache=ResultCache(tmp_path))
    mixed = run_sweep(configs, cache=ResultCache(tmp_path))
    assert mixed.from_cache == 1
    assert mixed.executed == 2
    assert _canonical(mixed.reports) == _canonical(run_sweep(configs).reports)


def test_average_runs_accepts_a_cache_directory(tmp_path):
    """``average_runs`` takes a directory path like ``api.sweep`` does."""
    first = average_runs(TINY, 2, cache=str(tmp_path))
    cache = ResultCache(tmp_path)
    assert [cache.get(c) for c in replication_configs(TINY, 2)] == first
    assert _canonical(average_runs(TINY, 2, cache=tmp_path)) == _canonical(first)
    assert _canonical(api.sweep(TINY, 2, cache=tmp_path)) == _canonical(first)


def test_run_one_matches_run_scenario():
    assert run_sweep([TINY]).reports == [run_scenario(TINY)]


def _failing_scenario(config):
    raise RuntimeError(f"boom at seed {config.seed}")


@pytest.mark.parametrize("jobs", [None, 2])
def test_failing_scenario_raises_and_is_not_dead_lettered(monkeypatch, jobs):
    import repro.experiments.campaign as campaign

    # Forked pool workers inherit the patched module global.
    monkeypatch.setattr(campaign, "run_scenario", _failing_scenario)
    with pytest.raises(CampaignError) as info:
        run_sweep(replication_configs(TINY, 2), jobs=jobs)
    assert isinstance(info.value.__cause__, RuntimeError)
    assert "boom at seed" in str(info.value.__cause__)
