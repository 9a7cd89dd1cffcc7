"""Tests for scenario assembly and the experiment parameter set."""

import gc

import pytest

from repro.experiments.parameters import TABLE2
from repro.experiments.scenario import (
    ScenarioConfig,
    average_runs,
    build_scenario,
    run_scenario,
)


def test_table2_values_match_paper():
    assert TABLE2.tx_range_m == 30.0
    assert TABLE2.node_counts == (20, 50, 100, 150)
    assert TABLE2.avg_neighbors == 8
    assert TABLE2.data_rate == pytest.approx(1 / 10)
    assert TABLE2.dest_change_rate == pytest.approx(1 / 200)
    assert TABLE2.route_timeout == 50.0
    assert TABLE2.channel_bandwidth_bps == 40_000.0
    assert TABLE2.theta_range == (2, 3, 4, 5, 6, 7, 8)
    assert TABLE2.malicious_counts == (0, 1, 2, 3, 4)


def test_table2_rows_render():
    rows = dict(TABLE2.rows())
    assert rows["Tx Range (r)"] == "30 m"
    assert rows["N_B"] == "8"
    assert rows["Channel BW"] == "40 kbps"


def test_build_scenario_is_deterministic():
    config = ScenarioConfig(n_nodes=20, duration=60.0, seed=4, attack_start=20.0)
    a = build_scenario(config)
    b = build_scenario(config)
    assert a.topology.positions == b.topology.positions
    assert a.malicious_ids == b.malicious_ids


def test_no_collection_between_the_run_and_its_report(monkeypatch):
    """``Scenario.run`` pauses the cyclic collector for ``sim.run``.  When
    it turns it back on, what the run allocated is no longer young, so no
    collection walks it before the report is back; a caller that had the
    collector off keeps it off."""
    events = []
    enable = gc.enable

    def marked():
        events.append("enable")
        enable()

    def on_collection(phase, info):
        events.append((phase, info["generation"]))

    scenario = build_scenario(ScenarioConfig(n_nodes=30, duration=60.0, seed=3, attack_start=20.0))
    monkeypatch.setattr(gc, "enable", marked)
    gc.callbacks.append(on_collection)
    try:
        scenario.run()
    finally:
        gc.callbacks.remove(on_collection)
    assert events.count("enable") == 1
    assert events[events.index("enable") + 1:] == []

    gc.disable()
    try:
        build_scenario(ScenarioConfig(n_nodes=20, duration=40.0, seed=3, attack_start=20.0)).run()
        assert not gc.isenabled()
    finally:
        enable()


def test_run_scenario_deterministic_end_to_end():
    config = ScenarioConfig(n_nodes=20, duration=60.0, seed=4, attack_start=20.0)
    r1 = run_scenario(config)
    r2 = run_scenario(config)
    assert r1.originated == r2.originated
    assert r1.delivered == r2.delivered
    assert r1.wormhole_drops == r2.wormhole_drops
    assert r1.drop_times == r2.drop_times


def test_different_seeds_differ():
    base = ScenarioConfig(n_nodes=20, duration=60.0, seed=4, attack_start=20.0)
    from dataclasses import replace
    a = build_scenario(base)
    b = build_scenario(replace(base, seed=5))
    assert a.topology.positions != b.topology.positions


def test_malicious_nodes_separated():
    config = ScenarioConfig(n_nodes=40, duration=60.0, seed=4, attack_start=20.0)
    scenario = build_scenario(config)
    a, b = scenario.malicious_ids
    hops = scenario.topology.hop_distance(a, b)
    assert hops is not None and hops > 2


def test_honest_nodes_have_agents_malicious_do_not():
    config = ScenarioConfig(n_nodes=20, duration=60.0, seed=4, attack_start=20.0)
    scenario = build_scenario(config)
    for malicious in scenario.malicious_ids:
        assert malicious not in scenario.agents
    for honest in scenario.honest_ids:
        assert honest in scenario.agents


def test_liteworp_disabled_builds_no_agents():
    config = ScenarioConfig(
        n_nodes=20, duration=60.0, seed=4, attack_start=20.0, defense="none"
    )
    scenario = build_scenario(config)
    assert scenario.agents == {}


def test_traffic_sources_exclude_malicious():
    config = ScenarioConfig(n_nodes=20, duration=60.0, seed=4, attack_start=20.0)
    scenario = build_scenario(config)
    assert set(scenario.traffic.sources) == set(scenario.honest_ids)


def test_attack_none_has_no_malicious():
    config = ScenarioConfig(n_nodes=20, duration=60.0, seed=4, attack_mode="none")
    scenario = build_scenario(config)
    assert scenario.malicious_ids == ()
    assert scenario.coordinator is None


def test_average_runs_distinct_seeds():
    config = ScenarioConfig(n_nodes=20, duration=60.0, seed=4, attack_start=20.0)
    reports = average_runs(config, runs=2)
    assert len(reports) == 2


def test_average_runs_validation():
    config = ScenarioConfig(n_nodes=20, duration=60.0, seed=4)
    with pytest.raises(ValueError):
        average_runs(config, runs=0)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(attack_mode="bogus")
    with pytest.raises(ValueError):
        ScenarioConfig(n_malicious=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(n_nodes=2)
    with pytest.raises(ValueError):
        ScenarioConfig(attack_mode="highpower", n_malicious=2)
    with pytest.raises(ValueError):
        ScenarioConfig(duration=40.0, attack_start=50.0)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"n_nodes": 3}, "at least 4 nodes"),
        ({"tx_range": 0.0}, "tx_range must be positive"),
        ({"tx_range": -5.0}, "tx_range must be positive"),
        ({"avg_neighbors": 0.0}, "avg_neighbors must be positive"),
        ({"duration": 0.0}, "duration must be positive"),
        ({"attack_start": -1.0}, "attack_start must be non-negative"),
        ({"malicious_min_separation": -1}, "must be non-negative"),
        ({"encap_hop_delay": -0.1}, "encap_hop_delay must be non-negative"),
        ({"highpower_multiplier": 0.0}, "highpower_multiplier must be positive"),
        ({"defense": "tinfoil"}, "defense must be one of"),
    ],
)
def test_config_validation_is_eager_with_clear_messages(kwargs, fragment):
    """A malformed config must fail at construction, naming the offending
    field and the value it got."""
    with pytest.raises(ValueError, match=fragment):
        ScenarioConfig(**kwargs)


def test_config_validation_reports_offending_value():
    with pytest.raises(ValueError, match=r"got -1\.0"):
        ScenarioConfig(tx_range=-1.0)


def test_oracle_mode_default_activates_immediately():
    config = ScenarioConfig(n_nodes=20, duration=60.0, seed=4, attack_start=20.0)
    scenario = build_scenario(config)
    assert all(agent.activated for agent in scenario.agents.values())


def test_protocol_discovery_mode():
    config = ScenarioConfig(
        n_nodes=16, duration=60.0, seed=4, attack_start=20.0, oracle_neighbors=False
    )
    scenario = build_scenario(config)
    assert not any(agent.activated for agent in scenario.agents.values())
    scenario.run()
    assert all(agent.activated for agent in scenario.agents.values())
