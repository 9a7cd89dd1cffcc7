"""Defense plugin registry: contract, spec coercion, digests, pins.

Three guarantees live here:

1. **Contract** — every registered defense runs a small wormhole scenario
   to a valid :class:`MetricsReport` through nothing but the plugin
   protocol (no scheme-specific wiring left in the scenario builder).
2. **Digest separation** — the cache digest includes the defense name
   *and* its per-plugin config block, so two defenses with otherwise
   identical configs (or one defense with two tunings) can never collide.
3. **Byte-identity pins** — the four pre-registry schemes produce the
   exact reports they produced before the plugin migration, byte for
   byte, on fixed seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.config import LiteworpConfig
from repro.defenses import (
    Defense,
    DefenseSpec,
    available_defenses,
    get_defense,
    register_defense,
    unregister_defense,
)
from repro.defenses.rtt import RttConfig
from repro.defenses.snd import SndConfig
from repro.experiments.cache import config_digest
from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.metrics.collector import MetricsReport


BUILTINS = ("geo_leash", "liteworp", "none", "rtt", "snd", "temporal_leash")


def _report_digest(report: MetricsReport) -> str:
    state = json.dumps(report.to_state(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(state.encode()).hexdigest()


# ----------------------------------------------------------------------
# Registry surface
# ----------------------------------------------------------------------
def test_builtins_registered():
    assert available_defenses() == BUILTINS


def test_get_unknown_defense_names_available():
    with pytest.raises(ValueError, match="unknown defense 'prayer'"):
        get_defense("prayer")


def test_register_rejects_collisions_and_reserved_names():
    class Fake(Defense):
        name = "liteworp"

    with pytest.raises(ValueError, match="already registered"):
        register_defense(Fake())

    class Auto(Defense):
        name = "auto"

    with pytest.raises(ValueError):
        register_defense(Auto())


def test_register_unregister_roundtrip():
    class Custom(Defense):
        name = "custom_scheme"

    register_defense(Custom())
    try:
        assert "custom_scheme" in available_defenses()
        assert isinstance(get_defense("custom_scheme"), Custom)
        # A third-party scheme is a first-class ScenarioConfig value.
        config = ScenarioConfig(n_nodes=16, defense="custom_scheme")
        assert config.effective_defense() == "custom_scheme"
    finally:
        unregister_defense("custom_scheme")
    assert "custom_scheme" not in available_defenses()


# ----------------------------------------------------------------------
# Built-ins registered by name: each loads on its first get_defense
# ----------------------------------------------------------------------
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(code):
    """Run ``code`` in a new interpreter, where no defense is loaded yet;
    its last line of output, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    prologue = (
        "import json, sys\n"
        "from repro.defenses import available_defenses, get_defense, register_defense, unregister_defense\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", prologue + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_listing_builtins_loads_none():
    result = _fresh("""
        listed = available_defenses()
        loaded = [m for m in sys.modules if m.startswith("repro.defenses.") and m != "repro.defenses.registry"]
        print(json.dumps([listed, loaded]))
    """)
    assert result == [list(BUILTINS), []]


def test_builtin_name_is_taken_before_it_loads():
    result = _fresh("""
        from repro.defenses import registry
        from repro.defenses.rtt import RttDefense

        before = "rtt" in registry._REGISTRY
        try:
            register_defense(RttDefense())
            message = None
        except ValueError as exc:
            message = str(exc)
        print(json.dumps([before, message]))
    """)
    assert result == [False, "defense 'rtt' is already registered (<Defense 'rtt'>); "
                             "pass replace=True to override"]


def test_unregistered_builtin_is_gone():
    result = _fresh("""
        unregister_defense("snd")
        try:
            get_defense("snd")
            message = None
        except ValueError as exc:
            message = str(exc)
        print(json.dumps([message, "repro.defenses.snd" in sys.modules]))
    """)
    assert result == [
        "unknown defense 'snd'; available: "
        "('geo_leash', 'liteworp', 'none', 'rtt', 'temporal_leash')",
        False,
    ]


def test_replace_over_unloaded_builtin_wins():
    result = _fresh("""
        from repro.defenses import Defense

        class Mine(Defense):
            name = "geo_leash"

        mine = register_defense(Mine(), replace=True)
        print(json.dumps([
            get_defense("geo_leash") is mine,
            available_defenses(),
            "repro.defenses.leash" in sys.modules,
        ]))
    """)
    assert result == [True, list(BUILTINS), False]


# ----------------------------------------------------------------------
# DefenseSpec coercion + config resolution
# ----------------------------------------------------------------------
def test_spec_coercion_forms():
    assert DefenseSpec.coerce("rtt") == DefenseSpec(name="rtt")
    assert DefenseSpec.coerce({"name": "rtt"}) == DefenseSpec(name="rtt")
    spec = DefenseSpec(name="rtt", config=RttConfig(alpha=2.0))
    assert DefenseSpec.coerce(spec) is spec
    with pytest.raises(ValueError, match="DefenseSpec"):
        DefenseSpec.coerce(42)


def test_scenario_config_normalises_all_spellings():
    by_string = ScenarioConfig(n_nodes=16, defense="rtt")
    by_mapping = ScenarioConfig(n_nodes=16, defense={"name": "rtt"})
    by_spec = ScenarioConfig(n_nodes=16, defense=DefenseSpec(name="rtt"))
    assert by_string.defense == by_mapping.defense == by_spec.defense
    assert isinstance(by_string.defense.config, RttConfig)
    # One canonical spec means one cache digest per semantic config.
    assert config_digest(by_string) == config_digest(by_mapping) == config_digest(by_spec)


def test_mapping_config_block_resolves_through_plugin():
    config = ScenarioConfig(
        n_nodes=16, defense={"name": "rtt", "config": {"alpha": 2.5}}
    )
    assert config.defense.config.alpha == 2.5
    with pytest.raises(ValueError, match="bad config for defense 'rtt'"):
        ScenarioConfig(n_nodes=16, defense={"name": "rtt", "config": {"bogus": 1}})


def test_config_block_on_configless_plugin_rejected():
    with pytest.raises(ValueError, match="takes no config block"):
        ScenarioConfig(n_nodes=16, defense={"name": "none", "config": {"x": 1}})


def test_unknown_defense_name_rejected():
    with pytest.raises(ValueError, match="defense must be one of"):
        ScenarioConfig(n_nodes=16, defense="prayer")


def test_auto_resolves_to_liteworp():
    config = ScenarioConfig(n_nodes=16)
    assert config.defense.name == "auto"
    assert config.effective_defense() == "liteworp"


# ----------------------------------------------------------------------
# Cache digest separation
# ----------------------------------------------------------------------
def test_digest_separates_defense_names():
    digests = {
        name: config_digest(ScenarioConfig(n_nodes=16, defense=name))
        for name in BUILTINS
    }
    assert len(set(digests.values())) == len(BUILTINS)


def test_digest_separates_plugin_config_blocks():
    # Same defense, different tuning: before the DefenseSpec digest fix
    # these collided (the plugin block was invisible to the hash).
    loose = ScenarioConfig(
        n_nodes=16, defense=DefenseSpec(name="rtt", config=RttConfig(alpha=1.8))
    )
    tight = ScenarioConfig(
        n_nodes=16, defense=DefenseSpec(name="rtt", config=RttConfig(alpha=3.0))
    )
    assert config_digest(loose) != config_digest(tight)

    slow = ScenarioConfig(
        n_nodes=16, defense=DefenseSpec(name="snd", config=SndConfig(rounds=4))
    )
    fast = ScenarioConfig(
        n_nodes=16, defense=DefenseSpec(name="snd", config=SndConfig(rounds=6))
    )
    assert config_digest(slow) != config_digest(fast)


# ----------------------------------------------------------------------
# Contract: every registered defense completes a wormhole scenario
# ----------------------------------------------------------------------
@pytest.mark.parametrize("defense", BUILTINS)
def test_every_defense_runs_wormhole_scenario(defense):
    config = ScenarioConfig(
        n_nodes=20, duration=60.0, seed=5, attack_mode="outofband",
        n_malicious=2, attack_start=15.0, defense=defense,
    )
    report = run_scenario(config)
    assert isinstance(report, MetricsReport)
    assert report.originated > 0
    assert report.delivered >= 0
    # The plugin's report-time surface is well-formed for every scheme.
    plugin = get_defense(defense)
    plugin_config = config.defense_spec().config
    contribution = plugin.metrics_contribution(report, plugin_config)
    assert all(isinstance(v, float) for v in contribution.values())
    assert isinstance(plugin.detected(report), bool)
    # Round-trips through the cache/journal state format.
    assert MetricsReport.from_state(report.to_state()).to_state() == report.to_state()


# ----------------------------------------------------------------------
# Byte-identity pins for the migrated schemes
# ----------------------------------------------------------------------
#: SHA-256 of the canonical report JSON for each (defense, seed), recorded
#: from the pre-registry if/else scenario builder.  These pins assert the
#: plugin migration changed *nothing* about simulation behavior; update
#: them only for a change that is *supposed* to alter results.
PINNED_DIGESTS = {
    ("liteworp", 7): "06f78b859a36db93e3e11b8812a5b8423dbc9a30d0b1b3297339119dd6fb93de",
    ("liteworp", 11): "4e340dfcab47e43e72d8cc68bf52f280123dac1e7bb6397ff0b2fa6ae44464fc",
    ("geo_leash", 7): "9525cef8958a53bd2fb9851fa8e892f2f5c13f8430532ca39fb18d6820fcb25c",
    ("geo_leash", 11): "b3171c94f1de4951c619f115f669ada508f1a7aba7812189f71d191005996cd4",
    ("temporal_leash", 7): "8f46f9cd339e9b0765b74c6f1e0aabb3013364e58db69bd947a1d58ed2ad94f2",
    ("temporal_leash", 11): "b9b47e191d151f4ec6ebce71204172b4f572e5a2dc8e03576736e229cdd4e5ef",
    ("none", 7): "e04e887c2ada5b781a2b0d5c2f23d578b8cd00547312ceca9c41c77fa9165b24",
    ("none", 11): "c127da897fd3155b7311fecf3431a9760aa704f51601fd04e18b3cbe7870e940",
}


@pytest.mark.parametrize("defense,seed", sorted(PINNED_DIGESTS))
def test_migrated_schemes_byte_identical(defense, seed):
    config = ScenarioConfig(
        n_nodes=24, duration=80.0, seed=seed, attack_mode="outofband",
        n_malicious=2, attack_start=20.0, defense=defense,
    )
    assert _report_digest(run_scenario(config)) == PINNED_DIGESTS[(defense, seed)]


#: SHA-256 of the canonical report JSON of a 30-node chaos run (crash and
#: recover, heartbeats, alert acks, ``watch_data``) per seed.  The pins
#: above run only the default ``LiteworpConfig``; these cover the liveness
#: and alert-ack paths of the receive hook.
PINNED_CHAOS_DIGESTS = {
    1: "f043adb5d998329bce4d08d0209a6e22bce1dcdaad8634e4e5e10e47d95aa219",
    2: "d793199eb7db0b4fdd2b0722587014064f5a65b7153c6cac88ccf2e490c99109",
}


@pytest.mark.parametrize("seed", sorted(PINNED_CHAOS_DIGESTS))
def test_chaos_refinements_byte_identical(seed):
    result = run_chaos(
        ChaosConfig(n_nodes=30, duration=160.0, seed=seed, recover_fraction=0.5)
    )
    assert _report_digest(result.metrics) == PINNED_CHAOS_DIGESTS[seed]


#: SHA-256 of the canonical report JSON of the 24-node pinned scenario with
#: both optional watch branches on: guards expect every common neighbor to
#: rebroadcast an overheard route request, and watch data forwards too.
#: The pins above leave the request-forwarder branch unexercised.
PINNED_WATCH_DIGESTS = {
    7: "97243d0e04369ddf6204c4f2d4e0eee478221050092ae7b119b3914ec4f4c102",
    11: "99e0499dd92a9d0cfa485bdd3cbd53b6a0cb1a61a44cee9dda769cbcec595420",
}


@pytest.mark.parametrize("seed", sorted(PINNED_WATCH_DIGESTS))
def test_watch_branches_byte_identical(seed):
    config = ScenarioConfig(
        n_nodes=24, duration=80.0, seed=seed, attack_mode="outofband",
        n_malicious=2, attack_start=20.0, defense="liteworp",
        liteworp=LiteworpConfig(watch_request_drops=True, watch_data=True),
    )
    assert _report_digest(run_scenario(config)) == PINNED_WATCH_DIGESTS[seed]


#: SHA-256 of the canonical report JSON of LITEWORP against the wormholes
#: its legitimacy checks reject, per (attack mode, seed): the relay and
#: high-power runs make 60–382 non-neighbour rejects each and the
#: encapsulation runs 54–88 revoked rejects.  The pins above run only the
#: out-of-band mode, whose rejects are all ``revoked``.
PINNED_ATTACK_DIGESTS = {
    ("encapsulation", 7): "de87a2af850f640c4ceefb441b7575d4f60ed3b31b51cfaa6034f5770f2e428f",
    ("encapsulation", 11): "a6f8f2cbc71edf945baf78084be6ddf0fd60c6656df61b386aff39d0c56dacef",
    ("highpower", 7): "6a8df4da7f715a69ec3d9ee4da2d2eb16986e9bbb7a5bca8b797d162f4046ab2",
    ("highpower", 11): "93bb995ee7383b096a82a8cb56d77e0627db70485c640cc3cb2273fc701aefc7",
    ("relay", 7): "cfe05b15fe67c7997652234b1e8b489d173b524f7dea1aa9abf676bfe725aefc",
    ("relay", 11): "dbca88d678a0c0eccaac1918f57dd1350306caa5a9aaa2a9b850d034bc3b94fb",
}


@pytest.mark.parametrize("attack,seed", sorted(PINNED_ATTACK_DIGESTS))
def test_reject_paths_byte_identical(attack, seed):
    config = ScenarioConfig(
        n_nodes=24, duration=80.0, seed=seed, attack_mode=attack,
        n_malicious=2 if attack == "encapsulation" else 1, attack_start=20.0,
        defense="liteworp",
    )
    assert _report_digest(run_scenario(config)) == PINNED_ATTACK_DIGESTS[(attack, seed)]
