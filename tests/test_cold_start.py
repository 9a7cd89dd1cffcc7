"""Start-up imports only what a run uses.

Simulations never load scipy or numpy; the section-5 analysis still
returns the exact floats it always has, importing scipy on first call.
A plain scenario, and building the CLI's parser, leave the campaign,
figure, chaos, analysis and report machinery and the unused defense
plugins unloaded: the package facades resolve their public names on
first access, and the defense registry lists its built-ins by name.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = (
    "repro", "repro.analysis", "repro.attacks", "repro.core", "repro.crypto",
    "repro.defenses", "repro.experiments", "repro.faults", "repro.metrics", "repro.net",
    "repro.obs", "repro.routing", "repro.sim", "repro.traffic",
)

#: Modules a plain scenario or the CLI's parser never calls.
UNUSED = (
    "repro.experiments.campaign", "repro.experiments.journal", "repro.experiments.figures",
    "repro.experiments.chaos", "repro.analysis", "repro.obs.report", "repro.obs.invariants",
    "repro.obs.series", "repro.obs.latency", "repro.faults.harness", "repro.defenses.rtt",
    "repro.defenses.snd", "statistics",
)

PROBE = """
import json, sys
import repro, repro.api
report = repro.api.run(n_nodes=16, duration=20.0, seed=1, attack_start=5.0)
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numpy"))
from repro.analysis import detection_probability, false_alarm_probability, mean_guard_region_area
print(json.dumps({
    "loaded": loaded,
    "detection": detection_probability(0.05, 7, 5, 3, 8),
    "false_alarm": false_alarm_probability(0.25, 7, 5, 3, 8),
    "area": mean_guard_region_area(1.0),
    "scipy_after": "scipy" in sys.modules,
}))
"""

SCENARIO_PROBE = """
import json, sys
from repro.experiments.scenario import ScenarioConfig, build_scenario
config = ScenarioConfig(n_nodes=16, duration=20.0, seed=1, attack_start=5.0, defense="liteworp")
report = build_scenario(config).run()
print(json.dumps({"loaded": sorted(sys.modules), "delivered": report.delivered}))
"""

PARSER_PROBE = """
import json, sys
from repro.cli import build_parser
build_parser()
print(json.dumps({"loaded": sorted(sys.modules)}))
"""


def _probe(code, env=None):
    """Run ``code`` in a new interpreter; its last line of output, as JSON."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_simulation_leaves_scipy_and_numpy_unloaded():
    result = _probe(PROBE, env=dict(os.environ, REPRO_ACCEL="auto"))
    assert result["loaded"] == []
    # Pinned from the eager-import code: the same scipy calls, run later.
    assert result["detection"] == 0.9999999999999217
    assert result["false_alarm"] == 2.3055273971095997e-06
    assert result["area"] == 1.842554547913135
    assert result["scipy_after"]


def test_scenario_leaves_unused_modules_unloaded():
    # REPRO_ACCEL is inherited, so the reference stack is held to it too.
    result = _probe(SCENARIO_PROBE)
    assert result["delivered"] > 0
    assert [m for m in UNUSED if m in result["loaded"]] == []
    assert "repro.defenses.liteworp" in result["loaded"]


def test_cli_parser_leaves_unused_modules_unloaded():
    loaded = _probe(PARSER_PROBE)["loaded"]
    assert [m for m in UNUSED if m in loaded] == []
    assert "repro.experiments.scenario" not in loaded


def test_importing_a_package_runs_no_submodule():
    code = (
        "import json, sys\n"
        f"for name in {PACKAGES!r}: __import__(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    assert _probe(code) == sorted(PACKAGES + ("repro._lazy",))


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_resolve_every_way(package):
    module = importlib.import_module(package)
    star = {}
    exec(f"from {package} import *", star)
    listing = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert star[name] is value
        assert name in listing
    assert sorted(set(star) - {"__builtins__"}) == sorted(module.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        module.no_such_name


def test_api_names_unchanged():
    from repro import api
    from repro.defenses import available_defenses
    from repro.experiments import scenario

    assert api.__all__ == [
        "run", "sweep", "campaign", "matrix", "report", "ATTACK_MODES", "DEFENSES",
        "Scenario", "ScenarioConfig", "ObsConfig", "build_scenario", "Defense",
        "DefenseContext", "DefenseSpec", "available_defenses", "get_defense",
        "register_defense", "CampaignResult", "CampaignSpec", "RetryPolicy",
        "SupervisionPolicy", "load_spec", "MatrixResult", "MatrixSpec", "MetricsReport",
        "ResultCache", "RunReport", "MatrixReport",
    ]
    assert api.ATTACK_MODES == scenario.ATTACK_MODES == (
        "none", "outofband", "encapsulation", "highpower", "relay", "rushing",
    )
    assert api.DEFENSES == ("auto",) + available_defenses()
    assert api.ScenarioConfig is scenario.ScenarioConfig
