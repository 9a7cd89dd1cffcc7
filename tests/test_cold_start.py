"""Simulations never load scipy or numpy; the section-5 analysis still
returns the exact floats it always has, importing scipy on first call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

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


def test_simulation_leaves_scipy_and_numpy_unloaded():
    env = dict(os.environ, REPRO_ACCEL="auto")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["loaded"] == []
    # Pinned from the eager-import code: the same scipy calls, run later.
    assert result["detection"] == 0.9999999999999217
    assert result["false_alarm"] == 2.3055273971095997e-06
    assert result["area"] == 1.842554547913135
    assert result["scipy_after"]
