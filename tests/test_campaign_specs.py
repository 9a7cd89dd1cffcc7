"""The committed campaign specs under ``campaigns/``.

``campaigns/paper_scale.toml`` is the paper's Figure 8/9 study at Table
2 fidelity (100 nodes, 2,000 s, 30 runs per point).  Running it takes
minutes of CPU per point, so this checks what it compiles to and runs a
shrunk copy of the same grid.
"""

import dataclasses
from pathlib import Path

from repro.experiments.cache import config_digest
from repro.experiments.campaign import (
    compile_campaign,
    load_spec,
    replication_configs,
    run_campaign,
)
from repro.experiments.scenario import ScenarioConfig

PAPER_SCALE = Path(__file__).resolve().parents[1] / "campaigns" / "paper_scale.toml"


def test_paper_scale_spec_compiles_to_the_paper_grid():
    spec = load_spec(PAPER_SCALE)
    jobs = compile_campaign(spec)
    assert len(jobs) == 180
    for m in (2, 4):
        for defense in ("none", "liteworp"):
            point = (("defense", defense), ("n_malicious", m))
            digests = [job.digest for job in jobs if job.point == point]
            expected = replication_configs(
                ScenarioConfig(
                    n_nodes=100, duration=2000.0, seed=8, attack_start=50.0,
                    attack_mode="outofband", n_malicious=m, defense=defense,
                ),
                30,
            )
            assert digests == [config_digest(config) for config in expected]


def test_shrunk_paper_scale_spec_runs_and_aggregates():
    spec = load_spec(PAPER_SCALE)
    shrunk = dataclasses.replace(
        spec,
        base=dataclasses.replace(spec.base, n_nodes=30, duration=60.0),
        runs=1,
    )
    result = run_campaign(shrunk)
    assert result.complete and result.executed == 6
    points = result.aggregate["points"]
    assert [point["point"] for point in points] == [
        {"defense": defense, "n_malicious": m}
        for defense in ("none", "liteworp")
        for m in (0, 2, 4)
    ]
    for point in points:
        assert {"wormhole_drops", "mean_isolation_latency"} <= set(point["metrics"])
