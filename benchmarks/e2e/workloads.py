"""The benchmark's workloads: what each repetition simulates and how its
output is checked.

Nothing here imports :mod:`repro` at module level.  The child process
times ``import repro`` as part of set-up, so every import of the program
happens inside the functions below.

Every repetition of a run simulates the same input, made from the
benchmark seed, so all of them must agree on the output digest.  A
scenario workload's input is a panel of scenarios: the seed itself and
``panel - 1`` seeds derived from it, so that no single topology's cost
per reception sets a run's value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: The benchmark seed whose outputs are pinned in ``pins.json``.  For
#: ``paper100`` it is the paper's Table 2 evaluation point.
DEFAULT_SEED = 4

#: Where the campaign workload writes its journal and trace export,
#: relative to the child's working directory.  A fixed relative path
#: keeps the spec digest, and so the pinned aggregate, independent of
#: where the checkout lives.
SWEEP_TRACE = "sweep_trace.jsonl"
SWEEP_JOURNAL = "sweep_journal.jsonl"

#: Distance between the scenario seeds of one panel.
PANEL_STRIDE = 10007


def canonical_sha(payload: Any) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``rep_seconds`` is the nominal time one repetition measures on a
    quiet 2-core x86 container; together with ``--seconds`` it fixes how
    many repetitions a run makes, so the work in a run never depends on
    how fast the machine happened to be.  ``panel`` is the number of
    scenarios one repetition of a scenario workload runs.
    """

    name: str
    kind: str  # "scenario" or "campaign"
    params: Dict[str, Any]
    rep_seconds: float
    min_reps: int
    timeout: float
    panel: int = 1
    verdict: Optional[Callable[[Any, Any], List[str]]] = field(default=None, repr=False)

    def reps(self, seconds: float) -> int:
        """How many repetitions a run of ``seconds`` makes."""
        return max(self.min_reps, int(seconds // self.rep_seconds))

    def scenario_seeds(self, seed: int) -> List[int]:
        """The scenario seeds of the panel made from ``seed``, ``seed`` first."""
        return [seed + PANEL_STRIDE * i for i in range(self.panel)]

    # -- building ------------------------------------------------------
    def scenario_config(self, seed: int):
        from repro.experiments.scenario import ScenarioConfig
        from repro.traffic.generator import TrafficConfig

        params = dict(self.params)
        rate = params.pop("data_rate", None)
        if rate is not None:
            params["traffic"] = TrafficConfig(data_rate=rate)
        return ScenarioConfig(seed=seed, **params)

    def campaign_spec(self, seed: int):
        from repro.experiments.campaign import CampaignSpec
        from repro.experiments.scenario import ScenarioConfig
        from repro.obs.config import ObsConfig

        params = dict(self.params)
        sizes = tuple(params.pop("n_nodes"))
        runs = params.pop("runs")
        base = ScenarioConfig(
            seed=seed, obs=ObsConfig(trace_path=SWEEP_TRACE, strict=True), **params
        )
        return CampaignSpec(name=self.name, base=base, axes=(("n_nodes", sizes),), runs=runs)


# ----------------------------------------------------------------------
# Protocol verdicts, checked on the pinned configuration only: at other
# seeds they are protocol outcomes that can legitimately go either way.
# ----------------------------------------------------------------------
def _all_colluders_isolated(report, scenario) -> List[str]:
    missing = sorted(set(scenario.malicious_ids) - set(report.isolation_times))
    return [f"colluders never isolated: {missing}"] if missing else []


def _mesh_verdict(report, scenario) -> List[str]:
    problems = _all_colluders_isolated(report, scenario)
    if report.false_isolations:
        problems.append(f"false isolations: {sorted(report.false_isolations)}")
    return problems


def _undefended_verdict(report, scenario) -> List[str]:
    if report.wormhole_drops <= 0:
        return ["the undefended wormhole dropped nothing"]
    return []


_PAPER = dict(n_nodes=100, avg_neighbors=8.0, duration=300.0, attack_start=50.0, n_malicious=2)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper100",
            kind="scenario",
            params=dict(_PAPER, defense="liteworp"),
            rep_seconds=8.5,
            min_reps=2,
            timeout=90.0,
            panel=2,
            verdict=_all_colluders_isolated,
        ),
        Workload(
            name="nodefense100",
            kind="scenario",
            params=dict(_PAPER, defense="none"),
            rep_seconds=4.3,
            min_reps=2,
            timeout=60.0,
            panel=2,
            verdict=_undefended_verdict,
        ),
        Workload(
            name="mesh1000",
            kind="scenario",
            params=dict(
                n_nodes=1000,
                avg_neighbors=12.0,
                duration=70.0,
                attack_start=20.0,
                n_malicious=4,
                data_rate=1.0 / 500.0,
            ),
            rep_seconds=14.5,
            min_reps=2,
            timeout=120.0,
            verdict=_mesh_verdict,
        ),
        Workload(
            name="sweep_export",
            kind="campaign",
            params=dict(
                n_nodes=(20, 30, 40),
                runs=16,
                duration=80.0,
                attack_start=30.0,
                n_malicious=2,
                defense="liteworp",
            ),
            rep_seconds=6.7,
            min_reps=2,
            timeout=90.0,
        ),
        # The test workload: the same child path in a fraction of a second.
        Workload(
            name="tiny16",
            kind="scenario",
            params=dict(n_nodes=16, duration=40.0, attack_start=10.0, n_malicious=2),
            rep_seconds=1.1,
            min_reps=2,
            timeout=60.0,
            panel=2,
        ),
    )
}
