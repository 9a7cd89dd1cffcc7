"""Stable public API facade.

Everything a downstream caller needs lives here under names that will not
move when the internals are refactored: deep imports of
``repro.experiments.*`` / ``repro.obs.*`` are an implementation detail,
``repro.api`` is the contract.

    from repro import api

    report = api.run(api.ScenarioConfig(n_nodes=30, duration=120.0, seed=7))
    replications = api.sweep(api.ScenarioConfig(n_nodes=30), runs=10, jobs=-1)
    result = api.campaign("study.toml", backend="process", jobs=-1,
                          journal="study.journal.jsonl", resume=True)
    grid = api.matrix(api.MatrixSpec(runs=3), journal_dir="matrix-journals")
    run_report = api.report("trace.jsonl")

Five verbs, one noun family:

- :func:`run` — one scenario, one :class:`MetricsReport`.
- :func:`sweep` — N replications of one config (parallel + cached).
- :func:`campaign` — a declarative grid of configs with journaled resume
  (:func:`~repro.experiments.campaign.run_campaign` itself).
- :func:`matrix` — every registered defense × every requested attack
  mode, one journaled campaign per attack, folded into a single
  :class:`MatrixReport` (:func:`~repro.experiments.matrix.run_matrix`
  itself).
- :func:`report` — a markdown/JSON run report from a trace export.

plus the config/result types those verbs exchange, re-exported under
their canonical names — including the defense-plugin surface
(:class:`Defense`, :class:`DefenseSpec`, :func:`available_defenses`,
:func:`register_defense`) so third-party schemes never need deep
imports.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Union

from repro._lazy import lazy_exports
from repro.defenses import (
    Defense,
    DefenseContext,
    DefenseSpec,
    available_defenses,
    get_defense,
    register_defense,
)
from repro.experiments.cache import ResultCache
from repro.experiments.scenario import (
    ATTACK_MODES,
    DEFENSES,
    Scenario,
    ScenarioConfig,
    average_runs,
    build_scenario,
    run_scenario,
)
from repro.metrics.collector import MetricsReport
from repro.obs.config import ObsConfig
from repro.sim.trace import TraceRecord

if TYPE_CHECKING:
    from repro.experiments.campaign import (
        CampaignResult,
        CampaignSpec,
        RetryPolicy,
        SupervisionPolicy,
        load_spec,
    )
    from repro.experiments.campaign import run_campaign as campaign
    from repro.experiments.matrix import MatrixResult, MatrixSpec
    from repro.experiments.matrix import run_matrix as matrix
    from repro.obs.report import MatrixReport, RunReport

# The campaign stack and the report builder load on first use (PEP 562),
# so ``import repro.api`` costs no more than a scenario does.
__getattr__, __dir__ = lazy_exports(globals(), {
    # ``campaign`` executes (or resumes) a campaign spec — a CampaignSpec,
    # a spec-shaped mapping, or a path to a TOML/JSON file.
    "repro.experiments.campaign": (
        ("campaign", "run_campaign"), "CampaignResult", "CampaignSpec",
        "RetryPolicy", "SupervisionPolicy", "load_spec",
    ),
    # ``matrix`` runs (or resumes) a defense × attack MatrixSpec into a
    # journal directory; ``result.report`` is its MatrixReport once complete.
    "repro.experiments.matrix": (("matrix", "run_matrix"), "MatrixResult", "MatrixSpec"),
    "repro.obs.report": ("MatrixReport", "RunReport"),
})


def run(
    config: Optional[ScenarioConfig] = None, **overrides: Any
) -> MetricsReport:
    """Execute one scenario and return its metrics report.

    Call with a ready :class:`ScenarioConfig`, with keyword overrides on
    top of one, or with keyword arguments alone (they construct the
    config)::

        api.run(n_nodes=30, duration=120.0, seed=7)
        api.run(base_config, seed=11)
    """
    if config is None:
        config = ScenarioConfig(**overrides)
    elif overrides:
        config = dataclasses.replace(config, **overrides)
    return run_scenario(config)


def sweep(
    config: ScenarioConfig,
    runs: int,
    *,
    jobs: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path]] = None,
) -> List[MetricsReport]:
    """Run ``runs`` independent replications of ``config``.

    Replication seeds are hash-derived (index 0 is the base seed), so a
    parallel sweep (``jobs`` workers, ``-1`` = one per CPU) returns
    byte-identical reports to a serial one.  ``cache`` may be a
    :class:`~repro.experiments.cache.ResultCache` or a directory path.
    """
    return average_runs(config, runs, jobs=jobs, cache=cache)


def report(
    source: Union[str, Path, Sequence[TraceRecord]],
    *,
    theta: int = 3,
    step: Optional[float] = None,
) -> RunReport:
    """Build a run report from a JSONL trace export path or an in-memory
    record sequence (``repro report`` renders the same object)."""
    from repro.obs.report import build_report

    if isinstance(source, (str, Path)):
        from repro.obs.sinks import read_jsonl

        records: Sequence[TraceRecord] = list(
            read_jsonl(source, tolerate_partial=True)
        )
    else:
        records = list(source)
    return build_report(records, theta=theta, step=step)


__all__ = [
    # Verbs.
    "run",
    "sweep",
    "campaign",
    "matrix",
    "report",
    # Scenario construction.
    "ATTACK_MODES",
    "DEFENSES",
    "Scenario",
    "ScenarioConfig",
    "ObsConfig",
    "build_scenario",
    # Defense plugin surface.
    "Defense",
    "DefenseContext",
    "DefenseSpec",
    "available_defenses",
    "get_defense",
    "register_defense",
    # Campaign types.
    "CampaignResult",
    "CampaignSpec",
    "RetryPolicy",
    "SupervisionPolicy",
    "load_spec",
    # Matrix types.
    "MatrixResult",
    "MatrixSpec",
    # Results.
    "MetricsReport",
    "ResultCache",
    "RunReport",
    "MatrixReport",
]
