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
  (see :mod:`repro.experiments.campaign`).
- :func:`matrix` — every registered defense × every requested attack
  mode, one journaled campaign per attack, folded into a single
  :class:`MatrixReport` (see :mod:`repro.experiments.matrix`).
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
from typing import Any, List, Mapping, Optional, Sequence, Union

from repro.defenses import (
    Defense,
    DefenseContext,
    DefenseSpec,
    available_defenses,
    get_defense,
    register_defense,
)
from repro.experiments.cache import ResultCache
from repro.experiments.campaign import (
    CampaignResult,
    CampaignSpec,
    ExecutionBackend,
    RetryPolicy,
    SupervisionPolicy,
    load_spec,
    run_campaign,
)
from repro.experiments.matrix import (
    MatrixResult,
    MatrixSpec,
    run_matrix,
)
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
from repro.obs.report import MatrixReport, RunReport, build_report
from repro.sim.trace import TraceRecord


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


def campaign(
    spec: Union[CampaignSpec, Mapping[str, Any], str, Path],
    *,
    backend: Union[str, ExecutionBackend] = "inline",
    jobs: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path]] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    retry: RetryPolicy = RetryPolicy(),
    supervision: SupervisionPolicy = SupervisionPolicy(),
    max_jobs: Optional[int] = None,
    stop: Optional[Any] = None,
    fsync: bool = True,
) -> CampaignResult:
    """Execute (or resume) a campaign spec; see
    :mod:`repro.experiments.campaign` for the full semantics.

    ``spec`` may be a :class:`CampaignSpec`, a spec-shaped mapping, or a
    path to a TOML/JSON file.  ``supervision`` configures per-job
    timeouts and poison-job quarantine; ``stop`` is a zero-argument
    callable polled for graceful interruption.
    """
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    return run_campaign(
        spec,
        backend=backend,
        jobs=jobs,
        cache=cache,
        journal=journal,
        resume=resume,
        retry=retry,
        supervision=supervision,
        max_jobs=max_jobs,
        stop=stop,
        fsync=fsync,
    )


def matrix(
    spec: Optional[MatrixSpec] = None,
    *,
    journal_dir: Union[str, Path] = "matrix-journals",
    backend: Union[str, ExecutionBackend] = "inline",
    jobs: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path]] = None,
    resume: bool = False,
    retry: RetryPolicy = RetryPolicy(),
    supervision: SupervisionPolicy = SupervisionPolicy(),
    max_jobs: Optional[int] = None,
    stop: Optional[Any] = None,
    fsync: bool = True,
    **overrides: Any,
) -> MatrixResult:
    """Run (or resume) a defense × attack matrix; see
    :mod:`repro.experiments.matrix` for the full semantics.

    ``spec`` defaults to every registered defense over the default attack
    columns; keyword overrides construct or adjust it::

        api.matrix(runs=3, attacks=("outofband", "relay"))
        api.matrix(spec, journal_dir="out", resume=True)

    When the result is complete, ``result.report`` is the rendered
    :class:`MatrixReport` (markdown + JSON).
    """
    if spec is None:
        spec = MatrixSpec(**overrides)
    elif overrides:
        spec = dataclasses.replace(spec, **overrides)
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    return run_matrix(
        spec,
        journal_dir=journal_dir,
        backend=backend,
        jobs=jobs,
        cache=cache,
        resume=resume,
        retry=retry,
        supervision=supervision,
        max_jobs=max_jobs,
        stop=stop,
        fsync=fsync,
    )


def report(
    source: Union[str, Path, Sequence[TraceRecord]],
    *,
    theta: int = 3,
    step: Optional[float] = None,
) -> RunReport:
    """Build a run report from a JSONL trace export path or an in-memory
    record sequence (``repro report`` renders the same object)."""
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
