"""Cross-defense × cross-attack matrix campaigns.

``repro matrix`` (and :func:`repro.api.matrix`) answers the survey
question the single-defense figures cannot: *which* registered defense
detects *which* wormhole variant, at what isolation latency and what
cost.  A :class:`MatrixSpec` compiles into one
:class:`~repro.experiments.campaign.CampaignSpec` per attack mode — the
malicious-node count co-varies with the mode (tunnel modes need two
colluders, the single-attacker modes exactly one, the control column
none), which is why the attack axis cannot be an ordinary campaign axis —
each with a ``defense`` axis over every requested registry name.

Execution rides the campaign orchestrator unchanged: every per-attack
campaign is journaled (``<name>-<attack>.journal.jsonl`` under the
journal directory), cached, supervised, and resumable, and ``--max-jobs``
/ SIGINT stop the whole matrix with exit 75 exactly like ``repro
campaign run``.  Once every campaign is complete,
:func:`aggregate_matrix` reloads the journals and folds each cell's
replications into detection rate (the *plugin's* :meth:`Defense.detected`
verdict, so schemes that flag without LITEWORP-style isolation still
count), isolation/detection latency, delivery and drop fractions, and
the plugin's own :meth:`Defense.metrics_contribution` surface — rendered
as one markdown + JSON :class:`~repro.obs.report.MatrixReport`.
Aggregation is a pure function of the journaled reports, so a matrix
interrupted and resumed produces byte-identical output to an
uninterrupted one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.attacks.coordinator import TUNNEL_MODES
from repro.defenses import available_defenses, get_defense
from repro.experiments.cache import ResultCache, open_cache
from repro.experiments.campaign import (
    CampaignError,
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    compile_campaign,
    load_journal,
)
from repro.experiments.scenario import ATTACK_MODES, ScenarioConfig
from repro.metrics.collector import MetricsReport
from repro.obs.report import MatrixReport
from repro.obs.spans import span

#: Attack columns the CLI sweeps by default: one tunnel variant plus both
#: physical-layer variants, so every built-in defense has at least one
#: column it catches and one it provably cannot (see docs/DEFENSES.md).
DEFAULT_MATRIX_ATTACKS: Tuple[str, ...] = ("outofband", "highpower", "relay")


def attack_malicious(mode: str, colluders: int = 2) -> int:
    """The malicious-node count ``mode`` requires.

    Tunnel modes need at least two colluding endpoints, the
    single-attacker modes exactly one, and the ``none`` control column
    zero — which is why the attack axis compiles to separate campaigns
    instead of a plain config axis.
    """
    if mode == "none":
        return 0
    if mode in TUNNEL_MODES:
        return max(2, colluders)
    return 1


@dataclass(frozen=True)
class MatrixSpec:
    """A declarative defense × attack matrix.

    Parameters
    ----------
    name:
        Matrix name; per-attack campaigns are ``<name>-<attack>`` and
        their journals ``<name>-<attack>.journal.jsonl``.
    base:
        Scenario template every cell is built from.  ``attack_mode``,
        ``n_malicious`` and ``defense`` are overwritten per cell; all
        other knobs (size, duration, seed, per-defense config blocks)
        carry through unchanged.
    defenses:
        Registry names forming the rows; empty means *every* defense
        registered at construction time.
    attacks:
        Attack modes forming the columns.
    runs:
        Replications per cell (hash-derived seeds, exactly like any
        campaign).
    colluders:
        Colluding endpoints for tunnel-mode columns (min 2).
    """

    name: str = "matrix"
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    defenses: Tuple[str, ...] = ()
    attacks: Tuple[str, ...] = DEFAULT_MATRIX_ATTACKS
    runs: int = 1
    colluders: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("matrix needs a non-empty name")
        if self.runs < 1:
            raise CampaignError(f"runs must be at least 1, got {self.runs!r}")
        if self.colluders < 2:
            raise CampaignError(
                f"tunnel modes need at least 2 colluders, got {self.colluders!r}"
            )
        attacks = tuple(self.attacks)
        if not attacks:
            raise CampaignError("matrix needs at least one attack mode")
        for attack in attacks:
            if attack not in ATTACK_MODES:
                raise CampaignError(
                    f"unknown attack mode {attack!r}; choose from {ATTACK_MODES}"
                )
        if len(set(attacks)) != len(attacks):
            raise CampaignError("duplicate attack modes in matrix spec")
        defenses = tuple(self.defenses) or available_defenses()
        for defense in defenses:
            if defense not in available_defenses():
                raise CampaignError(
                    f"unknown defense {defense!r}; available: "
                    f"{', '.join(available_defenses())}"
                )
        if len(set(defenses)) != len(defenses):
            raise CampaignError("duplicate defenses in matrix spec")
        object.__setattr__(self, "attacks", attacks)
        object.__setattr__(self, "defenses", defenses)

    def campaign_for(self, attack: str) -> CampaignSpec:
        """The per-attack campaign: base with the mode (and its required
        malicious count) pinned, swept over the defense axis."""
        if attack not in self.attacks:
            raise CampaignError(f"attack {attack!r} is not part of this matrix")
        base = dataclasses.replace(
            self.base,
            attack_mode=attack,
            n_malicious=attack_malicious(attack, self.colluders),
        )
        return CampaignSpec(
            name=f"{self.name}-{attack}",
            base=base,
            axes=(("defense", self.defenses),),
            runs=self.runs,
        )

    def campaigns(self) -> List[CampaignSpec]:
        """Every per-attack campaign, in attack order."""
        return [self.campaign_for(attack) for attack in self.attacks]

    def journal_for(self, attack: str, journal_dir: Union[str, Path]) -> Path:
        """Journal path of the per-attack campaign."""
        return Path(journal_dir) / f"{self.name}-{attack}.journal.jsonl"

    def total_jobs(self) -> int:
        """Cells × replications across the whole matrix."""
        return len(self.attacks) * len(self.defenses) * self.runs


# ----------------------------------------------------------------------
# Aggregation: journals -> MatrixReport
# ----------------------------------------------------------------------
def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _cell_metrics(defense: str, reports: List[MetricsReport]) -> Dict[str, Any]:
    """Fold one cell's replications into its headline numbers.

    Detection is the *plugin's* verdict — :meth:`Defense.detected` — not
    a raw ``detections > 0`` test, so schemes with their own evidence
    surface (SND's unverified-link counters) are judged on their own
    terms.  The plugin's :meth:`Defense.metrics_contribution` keys are
    averaged into the ``contribution`` block.
    """
    plugin = get_defense(defense)
    config = plugin.resolve_config(None)
    contribution: Dict[str, List[float]] = {}
    for report in reports:
        for key, value in plugin.metrics_contribution(report, config).items():
            contribution.setdefault(key, []).append(float(value))
    return {
        "runs": len(reports),
        "detection_rate": _mean(
            [1.0 if plugin.detected(r) else 0.0 for r in reports]
        ),
        "detections": _mean([float(r.detections) for r in reports]),
        "isolations": _mean([float(r.isolations) for r in reports]),
        "false_isolations": _mean(
            [float(sum(r.false_isolations.values())) for r in reports]
        ),
        "mean_isolation_latency": _mean(
            [v for v in (r.mean_isolation_latency() for r in reports) if v is not None]
        ),
        "mean_detection_latency": _mean(
            [v for v in (r.mean_detection_latency() for r in reports) if v is not None]
        ),
        "delivery_fraction": _mean(
            [r.delivered / max(1, r.originated) for r in reports]
        ),
        "wormhole_drop_fraction": _mean(
            [r.fraction_wormhole_dropped for r in reports]
        ),
        "contribution": {
            key: _mean(values) for key, values in sorted(contribution.items())
        },
    }


def aggregate_matrix(
    spec: MatrixSpec, journal_dir: Union[str, Path]
) -> MatrixReport:
    """Reload every per-attack journal and fold the cells into one
    :class:`~repro.obs.report.MatrixReport`.

    Raises :class:`~repro.experiments.campaign.CampaignError` when any
    cell's replications are missing from its journal — run the matrix to
    completion (``--resume`` after an interruption) first.
    """
    with span("matrix.aggregate"):
        cells: List[Dict[str, Any]] = []
        for attack in spec.attacks:
            campaign = spec.campaign_for(attack)
            journal = spec.journal_for(attack, journal_dir)
            try:
                state = load_journal(journal, tolerate_partial=True)
            except CampaignError as exc:
                raise CampaignError(
                    f"matrix {spec.name!r} has no complete journal for "
                    f"attack {attack!r}: {exc}"
                ) from exc
            by_defense: Dict[str, List[MetricsReport]] = {}
            for job in compile_campaign(campaign):
                report = state.reports.get(job.digest)
                if report is None:
                    raise CampaignError(
                        f"journal {journal} is missing job {job.label()}; "
                        f"run the matrix to completion (--resume) first"
                    )
                defense = dict(job.point)["defense"]
                by_defense.setdefault(defense, []).append(report)
            for defense in spec.defenses:
                cells.append(
                    {
                        "attack": attack,
                        "defense": defense,
                        "metrics": _cell_metrics(defense, by_defense[defense]),
                    }
                )
        return MatrixReport(
            payload={
                "matrix": spec.name,
                "attacks": list(spec.attacks),
                "defenses": list(spec.defenses),
                "runs": spec.runs,
                "base": {
                    "n_nodes": spec.base.n_nodes,
                    "duration": spec.base.duration,
                    "seed": spec.base.seed,
                    "attack_start": spec.base.attack_start,
                },
                "cells": cells,
            }
        )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class MatrixResult:
    """Outcome of one :func:`run_matrix` invocation."""

    spec: MatrixSpec
    campaigns: Dict[str, CampaignResult]
    complete: bool
    report: Optional[MatrixReport] = None

    @property
    def executed(self) -> int:
        return sum(r.executed for r in self.campaigns.values())

    @property
    def completed_jobs(self) -> int:
        return sum(r.completed_jobs for r in self.campaigns.values())

    @property
    def total_jobs(self) -> int:
        return self.spec.total_jobs()

    @property
    def dead_lettered(self) -> int:
        return sum(r.dead_lettered for r in self.campaigns.values())

    @property
    def interrupted(self) -> Optional[str]:
        for result in self.campaigns.values():
            if result.interrupted is not None:
                return result.interrupted
        return None

    def format(self) -> str:
        """Stable one-screen execution summary (the report renders the
        matrix itself)."""
        header = (
            f"matrix {self.spec.name}"
            f" cells={len(self.spec.attacks) * len(self.spec.defenses)}"
            f" jobs={self.total_jobs}"
            f" completed={self.completed_jobs}"
            f" complete={'yes' if self.complete else 'no'}"
        )
        if self.dead_lettered:
            header += f" dead_lettered={self.dead_lettered}"
        lines = [header]
        for attack in self.spec.attacks:
            result = self.campaigns.get(attack)
            if result is None:
                lines.append(f"  {attack:<14s} not started")
                continue
            line = (
                f"  {attack:<14s} executed={result.executed}"
                f" cache={result.from_cache}"
                f" journal={result.from_journal}"
                f" complete={'yes' if result.complete else 'no'}"
            )
            if result.dead_lettered:
                line += f" dead_lettered={result.dead_lettered}"
            lines.append(line)
        return "\n".join(lines)


def run_matrix(
    spec: MatrixSpec,
    *,
    journal_dir: Union[str, Path],
    cache: Optional[Union[ResultCache, str, Path]] = None,
    max_jobs: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
    **options: Any,
) -> MatrixResult:
    """Run (or resume) every per-attack campaign, then aggregate (the
    :func:`repro.api.matrix` entry point).

    The journal directory is mandatory: the aggregation reloads the
    journals, so an unjournaled matrix could never render its report.
    ``cache`` may be a :class:`~repro.experiments.cache.ResultCache` or a
    directory path, opened once for every column.  ``max_jobs`` budgets
    *new* jobs across the whole matrix; when the budget runs out (or
    ``stop`` fires) the result comes back incomplete and a later
    ``resume=True`` call picks up where it stopped, producing a
    byte-identical report to an uninterrupted run.  A column whose only
    gap is dead-lettered jobs does not stop the later columns; the result
    stays incomplete, with no report, and a resume retries the poison
    jobs.  Every other option goes unchanged to each column's
    :class:`~repro.experiments.campaign.CampaignRunner`; an unknown one
    raises :class:`TypeError` before any column runs.
    """
    cache = open_cache(cache)
    runners = {
        attack: CampaignRunner(
            spec.campaign_for(attack),
            cache=cache,
            journal=spec.journal_for(attack, journal_dir),
            stop=stop,
            **options,
        )
        for attack in spec.attacks
    }
    campaigns: Dict[str, CampaignResult] = {}
    with span("matrix.run"):
        for attack, runner in runners.items():
            if stop is not None and stop():
                break
            if max_jobs is not None and max_jobs <= 0:
                break
            runner.max_jobs = max_jobs
            result = campaigns[attack] = runner.run()
            if max_jobs is not None:
                max_jobs -= result.executed
            if result.stopped_early:
                break
    complete = len(campaigns) == len(spec.attacks) and all(
        result.complete for result in campaigns.values()
    )
    report = aggregate_matrix(spec, journal_dir) if complete else None
    return MatrixResult(
        spec=spec, campaigns=campaigns, complete=complete, report=report
    )


__all__ = [
    "DEFAULT_MATRIX_ATTACKS",
    "MatrixResult",
    "MatrixSpec",
    "aggregate_matrix",
    "attack_malicious",
    "run_matrix",
]
