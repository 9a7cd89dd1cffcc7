"""Experiment harness: scenario assembly and per-figure runners.

- :mod:`repro.experiments.parameters` — the paper's Table 2 inputs.
- :mod:`repro.experiments.scenario` — build and run one simulated
  deployment (topology, network, LITEWORP agents, attack, traffic,
  metrics).
- :mod:`repro.experiments.figures` — the figure/table regenerators used by
  the benchmark suite (figures 8, 9, 10 from simulation; figure 6 and the
  cost table from the analysis module).
- :mod:`repro.experiments.campaign` — declarative, journaled, resumable
  campaign batches over the scenario grid.

Downstream code should prefer the stable :mod:`repro.api` facade over
importing from these modules directly.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.campaign import (
        CampaignResult,
        CampaignRunner,
        CampaignSpec,
        compile_campaign,
        load_spec,
        run_campaign,
    )
    from repro.experiments.chaos import (
        ChaosConfig,
        ChaosResult,
        make_chaos_plan,
        run_chaos,
    )
    from repro.experiments.parameters import TABLE2, Table2Parameters
    from repro.experiments.scenario import (
        Scenario,
        ScenarioConfig,
        average_runs,
        build_scenario,
        run_scenario,
    )
    from repro.experiments.stats import Summary, summarize, summarize_optional
    from repro.experiments.figures import (
        Fig8Result,
        Fig9Result,
        Fig10Result,
        run_fig8,
        run_fig9,
        run_fig10,
    )

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "ChaosConfig",
    "ChaosResult",
    "Fig10Result",
    "Fig8Result",
    "Fig9Result",
    "Scenario",
    "ScenarioConfig",
    "Summary",
    "TABLE2",
    "Table2Parameters",
    "average_runs",
    "build_scenario",
    "compile_campaign",
    "load_spec",
    "make_chaos_plan",
    "run_campaign",
    "run_chaos",
    "run_fig10",
    "run_fig8",
    "run_fig9",
    "run_scenario",
    "summarize",
    "summarize_optional",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.experiments.campaign": (
        "CampaignResult", "CampaignRunner", "CampaignSpec", "compile_campaign",
        "load_spec", "run_campaign",
    ),
    "repro.experiments.chaos": ("ChaosConfig", "ChaosResult", "make_chaos_plan", "run_chaos"),
    "repro.experiments.parameters": ("TABLE2", "Table2Parameters"),
    "repro.experiments.scenario": (
        "Scenario", "ScenarioConfig", "average_runs", "build_scenario", "run_scenario",
    ),
    "repro.experiments.stats": ("Summary", "summarize", "summarize_optional"),
    "repro.experiments.figures": (
        "Fig8Result", "Fig9Result", "Fig10Result", "run_fig8", "run_fig9", "run_fig10",
    ),
})
