"""repro — a full reproduction of LITEWORP (DSN 2005).

LITEWORP is a lightweight countermeasure for the wormhole attack in
multihop wireless networks (Khalil, Bagchi, Shroff).  This package
contains the protocol itself (:mod:`repro.core`), every substrate it needs
(discrete-event simulator, wireless network, crypto, routing, traffic),
the five wormhole attack modes (:mod:`repro.attacks`), the closed-form
coverage and cost analysis (:mod:`repro.analysis`), and the experiment
harness regenerating the paper's tables and figures
(:mod:`repro.experiments`).

Downstream code should reach for the stable facade in :mod:`repro.api`
(``run`` / ``sweep`` / ``campaign`` / ``report``) rather than deep-import
the experiment internals.

Quickstart
----------
>>> from repro import api
>>> report = api.run(n_nodes=30, duration=120.0, seed=7)
>>> report.wormhole_drops >= 0
True
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis import CostModel, CoverageParams, detection_probability
    from repro.attacks import ATTACK_MODES, WormholeCoordinator, taxonomy_table
    from repro.core import LiteworpAgent, LiteworpConfig
    from repro.defenses.leash import LeashAgent, LeashConfig
    from repro.faults import FaultController, FaultPlan
    from repro.experiments import (
        ScenarioConfig,
        TABLE2,
        build_scenario,
        run_fig10,
        run_fig8,
        run_fig9,
        run_scenario,
    )
    from repro.metrics import MetricsCollector, MetricsReport
    from repro.net import Network, NetworkConfig, Topology, generate_connected_topology
    from repro.routing import OnDemandRouting, RoutingConfig
    from repro.sim import Simulator
    from repro.traffic import TrafficConfig, TrafficGenerator

__version__ = "1.0.0"

__all__ = [
    "ATTACK_MODES",
    "CostModel",
    "CoverageParams",
    "FaultController",
    "FaultPlan",
    "LeashAgent",
    "LeashConfig",
    "LiteworpAgent",
    "LiteworpConfig",
    "MetricsCollector",
    "MetricsReport",
    "Network",
    "NetworkConfig",
    "OnDemandRouting",
    "RoutingConfig",
    "ScenarioConfig",
    "Simulator",
    "TABLE2",
    "Topology",
    "TrafficConfig",
    "TrafficGenerator",
    "WormholeCoordinator",
    "build_scenario",
    "detection_probability",
    "generate_connected_topology",
    "run_fig10",
    "run_fig8",
    "run_fig9",
    "run_scenario",
    "taxonomy_table",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis": ("CostModel", "CoverageParams", "detection_probability"),
    "repro.attacks": ("ATTACK_MODES", "WormholeCoordinator", "taxonomy_table"),
    "repro.core": ("LiteworpAgent", "LiteworpConfig"),
    "repro.defenses.leash": ("LeashAgent", "LeashConfig"),
    "repro.faults": ("FaultController", "FaultPlan"),
    "repro.experiments": (
        "ScenarioConfig", "TABLE2", "build_scenario", "run_fig10", "run_fig8", "run_fig9",
        "run_scenario",
    ),
    "repro.metrics": ("MetricsCollector", "MetricsReport"),
    "repro.net": ("Network", "NetworkConfig", "Topology", "generate_connected_topology"),
    "repro.routing": ("OnDemandRouting", "RoutingConfig"),
    "repro.sim": ("Simulator",),
    "repro.traffic": ("TrafficConfig", "TrafficGenerator"),
})
