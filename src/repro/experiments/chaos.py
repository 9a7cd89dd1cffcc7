"""Chaos experiments: the wormhole defense under fault injection.

The paper evaluates LITEWORP in a benign environment; this runner
measures what happens when the environment itself misbehaves.  A chaos
run takes the standard out-of-band wormhole scenario and layers a
generated :class:`~repro.faults.plan.FaultPlan` on top: a fraction of the
*guard* nodes (honest neighbors of the malicious pair — exactly the nodes
whose testimony the protocol depends on) crash mid-run, some of them
reboot later, and a channel-wide loss burst degrades everyone's hearing
for a while.

Two questions are asked of every run:

1. **Does detection survive?**  The wormhole must still be detected and
   revoked by the surviving guards.
2. **Is silence misread as malice?**  Without the liveness layer a
   crashed guard — which silently stops forwarding — accrues drop MalC at
   its own neighbors and gets falsely revoked.  With heartbeats enabled
   (``ChaosConfig.liveness``) the false-isolation count must be zero.

Everything is deterministic: the fault plan is derived from the
scenario's own seeded RNG registry (stream ``"chaos"``), so the same
:class:`ChaosConfig` always produces the same plan, the same run, and a
byte-identical :meth:`ChaosResult.format`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import LiteworpConfig
from repro.experiments.scenario import Scenario, ScenarioConfig, build_scenario
from repro.faults.plan import CrashRecover, CrashStop, Fault, FaultPlan, LossBurst
from repro.metrics.collector import MetricsReport
from repro.metrics.robustness import RobustnessCollector, RobustnessReport
from repro.net.packet import NodeId
from repro.obs.config import ObsConfig
from repro.obs.spans import span
from repro.routing.config import RoutingConfig
from repro.traffic.generator import TrafficConfig


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos experiment: scenario shape + fault intensity knobs.

    ``liveness`` toggles the heartbeat/probe failure detector — the
    ablation arm (``False``) recovers the paper's crash-naive behaviour
    and is expected to falsely isolate crashed honest guards.
    """

    n_nodes: int = 60
    avg_neighbors: float = 10.0
    tx_range: float = 30.0
    duration: float = 240.0
    seed: int = 1
    attack_start: float = 40.0
    n_malicious: int = 2
    # Fault intensity.
    crash_fraction: float = 0.2
    crash_at: float = 60.0
    crash_spacing: float = 2.0
    recover_fraction: float = 0.0
    downtime: float = 60.0
    loss_probability: float = 0.10
    loss_at: float = 80.0
    loss_duration: float = 30.0
    # Traffic / routing pressure.  Long-lived routes keep predecessors
    # pushing data at a silently crashed next hop for longer, which is
    # exactly the stress the ablation arm must expose; ``v_drop`` weights
    # each such unexplained drop.
    data_rate: float = 0.1
    route_timeout: float = 150.0
    v_drop: int = 2
    # Liveness layer (the refinement under test).
    liveness: bool = True
    heartbeat_period: float = 2.0
    alert_retries: int = 2
    # Observability switches (see repro.obs); None = zero overhead.
    obs: Optional["ObsConfig"] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ValueError(
                f"crash_fraction must be in [0, 1], got {self.crash_fraction!r}"
            )
        if not 0.0 <= self.recover_fraction <= 1.0:
            raise ValueError(
                f"recover_fraction must be in [0, 1], got {self.recover_fraction!r}"
            )
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {self.loss_probability!r}"
            )
        if self.crash_at <= self.attack_start:
            raise ValueError("crashes must start after the attack (crash_at > attack_start)")
        if self.crash_at >= self.duration:
            raise ValueError("crash_at must fall inside the run")
        if self.data_rate <= 0:
            raise ValueError(f"data_rate must be positive, got {self.data_rate!r}")
        if self.route_timeout <= 0:
            raise ValueError(
                f"route_timeout must be positive, got {self.route_timeout!r}"
            )
        if self.v_drop < 1:
            raise ValueError(f"v_drop must be at least 1, got {self.v_drop!r}")

    def scenario_config(self) -> ScenarioConfig:
        """The underlying scenario (without the fault plan)."""
        liteworp = LiteworpConfig(
            # Data-forwarding watch: routes keep pushing data at a
            # silently crashed next hop until the route times out, so the
            # crashed node accrues drop MalC at every guard of that link —
            # the failure mode the liveness layer must neutralise.
            # (Honest inability to forward is excused via RouteError,
            # which clears the watch entry.)
            watch_data=True,
            v_drop=self.v_drop,
            heartbeat_period=self.heartbeat_period if self.liveness else None,
            alert_retries=self.alert_retries,
        )
        return ScenarioConfig(
            n_nodes=self.n_nodes,
            avg_neighbors=self.avg_neighbors,
            tx_range=self.tx_range,
            duration=self.duration,
            seed=self.seed,
            attack_start=self.attack_start,
            n_malicious=self.n_malicious,
            attack_mode="outofband",
            liteworp=liteworp,
            routing=RoutingConfig(route_timeout=self.route_timeout),
            traffic=TrafficConfig(data_rate=self.data_rate),
            obs=self.obs,
        )


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    config: ChaosConfig
    plan: FaultPlan
    metrics: MetricsReport
    robustness: RobustnessReport
    malicious_ids: Tuple[NodeId, ...]
    guard_pool: Tuple[NodeId, ...]
    revoked_by: Dict[NodeId, Tuple[NodeId, ...]] = field(default_factory=dict)

    @property
    def wormhole_detected(self) -> bool:
        """Whether any guard detected a genuinely malicious node."""
        return self.robustness.first_detection is not None

    @property
    def wormhole_revoked(self) -> bool:
        """Whether every malicious node was revoked by at least one
        surviving honest node."""
        return all(self.revoked_by.get(m) for m in self.malicious_ids)

    def format(self) -> str:
        """Stable plain-text rendering (byte-identical across reruns of
        the same config)."""
        lines = [
            "chaos run"
            f" nodes={self.config.n_nodes}"
            f" seed={self.config.seed}"
            f" crash_fraction={self.config.crash_fraction:.2f}"
            f" loss={self.config.loss_probability:.2f}"
            f" liveness={'on' if self.config.liveness else 'off'}",
            f"  malicious             {list(self.malicious_ids)}",
            f"  guard pool            {len(self.guard_pool)} nodes",
            f"  faults planned        {len(self.plan)}",
            f"  wormhole detected     {self.wormhole_detected}",
            f"  wormhole revoked      {self.wormhole_revoked}",
        ]
        for node in sorted(self.revoked_by):
            lines.append(
                f"    revokers of {node:3d}      {list(self.revoked_by[node])}"
            )
        lines.append(self.robustness.format())
        return "\n".join(lines)


def guard_pool(scenario: Scenario) -> Tuple[NodeId, ...]:
    """Honest first-hop neighbors of any malicious node — the population
    of potential guards whose crash stresses the protocol most."""
    adjacency = scenario.topology.adjacency()
    malicious = set(scenario.malicious_ids)
    pool = {
        neighbor
        for bad in scenario.malicious_ids
        for neighbor in adjacency[bad]
        if neighbor not in malicious
    }
    return tuple(sorted(pool))


def make_chaos_plan(config: ChaosConfig) -> FaultPlan:
    """Derive the fault plan for ``config``.

    The scenario is built once (cheap: no run) to learn the topology and
    the malicious placement; crash targets are then drawn from the guard
    pool via the scenario's own RNG registry, so the plan is a pure
    function of the config.
    """
    with span("chaos.plan"):
        scenario = build_scenario(config.scenario_config())
        pool = guard_pool(scenario)
        rng = scenario.rng.stream("chaos")
        count = min(len(pool), max(1, round(config.crash_fraction * len(pool))))
        targets = sorted(rng.sample(pool, count)) if count else []
        recovering = round(config.recover_fraction * len(targets))
        faults: List[Fault] = []
        for index, node in enumerate(targets):
            at = config.crash_at + index * config.crash_spacing
            if index < recovering:
                faults.append(CrashRecover(at=at, node=node, downtime=config.downtime))
            else:
                faults.append(CrashStop(at=at, node=node))
        if config.loss_probability > 0.0:
            faults.append(
                LossBurst(
                    at=config.loss_at,
                    probability=config.loss_probability,
                    duration=config.loss_duration,
                )
            )
        return FaultPlan(faults=tuple(faults))


def run_chaos(config: ChaosConfig) -> ChaosResult:
    """Build, fault, and run one chaos scenario."""
    plan = make_chaos_plan(config)
    scenario = build_scenario(replace(config.scenario_config(), fault_plan=plan))
    robustness = RobustnessCollector(
        scenario.trace,
        malicious_ids=scenario.malicious_ids,
        crashed_honest=plan.crashed_nodes(),
        attack_start=config.attack_start,
    )
    metrics = scenario.run()
    revoked_by = {
        bad: tuple(sorted(scenario.metrics.revokers_of(bad)))
        for bad in scenario.malicious_ids
    }
    return ChaosResult(
        config=config,
        plan=plan,
        metrics=metrics,
        robustness=robustness.report(duration=config.duration),
        malicious_ids=scenario.malicious_ids,
        guard_pool=guard_pool(scenario),
        revoked_by=revoked_by,
    )
