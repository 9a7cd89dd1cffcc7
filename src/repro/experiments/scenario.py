"""Scenario assembly: one simulated deployment end to end.

``build_scenario`` wires together everything a run needs — topology,
network, crypto, LITEWORP agents on honest nodes, attack agents on
malicious nodes, traffic, and metrics — and ``run_scenario`` executes it
and returns the report.  The defaults reproduce the paper's Table 2 setup
with the out-of-band wormhole.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.attacks.agents import (
    HighPowerRouting,
    RelayAttacker,
    RushingRouting,
    TunnelRouting,
)
from repro.attacks.coordinator import TUNNEL_MODES, WormholeCoordinator
from repro.core.agent import LiteworpAgent
from repro.core.config import LiteworpConfig
from repro.crypto.keys import PairwiseKeyManager
from repro.defenses.base import Defense, DefenseContext, DefenseSpec
from repro.defenses.leash import LeashAgent, LeashConfig
from repro.defenses.registry import available_defenses, get_defense
from repro.experiments.parameters import ATTACK_MODES
from repro.metrics.collector import MetricsCollector, MetricsReport
from repro.net.network import Network, NetworkConfig
from repro.obs.config import ObsConfig
from repro.obs.spans import span
from repro.net.packet import NodeId
from repro.net.topology import Topology, choose_separated_nodes, generate_connected_topology
from repro.routing.config import RoutingConfig
from repro.routing.ondemand import OnDemandRouting
from repro.sim.engine import Simulator, make_simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog
from repro.traffic.generator import TrafficConfig, TrafficGenerator

if TYPE_CHECKING:
    from repro.experiments.cache import ResultCache
    from repro.faults.controller import FaultController
    from repro.faults.plan import FaultPlan

#: The selectable ``defense=`` vocabulary at import time.  Validation is
#: dynamic — plugins registered later become selectable immediately.
DEFENSES = ("auto",) + available_defenses()


def _default_leash_config() -> LeashConfig:
    return LeashConfig()


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one simulated run.

    ``defense`` selects the protection scheme by registry name — any
    value from :func:`repro.defenses.available_defenses` (the built-ins:
    ``"liteworp"``, ``"geo_leash"``, ``"temporal_leash"``, ``"rtt"``,
    ``"snd"``, ``"none"``), a :class:`~repro.defenses.DefenseSpec`, or a
    ``{"name", "config"}`` mapping carrying a per-defense config block.
    The default ``"auto"`` resolves to ``"liteworp"``.  Whatever form is
    passed, the field is normalised to a ``DefenseSpec`` with the config
    block resolved through the plugin at construction, so a malformed
    block fails here and two spellings of the same run digest alike.
    """

    n_nodes: int = 100
    tx_range: float = 30.0
    avg_neighbors: float = 8.0
    seed: int = 1
    duration: float = 300.0
    # Removed: the pre-registry boolean.  Kept as a field only so the
    # old spelling fails with a pointed ValueError instead of an opaque
    # TypeError.
    liteworp_enabled: Optional[bool] = None
    defense: Any = "auto"
    liteworp: LiteworpConfig = field(default_factory=LiteworpConfig)
    leash: "LeashConfig" = field(default_factory=lambda: _default_leash_config())
    oracle_neighbors: bool = True
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    n_malicious: int = 2
    attack_mode: str = "outofband"
    attack_start: float = 50.0
    malicious_min_separation: int = 2
    fake_prev_strategy: str = "smart"
    encap_hop_delay: float = 0.02
    highpower_multiplier: float = 3.0
    fault_plan: Optional[FaultPlan] = None
    # Observability switches (JSONL export / strict schema / ring buffer);
    # None keeps the zero-overhead default.  See repro.obs.
    obs: Optional[ObsConfig] = None

    def __post_init__(self) -> None:
        # Eager validation: a malformed config must fail at construction
        # with a clear message, not minutes into a run (or, worse, produce
        # a silently empty report).
        if self.liteworp_enabled is not None:
            raise ValueError(
                "ScenarioConfig.liteworp_enabled was removed; pass "
                "defense='liteworp' or defense='none' instead"
            )
        if self.n_nodes < 4:
            raise ValueError(f"need at least 4 nodes, got {self.n_nodes!r}")
        if self.tx_range <= 0:
            raise ValueError(f"tx_range must be positive, got {self.tx_range!r}")
        if self.avg_neighbors <= 0:
            raise ValueError(f"avg_neighbors must be positive, got {self.avg_neighbors!r}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if self.attack_start < 0:
            raise ValueError(f"attack_start must be non-negative, got {self.attack_start!r}")
        if self.malicious_min_separation < 0:
            raise ValueError(
                "malicious_min_separation must be non-negative, "
                f"got {self.malicious_min_separation!r}"
            )
        if self.encap_hop_delay < 0:
            raise ValueError(
                f"encap_hop_delay must be non-negative, got {self.encap_hop_delay!r}"
            )
        if self.highpower_multiplier <= 0:
            raise ValueError(
                f"highpower_multiplier must be positive, got {self.highpower_multiplier!r}"
            )
        if self.attack_mode not in ATTACK_MODES:
            raise ValueError(f"attack_mode must be one of {ATTACK_MODES}")
        spec = DefenseSpec.coerce(self.defense)
        plugin_name = "liteworp" if spec.name == "auto" else spec.name
        if plugin_name not in available_defenses():
            raise ValueError(
                f"defense must be one of {('auto',) + available_defenses()}, "
                f"got {spec.name!r}"
            )
        # Resolve the config block eagerly: a malformed block fails at
        # construction, and equivalent spellings (mapping vs dataclass vs
        # omitted default) normalise to one canonical spec — so the cache
        # digest cannot split or collide on spelling.
        resolved = get_defense(plugin_name).resolve_config(spec.config)
        if resolved is not spec.config:
            spec = DefenseSpec(name=spec.name, config=resolved)
        object.__setattr__(self, "defense", spec)
        if self.n_malicious < 0:
            raise ValueError("n_malicious must be non-negative")
        if self.attack_mode in TUNNEL_MODES and 0 < self.n_malicious < 2:
            raise ValueError("tunnel modes need at least two colluders")
        if self.attack_mode in ("highpower", "relay", "rushing") and self.n_malicious > 1:
            raise ValueError(f"{self.attack_mode} uses exactly one malicious node")
        if self.duration <= self.attack_start and self.attack_mode != "none" and self.n_malicious:
            raise ValueError("duration must extend past attack_start")

    def defense_spec(self) -> DefenseSpec:
        """The normalised spec with ``"auto"`` resolved to its default."""
        spec = self.defense
        if spec.name == "auto":
            return DefenseSpec(name="liteworp", config=spec.config)
        return spec

    def effective_defense(self) -> str:
        """The registry name of the defense this run will use."""
        return self.defense_spec().name

    def effective_malicious(self) -> int:
        """Malicious node count after mode constraints (0 disables attack)."""
        if self.attack_mode == "none":
            return 0
        if self.attack_mode in TUNNEL_MODES and self.n_malicious < 2:
            return 0
        return self.n_malicious


@dataclass
class Scenario:
    """A built (but not yet run) deployment with all live objects exposed."""

    config: ScenarioConfig
    sim: Simulator
    rng: RngRegistry
    trace: TraceLog
    topology: Topology
    network: Network
    routers: Dict[NodeId, OnDemandRouting]
    agents: Dict[NodeId, LiteworpAgent]
    traffic: TrafficGenerator
    metrics: MetricsCollector
    malicious_ids: Tuple[NodeId, ...]
    defense: Defense
    defense_ctx: DefenseContext
    coordinator: Optional[WormholeCoordinator] = None
    relay_attacker: Optional[RelayAttacker] = None
    leash_agents: Dict[NodeId, LeashAgent] = field(default_factory=dict)
    fault_controller: Optional[FaultController] = None

    def __del__(self) -> None:
        # The run's objects form reference cycles (a node's hook lists hold
        # agents that hold the node; the queue holds callbacks of objects
        # that hold the simulator).  Breaking them at these hubs lets
        # reference counting free the whole run the moment its scenario
        # goes, whether it was run, failed mid-run or never started; the
        # cyclic collector is not needed.  Sub-objects a caller kept keep
        # their data (counters, trace records) but lose their hooks.
        self.sim.release()
        self.network.release()
        self.traffic.release()
        if self.coordinator is not None:
            self.coordinator.release()
        self.defense.release(self.defense_ctx)

    @property
    def honest_ids(self) -> Tuple[NodeId, ...]:
        """Node ids not under attacker control."""
        bad = set(self.malicious_ids)
        return tuple(n for n in self.network.node_ids() if n not in bad)

    def run(self) -> MetricsReport:
        """Execute to the configured horizon and return the metrics."""
        with span("scenario.run"):
            self.traffic.start()
            # A run makes no cyclic garbage (its cycles are broken when the
            # scenario goes, see __del__), so the cyclic collector would
            # only walk the growing trace and tables over and over: it is
            # paused for the run and the caller's setting restored after.
            # Everything the run allocated is still counted young then, and
            # the next allocation would walk all of it once: freezing and
            # unfreezing first moves it to the oldest generation.
            collecting = gc.isenabled()
            gc.disable()
            try:
                self.sim.run(until=self.config.duration)
            finally:
                if collecting:
                    gc.freeze()
                    gc.unfreeze()
                    gc.enable()
                # Flush streamed trace exports even when a strict-mode schema
                # violation (or any other error) aborts the run mid-flight.
                self.trace.close_sinks()
        with span("metrics.collect"):
            return self.metrics.report(
                duration=self.config.duration,
                node_counters=self.defense.node_counters(self.defense_ctx),
            )


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Assemble a deployment per ``config`` (deterministic given the seed)."""
    with span("scenario.build"):
        return _build_scenario(config)


def _build_scenario(config: ScenarioConfig) -> Scenario:
    rng = RngRegistry(seed=config.seed)
    sim = make_simulator()
    trace = _build_trace(config)
    topology = generate_connected_topology(
        config.n_nodes,
        config.tx_range,
        config.avg_neighbors,
        rng.stream("topology"),
        min_degree=2,
    )
    network = Network(sim, topology, rng, trace=trace, config=config.network)
    keys = PairwiseKeyManager()

    malicious_ids = _choose_malicious(config, topology, rng.stream("attack-placement"))
    malicious_set = frozenset(malicious_ids)

    coordinator: Optional[WormholeCoordinator] = None
    if config.attack_mode in TUNNEL_MODES and malicious_ids:
        coordinator = WormholeCoordinator(
            sim,
            network,
            trace,
            mode=config.attack_mode,
            encap_hop_delay=config.encap_hop_delay,
            rng=rng.stream("attack"),
        )

    routers: Dict[NodeId, OnDemandRouting] = {}
    relay_attacker: Optional[RelayAttacker] = None
    adjacency = topology.adjacency()

    spec = config.defense_spec()
    defense = get_defense(spec.name)
    ctx = DefenseContext(
        config=config,
        spec=spec,
        plugin_config=defense.resolve_config(spec.config),
        sim=sim,
        network=network,
        topology=topology,
        adjacency=adjacency,
        trace=trace,
        rng=rng,
        keys=keys,
        malicious=malicious_set,
    )
    defense.prepare(ctx)

    for node_id in network.node_ids():
        node = network.node(node_id)
        node_rng = rng.stream(f"routing:{node_id}")
        if node_id in malicious_set:
            router = _build_malicious_router(
                config, sim, node, trace, node_rng, network, coordinator
            )
            defense.attach_insider(node, sim, ctx)
            if config.attack_mode == "relay":
                relay_attacker = _build_relay_attacker(config, sim, node, topology, trace, rng)
        else:
            defense.attach_honest(node, sim, ctx)
            router = OnDemandRouting(sim, node, config.routing, trace, node_rng)
            defense.attach_router(node_id, router, ctx)
        routers[node_id] = router

    defense.finalize(ctx)

    activation_time = config.attack_start
    if coordinator is not None:
        coordinator.activate_at(activation_time)
    else:
        for node_id in malicious_ids:
            router = routers[node_id]
            if hasattr(router, "activate"):
                sim.schedule_at(activation_time, router.activate)
        if relay_attacker is not None:
            sim.schedule_at(activation_time, relay_attacker.activate)

    honest = [n for n in network.node_ids() if n not in malicious_set]
    traffic = TrafficGenerator(sim, routers, honest, rng, config=config.traffic)

    honest_neighbors = {
        m: frozenset(n for n in adjacency[m] if n not in malicious_set)
        for m in malicious_ids
    }
    metrics = MetricsCollector(
        trace,
        malicious_ids=malicious_ids,
        honest_neighbors=honest_neighbors,
    )
    metrics.attach_network(network)

    fault_controller: Optional[FaultController] = None
    if config.fault_plan is not None and len(config.fault_plan):
        from repro.faults.controller import FaultController

        fault_controller = FaultController(network)
        fault_controller.apply(config.fault_plan)

    return Scenario(
        config=config,
        sim=sim,
        rng=rng,
        trace=trace,
        topology=topology,
        network=network,
        routers=routers,
        agents=ctx.agents,
        traffic=traffic,
        metrics=metrics,
        malicious_ids=tuple(malicious_ids),
        coordinator=coordinator,
        relay_attacker=relay_attacker,
        leash_agents=ctx.leash_agents,
        fault_controller=fault_controller,
        defense=defense,
        defense_ctx=ctx,
    )


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    """Build and run one scenario; convenience for sweeps."""
    return build_scenario(config).run()


def average_runs(
    config: ScenarioConfig,
    runs: int,
    jobs: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path]] = None,
) -> List[MetricsReport]:
    """Run ``runs`` independent replications (the paper averages 30).

    Replication seeds are hash-derived (:mod:`repro.experiments.seeds`):
    index 0 is the base seed itself, higher indices are SHA-256 children.

    The replications run through the campaign executor
    (:func:`~repro.experiments.campaign.run_sweep`): ``jobs`` fans them
    across worker processes and ``cache`` (a
    :class:`~repro.experiments.cache.ResultCache` or a directory path)
    serves already-computed ones; both default to the serial, uncached
    behaviour.
    """
    # Imported lazily: the campaign module imports this one.
    from repro.experiments.campaign import replication_configs, run_sweep

    return run_sweep(
        replication_configs(config, runs), jobs=jobs, cache=cache
    ).reports


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _build_trace(config: ScenarioConfig) -> TraceLog:
    """A trace log with the configured observability wiring installed."""
    obs = config.obs
    if obs is None:
        return TraceLog()
    trace = TraceLog(capacity=obs.ring_capacity)
    if obs.strict:
        from repro.obs.schema import install_strict

        install_strict(trace)
    if obs.trace_path is not None:
        from repro.experiments.cache import config_digest
        from repro.obs.sinks import JsonlSink

        # Tagged so multi-run exports into one file can be regrouped per
        # run downstream.  The seed alone is not unique — sweep points
        # share replication seeds — so the tag carries the config digest.
        # Digested with obs stripped: the tag identifies the simulation,
        # not where its trace happens to be written.
        run_tag = f"{config.seed}:{config_digest(replace(config, obs=None))[:12]}"
        trace.attach_sink(JsonlSink(obs.trace_path, append=True, run=run_tag))
    return trace


def _choose_malicious(
    config: ScenarioConfig, topology: Topology, rng: random.Random
) -> List[NodeId]:
    count = config.effective_malicious()
    if count == 0:
        return []
    if config.attack_mode == "relay":
        node = _find_relay_position(topology, rng)
        return [node]
    return choose_separated_nodes(
        topology, count, config.malicious_min_separation, rng
    )


def _find_relay_position(topology: Topology, rng: random.Random) -> NodeId:
    """A node with two neighbors that are not each other's neighbors."""
    adjacency = topology.adjacency()
    candidates = list(topology.node_ids)
    rng.shuffle(candidates)
    for node in candidates:
        if _relay_victims(adjacency, node) is not None:
            return node
    raise RuntimeError("no suitable relay position in this topology")


def _relay_victims(adjacency, node: NodeId) -> Optional[Tuple[NodeId, NodeId]]:
    neighbors = adjacency[node]
    for i, a in enumerate(neighbors):
        near_a = set(adjacency[a])
        for b in neighbors[i + 1:]:
            if b not in near_a:
                return (a, b)
    return None


def _build_malicious_router(
    config: ScenarioConfig,
    sim: Simulator,
    node,
    trace: TraceLog,
    node_rng: random.Random,
    network: Network,
    coordinator: Optional[WormholeCoordinator],
) -> OnDemandRouting:
    if config.attack_mode in TUNNEL_MODES:
        assert coordinator is not None
        return TunnelRouting(
            sim, node, config.routing, trace, node_rng,
            coordinator=coordinator,
            network=network,
            fake_prev_strategy=config.fake_prev_strategy,
        )
    if config.attack_mode == "highpower":
        return HighPowerRouting(
            sim, node, config.routing, trace, node_rng,
            network=network,
            range_multiplier=config.highpower_multiplier,
        )
    if config.attack_mode == "rushing":
        return RushingRouting(sim, node, config.routing, trace, node_rng)
    # relay: the attacker runs plain routing; the relay sits below it.
    return OnDemandRouting(sim, node, config.routing, trace, node_rng)


def _build_relay_attacker(
    config: ScenarioConfig,
    sim: Simulator,
    node,
    topology: Topology,
    trace: TraceLog,
    rng: RngRegistry,
) -> RelayAttacker:
    victims = _relay_victims(topology.adjacency(), node.node_id)
    if victims is None:  # pragma: no cover - placement guarantees a pair
        raise RuntimeError("relay node lost its victim pair")
    return RelayAttacker(sim, node, victims, trace)
