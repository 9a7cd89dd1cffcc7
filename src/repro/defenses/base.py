"""The defense plugin protocol.

A *defense* is everything a protection scheme needs to exist inside one
scenario: per-node wiring on honest and insider (captured) nodes, hooks
into routing, bootstrap finalisation, and a metrics surface.  The four
schemes the reproduction grew up with (LITEWORP itself, the two packet
leashes, and "none") are plugins like any other; third-party schemes
register through :func:`repro.defenses.register_defense` and become
selectable as ``ScenarioConfig(defense=...)`` values with no scenario
code changes.

Two contracts matter:

- **Statelessness** — one :class:`Defense` instance serves every run of
  that scheme, concurrently.  All per-run state lives on the
  :class:`DefenseContext`; a plugin that caches anything on ``self``
  will corrupt parallel sweeps.
- **Determinism** — any randomness must come from named streams of
  ``ctx.rng`` (:class:`~repro.sim.rng.RngRegistry`), keyed by node id
  (e.g. ``f"rtt:{node_id}"``), so results depend only on the seed, never
  on construction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.net.packet import NodeId
from repro.sim.rng import LazyStream

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.crypto.keys import PairwiseKeyManager
    from repro.metrics.collector import MetricsReport
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.net.topology import Topology
    from repro.routing.ondemand import OnDemandRouting
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry
    from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class DefenseSpec:
    """Which defense to run, plus its per-defense config block.

    ``ScenarioConfig.defense`` accepts a bare string (``"liteworp"``), a
    ``DefenseSpec``, or a mapping (``{"name": "rtt", "config": {...}}``);
    all three coerce here.  ``config=None`` means "the plugin's default"
    — for the legacy schemes that is the matching ``ScenarioConfig``
    field (``.liteworp`` / ``.leash``), for new plugins it is the
    default-constructed ``config_cls``.

    The spec is a dataclass field of :class:`ScenarioConfig`, so the
    plugin's config block participates in
    :func:`repro.experiments.cache.config_digest` — two runs of
    different plugins (or the same plugin under different tunings) can
    never collide in the result cache.
    """

    name: str
    config: Any = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"defense name must be a non-empty string, got {self.name!r}")

    @classmethod
    def coerce(cls, value: Any) -> "DefenseSpec":
        """Normalise ``str | Mapping | DefenseSpec`` into a spec."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            extra = set(value) - {"name", "config"}
            if extra:
                raise ValueError(
                    f"defense mapping has unknown key(s) {sorted(extra)}; "
                    "expected {'name', 'config'}"
                )
            if "name" not in value:
                raise ValueError("defense mapping needs a 'name'")
            return cls(name=str(value["name"]), config=value.get("config"))
        raise ValueError(
            "defense must be a name, a DefenseSpec, or a {'name', 'config'} "
            f"mapping, got {type(value).__name__}"
        )


@dataclass
class DefenseContext:
    """Everything a defense may touch while wiring one scenario.

    Built once per run by ``build_scenario`` and threaded through every
    hook; ``state`` is the plugin's per-run scratch space (derived
    configs, per-node agents, shared observers).  ``agents`` and
    ``leash_agents`` are the dictionaries the :class:`Scenario` dataclass
    exposes — the LITEWORP and leash plugins populate them so existing
    callers keep their handles on the live objects.
    """

    config: Any  # ScenarioConfig (untyped to avoid an import cycle)
    spec: DefenseSpec
    plugin_config: Any
    sim: "Simulator"
    network: "Network"
    topology: "Topology"
    adjacency: Dict[NodeId, Tuple[NodeId, ...]]
    trace: "TraceLog"
    rng: "RngRegistry"
    keys: "PairwiseKeyManager"
    malicious: FrozenSet[NodeId]
    agents: Dict[NodeId, Any] = field(default_factory=dict)
    leash_agents: Dict[NodeId, Any] = field(default_factory=dict)
    state: Dict[str, Any] = field(default_factory=dict)

    def node_stream(self, prefix: str, node_id: NodeId) -> LazyStream:
        """The named per-node RNG stream ``f"{prefix}:{node_id}"``, created
        on its first draw (:class:`~repro.sim.rng.LazyStream`)."""
        return LazyStream(self.rng, f"{prefix}:{node_id}")


class Defense:
    """Base class every defense plugin extends.

    Subclasses override the hooks they need; every default is a no-op,
    so a minimal plugin is just a ``name`` (the "none" plugin overrides
    nothing at all).  Hook order per scenario build::

        resolve_config(spec.config)      # validate the config block
        prepare(ctx)                     # once, before the node loop
        per node, in node-id order:
            attach_insider(node, sim, ctx)   # malicious nodes (router exists)
            attach_honest(node, sim, ctx)    # honest nodes (before router)
            attach_router(node_id, router, ctx)  # honest nodes, after router
        finalize(ctx)                    # once, after the node loop

    when the scenario is dropped::

        release(ctx)                     # break the plugin's own cycles

    and at report time::

        node_counters(ctx)               # -> MetricsReport.node_counters
        metrics_contribution(report, config)  # matrix-report extras
        detected(report)                 # did this run raise the alarm?
    """

    #: Registry key and ``ScenarioConfig(defense=...)`` value.
    name: str = ""
    #: Dataclass type of the per-defense config block (None: no block).
    config_cls: Optional[type] = None
    #: One-line human description (shown by ``repro matrix`` and docs).
    description: str = ""

    # ------------------------------------------------------------------
    # Config validation
    # ------------------------------------------------------------------
    def validate(self, config: Any) -> Any:
        """Check an already-typed config block; return it (or a
        normalised copy).  Raise ``ValueError`` on bad parameters."""
        return config

    def resolve_config(self, config: Any) -> Any:
        """Coerce the spec's config block into this plugin's config type.

        ``None`` stays ``None`` when the plugin declares no
        ``config_cls`` or sources its defaults elsewhere (the legacy
        schemes read ``ScenarioConfig.liteworp`` / ``.leash``); otherwise
        it default-constructs.  Mappings construct ``config_cls(**...)``.
        """
        if config is None:
            return self.validate(self.default_config())
        if self.config_cls is None:
            raise ValueError(
                f"defense {self.name!r} takes no config block, got {config!r}"
            )
        if isinstance(config, Mapping):
            try:
                config = self.config_cls(**config)
            except TypeError as exc:
                raise ValueError(
                    f"bad config for defense {self.name!r}: {exc}"
                ) from exc
        if not isinstance(config, self.config_cls):
            raise ValueError(
                f"defense {self.name!r} expects a {self.config_cls.__name__} "
                f"config block, got {type(config).__name__}"
            )
        return self.validate(config)

    def default_config(self) -> Any:
        """The config used when the spec carries none.  The legacy
        schemes return ``None`` here (their block lives on
        :class:`ScenarioConfig` itself, where it always has)."""
        return None

    # ------------------------------------------------------------------
    # Scenario wiring hooks
    # ------------------------------------------------------------------
    def prepare(self, ctx: DefenseContext) -> None:
        """Called once before the per-node loop."""

    def attach_honest(self, node: "Node", sim: "Simulator", ctx: DefenseContext) -> None:
        """Wire the defense onto an honest node (its router does not
        exist yet; use :meth:`attach_router` for routing hooks)."""

    def attach_insider(self, node: "Node", sim: "Simulator", ctx: DefenseContext) -> None:
        """Wire the defense onto a malicious (insider) node — whatever a
        compromised-but-undetected node would still run."""

    def attach_router(
        self, node_id: NodeId, router: "OnDemandRouting", ctx: DefenseContext
    ) -> None:
        """Called for honest nodes after their routing agent exists."""

    def finalize(self, ctx: DefenseContext) -> None:
        """Called once after every node is wired (bootstrap kick-off)."""

    def release(self, ctx: DefenseContext) -> None:
        """Called once when the scenario is dropped, after its queue, its
        channel and its nodes' hook lists are emptied: break the reference
        cycles the plugin's own objects still form (an agent whose helper
        holds a bound method of the agent), so the run is freed by
        reference counting.  Counters must stay readable."""

    # ------------------------------------------------------------------
    # Metrics surface
    # ------------------------------------------------------------------
    def node_counters(self, ctx: DefenseContext) -> Dict[NodeId, Dict[str, int]]:
        """Per-node protocol counters for ``MetricsReport.node_counters``."""
        return {}

    def metrics_contribution(self, report: "MetricsReport", config: Any) -> Dict[str, float]:
        """Defense-specific scalar metrics for the matrix report (e.g.
        overhead bytes, links flagged).  Keys are plugin-defined."""
        return {}

    def detected(self, report: "MetricsReport") -> bool:
        """Whether this run's report shows the defense raised the alarm.
        Default: any guard detection.  Plugins whose signal lives in
        their own counters override this."""
        return report.detections > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Defense {self.name!r}>"
