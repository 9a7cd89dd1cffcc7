"""LITEWORP as a defense plugin (the paper's own scheme).

Honest nodes run the full :class:`~repro.core.agent.LiteworpAgent`
composition — guard monitoring, legitimacy filters, θ-quorum isolation —
and wire into routing so revoked neighbors become unusable.  Insider
nodes participate in neighbor discovery when the oracle is off (they are
compromised only after the paper's compromise-threshold time, so honest
tables must include them).  The wiring here is a line-for-line port of
the pre-registry ``scenario.py`` ladder: same construction order, same
RNG stream names, byte-identical reports (a pinned test holds it to
that).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.core.agent import LiteworpAgent
from repro.core.config import LiteworpConfig
from repro.defenses.base import Defense, DefenseContext
from repro.net.packet import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collector import MetricsReport
    from repro.net.node import Node
    from repro.routing.ondemand import OnDemandRouting
    from repro.sim.engine import Simulator


class LiteworpDefense(Defense):
    """Guard-based local monitoring with local + distributed isolation."""

    name = "liteworp"
    config_cls = LiteworpConfig
    description = "LITEWORP guard monitoring, MalC accusations, θ-quorum isolation"

    def default_config(self) -> None:
        # The block lives on ScenarioConfig.liteworp (and always has);
        # a spec-level block overrides it when present.
        return None

    def prepare(self, ctx: DefenseContext) -> None:
        ctx.state["liteworp_config"] = (
            ctx.plugin_config if ctx.plugin_config is not None else ctx.config.liteworp
        )

    def attach_honest(self, node: "Node", sim: "Simulator", ctx: DefenseContext) -> None:
        agent = LiteworpAgent(
            sim,
            node,
            ctx.keys.enroll(node.node_id),
            ctx.state["liteworp_config"],
            ctx.trace,
            rng=ctx.node_stream("liteworp", node.node_id),
        )
        ctx.agents[node.node_id] = agent
        ctx.network.channel.attach_loss_handler(
            node.node_id, agent.monitor.note_reception_loss
        )

    def attach_insider(self, node: "Node", sim: "Simulator", ctx: DefenseContext) -> None:
        if ctx.config.oracle_neighbors:
            return
        # Insider nodes are compromised only after the compromise
        # threshold time T_CT: during discovery they participate like
        # everyone else (reply to HELLOs, broadcast their neighbor list)
        # so honest tables include them.
        from repro.core.discovery import NeighborDiscovery
        from repro.core.tables import NeighborTable

        NeighborDiscovery(
            sim,
            node,
            NeighborTable(node.node_id),
            ctx.keys.enroll(node.node_id),
            ctx.state["liteworp_config"],
            ctx.trace,
            ctx.node_stream("liteworp", node.node_id),
        ).start()

    def attach_router(
        self, node_id: NodeId, router: "OnDemandRouting", ctx: DefenseContext
    ) -> None:
        ctx.agents[node_id].attach_router(router)

    def finalize(self, ctx: DefenseContext) -> None:
        if not ctx.config.oracle_neighbors:
            for agent in ctx.agents.values():
                agent.start_discovery()
            return
        # One frozenset per neighbour list, shared by every table that
        # stores it (a node's list is stored by each of its neighbours).
        neighbor_sets = {node: frozenset(ns) for node, ns in ctx.adjacency.items()}
        for agent in ctx.agents.values():
            agent.install_oracle(ctx.adjacency, neighbor_sets)

    def node_counters(self, ctx: DefenseContext) -> Dict[NodeId, Dict[str, int]]:
        from repro.obs.counters import snapshot_counters

        return snapshot_counters(ctx.agents)

    def metrics_contribution(self, report: "MetricsReport", config: Any) -> Dict[str, float]:
        alerts = sum(
            counters.get("alerts_sent", 0)
            for counters in report.node_counters.values()
        )
        rejects = sum(
            counters.get("reject_nonneighbor", 0)
            + counters.get("reject_revoked", 0)
            + counters.get("reject_secondhop", 0)
            for counters in report.node_counters.values()
        )
        return {"alerts_sent": float(alerts), "frames_rejected": float(rejects)}
