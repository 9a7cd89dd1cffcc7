"""Packet leashes (Hu, Perrig, Johnson) as defense plugins.

The paper positions LITEWORP against packet leashes, the best-known
wormhole defense at the time.  A *leash* is "any added information to the
packet for the purpose of defending against the wormhole" (paper
section 2).  Per hop, the sender attaches an authenticated (position,
send-time) stamp at the radio; the receiver bounds how far the packet can
have travelled:

- **geographic**:  ``dist(p_s, p_r) <= range + v * (t_r - t_s + 2*delta)``
  where v bounds node speed and delta the (loose) clock error;
- **temporal**:  the packet's age must not exceed the air time plus a
  small processing budget:  ``t_r - t_s - duration <= budget + 2*delta``
  (with a 40 kbps radio the air time dominates light-travel time, so the
  bound is effectively an age check — the paper's observation that
  temporal leashes assume "packet processing, sending, and receiving
  delays are negligible" shows up here as the budget term).

The authentication tag stands in for the TIK / hash-tree broadcast
authentication of the original scheme: outsiders cannot forge it, every
insider can produce it *for its own transmissions*.  That is exactly the
scheme's limit: two colluding **insiders** re-leash tunnelled traffic as
their own and pass every check, while replay-style wormholes (the
outsider relay, high-power shouting) are caught.  Leashes also add
per-packet overhead on every packet and isolate no one.

Two registrations share one implementation: ``geo_leash`` binds the
geographic leash, ``temporal_leash`` the temporal one.  Honest nodes
stamp at the radio and verify incoming frames; insider attackers stamp
truthfully but never verify.  The effective :class:`LeashConfig` is
derived once per run in :meth:`LeashDefense.prepare`: the plugin pins
``kind`` to its own flavour and inherits ``comm_range`` /
``bandwidth_bps`` from the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.crypto.auth import Authenticator
from repro.defenses.base import Defense, DefenseContext
from repro.net.node import Node
from repro.net.packet import Frame, NodeId
from repro.net.radio import UnitDiskRadio, distance
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collector import MetricsReport

GEO_LEASH_BYTES = 28  # 2 x 8-byte coordinates + 4-byte timestamp + 8-byte tag
TEMPORAL_LEASH_BYTES = 16  # 4-byte timestamp + 4-byte expiry + 8-byte tag

KINDS = ("geographic", "temporal")


@dataclass(frozen=True)
class Leash:
    """The per-transmission stamp."""

    sender: NodeId
    position: Tuple[float, float]
    sent_at: float
    auth: bytes
    size_bytes: int = GEO_LEASH_BYTES


@dataclass(frozen=True)
class LeashConfig:
    """Leash-verification parameters.

    Attributes
    ----------
    kind:
        ``"geographic"`` or ``"temporal"``.
    comm_range:
        The nominal radio range r used as the distance bound.
    clock_error:
        One-sided clock synchronisation error delta (loose for the
        geographic leash, tight for the temporal one).
    speed_bound:
        v — maximum node speed, slackening the geographic bound.
    processing_budget:
        Allowed non-propagation latency per hop for the temporal leash
        (MAC turnaround; light travel time is negligible at r = 30 m).
    bandwidth_bps:
        The channel bit rate, used by the temporal check to discount the
        frame's own air time from its age.
    require_leash:
        Reject frames carrying no leash at all (on by default — a
        leash-protected network treats bare frames as suspect).
    """

    kind: str = "geographic"
    comm_range: float = 30.0
    clock_error: float = 0.001
    speed_bound: float = 0.0
    processing_budget: float = 0.002
    bandwidth_bps: float = 40_000.0
    require_leash: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.comm_range <= 0:
            raise ValueError("comm_range must be positive")
        if self.clock_error < 0 or self.speed_bound < 0 or self.processing_budget < 0:
            raise ValueError("error/speed/budget must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")

    @property
    def leash_bytes(self) -> int:
        """Per-packet overhead in bytes."""
        return GEO_LEASH_BYTES if self.kind == "geographic" else TEMPORAL_LEASH_BYTES


class LeashAgent:
    """Per-node leash stamping and verification.

    Stamping happens at the channel (PHY) so the send time is the actual
    transmission time even after MAC queueing; verification is a receive
    filter installed on the node.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        radio: UnitDiskRadio,
        config: LeashConfig,
        trace: TraceLog,
        leash_key: bytes = b"network-wide-leash-key",
        verify_incoming: bool = True,
    ) -> None:
        self.sim = sim
        self.node = node
        self.radio = radio
        self.config = config
        self.trace = trace
        self.leash_key = leash_key
        self.accepted = 0
        self.rejected_missing = 0
        self.rejected_auth = 0
        self.rejected_distance = 0
        self.rejected_age = 0
        self.bytes_overhead = 0
        if verify_incoming:
            node.add_filter(self._verify)

    # ------------------------------------------------------------------
    # Stamping (wire to channel.set_frame_stamper)
    # ------------------------------------------------------------------
    def stamp(self, frame: Frame) -> Frame:
        """Attach this node's leash at the moment of transmission."""
        position = self.radio.position(self.node.node_id)
        now = self.sim.now
        leash = Leash(
            sender=self.node.node_id,
            position=position,
            sent_at=now,
            auth=Authenticator.tag(
                self.leash_key, "leash", self.node.node_id,
                position[0], position[1], now,
            ),
            size_bytes=self.config.leash_bytes,
        )
        self.bytes_overhead += leash.size_bytes
        return Frame(
            packet=frame.packet,
            transmitter=frame.transmitter,
            link_dst=frame.link_dst,
            prev_hop=frame.prev_hop,
            leash=leash,
        )

    # ------------------------------------------------------------------
    # Verification (receive filter)
    # ------------------------------------------------------------------
    def _verify(self, frame: Frame) -> bool:
        leash = frame.leash
        if leash is None:
            if self.config.require_leash:
                self.rejected_missing += 1
                self.trace.emit(
                    self.sim.now, "leash_rejected", node=self.node.node_id,
                    reason="missing", **frame.describe(),
                )
                return False
            return True
        if not Authenticator.verify(
            self.leash_key, leash.auth, "leash", leash.sender,
            leash.position[0], leash.position[1], leash.sent_at,
        ):
            self.rejected_auth += 1
            self.trace.emit(
                self.sim.now, "leash_rejected", node=self.node.node_id,
                reason="auth", **frame.describe(),
            )
            return False
        if leash.sender != frame.transmitter:
            # The leash must authenticate the claimed link-layer sender —
            # otherwise a relay could re-leash someone else's frame.
            self.rejected_auth += 1
            self.trace.emit(
                self.sim.now, "leash_rejected", node=self.node.node_id,
                reason="spoof", **frame.describe(),
            )
            return False
        if self.config.kind == "geographic":
            return self._verify_geographic(frame, leash)
        return self._verify_temporal(frame, leash)

    def _verify_geographic(self, frame: Frame, leash: Leash) -> bool:
        my_position = self.radio.position(self.node.node_id)
        elapsed = max(0.0, self.sim.now - leash.sent_at)
        slack = self.config.speed_bound * (elapsed + 2 * self.config.clock_error)
        bound = self.config.comm_range + slack
        if distance(leash.position, my_position) > bound:
            self.rejected_distance += 1
            self.trace.emit(
                self.sim.now, "leash_rejected", node=self.node.node_id,
                reason="distance", **frame.describe(),
            )
            return False
        self.accepted += 1
        return True

    def _verify_temporal(self, frame: Frame, leash: Leash) -> bool:
        # The frame was on the air for its duration; any age beyond that
        # plus the processing budget means it was stored and replayed.
        duration = frame.size_bytes * 8.0 / self.config.bandwidth_bps
        age = self.sim.now - leash.sent_at - duration
        if age > self.config.processing_budget + 2 * self.config.clock_error:
            self.rejected_age += 1
            self.trace.emit(
                self.sim.now, "leash_rejected", node=self.node.node_id,
                reason="age", **frame.describe(),
            )
            return False
        self.accepted += 1
        return True


class LeashDefense(Defense):
    """Shared wiring for both leash flavours."""

    config_cls = LeashConfig
    #: ``LeashConfig.kind`` this registration enforces.
    kind = "geographic"

    def default_config(self) -> None:
        # The block lives on ScenarioConfig.leash (and always has); a
        # spec-level block overrides it when present.
        return None

    def prepare(self, ctx: DefenseContext) -> None:
        base = ctx.plugin_config if ctx.plugin_config is not None else ctx.config.leash
        ctx.state["leash_config"] = replace(
            base,
            kind=self.kind,
            comm_range=ctx.config.tx_range,
            bandwidth_bps=ctx.config.network.bandwidth_bps,
        )

    def attach_honest(self, node: "Node", sim: "Simulator", ctx: DefenseContext) -> None:
        agent = LeashAgent(
            sim, node, ctx.network.radio, ctx.state["leash_config"], ctx.trace
        )
        ctx.leash_agents[node.node_id] = agent
        ctx.network.channel.set_frame_stamper(node.node_id, agent.stamp)

    def attach_insider(self, node: "Node", sim: "Simulator", ctx: DefenseContext) -> None:
        # Insider attackers run the leash protocol too: leashing their
        # own transmissions truthfully is exactly how they evade the
        # scheme.  Attackers stamp but never reject (a filter would only
        # protect them, and their behaviour stays unconstrained).
        insider = LeashAgent(
            sim, node, ctx.network.radio, ctx.state["leash_config"], ctx.trace,
            verify_incoming=False,
        )
        ctx.network.channel.set_frame_stamper(node.node_id, insider.stamp)

    def metrics_contribution(self, report: "MetricsReport", config: Any) -> Dict[str, float]:
        block = config if isinstance(config, LeashConfig) else LeashConfig()
        bytes_per_frame = (
            replace(block, kind=self.kind).leash_bytes
        )
        return {"leash_bytes_per_frame": float(bytes_per_frame)}


class GeoLeashDefense(LeashDefense):
    """Authenticated (position, send time) stamp; distance-bound check."""

    name = "geo_leash"
    kind = "geographic"
    description = "geographic packet leash (authenticated position + time stamp)"


class TemporalLeashDefense(LeashDefense):
    """Authenticated send-time stamp; packet-age bound check."""

    name = "temporal_leash"
    kind = "temporal"
    description = "temporal packet leash (authenticated send-time stamp)"
