"""Epoch-based tree aggregation over the beacon tree.

Schedule: each aggregation epoch starts at a multiple of
``epoch_interval``.  Within an epoch, sends are staggered by depth —
deeper nodes report earlier — so every node can fold its children's
partial aggregates into its own before reporting to its parent:

    send time of node at depth d = epoch_start + (max_depth - d) * depth_slot

The sink finalises the epoch after the last slot and emits an
``aggregate_result`` trace carrying the combined value and the number of
nodes that contributed — the COUNT makes wormhole suppression directly
visible as missing contributors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.packet import Frame, NodeId, Packet
from repro.routing.beacon import BeaconTreeRouting
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceLog

SUM = "sum"
MAX = "max"
COUNT = "count"
AggregateKind = str
KINDS = (SUM, MAX, COUNT)


@dataclass(frozen=True, slots=True)
class AggregatePacket(Packet):
    """A partial aggregate travelling one hop up the tree."""

    sink: NodeId = 0
    epoch: int = 0
    reporter: NodeId = 0
    value: float = 0.0
    count: int = 0

    def _make_key(self) -> Tuple[Any, ...]:
        return ("AGG", self.sink, self.epoch, self.reporter)

    @property
    def size_bytes(self) -> int:
        return 24

    @property
    def is_control(self) -> bool:
        return False


@dataclass(frozen=True)
class AggregationConfig:
    """Aggregation schedule and combinator."""

    kind: AggregateKind = SUM
    epoch_interval: float = 10.0
    depth_slot: float = 0.3
    max_depth: int = 12

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.epoch_interval <= 0:
            raise ValueError("epoch_interval must be positive")
        if self.depth_slot <= 0:
            raise ValueError("depth_slot must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.epoch_interval <= (self.max_depth + 1) * self.depth_slot:
            raise ValueError("epoch_interval must exceed the slot schedule")


class TreeAggregation:
    """Per-node aggregation agent riding a :class:`BeaconTreeRouting`."""

    def __init__(
        self,
        sim: Simulator,
        tree: BeaconTreeRouting,
        config: AggregationConfig,
        trace: TraceLog,
        reading_fn: Callable[[NodeId, int], float],
    ) -> None:
        self.sim = sim
        self.tree = tree
        self.node = tree.node
        self.config = config
        self.trace = trace
        self.reading_fn = reading_fn
        self._epoch = 0
        self._pending: Dict[int, List[AggregatePacket]] = {}
        self._timer: Optional[PeriodicTimer] = None
        self.node.add_listener(self._on_frame)

    @property
    def is_sink(self) -> bool:
        """Whether this agent finalises epochs instead of reporting up."""
        return self.tree.is_sink

    def start(self) -> None:
        """Arm the epoch schedule (idempotent)."""
        if self._timer is not None:
            return
        self._timer = PeriodicTimer(
            self.sim, self._begin_epoch, lambda: self.config.epoch_interval
        )
        self._timer.start(initial_delay=self.config.epoch_interval)

    def stop(self) -> None:
        """Stop aggregating."""
        if self._timer is not None:
            self._timer.stop()

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------
    def _begin_epoch(self) -> None:
        self._epoch += 1
        epoch = self._epoch
        if self.is_sink:
            delay = (self.config.max_depth + 1) * self.config.depth_slot
            self.sim.schedule(delay, self._finalise, epoch)
            return
        depth = self.tree.depth
        if depth is None or self.tree.parent is None:
            return  # not attached to the tree this epoch
        slot = max(0, self.config.max_depth - min(depth, self.config.max_depth))
        # Jitter within the slot: same-depth reporters must not fire at the
        # same instant (hidden-terminal collisions would eat whole subtrees).
        jitter = self.tree.rng.uniform(0.0, 0.5 * self.config.depth_slot)
        self.sim.schedule(slot * self.config.depth_slot + jitter, self._report, epoch)

    def _report(self, epoch: int) -> None:
        parent = self.tree.parent
        if parent is None or not self.tree.usable(parent):
            self.trace.emit(
                self.sim.now, "aggregate_stranded",
                node=self.node.node_id, epoch=epoch,
            )
            return
        value, count = self._combine(epoch)
        packet = AggregatePacket(
            sink=self.tree.sink,
            epoch=epoch,
            reporter=self.node.node_id,
            value=value,
            count=count,
        )
        self.node.unicast(packet, next_hop=parent, prev_hop=None)

    def _combine(self, epoch: int) -> Tuple[float, int]:
        own = self.reading_fn(self.node.node_id, epoch)
        partials = self._pending.pop(epoch, [])
        values = [p.value for p in partials]
        count = 1 + sum(p.count for p in partials)
        if self.config.kind == SUM:
            return own + sum(values), count
        if self.config.kind == MAX:
            return max([own] + values), count
        return float(count), count

    def _finalise(self, epoch: int) -> None:
        partials = self._pending.pop(epoch, [])
        values = [p.value for p in partials]
        count = sum(p.count for p in partials)
        if self.config.kind == SUM:
            value = sum(values)
        elif self.config.kind == MAX:
            value = max(values) if values else float("-inf")
        else:
            value = float(count)
        self.trace.emit(
            self.sim.now, "aggregate_result",
            sink=self.node.node_id, epoch=epoch, value=value, count=count,
            aggregate=self.config.kind,
        )

    # ------------------------------------------------------------------
    # Child partials
    # ------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        packet = frame.packet
        if not isinstance(packet, AggregatePacket):
            return
        if frame.link_dst != self.node.node_id:
            return
        self._pending.setdefault(packet.epoch, []).append(packet)
