"""Unit-disk radio propagation model.

The paper's analysis and ns-2 setup both use a fixed communication range
(r = 30 m, Table 2) with symmetric bi-directional links.  We model exactly
that: node B hears node A iff their distance is at most A's transmit range.
Per-node range overrides support the high-power-transmission wormhole mode
(section 3.3), which breaks symmetry on purpose — the defense's symmetric-
channel assumption is what detects it.

Coverage queries are served by a :class:`~repro.net.grid.SpatialGrid`
(cell size = the default range) so a broadcast touches only the nodes in
adjacent cells instead of scanning all n positions.  The brute-force
scan survives as ``_brute_coverage_with_distance``: it is the semantic
reference (the property tests assert the grid matches it exactly) and the
code path used under ``repro.sim.accel.reference_mode``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.net.grid import SpatialGrid
from repro.sim import accel

NodeId = int
Position = Tuple[float, float]


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two positions."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


class UnitDiskRadio:
    """Deterministic disk propagation with per-node transmit ranges.

    Parameters
    ----------
    positions:
        Mapping node id -> (x, y) in metres.
    default_range:
        Communication range r applied to every node unless overridden.
    use_grid:
        Force the spatial index on/off.  Defaults to the stack-wide
        accelerator switch (:func:`repro.sim.accel.features_enabled`);
        results are identical either way, only the query cost differs.
    """

    def __init__(
        self,
        positions: Dict[NodeId, Position],
        default_range: float = 30.0,
        use_grid: Optional[bool] = None,
    ) -> None:
        if default_range <= 0:
            raise ValueError(f"range must be positive, got {default_range!r}")
        self._positions = dict(positions)
        self._default_range = float(default_range)
        self._range_overrides: Dict[NodeId, float] = {}
        self._coverage_cache: Dict[Tuple[NodeId, float], Tuple[NodeId, ...]] = {}
        # Hot-path memo over the static topology: per-(sender, range)
        # receiver/distance lists (what the channel iterates on every
        # transmission).
        self._coverage_dist_cache: Dict[
            Tuple[NodeId, float], Tuple[Tuple[NodeId, float], ...]
        ] = {}
        self._use_grid = accel.features_enabled() if use_grid is None else use_grid
        self._grid: Optional[SpatialGrid] = (
            SpatialGrid(self._positions, self._default_range) if self._use_grid else None
        )
        #: Euclidean distance evaluations performed by coverage queries
        #: (grid candidates or brute scans).  The scaling regression test
        #: asserts a broadcast at n=1000 stays O(neighbors) on this.
        self.distance_computations = 0

    @property
    def default_range(self) -> float:
        """The network-wide communication range r."""
        return self._default_range

    @property
    def uses_grid_index(self) -> bool:
        """Whether coverage queries go through the spatial grid."""
        return self._grid is not None

    @property
    def node_ids(self) -> List[NodeId]:
        """All node ids known to the radio."""
        return list(self._positions)

    def position(self, node: NodeId) -> Position:
        """Position of ``node``."""
        return self._positions[node]

    def tx_range(self, node: NodeId) -> float:
        """Effective transmit range of ``node`` (override or default)."""
        return self._range_overrides.get(node, self._default_range)

    def set_tx_range(self, node: NodeId, tx_range: float) -> None:
        """Give ``node`` a non-default transmit range (high-power attacker).

        The grid's cell layout is keyed to the default range, so an
        override larger than a cell just widens the query ring — no
        reindexing is needed.
        """
        if tx_range <= 0:
            raise ValueError(f"range must be positive, got {tx_range!r}")
        self._range_overrides[node] = float(tx_range)

    def coverage(self, sender: NodeId, tx_range: float | None = None) -> Tuple[NodeId, ...]:
        """Node ids (excluding the sender) within the sender's transmit range.

        Cached per ``(sender, range)`` because the network is static.
        """
        if tx_range is None:
            tx_range = self.tx_range(sender)
        cache_key = (sender, tx_range)
        cached = self._coverage_cache.get(cache_key)
        if cached is not None:
            return cached
        covered = tuple(
            node for node, _ in self.coverage_with_distance(sender, tx_range)
        )
        self._coverage_cache[cache_key] = covered
        return covered

    def coverage_with_distance(
        self, sender: NodeId, tx_range: float | None = None
    ) -> Tuple[Tuple[NodeId, float], ...]:
        """``(receiver, distance)`` pairs within the sender's range.

        This is the channel's per-transmission hot path: the receiver set
        *and* every receiver's distance are fixed for a static topology,
        so both are computed once per ``(sender, range)`` and replayed on
        every subsequent transmission.  The grid answers the query in
        O(neighbors); ordering matches the brute scan exactly.
        """
        if tx_range is None:
            tx_range = self.tx_range(sender)
        cache_key = (sender, tx_range)
        cached = self._coverage_dist_cache.get(cache_key)
        if cached is not None:
            return cached
        if self._grid is not None:
            hits = self._grid.query_disk(
                self._positions[sender], tx_range, exclude=sender
            )
            self.distance_computations += self._grid.distance_computations
            self._grid.distance_computations = 0
            covered = tuple(hits)
        else:
            covered = self._brute_coverage_with_distance(sender, tx_range)
        self._coverage_dist_cache[cache_key] = covered
        return covered

    def _brute_coverage_with_distance(
        self, sender: NodeId, tx_range: float
    ) -> Tuple[Tuple[NodeId, float], ...]:
        """Reference O(n) scan; the grid must reproduce this bit-for-bit."""
        origin = self._positions[sender]
        pairs = []
        for node, pos in self._positions.items():
            if node == sender:
                continue
            dist = distance(origin, pos)
            self.distance_computations += 1
            if dist <= tx_range:
                pairs.append((node, dist))
        return tuple(pairs)

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Symmetric neighbors at the *default* range.

        This is the ground-truth neighbor relation used by the topology
        oracle and by legitimacy checks in tests.  Note it deliberately
        ignores range overrides: a high-power attacker can reach farther,
        but far nodes are not its legitimate neighbors.
        """
        return self.coverage(node, self._default_range)
