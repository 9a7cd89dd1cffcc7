"""Uniform spatial grid over node positions.

Coverage queries are the inner loop of every broadcast: the brute-force
radio scans all n positions per (sender, range) pair, which is what caps
topologies at paper scale.  The grid buckets nodes into square cells of
side = the default transmit range, so a range-r disk query only examines
the O(1) ring of cells overlapping the disk — O(neighbors) work instead
of O(n).

Two properties matter for byte-identity with the brute-force scan:

- Results are returned in *position-map insertion order* (the order the
  brute force iterates ``positions.items()``), restored by sorting
  candidates on their insertion rank.
- Distances are computed by the same ``math.hypot`` call on the same
  floats, so values are bit-identical.

Positions are fixed once indexed (the network is static).  Range
overrides larger than the cell size simply widen the query ring
(``ceil(r / cell)`` rings), so the high-power attack mode needs no
special casing.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

NodeId = int
Position = Tuple[float, float]
Cell = Tuple[int, int]


class SpatialGrid:
    """Static point index with rank-ordered disk queries."""

    def __init__(self, positions: Dict[NodeId, Position], cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell size must be positive, got {cell_size!r}")
        self._cell_size = float(cell_size)
        self._positions: Dict[NodeId, Position] = {}
        self._cells: Dict[Cell, List[NodeId]] = {}
        self._cell_of: Dict[NodeId, Cell] = {}
        self._rank: Dict[NodeId, int] = {}
        # Candidate distance evaluations, for the O(neighbors) regression
        # test — see UnitDiskRadio.distance_computations.
        self.distance_computations = 0
        for node, pos in positions.items():
            self.insert(node, pos)

    @property
    def cell_size(self) -> float:
        return self._cell_size

    def _cell_for(self, pos: Position) -> Cell:
        cell = self._cell_size
        return (math.floor(pos[0] / cell), math.floor(pos[1] / cell))

    def insert(self, node: NodeId, pos: Position) -> None:
        """Add a node; ``node`` must not be indexed yet."""
        self._rank[node] = len(self._rank)
        self._positions[node] = pos
        cell = self._cell_for(pos)
        self._cell_of[node] = cell
        self._cells.setdefault(cell, []).append(node)

    def _candidates(self, origin: Position, radius: float) -> Iterator[NodeId]:
        cell = self._cell_size
        # The distance filter uses rounded hypot(), which can report a
        # node at distance exactly `radius` even when its coordinate lies
        # an ulp outside [origin - radius, origin + radius]; pad the cell
        # window by a relative epsilon so such boundary nodes stay inside
        # the scan (real-valued positions never sit on cell edges, so
        # the candidate set is unchanged away from exact boundaries).
        pad = (abs(origin[0]) + abs(origin[1]) + radius) * 1e-12
        cx0 = math.floor((origin[0] - radius - pad) / cell)
        cx1 = math.floor((origin[0] + radius + pad) / cell)
        cy0 = math.floor((origin[1] - radius - pad) / cell)
        cy1 = math.floor((origin[1] + radius + pad) / cell)
        cells = self._cells
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    yield from bucket

    def query_disk(
        self, origin: Position, radius: float, exclude: NodeId | None = None
    ) -> List[Tuple[NodeId, float]]:
        """``(node, distance)`` pairs within ``radius`` of ``origin``.

        Ordered by position-map insertion rank — identical to a brute
        scan over the insertion-ordered positions dict.
        """
        positions = self._positions
        hypot = math.hypot
        ox, oy = origin
        hits: List[Tuple[NodeId, float]] = []
        count = 0
        for node in self._candidates(origin, radius):
            if node == exclude:
                continue
            pos = positions[node]
            dist = hypot(ox - pos[0], oy - pos[1])
            count += 1
            if dist <= radius:
                hits.append((node, dist))
        self.distance_computations += count
        rank = self._rank
        hits.sort(key=lambda pair: rank[pair[0]])
        return hits
