"""Topology generation.

The paper distributes nodes uniformly over a square field whose side grows
with the node count so that the average density — equivalently the average
neighbor count N_B = pi * r^2 * d — stays fixed (Table 2: N_B = 8,
field 80x80 m for N = 20 up to ~180x180 m for N = 150, r = 30 m).

Besides the uniform generator we provide a deterministic grid (for unit
tests that need known neighbor sets) and helpers for connectivity and for
placing malicious nodes more than two hops apart, as the paper's runs do.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.net.radio import UnitDiskRadio

NodeId = int
Position = Tuple[float, float]


def field_side_for_density(n_nodes: int, tx_range: float, avg_neighbors: float) -> float:
    """Side of the square field giving the target average neighbor count.

    From N_B = pi r^2 d and d = N / L^2:  L = r * sqrt(pi * N / N_B).
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if avg_neighbors <= 0:
        raise ValueError("avg_neighbors must be positive")
    return tx_range * math.sqrt(math.pi * n_nodes / avg_neighbors)


@dataclass
class Topology:
    """A static node placement plus the derived neighbor relation."""

    positions: Dict[NodeId, Position]
    tx_range: float
    field_side: float = 0.0
    _adjacency: Optional[Dict[NodeId, Tuple[NodeId, ...]]] = field(default=None, repr=False)

    @property
    def node_ids(self) -> List[NodeId]:
        """All node ids, sorted."""
        return sorted(self.positions)

    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self.positions)

    def adjacency(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """Neighbor lists at ``tx_range`` (symmetric; computed once)."""
        if self._adjacency is None:
            radio = UnitDiskRadio(self.positions, self.tx_range)
            self._adjacency = {node: radio.neighbors(node) for node in self.positions}
        return self._adjacency

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Direct neighbors of ``node``."""
        return self.adjacency()[node]

    def average_degree(self) -> float:
        """Mean neighbor count over all nodes."""
        adjacency = self.adjacency()
        if not adjacency:
            return 0.0
        return sum(len(v) for v in adjacency.values()) / len(adjacency)

    def is_connected(self) -> bool:
        """Whether the unit-disk graph is a single component."""
        nodes = self.node_ids
        if not nodes:
            return True
        return len(self.reachable_from(nodes[0])) == len(nodes)

    def reachable_from(self, start: NodeId) -> Set[NodeId]:
        """All nodes reachable from ``start`` over radio links."""
        adjacency = self.adjacency()
        seen = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def hop_distance(self, a: NodeId, b: NodeId) -> Optional[int]:
        """Shortest hop count between a and b, or None if disconnected."""
        if a == b:
            return 0
        adjacency = self.adjacency()
        seen = {a}
        frontier: deque = deque([(a, 0)])
        while frontier:
            node, hops = frontier.popleft()
            for neighbor in adjacency[node]:
                if neighbor == b:
                    return hops + 1
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append((neighbor, hops + 1))
        return None

    def radio(self) -> UnitDiskRadio:
        """Fresh :class:`UnitDiskRadio` over this placement."""
        return UnitDiskRadio(self.positions, self.tx_range)


def uniform_topology(
    n_nodes: int,
    tx_range: float,
    field_side: float,
    rng: random.Random,
    first_id: int = 0,
) -> Topology:
    """Place ``n_nodes`` uniformly at random in a square field."""
    positions = {
        first_id + i: (rng.uniform(0.0, field_side), rng.uniform(0.0, field_side))
        for i in range(n_nodes)
    }
    return Topology(positions=positions, tx_range=tx_range, field_side=field_side)


def grid_topology(columns: int, rows: int, spacing: float, tx_range: float) -> Topology:
    """Deterministic grid placement; with spacing < r <= spacing*sqrt(2) the
    neighbor sets are the 4-connected grid, convenient for unit tests."""
    positions: Dict[NodeId, Position] = {}
    node = 0
    for row in range(rows):
        for col in range(columns):
            positions[node] = (col * spacing, row * spacing)
            node += 1
    side = max(columns - 1, 0) * spacing
    return Topology(positions=positions, tx_range=tx_range, field_side=side)


def generate_connected_topology(
    n_nodes: int,
    tx_range: float,
    avg_neighbors: float,
    rng: random.Random,
    max_tries: int = 200,
    min_degree: int = 1,
) -> Topology:
    """Draw uniform topologies until one is connected (and meets min degree).

    The paper's density (N_B = 8) yields connected graphs with high
    probability; the retry loop absorbs unlucky draws deterministically
    under the provided RNG.
    """
    side = field_side_for_density(n_nodes, tx_range, avg_neighbors)
    for _ in range(max_tries):
        topology = uniform_topology(n_nodes, tx_range, side, rng)
        adjacency = topology.adjacency()
        if min_degree > 0 and any(len(v) < min_degree for v in adjacency.values()):
            continue
        if topology.is_connected():
            return topology
    raise RuntimeError(
        f"could not draw a connected topology in {max_tries} tries "
        f"(n={n_nodes}, r={tx_range}, N_B={avg_neighbors})"
    )


def choose_separated_nodes(
    topology: Topology,
    count: int,
    min_hops: int,
    rng: random.Random,
    candidates: Optional[Sequence[NodeId]] = None,
    max_tries: int = 500,
) -> List[NodeId]:
    """Pick ``count`` nodes pairwise more than ``min_hops`` hops apart.

    The paper selects malicious nodes "at random such that they are more
    than 2 hops away from each other"; call with ``min_hops=2``.
    """
    pool = list(candidates if candidates is not None else topology.node_ids)
    if count == 0:
        return []
    if count > len(pool):
        raise ValueError(f"cannot choose {count} nodes from a pool of {len(pool)}")
    for _ in range(max_tries):
        chosen = rng.sample(pool, count)
        ok = True
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                hops = topology.hop_distance(chosen[i], chosen[j])
                if hops is not None and hops <= min_hops:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return chosen
    raise RuntimeError(
        f"could not place {count} nodes pairwise more than {min_hops} hops apart"
    )
