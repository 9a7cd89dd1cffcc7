"""Shared fixtures and mini-harness helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.net.network import Network, NetworkConfig
from repro.net.topology import Topology, grid_topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


class Harness:
    """A tiny wired network for protocol-level tests.

    Builds sim + trace + network over a deterministic topology so tests can
    attach agents by hand without the full scenario machinery.  The
    simulator is an instance of the class attribute ``simcls``; test
    classes that rerun a module on the C kernel swap it.
    """

    simcls = Simulator

    def __init__(self, topology: Topology, seed: int = 0, **net_kwargs) -> None:
        self.sim = self.simcls()
        self.rng = RngRegistry(seed=seed)
        self.trace = TraceLog()
        self.topology = topology
        self.network = Network(
            self.sim,
            topology,
            self.rng,
            trace=self.trace,
            config=NetworkConfig(**net_kwargs) if net_kwargs else None,
        )

    def node(self, node_id):
        return self.network.node(node_id)

    def run(self, until: float) -> None:
        self.sim.run(until=until)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def trace() -> TraceLog:
    return TraceLog()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(42)


@pytest.fixture
def line5() -> Harness:
    """Five nodes in a line: 0-1-2-3-4, only adjacent pairs in range."""
    return Harness(grid_topology(columns=5, rows=1, spacing=25.0, tx_range=30.0))


@pytest.fixture
def grid33() -> Harness:
    """3x3 grid, spacing 25 m, range 30 m (4-connected neighbors)."""
    return Harness(grid_topology(columns=3, rows=3, spacing=25.0, tx_range=30.0))


@pytest.fixture
def dense9() -> Harness:
    """3x3 grid, spacing 10 m, range 30 m: nodes within 30 m see each other
    (diagonal of two cells = 28.3 m in range; full diameter 28.3 too) —
    effectively a clique."""
    return Harness(grid_topology(columns=3, rows=3, spacing=10.0, tx_range=30.0))
