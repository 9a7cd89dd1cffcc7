"""Unit tests for topology generation."""

import math
import random

import pytest

from repro.net.topology import (
    Topology,
    choose_separated_nodes,
    field_side_for_density,
    generate_connected_topology,
    grid_topology,
    uniform_topology,
)


def test_field_side_formula():
    # N_B = pi r^2 d, d = N / L^2  =>  L = r sqrt(pi N / N_B)
    side = field_side_for_density(100, 30.0, 8.0)
    assert side == pytest.approx(30.0 * math.sqrt(math.pi * 100 / 8.0))


def test_field_side_invalid_inputs():
    with pytest.raises(ValueError):
        field_side_for_density(0, 30.0, 8.0)
    with pytest.raises(ValueError):
        field_side_for_density(10, 30.0, 0.0)


def test_grid_topology_neighbors():
    topo = grid_topology(columns=3, rows=3, spacing=25.0, tx_range=30.0)
    # Center node 4 has the four orthogonal neighbors (diagonal = 35.4 m).
    assert set(topo.neighbors(4)) == {1, 3, 5, 7}
    # Corner node 0 has two.
    assert set(topo.neighbors(0)) == {1, 3}


def test_grid_topology_is_connected():
    assert grid_topology(4, 4, 25.0, 30.0).is_connected()


def test_uniform_topology_within_field():
    topo = uniform_topology(50, 30.0, 100.0, random.Random(1))
    for x, y in topo.positions.values():
        assert 0 <= x <= 100 and 0 <= y <= 100
    assert topo.size == 50


def test_uniform_topology_deterministic_with_seed():
    a = uniform_topology(10, 30.0, 100.0, random.Random(5))
    b = uniform_topology(10, 30.0, 100.0, random.Random(5))
    assert a.positions == b.positions


def test_generate_connected_topology_degree_and_connectivity():
    topo = generate_connected_topology(50, 30.0, 8.0, random.Random(3), min_degree=2)
    assert topo.is_connected()
    assert all(len(topo.neighbors(n)) >= 2 for n in topo.node_ids)
    # Average degree should be in the ballpark of the target.
    assert 4.0 < topo.average_degree() < 14.0


def test_generate_connected_raises_when_impossible():
    # Absurd density: 2 nodes in a huge field almost never connect.
    with pytest.raises(RuntimeError):
        generate_connected_topology(2, 1.0, 0.0001, random.Random(0), max_tries=3)


def test_hop_distance_line():
    topo = grid_topology(columns=5, rows=1, spacing=25.0, tx_range=30.0)
    assert topo.hop_distance(0, 0) == 0
    assert topo.hop_distance(0, 1) == 1
    assert topo.hop_distance(0, 4) == 4


def test_hop_distance_disconnected():
    topo = Topology(positions={0: (0, 0), 1: (1000, 0)}, tx_range=30.0)
    assert topo.hop_distance(0, 1) is None
    assert not topo.is_connected()


def test_reachable_from():
    topo = grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0)
    assert topo.reachable_from(0) == {0, 1, 2}


def test_choose_separated_nodes_respects_min_hops():
    topo = grid_topology(columns=8, rows=1, spacing=25.0, tx_range=30.0)
    rng = random.Random(2)
    chosen = choose_separated_nodes(topo, 2, min_hops=2, rng=rng)
    assert len(chosen) == 2
    hops = topo.hop_distance(chosen[0], chosen[1])
    assert hops is not None and hops > 2


def test_choose_separated_nodes_zero():
    topo = grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0)
    assert choose_separated_nodes(topo, 0, 2, random.Random(0)) == []


def test_choose_separated_nodes_too_many():
    topo = grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0)
    with pytest.raises(ValueError):
        choose_separated_nodes(topo, 5, 2, random.Random(0))


def test_choose_separated_nodes_impossible():
    topo = grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0)
    # All pairs are <= 2 hops apart in a 3-node line.
    with pytest.raises(RuntimeError):
        choose_separated_nodes(topo, 2, min_hops=2, rng=random.Random(0), max_tries=20)


def test_adjacency_cached():
    topo = grid_topology(columns=3, rows=1, spacing=25.0, tx_range=30.0)
    assert topo.adjacency() is topo.adjacency()


def test_radio_view_matches_topology():
    topo = grid_topology(columns=3, rows=3, spacing=25.0, tx_range=30.0)
    radio = topo.radio()
    for node in topo.node_ids:
        assert set(radio.neighbors(node)) == set(topo.neighbors(node))
