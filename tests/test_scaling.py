"""Scaling regressions: coverage queries must stay O(neighbors), not O(n).

The 1000-node campaigns only work because a broadcast touches the nodes
in the sender's grid neighborhood instead of the whole field.  These
tests pin that property with the radio's ``distance_computations``
counting hook: if someone reintroduces a full scan on the hot path, the
counter explodes from ~tens to ~n and the assertions here fail long
before anyone notices a wall-clock regression.
"""

import random

from repro.net.channel import Channel
from repro.net.packet import DataPacket, Frame
from repro.net.radio import UnitDiskRadio
from repro.sim.engine import make_simulator
from repro.sim.rng import RngRegistry
from repro.net.topology import field_side_for_density

N_NODES = 1000
RANGE = 30.0


def _positions(seed: int = 4):
    rng = random.Random(seed)
    side = field_side_for_density(N_NODES, RANGE, avg_neighbors=12.0)
    return {i: (rng.uniform(0.0, side), rng.uniform(0.0, side)) for i in range(N_NODES)}


def test_coverage_query_is_o_neighbors_at_n1000():
    positions = _positions()
    radio = UnitDiskRadio(positions, default_range=RANGE, use_grid=True)
    assert radio.uses_grid_index
    radio.distance_computations = 0
    covered = radio.coverage_with_distance(17)
    # A disk of radius r in a cell grid of size r examines at most the
    # 3x3 cell ring around the sender: ~9 cells * ~(12/pi) nodes/cell.
    # Give it 6x headroom over the expected neighbor count; an O(n)
    # scan would cost ~999 and fail loudly.
    assert 0 < radio.distance_computations <= 12 * 6
    assert len(covered) >= 1
    # The brute-force reference really does pay O(n) — the counter works.
    brute = UnitDiskRadio(positions, default_range=RANGE, use_grid=False)
    brute.distance_computations = 0
    assert brute._brute_coverage_with_distance(17, RANGE) == covered
    assert brute.distance_computations == N_NODES - 1


def test_broadcast_at_n1000_is_o_neighbors():
    positions = _positions()
    sim = make_simulator()
    radio = UnitDiskRadio(positions, default_range=RANGE, use_grid=True)
    channel = Channel(sim, radio, RngRegistry(0))
    delivered = [0]
    for node in positions:
        channel.attach(node, lambda _frame: delivered[0] + 1)
    radio.distance_computations = 0
    packet = DataPacket(origin=17, destination=18, payload_size=64)
    channel.transmit(17, Frame(packet=packet, transmitter=17))
    sim.run()
    assert 0 < radio.distance_computations <= 12 * 6
    # Repeat broadcasts hit the coverage memo: zero further distance work.
    radio.distance_computations = 0
    channel.transmit(17, Frame(packet=packet, transmitter=17))
    sim.run()
    assert radio.distance_computations == 0

