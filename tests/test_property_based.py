"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.coverage import (
    guard_region_area,
    per_guard_alert_probability,
    theta_of_g,
)
from repro.core.tables import NeighborTable
from repro.crypto.auth import Authenticator
from repro.crypto.keys import PairwiseKeyManager
from repro.routing.cache import RouteTable
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.net.topology import uniform_topology


# ----------------------------------------------------------------------
# Simulator: events always fire in non-decreasing time order
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_simulator_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ----------------------------------------------------------------------
# Geometry: the lens area is positive, bounded, and monotone in x
# ----------------------------------------------------------------------
@given(
    st.floats(min_value=0.01, max_value=1000.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_lens_area_bounds(r, fraction):
    x = fraction * 2 * r
    area = guard_region_area(x, r)
    assert -1e-9 <= area <= math.pi * r * r + 1e-9


@given(
    st.floats(min_value=1.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=0.001, max_value=0.5),
)
def test_lens_area_monotone_decreasing(r, fraction, step):
    x1 = fraction * 2 * r
    x2 = min(2 * r, x1 + step * r)
    assert guard_region_area(x1, r) >= guard_region_area(x2, r) - 1e-9


# ----------------------------------------------------------------------
# Probability helpers stay in [0, 1] and are monotone where claimed
# ----------------------------------------------------------------------
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
)
def test_alert_probability_is_probability(p_c, gamma, kappa_raw):
    kappa = min(kappa_raw, gamma)
    p = per_guard_alert_probability(p_c, gamma, kappa)
    assert 0.0 <= p <= 1.0


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=30),
)
def test_theta_of_g_is_probability_and_monotone_in_guards(p, theta, guards):
    value = theta_of_g(p, theta, guards)
    more = theta_of_g(p, theta, guards + 1)
    assert 0.0 <= value <= 1.0
    assert more >= value - 1e-12


# ----------------------------------------------------------------------
# MalC sliding window: total equals the sum of in-window values
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1000.0),
            st.integers(min_value=1, max_value=5),
        ),
        max_size=40,
    ),
    st.floats(min_value=1.0, max_value=500.0),
)
def test_malc_window_invariant(events, window):
    table = NeighborTable(owner=0)
    table.add_neighbor(1)
    events = sorted(events)
    for when, value in events:
        table.record_malicious(1, value, now=when, window=window)
    now = events[-1][0] if events else 0.0
    expected = sum(v for t, v in events if t >= now - window)
    assert table.malc(1, now=now, window=window) == expected


# ----------------------------------------------------------------------
# Route table: lookups never return stale entries
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),     # destination
            st.integers(10, 15),   # next hop
            st.floats(0.0, 100.0), # install time
        ),
        max_size=30,
    ),
    st.floats(min_value=0.1, max_value=60.0),
    st.floats(min_value=0.0, max_value=200.0),
)
def test_route_table_freshness(installs, timeout, query_time):
    table = RouteTable(timeout=timeout)
    installs = sorted(installs, key=lambda i: i[2])
    latest = {}
    for destination, next_hop, when in installs:
        table.install(destination, next_hop, now=when)
        latest[destination] = when
    query = max(query_time, installs[-1][2] if installs else 0.0)
    for destination, when in latest.items():
        entry = table.lookup(destination, now=query)
        if query < when + timeout:
            assert entry is not None
        else:
            assert entry is None


# ----------------------------------------------------------------------
# Crypto: verification accepts the real payload and rejects perturbations
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
    st.text(max_size=30),
)
def test_auth_roundtrip_and_tamper(a, b, text):
    mgr = PairwiseKeyManager(b"prop-master")
    key = mgr.pairwise_key(1, 2)
    tag = Authenticator.tag(key, a, b, text)
    assert Authenticator.verify(key, tag, a, b, text)
    assert not Authenticator.verify(key, tag, a + 1, b, text)
    assert not Authenticator.verify(key, tag, a, b, text + "x")


@given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
def test_pairwise_keys_symmetric_and_distinct(a, b, c):
    mgr = PairwiseKeyManager(b"prop-master")
    if a != b:
        assert mgr.pairwise_key(a, b) == mgr.pairwise_key(b, a)
    if a != b and a != c and b != c:
        assert mgr.pairwise_key(a, b) != mgr.pairwise_key(a, c)


# ----------------------------------------------------------------------
# RNG registry: deterministic per (seed, name), independent across names
# ----------------------------------------------------------------------
@given(st.integers(0, 2**31), st.text(min_size=1, max_size=20))
def test_rng_registry_deterministic(seed, name):
    a = RngRegistry(seed=seed).stream(name).random()
    b = RngRegistry(seed=seed).stream(name).random()
    assert a == b


# ----------------------------------------------------------------------
# Topology: placement inside field, adjacency symmetric
# ----------------------------------------------------------------------
@settings(max_examples=25)
@given(st.integers(2, 40), st.integers(0, 2**20))
def test_uniform_topology_invariants(n, seed):
    topo = uniform_topology(n, tx_range=30.0, field_side=100.0, rng=random.Random(seed))
    adjacency = topo.adjacency()
    for node, (x, y) in topo.positions.items():
        assert 0.0 <= x <= 100.0 and 0.0 <= y <= 100.0
        for neighbor in adjacency[node]:
            assert node in adjacency[neighbor]
            assert neighbor != node
