"""Property tests: the grid-indexed radio equals the brute-force radio.

Hypothesis drives random topologies and per-node range overrides
through two UnitDiskRadio instances — one with the spatial grid, one
with the brute-force scans — and requires every query to return
*identical* results (same elements, same order, same distances), which
is the byte-identity contract the engine rearchitecture rests on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.radio import UnitDiskRadio

_coord = st.floats(
    min_value=-150.0, max_value=150.0, allow_nan=False, allow_infinity=False
)
_positions = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=40).map(
    lambda pts: {i: p for i, p in enumerate(pts)}
)
_range_mult = st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0, 7.5])


def _pair(positions):
    indexed = UnitDiskRadio(positions, default_range=30.0, use_grid=True)
    brute = UnitDiskRadio(positions, default_range=30.0, use_grid=False)
    assert indexed.uses_grid_index and not brute.uses_grid_index
    return indexed, brute


def _assert_all_queries_equal(indexed, brute):
    nodes = indexed.node_ids
    for node in nodes:
        assert indexed.coverage(node) == brute.coverage(node)
        assert indexed.coverage_with_distance(node) == brute.coverage_with_distance(node)
        assert indexed.neighbors(node) == brute.neighbors(node)


@settings(max_examples=60, deadline=None)
@given(positions=_positions)
def test_static_queries_match_brute_force(positions):
    indexed, brute = _pair(positions)
    _assert_all_queries_equal(indexed, brute)


@settings(max_examples=40, deadline=None)
@given(
    positions=_positions,
    overrides=st.lists(st.tuples(st.integers(0, 39), _range_mult), max_size=6),
)
def test_range_overrides_match_brute_force(positions, overrides):
    indexed, brute = _pair(positions)
    for node, mult in overrides:
        if node in positions:
            indexed.set_tx_range(node, 30.0 * mult)
            brute.set_tx_range(node, 30.0 * mult)
    _assert_all_queries_equal(indexed, brute)
