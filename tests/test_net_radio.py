"""Unit tests for the unit-disk radio."""

import pytest

from repro.net.radio import UnitDiskRadio, distance


POSITIONS = {0: (0.0, 0.0), 1: (20.0, 0.0), 2: (50.0, 0.0), 3: (20.0, 20.0)}


def radio():
    return UnitDiskRadio(dict(POSITIONS), default_range=30.0)


def test_distance():
    assert distance((0, 0), (3, 4)) == 5.0


def test_coverage_excludes_sender():
    assert 0 not in radio().coverage(0)


def test_coverage_respects_range():
    covered = set(radio().coverage(0))
    assert covered == {1, 3}  # node 2 is 50 m away


def test_coverage_at_exact_range_is_inclusive():
    r = UnitDiskRadio({0: (0.0, 0.0), 1: (30.0, 0.0)}, default_range=30.0)
    assert 1 in r.coverage(0)


def test_neighbors_symmetric_at_default_range():
    r = radio()
    for a in POSITIONS:
        for b in r.neighbors(a):
            assert a in r.neighbors(b)


def test_high_power_extends_coverage_one_way():
    r = radio()
    r.set_tx_range(0, 60.0)
    assert 2 in r.coverage(0)
    # ...but the neighbor relation at default range is unchanged.
    assert 2 not in r.neighbors(0)
    assert 0 not in r.coverage(2)


def test_invalid_ranges_rejected():
    with pytest.raises(ValueError):
        UnitDiskRadio(POSITIONS, default_range=0)
    r = radio()
    with pytest.raises(ValueError):
        r.set_tx_range(0, -1.0)
