"""Replication seed derivation: the hash scheme."""

import pytest

from repro.experiments.seeds import child_seed


def test_index_zero_is_base_seed():
    """A single replication is literally the base config's run — this is
    what keeps runs=1 figure output identical across the scheme change."""
    for seed in (0, 1, 4, 1004, 123456789):
        assert child_seed(seed, 0) == seed


def test_new_scheme_pinned_values():
    """Derived seeds are part of every cached result's identity: pin them
    so an accidental derivation change cannot silently invalidate (or
    worse, silently *reuse*) cache entries and recorded experiments."""
    assert child_seed(1, 1) == 6884152123329735806
    assert child_seed(1, 2) == 1317639490206132003
    assert child_seed(4, 1) == 4576957610927946634
    assert child_seed(8, 29) == 5813733600498332172


def test_new_scheme_resolves_legacy_collision():
    assert child_seed(4, 1) != child_seed(1004, 0)


def test_new_scheme_no_collisions_over_grid():
    """No collisions across a seed x index grid that would have collided
    heavily under the legacy scheme."""
    seen = set()
    for base in (1, 4, 1001, 1004, 2001, 2004):
        for index in range(50):
            seen.add(child_seed(base, index))
    assert len(seen) == 6 * 50


def test_seeds_fit_json_safe_range():
    for base in (1, 2**40):
        for index in range(10):
            derived = child_seed(base, index)
            assert 0 <= derived < 2**63


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        child_seed(1, -1)
