"""The monitor's overheard store answers exactly like per-call eviction.

The store keeps two generations of plain dicts, the cutoff of the latest
``_remember``, and rotates the generations about once per
``overheard_window``.  The reference model below is the eager
``OrderedDict`` the store originally replaced: every ``_remember`` moves
its key to the end and evicts from the head every entry stamped before the
cutoff.

The test runs twice: at module level against the Python store
(``_remember``/``_heard``) and, through ``TestOnCKernel``, against the C
``Guard``'s store that replaces it on the C kernel's simulator.
"""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import LiteworpConfig
from repro.core.monitor import LocalMonitor
from repro.core.tables import NeighborTable
from repro.sim import accel
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog

# The simulator class the test builds its monitor on; TestOnCKernel swaps
# in the C kernel's.
_default_simcls = [Simulator]


def remember(monitor, watch_key, now):
    if monitor.guard is None:
        monitor._remember(watch_key, now)
    else:
        monitor.guard.remember(*watch_key, now)


def heard(monitor, watch_key):
    if monitor.guard is None:
        return monitor._heard(watch_key)
    return monitor.guard.heard(*watch_key)


def current_stamps(monitor):
    if monitor.guard is None:
        return monitor._overheard.values()
    return monitor.guard.stamps()[0]


class EagerStore:
    """Reference: the per-call head eviction of the old monitor."""

    def __init__(self, window):
        self.window = window
        self.store = OrderedDict()

    def remember(self, watch_key, now):
        if watch_key in self.store:
            self.store.move_to_end(watch_key)
        self.store[watch_key] = now
        cutoff = now - self.window
        while self.store:
            _oldest, stamp = next(iter(self.store.items()))
            if stamp >= cutoff:
                break
            self.store.popitem(last=False)

    def heard(self, watch_key):
        return watch_key in self.store

    def reset(self):
        self.store.clear()


KEYS = [(("req", i), t) for i in range(3) for t in range(3)]

steps = st.lists(
    st.one_of(
        # Gaps include 0 (same-instant repeats), the window itself and
        # gaps far beyond it; dyadic values make stamp == cutoff exact.
        st.tuples(
            st.just("remember"),
            st.sampled_from(KEYS),
            st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5, 4.0, 10.0, 40.0]),
        ),
        st.tuples(st.just("heard"), st.sampled_from(KEYS)),
        st.tuples(st.just("reset")),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
# A rotation due half a window early drops the entry stamped at 0.0 while
# it is still exactly at the cutoff.
@example(
    window=1.0,
    script=[
        ("remember", KEYS[0], 0.0),
        ("remember", KEYS[1], 0.5),
        ("remember", KEYS[2], 0.5),
    ],
)
@given(window=st.sampled_from([0.25, 1.0, 2.5, 10.0]), script=steps)
def test_overheard_store_matches_eager_eviction(window, script):
    monitor = LocalMonitor(
        _default_simcls[0](),
        0,
        NeighborTable(owner=0),
        LiteworpConfig(overheard_window=window),
        TraceLog(),
        lambda _node: None,
    )
    reference = EagerStore(window)
    now = 0.0
    for step in script:
        if step[0] == "remember":
            _, watch_key, gap = step
            now += gap
            remember(monitor, watch_key, now)
            reference.remember(watch_key, now)
        elif step[0] == "heard":
            watch_key = step[1]
            assert monitor.heard_transmission(*watch_key) == reference.heard(watch_key)
        else:
            monitor.reset()
            reference.reset()
        for watch_key in KEYS:
            assert heard(monitor, watch_key) == reference.heard(watch_key)
    # Rotation bounds the current generation: nothing older than a window.
    assert all(stamp >= now - window for stamp in current_stamps(monitor))


@pytest.mark.skipif(not accel.kernel_available(), reason="C kernel unavailable")
class TestOnCKernel:
    """The property, against the C guard's overheard store."""

    @pytest.fixture(autouse=True)
    def _ckernel(self):
        _default_simcls[0] = accel._load().Simulator
        yield
        _default_simcls[0] = Simulator

    test_overheard_store_matches_eager_eviction = staticmethod(
        test_overheard_store_matches_eager_eviction
    )
