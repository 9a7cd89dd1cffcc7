"""Parity tests: the C kernel honours the exact Simulator contract.

Every behavioural test in test_sim_engine.py is mirrored here against
whichever kernels are available, plus differential tests that drive both
kernels through randomized schedule/cancel workloads and require
identical firing order, clocks and counters.  The accelerated kernel is
only allowed to exist if it is indistinguishable from the reference.
"""

import gc
import os
import random
import shutil
import subprocess
import sys
import weakref

import pytest

from repro.sim import accel
from repro.sim.engine import SimulationError, Simulator as PySimulator


def _kernels():
    kernels = [pytest.param(PySimulator, id="python")]
    if accel.kernel_available():
        module = accel._load()
        kernels.append(pytest.param(module.Simulator, id="ckernel"))
    return kernels


@pytest.fixture(params=_kernels())
def simcls(request):
    return request.param


def test_time_order_and_fifo_ties(simcls):
    sim = simcls()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    for tag in ("a", "b", "c"):
        sim.schedule(3.0, fired.append, tag)
    sim.run()
    assert fired == ["early", "late", "a", "b", "c"]


def test_run_until_inclusive_and_clock(simcls):
    sim = simcls()
    fired = []
    sim.schedule(2.0, fired.append, "at-horizon")
    sim.schedule(2.0001, fired.append, "after-horizon")
    sim.run(until=2.0)
    assert fired == ["at-horizon"]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == ["at-horizon", "after-horizon"]


def test_cancellation_semantics(simcls):
    sim = simcls()
    fired = []
    event = sim.schedule(1.0, fired.append, "nope")
    event.cancel()
    event.cancel()
    sim.run()
    assert fired == []
    assert event.cancelled and not event.fired and not event.pending
    done = sim.schedule(1.0, fired.append, "yes")
    sim.run()
    done.cancel()
    assert done.fired and not done.cancelled


def test_validation_errors(simcls):
    sim = simcls()
    for bad in (-0.1, float("inf"), float("nan")):
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=0.5)


def test_reentrant_run_rejected(simcls):
    sim = simcls()
    caught = []

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()
        caught.append(True)

    sim.schedule(0.1, reenter)
    sim.run()
    assert caught == [True]


def test_step_and_peek_skip_cancelled(simcls):
    sim = simcls()
    fired = []
    first = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    first.cancel()
    assert sim.peek_time() == 2.0
    assert sim.step()
    assert fired == ["b"]
    assert not sim.step()
    assert sim.peek_time() is None


def test_counters_kwargs_and_start_time(simcls):
    sim = simcls(start_time=100.0)
    assert sim.now == 100.0
    seen = {}
    sim.schedule(1.0, lambda **kw: seen.update(kw), x=1, y="two")
    events = [sim.schedule(2.0, lambda: None) for _ in range(3)]
    events[0].cancel()
    assert sim.pending_count == 3
    sim.run(max_events=3)
    assert seen == {"x": 1, "y": "two"}
    assert sim.events_processed == 3
    assert sim.now == 102.0


def test_events_can_schedule_more_events(simcls):
    sim = simcls()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_callback_exception_propagates_and_resets_guard(simcls):
    sim = simcls()

    def boom():
        raise ValueError("boom")

    sim.schedule(1.0, boom)
    sim.schedule(2.0, lambda: None)
    with pytest.raises(ValueError):
        sim.run()
    # The guard must reset so the simulator stays usable.
    sim.run()
    assert sim.now == 2.0


def test_compaction_drops_cancelled_entries(simcls):
    sim = simcls()
    events = [sim.schedule(1000.0 + i * 0.001, lambda: None) for i in range(20000)]
    for event in events[:18000]:
        event.cancel()
    for _ in range(15000):
        sim.schedule(0.5, lambda: None)
    assert sim.compactions >= 1
    assert sim.pending_count == 2000 + 15000
    sim.run(until=2000.0)
    assert sim.events_processed == 2000 + 15000


def _drive(simcls, seed):
    """Randomized schedule/cancel workload; returns the full firing record."""
    rng = random.Random(seed)
    sim = simcls()
    log = []
    live = []

    def cb(tag):
        log.append((sim.now, tag))
        for _ in range(rng.randrange(0, 3)):
            delay = rng.choice(
                [0.0, 1e-4, 0.003, 0.5, 5.0, 120.0, rng.random() * 30]
            )
            live.append(sim.schedule(delay, cb, rng.randrange(10**6)))
        if live and rng.random() < 0.3:
            live.pop(rng.randrange(len(live))).cancel()

    for i in range(50):
        live.append(sim.schedule(rng.random() * 10, cb, i))
    sim.run(until=400.0, max_events=20000)
    return log, sim.now, sim.events_processed, sim.pending_count


@pytest.mark.skipif(not accel.kernel_available(), reason="C kernel unavailable")
@pytest.mark.parametrize("seed", range(10))
def test_differential_random_workload(seed):
    module = accel._load()
    assert _drive(PySimulator, seed) == _drive(module.Simulator, seed)


@pytest.mark.skipif(not accel.kernel_available(), reason="C kernel unavailable")
def test_ckernel_collects_reference_cycles():
    module = accel._load()

    class Probe:
        pass

    def make_cycle():
        sim = module.Simulator()
        probe = Probe()
        sim.schedule(1e6, lambda: (sim, probe))
        return weakref.ref(probe)

    ref = make_cycle()
    gc.collect()
    assert ref() is None


@pytest.mark.skipif(not accel.kernel_available(), reason="C kernel unavailable")
def test_ckernel_repr_and_past_time_errors_do_not_leak():
    module = accel._load()
    sim = module.Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)

    def repeat(action):
        action()  # first call warms any caches
        before = sys.getallocatedblocks()
        for _ in range(2000):
            action()
        return sys.getallocatedblocks() - before

    # Plain try/except: pytest.raises keeps a traceback cycle alive.
    def schedule_in_past():
        try:
            sim.schedule_at(0.5, None)
        except SimulationError:
            return
        raise AssertionError("scheduling in the past did not raise")

    def run_until_past():
        try:
            sim.run(until=0.5)
        except SimulationError:
            return
        raise AssertionError("running until the past did not raise")

    # A leaked float per call would grow the heap by 2,000 blocks.
    for action in (lambda: repr(event), schedule_in_past, run_until_past):
        assert repeat(action) < 100


@pytest.mark.skipif(
    shutil.which(os.environ.get("CC", "cc")) is None, reason="no C compiler"
)
def test_ckernel_compiles_without_warnings(tmp_path):
    command = accel._build_command(str(tmp_path / "_ckernel.so")) + ["-Wall", "-Werror"]
    result = subprocess.run(command, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_make_simulator_respects_reference_mode():
    from repro.sim.engine import make_simulator

    with accel.reference_mode():
        assert type(make_simulator()) is PySimulator
        assert accel.reference_active()
        assert not accel.enabled()
    assert not accel.reference_active()
    if accel.kernel_available():
        assert type(make_simulator()) is accel._load().Simulator
