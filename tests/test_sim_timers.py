"""Unit tests for PeriodicTimer."""

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


def test_periodic_timer_fires_repeatedly():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, lambda: fired.append(sim.now), lambda: 1.0)
    timer.start()
    sim.run(until=3.5)
    assert fired == [1.0, 2.0, 3.0]


def test_periodic_timer_initial_delay_override():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, lambda: fired.append(sim.now), lambda: 1.0)
    timer.start(initial_delay=0.5)
    sim.run(until=2.6)
    assert fired == [0.5, 1.5, 2.5]


def test_periodic_timer_stop_halts_firing():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, lambda: fired.append(sim.now), lambda: 1.0)
    timer.start()
    sim.run(until=1.5)
    timer.stop()
    sim.run(until=5.0)
    assert fired == [1.0]
    assert not timer.running


def test_periodic_timer_stop_from_callback():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, lambda: (fired.append(sim.now), timer.stop()), lambda: 1.0)
    timer.start()
    sim.run(until=10.0)
    assert fired == [1.0]


def test_periodic_timer_start_is_idempotent():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, lambda: fired.append(sim.now), lambda: 1.0)
    timer.start()
    timer.start()
    sim.run(until=1.5)
    assert fired == [1.0]


def test_periodic_timer_variable_period():
    sim = Simulator()
    periods = iter([1.0, 2.0, 3.0, 100.0])
    fired = []
    timer = PeriodicTimer(sim, lambda: fired.append(sim.now), lambda: next(periods))
    timer.start()
    sim.run(until=7.0)
    assert fired == [1.0, 3.0, 6.0]
