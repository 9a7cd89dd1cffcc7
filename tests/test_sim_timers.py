"""Unit tests for Timeout and PeriodicTimer."""

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timeout


def test_timeout_fires_after_delay():
    sim = Simulator()
    fired = []
    timer = Timeout(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]


def test_timeout_cancel_prevents_fire():
    sim = Simulator()
    fired = []
    timer = Timeout(sim, lambda: fired.append(True))
    timer.start(2.0)
    timer.cancel()
    sim.run()
    assert fired == []


def test_timeout_restart_supersedes_old_deadline():
    sim = Simulator()
    fired = []
    timer = Timeout(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.start(5.0)  # re-arm: old deadline dropped
    sim.run()
    assert fired == [5.0]


def test_timeout_armed_and_deadline():
    sim = Simulator()
    timer = Timeout(sim, lambda: None)
    assert not timer.armed
    assert timer.deadline is None
    timer.start(3.0)
    assert timer.armed
    assert timer.deadline == 3.0
    sim.run()
    assert not timer.armed


def test_timeout_can_be_restarted_after_firing():
    sim = Simulator()
    fired = []
    timer = Timeout(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.run()
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.0]


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
