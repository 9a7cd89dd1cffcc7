"""A finished scenario frees itself.

Dropping the last reference to a :class:`Scenario` breaks the run's
reference cycles (``Scenario.__del__``), so reference counting frees the
whole run: no ``Scenario``, ``Node``, ``Guard``, ``Medium``, simulator or
``TraceLog`` waits for the cyclic collector.  Every test here runs with
the collector disabled and never calls ``gc.collect()``.

Sub-objects a caller kept past their scenario keep their data (the
trace's records, the frame counters) and lose only their hooks.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator, List

import pytest

from repro.core.config import LiteworpConfig
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.faults.plan import CrashRecover, FaultPlan
from repro.obs.config import ObsConfig
from repro.obs.invariants import InvariantChecker
from repro.obs.schema import TraceSchemaError
from repro.sim import accel

# A teardown that raised would only print "Exception ignored in ..."; fail.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")

#: The run's hubs, by qualified type name, on either stack.
WATCHED = frozenset({
    "repro.experiments.scenario.Scenario",
    "repro.net.node.Node",
    "repro.net.network.Network",
    "repro.sim._ckernel.Guard",
    "repro.sim._ckernel.Medium",
    "repro.sim._ckernel.Simulator",
    "repro.sim.engine.Simulator",
    "repro.sim.trace.TraceLog",
})


def _name(obj: object) -> str:
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


@contextlib.contextmanager
def survivors() -> Iterator[List[str]]:
    """With the cyclic collector off, yield a list that is filled on exit
    with the watched objects made inside the block and still alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        # Held until the end, so no survivor can reuse an old one's id.
        before = [obj for obj in gc.get_objects() if _name(obj) in WATCHED]
        known = {id(obj) for obj in before}
        found: List[str] = []
        yield found
        found.extend(
            sorted(
                _name(obj)
                for obj in gc.get_objects()
                if _name(obj) in WATCHED and id(obj) not in known
            )
        )
        del before
    finally:
        if enabled:
            gc.enable()


def small_config(**overrides) -> ScenarioConfig:
    base = dict(n_nodes=16, duration=30.0, seed=4, attack_start=10.0)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_inline_campaign_frees_every_job():
    spec = CampaignSpec(
        name="lifetime",
        base=small_config(duration=20.0),
        axes=(("n_malicious", (0, 2)),),
        runs=5,
    )
    with survivors() as alive:
        result = run_campaign(spec, backend="inline")
        assert result.executed == 10
    assert alive == []


@pytest.mark.parametrize("reference", [False, True], ids=["kernel", "reference"])
@pytest.mark.parametrize(
    "overrides",
    [
        {"defense": "none"},
        {"defense": "liteworp"},
        {"defense": "rtt"},
        {"defense": "snd"},
        {"defense": "temporal_leash"},
        {"oracle_neighbors": False},
        {
            "liteworp": LiteworpConfig(heartbeat_period=2.0, alert_retries=2),
            "fault_plan": FaultPlan.of(CrashRecover(at=12.0, node=3, downtime=5.0)),
        },
    ],
    ids=["none", "liteworp", "rtt", "snd", "temporal_leash", "discovery", "liveness_crash_recover"],
)
def test_dropped_scenario_leaves_nothing(overrides, reference):
    stack = accel.reference_mode() if reference else contextlib.nullcontext()
    with stack, survivors() as alive:
        scenario = build_scenario(small_config(**overrides))
        scenario.run()
        del scenario
    assert alive == []


def test_scenario_never_run_is_freed():
    with survivors() as alive:
        scenario = build_scenario(small_config())
        del scenario
    assert alive == []


@pytest.mark.parametrize("reference", [False, True], ids=["kernel", "reference"])
def test_scenario_whose_run_raised_is_freed(reference, tmp_path):
    obs = ObsConfig(strict=True, trace_path=str(tmp_path / "trace.jsonl"))
    stack = accel.reference_mode() if reference else contextlib.nullcontext()
    with stack, survivors() as alive:
        scenario = build_scenario(small_config(obs=obs))
        # An undeclared record kind fails the strict schema mid-run.
        scenario.sim.schedule_at(15.0, scenario.network.emit, "undeclared_kind")
        try:
            scenario.run()
        except TraceSchemaError:
            pass
        else:  # pragma: no cover - the violation must abort the run
            pytest.fail("strict schema did not reject the undeclared kind")
        assert scenario.sim.now == 15.0
        del scenario
    assert alive == []


def test_kept_trace_and_network_outlive_their_scenario():
    config = small_config(duration=40.0)
    scenario = build_scenario(config)
    scenario.run()
    trace, net = scenario.trace, scenario.network
    records = list(trace)
    counters = {
        node_id: (node.frames_received, node.frames_rejected, node.crashes)
        for node_id, node in net.nodes.items()
    }
    collisions = net.channel.collisions
    events = scenario.sim.events_processed

    def verdict(records):
        checker = InvariantChecker(theta=config.liteworp.theta)
        checker.check_all(records)
        return [(v.rule, v.message) for v in checker.violations]

    before = verdict(trace)
    assert before  # the wormhole leaves evidence to compare
    del scenario

    assert list(trace) == records
    assert verdict(trace) == before
    assert {
        node_id: (node.frames_received, node.frames_rejected, node.crashes)
        for node_id, node in net.nodes.items()
    } == counters
    assert net.channel.collisions == collisions
    assert net.sim.events_processed == events
    # The hooks are gone: nothing can run into the released network.
    assert net.sim.pending_count == 0
    assert all(not node._listeners and not node._filters for node in net.nodes.values())


def test_release_keeps_the_clock_and_cancels_queued_events():
    from repro.sim.engine import Simulator

    for sim in (Simulator(), accel.make_simulator()):
        fired = []
        event = sim.schedule(1.0, fired.append, "a")
        sim.schedule(0.5, fired.append, "b")
        sim.run(until=0.75)
        sim.release()
        assert event.cancelled and event.callback is None
        assert sim.pending_count == 0
        assert sim.now == 0.75 and sim.events_processed == 1
        sim.run(until=2.0)
        assert fired == ["b"]


def test_release_refuses_a_running_simulator():
    from repro.sim.engine import SimulationError, Simulator

    for sim in (Simulator(), accel.make_simulator()):
        errors = []

        def release_now(sim=sim):
            try:
                sim.release()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(0.1, release_now)
        sim.run()
        assert len(errors) == 1

