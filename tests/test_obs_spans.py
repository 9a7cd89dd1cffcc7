"""Nested wall-clock span profiler tests (deterministic fake clock)."""

import pytest

from repro.obs.spans import (
    SpanProfiler,
    activate,
    active_profiler,
    merge_flat,
    span,
)


class FakeClock:
    """Monotonic clock advanced explicitly by the test."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_single_span_records_count_and_seconds():
    clock = FakeClock()
    profiler = SpanProfiler(clock=clock)
    with profiler.span("build"):
        clock.advance(1.5)
    assert profiler.flat() == {"build": {"count": 1, "seconds": 1.5}}


def test_reentering_a_span_accumulates_into_one_node():
    clock = FakeClock()
    profiler = SpanProfiler(clock=clock)
    for _ in range(3):
        with profiler.span("run"):
            clock.advance(2.0)
    rows = profiler.flat()
    assert rows["run"]["count"] == 3
    assert rows["run"]["seconds"] == pytest.approx(6.0)


def test_nested_spans_form_paths():
    clock = FakeClock()
    profiler = SpanProfiler(clock=clock)
    with profiler.span("sweep"):
        clock.advance(0.5)
        with profiler.span("cache"):
            clock.advance(0.25)
        with profiler.span("cache"):
            clock.advance(0.25)
    rows = profiler.flat()
    assert set(rows) == {"sweep", "sweep/cache"}
    assert rows["sweep/cache"]["count"] == 2
    assert rows["sweep/cache"]["seconds"] == pytest.approx(0.5)
    # The parent's seconds include time spent inside children.
    assert rows["sweep"]["seconds"] == pytest.approx(1.0)


def test_same_name_at_different_depths_stays_distinct():
    clock = FakeClock()
    profiler = SpanProfiler(clock=clock)
    with profiler.span("build"):
        with profiler.span("build"):
            clock.advance(1.0)
    rows = profiler.flat()
    assert rows["build"]["count"] == 1
    assert rows["build/build"]["count"] == 1


def test_span_survives_exceptions():
    clock = FakeClock()
    profiler = SpanProfiler(clock=clock)
    with pytest.raises(RuntimeError):
        with profiler.span("explode"):
            clock.advance(0.5)
            raise RuntimeError("boom")
    assert profiler.depth == 0
    assert profiler.flat()["explode"]["seconds"] == pytest.approx(0.5)


def test_to_dict_nests_children():
    clock = FakeClock()
    profiler = SpanProfiler(clock=clock)
    with profiler.span("a"):
        with profiler.span("b"):
            clock.advance(1.0)
    tree = profiler.to_dict()
    assert tree["a"]["children"]["b"]["seconds"] == pytest.approx(1.0)


def test_module_span_is_noop_without_active_profiler():
    assert active_profiler() is None
    with span("anything") as node:
        assert node is None  # nothing recorded, nothing crashes


def test_activate_routes_module_spans_and_restores():
    clock = FakeClock()
    outer, inner = SpanProfiler(clock=clock), SpanProfiler(clock=clock)
    with activate(outer):
        with span("one"):
            clock.advance(1.0)
        with activate(inner):
            assert active_profiler() is inner
            with span("two"):
                clock.advance(2.0)
        assert active_profiler() is outer  # nesting restores
    assert active_profiler() is None
    assert "one" in outer.flat() and "two" not in outer.flat()
    assert inner.flat() == {"two": {"count": 1, "seconds": 2.0}}


def test_merge_flat_sums_counts_and_seconds():
    target = {"a": {"count": 1, "seconds": 1.0}}
    merge_flat(target, {"a": {"count": 2, "seconds": 0.5}, "b": {"count": 1, "seconds": 3.0}})
    assert target["a"] == {"count": 3, "seconds": 1.5}
    assert target["b"] == {"count": 1, "seconds": 3.0}


def test_format_renders_one_line_per_path():
    clock = FakeClock()
    profiler = SpanProfiler(clock=clock)
    with profiler.span("outer"):
        with profiler.span("inner"):
            clock.advance(1.0)
    text = profiler.format()
    assert "outer" in text and "inner" in text
    assert len(text.splitlines()) == 2


def test_harness_spans_appear_when_profiling_a_run():
    from repro.experiments.scenario import ScenarioConfig, build_scenario

    profiler = SpanProfiler()
    with activate(profiler):
        scenario = build_scenario(
            ScenarioConfig(n_nodes=16, duration=30.0, seed=4, attack_start=20.0)
        )
        scenario.run()
    rows = profiler.flat()
    assert "scenario.build" in rows
    assert "scenario.run" in rows
    assert "scenario.run/metrics.collect" not in rows  # siblings, not nested
    assert "metrics.collect" in rows
    assert rows["scenario.run"]["seconds"] > 0.0


def test_sweep_records_the_harness_spans_the_e2e_layer_table_reads(tmp_path):
    """``benchmarks/e2e/layers.py`` reads these span paths for its
    per-layer table; a renamed or unnested span breaks it silently."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.campaign import replication_configs, run_sweep
    from repro.experiments.scenario import ScenarioConfig

    tiny = ScenarioConfig(n_nodes=16, duration=40.0, seed=4, attack_start=20.0)
    profiler = SpanProfiler()
    with activate(profiler):
        run_sweep(replication_configs(tiny, 1), cache=ResultCache(tmp_path))
    rows = profiler.flat()
    for path in (
        "campaign.execute",
        "campaign.execute/scenario.build",
        "campaign.execute/scenario.run",
        "campaign.execute/metrics.collect",
        "campaign.execute/cache.store",
        "campaign.cache/cache.lookup",
    ):
        assert path in rows, path
