"""Tests of the end-to-end benchmark itself (``pytest benchmarks/e2e``).

The ``tiny16`` workload goes through the same parent and child path as
the benchmark's own workloads, in about a second per repetition.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import compare
import refclock
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *args],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_listed_metric_is_emitted_with_its_unit(trace, section):
    done = _run("--workload", "tiny16", "--seed", "7", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {spec["name"]: spec["unit"] for spec in BENCHMARK[section]}
    assert {name: row["unit"] for name, row in result["metrics"].items()} == expected
    assert all(isinstance(row["value"], (int, float)) for row in result["metrics"].values())


def test_traced_child_reproduces_the_untraced_digest():
    run.warm_up(run.WORKLOADS["tiny16"])
    (plain,) = run.measure(run.WORKLOADS["tiny16"], 11, 1, pins={})
    assert "error" not in plain, plain.get("error")
    traced = run.traced(run.WORKLOADS["tiny16"], plain)
    assert "error" not in traced, traced.get("error")
    assert traced["digest"] == plain["digest"]
    assert traced["layers"]["node.deliver.calls"] > 0


def test_pinned_seed_passes_its_own_pins(tmp_path):
    out = tmp_path / "set.json"
    done = _run("--only", "tiny16", "--seconds", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    entry = json.loads(out.read_text())["workloads"]["tiny16"]
    assert entry["error_rate"] == 0.0
    assert entry["per_layer"]["traced_overhead"]["value"] > 0


def test_repetitions_off_the_pinned_seed_must_agree():
    workload = run.WORKLOADS["tiny16"]
    run.warm_up(workload)
    reps = run.measure(workload, 7, 2, pins={})
    assert [rep.get("error") for rep in reps] == [None, None]
    assert reps[0]["digest"] == reps[1]["digest"]
    # Each repetition ran the whole panel, and its times are real.
    assert workload.scenario_seeds(7) == [7, 7 + workloads.PANEL_STRIDE]
    assert all(rep["jobs"] == workload.panel for rep in reps)
    assert all(0 < rep["run_s"] and 0 < rep["setup_s"] for rep in reps)
    # The same check, handed a repetition whose output moved.
    reps[1]["digest"] = "0" * 64
    run.check_reps(workload, 7, reps, pins={})
    assert "error" not in reps[0]
    assert "not deterministic" in reps[1]["error"]


def test_wrong_pin_fails_every_repetition(tmp_path, monkeypatch):
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"seed": run.DEFAULT_SEED, "digests": {"tiny16": "0" * 64}}))
    monkeypatch.setattr(run, "PINS", pins)
    out = tmp_path / "set.json"
    assert run.main(["--only", "tiny16", "--seconds", "1", "--out", str(out)]) != 0
    entry = json.loads(out.read_text())["workloads"]["tiny16"]
    assert entry["error_rate"] == 1.0
    assert all("differs from pin" in error for error in entry["errors"])


def test_missing_program_exits_without_a_result(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tiny16", "--seed", "4"]) == 2


def _clock(durations, gap=0.01):
    """A clock whose chunks took ``durations``, ``gap`` seconds of work apart."""
    clock = refclock.RefClock.__new__(refclock.RefClock)
    clock.starts, clock.durations = [], []
    at = 100.0
    for duration in durations:
        clock.starts.append(at)
        clock.durations.append(duration)
        at += duration + gap
    return clock


def test_reference_seconds_rescale_work_by_the_chunk_speed():
    nominal = refclock.NOMINAL_S
    quiet = _clock([nominal] * 50)
    # Measured from the end of chunk 0 to the start of chunk 40: 40 gaps.
    begin, end = quiet.starts[0] + nominal, quiet.starts[40]
    assert quiet.wall_seconds(begin, end) == pytest.approx(0.4)
    assert quiet.ref_seconds(begin, end) == pytest.approx(0.4)
    # A host running everything at half speed: twice the wall time, the
    # same reference time.
    slow = _clock([2 * nominal] * 50, gap=0.02)
    begin, end = slow.starts[0] + 2 * nominal, slow.starts[40]
    assert slow.wall_seconds(begin, end) == pytest.approx(0.8)
    assert slow.ref_seconds(begin, end) == pytest.approx(0.4)


def test_reference_clock_interleaves_chunks_while_started():
    clock = refclock.RefClock().start()
    begin = clock.now()
    deadline = begin + 0.1
    while clock.now() < deadline:
        pass
    end = clock.now()
    clock.stop()
    assert len(clock.durations) >= 10
    assert 0 < clock.wall_seconds(begin, end) < end - begin
    assert clock.ref_seconds(begin, end) > 0


def _row(samples):
    return dict(run.summarize(samples), samples=list(samples))


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10.0, 10.1, 10.2, 9.9], [10.1, 10.0, 10.2, 10.3], "lower", "unchanged"),
        ([10.0, 10.1, 10.2, 9.9], [12.0, 12.1, 12.2, 11.9], "lower", "regressed"),
        ([10.0, 10.1, 10.2, 9.9], [12.0, 12.1, 12.2, 11.9], "higher", "improved"),
        ([10.0, 10.1, 10.2, 9.9], [8.0, 8.1, 8.2, 7.9], "lower", "improved"),
        # Spread wider than the bound: overlapping sides cannot be told apart ...
        ([6.0, 10.0, 14.0, 8.0], [7.0, 11.0, 15.0, 9.0], "lower", "unresolved"),
        # ... unless every run on one side beats every run on the other.
        ([6.0, 10.0, 14.0, 8.0], [16.0, 20.0, 24.0, 18.0], "lower", "regressed"),
        ([6.0, 10.0, 14.0, 8.0], [2.0, 3.0, 4.0, 5.0], "lower", "improved"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(_row(a), _row(b), better, bound=0.1) == expected


def test_compare_reports_differing_counts():
    def entry(events):
        return {
            "failed": 0,
            "end_to_end": {"wall_s": _row([1.0, 1.0, 1.0])},
            "per_layer": {"sim.events": {"unit": "count", "value": events}},
        }

    benchmark = {
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "sim.events", "unit": "count", "better": "lower"}],
    }
    same = compare.compare({"workloads": {"w": entry(5)}}, {"workloads": {"w": entry(5)}}, benchmark)
    assert "unchanged" in same[1] and "all 1 identical" in same[-1]
    moved = compare.compare({"workloads": {"w": entry(5)}}, {"workloads": {"w": entry(6)}}, benchmark)
    assert any("sim.events" in line and "5 -> 6" in line for line in moved)
