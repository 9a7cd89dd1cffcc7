"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_taxonomy_command(capsys):
    assert main(["taxonomy"]) == 0
    out = capsys.readouterr().out
    assert "Packet encapsulation" in out
    assert "Out-of-band channel" in out


def test_cost_command(capsys):
    assert main(["cost"]) == 0
    out = capsys.readouterr().out
    assert "Neighbor lists (NBL)" in out


def test_fig6_command(capsys):
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6(a)" in out and "Figure 6(b)" in out


def test_run_command_small(capsys):
    code = main([
        "run", "--nodes", "20", "--duration", "80", "--seed", "3",
        "--attack", "outofband", "--malicious", "2", "--attack-start", "30",
        "--defense", "liteworp",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "wormhole drops" in out
    assert "malicious nodes" in out


def test_run_command_no_attack(capsys):
    code = main([
        "run", "--nodes", "20", "--duration", "60", "--attack", "none",
        "--defense", "none",
    ])
    assert code == 0
    assert "wormhole drops        : 0" in capsys.readouterr().out


def test_parser_rejects_unknown_attack():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--attack", "quantum"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_fig10_command_tiny(capsys):
    code = main(["figure", "10", "--nodes", "40", "--duration", "120", "--runs", "1"])
    assert code == 0
    assert "theta" in capsys.readouterr().out


def test_run_command_json_output(tmp_path, capsys):
    target = tmp_path / "out" / "report.json"
    code = main([
        "run", "--nodes", "20", "--duration", "60", "--attack", "none",
        "--defense", "none", "--json", str(target),
    ])
    assert code == 0
    import json
    payload = json.loads(target.read_text())
    assert payload["wormhole_drops"] == 0
    assert payload["originated"] >= 0


def test_fig10_jobs_and_cache_flags(tmp_path, capsys):
    argv = ["figure", "10", "--nodes", "40", "--duration", "120", "--runs", "1",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    # Second invocation is served from the cache and must print the same table.
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert any((tmp_path / "cache").rglob("*.json"))


def test_fig10_no_cache_flag(tmp_path, capsys):
    argv = ["figure", "10", "--nodes", "40", "--duration", "120", "--runs", "1",
            "--no-cache", "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    assert "theta" in capsys.readouterr().out
    assert not (tmp_path / "cache").exists()


def test_profile_flag_prints_hot_spots(capsys):
    code = main(["--profile", "--profile-top", "5", "run", "--nodes", "16",
                 "--duration", "40", "--attack", "none", "--defense", "none"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cProfile: top 5" in out
    assert "cumulative" in out


def test_bench_command_quick(tmp_path, capsys):
    code = main(["bench", "--only", "engine", "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "engine:" in out
    import json
    payload = json.loads((tmp_path / "BENCH_engine.json").read_text())
    assert payload["name"] == "engine"
    assert payload["samples"]


def test_bench_rejects_unknown_name(tmp_path):
    # sweep, trace and campaign are retired benchmarks.
    for name in ("bogus", "sweep", "trace", "campaign"):
        with pytest.raises(ValueError):
            main(["bench", "--only", name, "--output-dir", str(tmp_path)])


def test_bench_has_no_jobs_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "--jobs", "2"])


#: (benchmark, headline metric, how docs/PERFORMANCE.md §6 rounds it).
_PERFORMANCE_QUOTES = [
    ("engine", "median_events_per_second", "{:,.0f}"),
    ("channel", "median_tx_per_second", "{:,.0f}"),
    ("identity", "median_speedup", "{:.2f}×"),
    ("scale", "wall_seconds", "{:.0f} s"),
    ("scale", "peak_rss_mb", "{:.0f} MiB"),
]


@pytest.mark.parametrize("name, metric, fmt", _PERFORMANCE_QUOTES)
def test_performance_doc_quotes_the_committed_bench_json(name, metric, fmt):
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    payload = json.loads(
        (root / "benchmarks" / "output" / f"BENCH_{name}.json").read_text()
    )
    quoted = fmt.format(payload["metrics"][metric])
    doc = (root / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
    assert quoted in doc, f"PERFORMANCE.md does not quote {name}.{metric} = {quoted}"


def test_bench_fails_hard_on_a_blown_memory_budget(monkeypatch, tmp_path):
    from repro.bench import micro

    def over_budget(quick=True):
        return micro.BenchResult(
            name="scale",
            params={"memory_budget_mb": 256.0},
            metrics={"within_budget": True, "peak_rss_mb": 300.0, "within_memory_budget": False},
        )

    monkeypatch.setitem(micro.BENCHMARKS, "scale", over_budget)
    with pytest.raises(RuntimeError, match="memory budget"):
        micro.run_benchmarks(["scale"], output_dir=tmp_path)
    # The trajectory is still written, so the failure can be inspected.
    assert (tmp_path / "BENCH_scale.json").exists()


def test_figure_rejects_unknown_number():
    for argv in (["figure", "7"], ["fig8"]):  # the fig8/9/10 aliases are gone
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def _write_tiny_spec(tmp_path, runs=1):
    import json
    spec = tmp_path / "study.json"
    spec.write_text(json.dumps({
        "name": "cli-smoke",
        "runs": runs,
        "base": {"n_nodes": 16, "duration": 30.0, "attack_start": 10.0},
        "axes": {"n_malicious": [0, 2]},
    }))
    return spec


def test_campaign_plan_lists_jobs(tmp_path, capsys):
    spec = _write_tiny_spec(tmp_path, runs=2)
    assert main(["campaign", "plan", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "cli-smoke: 4 job(s)" in out
    assert "n_malicious=2 #1" in out


def test_campaign_run_interrupt_resume_and_status(tmp_path, capsys):
    spec = _write_tiny_spec(tmp_path)
    journal = tmp_path / "study.journal.jsonl"
    cache = tmp_path / "cache"

    # Uninterrupted reference aggregate.
    ref_out = tmp_path / "ref.json"
    assert main(["campaign", "run", str(spec), "--quiet", "--no-cache",
                 "--journal", str(tmp_path / "ref.jsonl"),
                 "--out", str(ref_out)]) == 0
    capsys.readouterr()

    # Interrupted run exits 75 and leaves a resumable journal.
    code = main(["campaign", "run", str(spec), "--quiet",
                 "--cache-dir", str(cache), "--max-jobs", "1"])
    captured = capsys.readouterr()
    assert code == 75
    assert "--resume" in captured.err
    assert journal.exists()  # default journal path: next to the spec

    # Status reports the partial journal against the spec.
    assert main(["campaign", "status", str(journal), "--spec", str(spec)]) == 0
    status = capsys.readouterr().out
    assert "1 completed job(s)" in status
    assert "1/2 job(s) journaled" in status

    # Resume finishes the rest and reproduces the aggregate byte for byte.
    resumed_out = tmp_path / "resumed.json"
    assert main(["campaign", "run", str(spec), "--quiet", "--resume",
                 "--cache-dir", str(cache), "--out", str(resumed_out)]) == 0
    resumed = capsys.readouterr()
    assert "journal=1" in resumed.out
    assert resumed_out.read_bytes() == ref_out.read_bytes()


def test_campaign_resume_without_journal_errors(tmp_path, capsys):
    spec = _write_tiny_spec(tmp_path)
    code = main(["campaign", "run", str(spec), "--no-journal", "--resume"])
    assert code == 1
    assert "--resume needs a journal" in capsys.readouterr().err


def test_campaign_run_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("name = ")
    assert main(["campaign", "run", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_campaign_trace_out_streams_job_records(tmp_path, capsys):
    spec = _write_tiny_spec(tmp_path)
    trace_out = tmp_path / "progress.jsonl"
    assert main(["campaign", "run", str(spec), "--quiet", "--no-cache",
                 "--trace-out", str(trace_out)]) == 0
    capsys.readouterr()
    import json
    lines = [json.loads(line) for line in trace_out.read_text().splitlines()]
    job_records = [l for l in lines if l.get("kind") == "campaign_job"]
    assert len(job_records) == 2
    assert all(r["fields"]["source"] == "run" for r in job_records)


def test_chaos_parser_defaults():
    args = build_parser().parse_args(["chaos", "--no-liveness", "--seed", "9"])
    assert args.command == "chaos"
    assert args.liveness is False
    assert args.seed == 9
    assert args.crash_fraction == 0.2
    assert args.loss == 0.10


@pytest.mark.parametrize("argv, command", [
    (["run", "--nodes", "5", "--duration", "-1"], "run"),
    (["chaos", "--duration", "-1"], "chaos"),
    (["chaos", "--nodes", "2"], "chaos"),
    (["chaos", "--crash-fraction", "2"], "chaos"),
    (["figure", "8", "--nodes", "2"], "figure"),
    (["trace", "export", "--out", "unused.jsonl", "--ring", "0"], "trace"),
    (["report", "--live", "--duration", "0"], "report"),
])
def test_invalid_config_is_one_error_line_and_exit_1(argv, command, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"repro {command}: error: ")


def test_run_time_value_error_is_not_swallowed(monkeypatch):
    """Only config construction is guarded: a ValueError from the run
    itself still propagates."""
    import repro.experiments.chaos as chaos

    def broken_run(config):
        raise ValueError("raised by the run")

    monkeypatch.setattr(chaos, "run_chaos", broken_run)
    with pytest.raises(ValueError, match="raised by the run"):
        main(["chaos", "--nodes", "20", "--duration", "60"])


class _Captured(Exception):
    """Raised in place of the chaos run, carrying the config it got."""


def _chaos_config(monkeypatch, argv):
    import repro.experiments.chaos as chaos

    def capture(config):
        raise _Captured(config)

    monkeypatch.setattr(chaos, "run_chaos", capture)
    with pytest.raises(_Captured) as caught:
        main(argv)
    return caught.value.args[0]


def test_chaos_time_defaults_follow_duration(monkeypatch):
    from repro.experiments.chaos import ChaosConfig

    config = _chaos_config(monkeypatch, ["chaos", "--duration", "60"])
    defaults = ChaosConfig()
    for name in ("attack_start", "crash_at", "loss_at", "loss_duration", "downtime"):
        assert getattr(config, name) == getattr(defaults, name) / 4


def test_chaos_default_duration_keeps_default_schedule(monkeypatch):
    from dataclasses import replace

    from repro.experiments.chaos import ChaosConfig

    config = _chaos_config(monkeypatch, ["chaos", "--seed", "1"])
    assert config == replace(ChaosConfig(seed=1), obs=None)


def test_chaos_short_run_completes(capsys):
    assert main(["chaos", "--nodes", "20", "--duration", "60", "--seed", "3"]) == 0
    assert "wormhole detected" in capsys.readouterr().out
