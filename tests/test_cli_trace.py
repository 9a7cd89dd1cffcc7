"""Tests for the ``trace`` CLI subcommand and the ``--trace-*`` flags."""

import json

import pytest

from repro.cli import build_parser, main


def export(tmp_path, name="trace.jsonl", attack=True, extra=()):
    path = tmp_path / name
    argv = [
        "trace", "export", "--out", str(path),
        "--nodes", "20", "--duration", "60", "--seed", "3",
    ]
    if attack:
        argv += ["--attack", "outofband", "--malicious", "2",
                 "--attack-start", "20"]
    else:
        argv += ["--attack", "none"]
    argv += list(extra)
    assert main(argv) == 0
    return path


def test_trace_export_writes_jsonl(tmp_path, capsys):
    path = export(tmp_path, extra=["--strict"])
    out = capsys.readouterr().out
    assert "records to" in out
    lines = path.read_text().splitlines()
    assert lines
    record = json.loads(lines[0])
    assert {"time", "kind", "fields", "run"} <= set(record)


def test_trace_export_ring_bounds_residency(tmp_path, capsys):
    path = export(tmp_path, extra=["--ring", "50"])
    out = capsys.readouterr().out
    peak = next(
        int(line.split(":")[1]) for line in out.splitlines()
        if "peak resident" in line
    )
    assert peak <= 50
    # The ring bounds memory but the sink still receives every record.
    evicted = next(
        int(line.split(":")[1]) for line in out.splitlines()
        if "evicted" in line
    )
    assert len(path.read_text().splitlines()) == peak + evicted


def test_trace_stats_round_trip(tmp_path, capsys):
    path = export(tmp_path)
    stats_path = tmp_path / "stats.json"
    capsys.readouterr()
    assert main(["trace", "stats", str(path), "--json", str(stats_path)]) == 0
    out = capsys.readouterr().out
    assert "records :" in out and "kinds" in out
    payload = json.loads(stats_path.read_text())
    assert payload["records"] == len(path.read_text().splitlines())
    assert payload["runs"] == 1
    assert "data_origin" in payload["kinds"]


def test_trace_check_clean_run_has_no_violations(tmp_path, capsys):
    path = export(tmp_path, attack=False)
    assert main(["trace", "check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 schema error(s)" in out
    assert "0 protocol violation(s)" in out
    assert "0 attack observation(s)" in out


def test_trace_check_flags_wormhole_evidence(tmp_path, capsys):
    path = export(tmp_path, attack=True)
    assert main(["trace", "check", str(path)]) == 0  # attack is not a failure
    out = capsys.readouterr().out
    assert "0 protocol violation(s)" in out
    assert "0 attack observation(s)" not in out
    # ...unless the caller opts in to failing on attack evidence.
    assert main(["trace", "check", str(path), "--fail-on-attack"]) == 1


def test_trace_check_fails_on_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"time": 0.0, "kind": "not-a-kind", "fields": {}}\n')
    assert main(["trace", "check", str(path)]) == 1
    assert "unknown trace kind" in capsys.readouterr().out


def test_fig8_trace_out_flag(tmp_path, capsys):
    path = tmp_path / "fig8.jsonl"
    assert main([
        "figure", "8", "--nodes", "40", "--duration", "60", "--runs", "1",
        "--trace-out", str(path), "--trace-strict", "--trace-ring", "200",
    ]) == 0
    records = path.read_text().splitlines()
    assert records
    runs = {json.loads(line)["run"] for line in records}
    assert len(runs) > 1  # every sweep point is tagged distinctly
    capsys.readouterr()
    assert main(["trace", "check", str(path)]) == 0


def test_trace_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace"])


def test_trace_export_requires_out():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "export"])


# ----------------------------------------------------------------------
# Missing / empty / truncated exports: one-line errors, never tracebacks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("command", ["stats", "check"])
def test_trace_commands_fail_cleanly_on_missing_file(tmp_path, capsys, command):
    assert main(["trace", command, str(tmp_path / "nope.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "not found" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["stats", "check"])
def test_trace_commands_fail_cleanly_on_empty_file(tmp_path, capsys, command):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["trace", command, str(path)]) == 1
    assert "empty" in capsys.readouterr().err


def test_trace_stats_tolerates_truncated_final_line(tmp_path, capsys):
    path = export(tmp_path)
    intact = len(path.read_text().splitlines())
    # Chop the last line mid-JSON, as a killed writer would leave it.
    truncated = path.read_text()[:-20]
    assert not truncated.endswith("\n")
    path.write_text(truncated)
    capsys.readouterr()
    assert main(["trace", "stats", str(path)]) == 0
    captured = capsys.readouterr()
    assert "skipped 1 partial trailing line" in captured.err
    assert f"records : {intact - 1}" in captured.out


def test_trace_check_rejects_midfile_corruption(tmp_path, capsys):
    path = tmp_path / "corrupt.jsonl"
    path.write_text(
        '{"time": 0.0, "kind": "malicious_drop", "fie\n'
        '{"time": 1.0, "kind": "malicious_drop", "fields": {"node": 1, "packet": 2}}\n'
    )
    assert main(["trace", "check", str(path)]) == 1
    assert "malformed trace line" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro report
# ----------------------------------------------------------------------
def test_report_from_export(tmp_path, capsys):
    path = export(tmp_path)
    json_path = tmp_path / "report.json"
    md_path = tmp_path / "report.md"
    capsys.readouterr()
    assert main(["report", str(path), "--json", str(json_path),
                 "--md", str(md_path)]) == 0
    payload = json.loads(json_path.read_text())
    assert payload["meta"]["records"] == len(path.read_text().splitlines())
    assert payload["latency"]["per_run"]
    assert "# Run report" in md_path.read_text()


def test_report_prints_markdown_by_default(tmp_path, capsys):
    path = export(tmp_path)
    capsys.readouterr()
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "# Run report" in out
    assert "## Detection-latency decomposition" in out


def test_report_live_matches_export_replay(tmp_path, capsys):
    out_trace = tmp_path / "live.jsonl"
    live_json = tmp_path / "live.json"
    replay_json = tmp_path / "replay.json"
    argv = ["--nodes", "20", "--duration", "60", "--seed", "3",
            "--attack", "outofband", "--malicious", "2", "--attack-start", "20"]
    assert main(["report", "--live", "--out", str(out_trace),
                 "--json", str(live_json), "--md", str(tmp_path / "r.md"),
                 *argv]) == 0
    assert main(["report", str(out_trace), "--json", str(replay_json)]) == 0
    assert live_json.read_bytes() == replay_json.read_bytes()


def test_report_requires_exactly_one_source(tmp_path, capsys):
    assert main(["report"]) == 1
    assert "need a trace export" in capsys.readouterr().err
    path = export(tmp_path)
    capsys.readouterr()
    assert main(["report", str(path), "--live"]) == 1
    assert "not both" in capsys.readouterr().err


def test_report_fails_cleanly_on_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
    assert "not found" in capsys.readouterr().err
