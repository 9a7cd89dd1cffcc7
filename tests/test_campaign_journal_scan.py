"""One reader of the campaign journal: load, audit and resume agree.

``load_journal`` (resume, status, matrix aggregation) and the doctor's
audit both read lines through ``scan_journal``.  These tests pin the
single torn-tail rule — a final line without its newline is torn,
whatever it holds — and that a matrix column whose only gap is
dead-lettered jobs does not stop the later columns.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import campaign as campaign_module
from repro.experiments.campaign import (
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    RetryPolicy,
)
from repro.experiments.doctor import audit_journal
from repro.experiments.journal import load_journal, scan_journal
from repro.experiments.matrix import MatrixSpec, run_matrix
from repro.experiments.scenario import ScenarioConfig
from repro.faults.harness import (
    HarnessFaultController,
    HarnessFaultPlan,
    TornJournalWrite,
)
from repro.metrics.collector import MetricsReport


def tiny_spec(name="scan", runs=1):
    base = ScenarioConfig(n_nodes=16, duration=30.0, seed=4, attack_start=10.0)
    return CampaignSpec(name=name, base=base, axes=(("n_malicious", (0, 2)),), runs=runs)


def fake_report(config):
    return MetricsReport(
        duration=config.duration,
        originated=10,
        delivered=8,
        wormhole_drops=config.n_malicious,
        routes_established=9,
        malicious_routes=config.n_malicious,
        drop_times=(1.0,),
        isolation_times={},
        first_activity={},
        detections=0,
        isolations=0,
    )


def _clean_aggregate(spec):
    result = CampaignRunner(spec, worker=fake_report).run()
    return json.dumps(result.aggregate, sort_keys=True)


# ----------------------------------------------------------------------
# The torn-tail rule
# ----------------------------------------------------------------------
def test_newline_less_final_entry_is_torn_and_rerun_on_resume(tmp_path):
    spec = tiny_spec()
    journal = tmp_path / "j.jsonl"
    first = CampaignRunner(spec, worker=fake_report, journal=journal, max_jobs=1).run()
    assert first.executed == 1 and not first.complete
    # Drop the interrupt line and strip the completion's newline: a whole
    # JSON object that never became a whole journal line.
    begin, complete, interrupt = journal.read_bytes().splitlines(keepends=True)
    assert json.loads(interrupt)["event"] == "interrupt"
    journal.write_bytes(begin + complete.rstrip(b"\n"))

    state = load_journal(journal, tolerate_partial=True)
    assert state.partial_lines == 1
    assert len(state.reports) == 0
    assert [p.kind for p in audit_journal(journal).problems] == ["torn_tail"]
    with pytest.raises(CampaignError, match="corrupt journal line"):
        load_journal(journal, tolerate_partial=False)

    resumed = CampaignRunner(spec, worker=fake_report, journal=journal, resume=True).run()
    assert resumed.complete
    assert resumed.from_journal == 0
    assert resumed.executed == 2  # the torn job ran again
    # Reopening truncated the torn line; the journal now holds every
    # completion and reads clean.
    healed = load_journal(journal, tolerate_partial=False)
    assert len(healed.reports) == 2
    assert audit_journal(journal).healthy
    assert json.dumps(resumed.aggregate, sort_keys=True) == _clean_aggregate(spec)


def test_torn_write_short_of_only_the_newline_resumes_whole(tmp_path):
    spec = tiny_spec()
    journal = tmp_path / "torn.jsonl"
    controller = HarnessFaultController(
        HarnessFaultPlan.of(TornJournalWrite(entry=0, fraction=0.9999)),
        tmp_path / "fault-state",
    )
    result = CampaignRunner(
        spec, worker=fake_report, journal=journal, harness_faults=controller
    ).run()
    assert result.interrupted == "torn_write"
    tail = journal.read_bytes().splitlines(keepends=True)[-1]
    assert not tail.endswith(b"\n")
    assert json.loads(tail)["event"] == "complete"  # whole but for the newline

    resumed = CampaignRunner(
        spec, worker=fake_report, journal=journal, resume=True, harness_faults=controller
    ).run()
    assert resumed.complete
    assert resumed.executed == 2
    assert len(load_journal(journal, tolerate_partial=False).reports) == 2
    assert json.dumps(resumed.aggregate, sort_keys=True) == _clean_aggregate(spec)


# ----------------------------------------------------------------------
# load_journal raises exactly where the audit finds non-tail damage
# ----------------------------------------------------------------------
def _line(payload):
    return json.dumps(payload).encode() + b"\n"


BEGIN = {"event": "begin", "version": 1, "campaign": "x", "spec": "a" * 64, "jobs": 1}
DAMAGE = {
    "torn_garbage": (b'{"event":"comp', "torn_tail"),
    "torn_whole_entry": (_line({"event": "interrupt", "reason": "x", "completed": 0})[:-1], "torn_tail"),
    "corrupt": (b"not json\n", "corrupt"),
    "not_an_object": (b"[1, 2]\n", "corrupt"),
    "bad_version": (_line(dict(BEGIN, version=99)), "bad_version"),
    "begin_without_spec": (_line({"event": "begin", "version": 1}), "malformed_entry"),
    "spec_mix": (_line(dict(BEGIN, spec="b" * 64)), "spec_mix"),
    "bad_completion": (_line({"event": "complete", "digest": "d", "report": {}}), "malformed_entry"),
    "completion_digest_not_str": (_line({"event": "complete", "digest": 7, "report": {}}), "malformed_entry"),
    "dead_letter_without_digest": (_line({"event": "dead_letter"}), "malformed_entry"),
    "unknown_event": (_line({"event": "mystery"}), "unknown_event"),
}


@pytest.mark.parametrize("name", sorted(DAMAGE))
def test_load_and_audit_agree_on_every_problem(tmp_path, name):
    damage, kind = DAMAGE[name]
    journal = tmp_path / "j.jsonl"
    journal.write_bytes(_line(BEGIN) + b"\n" + damage)
    lines = list(scan_journal(journal))
    assert [line.lineno for line in lines] == [1, 3]  # blank line skipped, still counted
    assert lines[1].offset == len(_line(BEGIN)) + 1
    assert [p.kind for p in audit_journal(journal).problems] == [kind]
    if kind == "torn_tail":
        assert load_journal(journal, tolerate_partial=True).partial_lines == 1
        with pytest.raises(CampaignError, match="corrupt journal line"):
            load_journal(journal, tolerate_partial=False)
    else:
        with pytest.raises(CampaignError, match=r":3: "):
            load_journal(journal, tolerate_partial=True)


# ----------------------------------------------------------------------
# A dead-lettered cell does not stop the matrix
# ----------------------------------------------------------------------
def _poison_outofband_none(config):
    if config.attack_mode == "outofband" and config.defense.name == "none":
        raise RuntimeError("poison cell")
    return fake_report(config)


def _matrix_spec():
    return MatrixSpec(
        name="poisoned",
        base=ScenarioConfig(n_nodes=16, duration=30.0, seed=3, attack_start=10.0),
        defenses=("none", "liteworp"),
        attacks=("outofband", "highpower"),
        runs=1,
    )


def test_dead_letters_do_not_stop_later_matrix_columns(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign_module, "run_scenario", _poison_outofband_none)
    spec = _matrix_spec()
    result = run_matrix(
        spec, journal_dir=tmp_path, retry=RetryPolicy(retries=0, backoff=0.0)
    )
    assert not result.complete
    assert result.report is None
    assert set(result.campaigns) == {"outofband", "highpower"}
    assert result.campaigns["outofband"].dead_lettered == 1
    assert result.campaigns["highpower"].complete
    assert result.dead_lettered == 1
    assert result.completed_jobs == spec.total_jobs() - 1
    summary = result.format()
    assert "dead_lettered=1" in summary
    assert "not started" not in summary

    # A resume retries only the poison job; nothing else re-runs.
    resumed = run_matrix(
        spec, journal_dir=tmp_path, resume=True, retry=RetryPolicy(retries=0, backoff=0.0)
    )
    assert resumed.executed == 0
    assert resumed.dead_lettered == 1


def test_matrix_still_stops_on_max_jobs_after_dead_letters(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign_module, "run_scenario", _poison_outofband_none)
    result = run_matrix(
        _matrix_spec(), journal_dir=tmp_path, max_jobs=2,
        retry=RetryPolicy(retries=0, backoff=0.0),
    )
    # outofband tries both jobs (one dead-lettered, one executed); the
    # one job left in the budget goes to highpower, which then stops.
    assert not result.complete
    assert result.executed == 2
    assert result.campaigns["highpower"].executed == 1
    assert result.campaigns["highpower"].stopped_early


def test_cli_matrix_names_dead_letters_in_exit_reason(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setattr(campaign_module, "run_scenario", _poison_outofband_none)
    code = main([
        "matrix", "--name", "poisoned",
        "--defense", "none", "--defense", "liteworp",
        "--attack", "outofband", "--attack", "highpower",
        "--nodes", "16", "--duration", "30", "--attack-start", "10", "--runs", "1",
        "--journal-dir", str(tmp_path), "--no-cache", "--no-fsync", "--quiet",
        "--retries", "0",
    ])
    err = capsys.readouterr().err
    assert code == 75
    assert "matrix finished with 1 dead-lettered job(s)" in err
    assert "3/4 jobs journaled" in err
    assert "dead_lettered=1" in err
