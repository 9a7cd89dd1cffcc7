"""Tests for journal/cache auditing and repair (`repro campaign doctor`)."""

import json

import pytest

from repro.experiments.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.experiments.campaign import (
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    load_journal,
)
from repro.experiments.doctor import (
    audit_cache,
    audit_journal,
    repair_cache,
    repair_journal,
)
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.collector import MetricsReport


def tiny_spec(name="doctored", runs=1):
    base = ScenarioConfig(n_nodes=16, duration=30.0, seed=4, attack_start=10.0)
    return CampaignSpec(
        name=name, base=base, axes=(("n_malicious", (0, 2)),), runs=runs
    )


class _FakeWorker:
    def __call__(self, config):
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


def _healthy_journal(tmp_path, name="ok.jsonl"):
    journal = tmp_path / name
    result = CampaignRunner(
        tiny_spec(), worker=_FakeWorker(), journal=journal
    ).run()
    assert result.complete
    return journal


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------
def test_audit_healthy_journal(tmp_path):
    journal = _healthy_journal(tmp_path)
    audit = audit_journal(journal)
    assert audit.healthy
    assert audit.begins == 1
    assert audit.completes == 2
    assert "healthy" in audit.format()


def test_audit_flags_torn_tail_with_location(tmp_path):
    journal = _healthy_journal(tmp_path)
    data = journal.read_bytes()
    journal.write_bytes(data + b'{"event":"complete","dig')
    audit = audit_journal(journal)
    (problem,) = audit.problems
    assert problem.kind == "torn_tail"
    assert problem.offset == len(data)
    assert problem.lineno == 4  # begin + 2 completes + fragment


def test_audit_flags_midfile_corruption(tmp_path):
    journal = _healthy_journal(tmp_path)
    lines = journal.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"event":"complete","digest": \xff garbage}\n'
    journal.write_bytes(b"".join(lines))
    audit = audit_journal(journal)
    (problem,) = audit.problems
    assert problem.kind == "corrupt"
    assert problem.lineno == 2


def test_audit_flags_version_skew_unknown_event_and_malformed(tmp_path):
    journal = tmp_path / "mixed.jsonl"
    journal.write_text(
        json.dumps({"event": "begin", "version": 99, "spec": "a" * 64,
                    "jobs": 1}) + "\n"
        + json.dumps({"event": "mystery"}) + "\n"
        + json.dumps({"event": "complete", "digest": 7,
                      "report": {"nope": 1}}) + "\n"
    )
    audit = audit_journal(journal)
    kinds = sorted(problem.kind for problem in audit.problems)
    assert kinds == ["bad_version", "malformed_entry", "unknown_event"]


def test_audit_flags_spec_mix(tmp_path):
    journal = _healthy_journal(tmp_path)
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "event": "begin", "version": 1, "campaign": "other",
            "spec": "f" * 64, "jobs": 3,
        }) + "\n")
    audit = audit_journal(journal)
    (problem,) = audit.problems
    assert problem.kind == "spec_mix"
    assert len(audit.spec_digests) == 2


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
def test_repair_healthy_journal_is_a_noop(tmp_path):
    journal = _healthy_journal(tmp_path)
    before = journal.read_bytes()
    result = repair_journal(journal)
    assert not result.repaired
    assert journal.read_bytes() == before


def test_repair_quarantines_damage_and_keeps_good_lines_bytewise(tmp_path):
    journal = _healthy_journal(tmp_path)
    good = journal.read_bytes()
    corrupt_line = b'not json at all\n'
    torn_tail = b'{"event":"complete","dig'
    lines = good.splitlines(keepends=True)
    damaged = lines[0] + corrupt_line + b"".join(lines[1:]) + torn_tail
    journal.write_bytes(damaged)

    with pytest.raises(CampaignError, match="doctor"):
        load_journal(journal)  # mid-file damage is fatal without repair

    result = repair_journal(journal)
    assert result.repaired
    assert result.kept == len(lines)
    assert result.quarantined == 2
    # Healthy lines survive byte-for-byte; resume state is intact.
    assert journal.read_bytes() == good
    state = load_journal(journal)
    assert len(state.reports) == 2
    # Nothing was destroyed: the damage moved to the quarantine file.
    quarantined = result.quarantine_path.read_bytes()
    assert corrupt_line in quarantined
    assert torn_tail in quarantined


def test_repair_error_message_names_doctor(tmp_path):
    journal = _healthy_journal(tmp_path)
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(lines[0] + b"garbage\n" + b"".join(lines[1:]))
    with pytest.raises(CampaignError) as excinfo:
        load_journal(journal)
    message = str(excinfo.value)
    assert ":2:" in message  # line number
    assert "byte offset" in message
    assert "repro campaign doctor" in message


def test_repair_with_spec_filter_drops_foreign_lines(tmp_path):
    spec_a, spec_b = tiny_spec("alpha"), tiny_spec("beta")
    journal = tmp_path / "shared.jsonl"
    for spec in (spec_a, spec_b):
        result = CampaignRunner(
            spec, worker=_FakeWorker(), journal=journal
        ).run()
        assert result.executed == 2

    audit = audit_journal(journal)
    assert any(problem.kind == "spec_mix" for problem in audit.problems)
    result = repair_journal(journal, spec_digest=spec_a.digest())
    assert result.repaired
    assert result.dropped_foreign >= 2
    state = load_journal(journal)
    assert state.spec_digest == spec_a.digest()

    # The filtered journal resumes campaign A without re-running anything.
    resumed = CampaignRunner(
        spec_a, worker=_FakeWorker(), journal=journal, resume=True
    ).run()
    assert resumed.complete
    assert resumed.executed == 0
    assert resumed.from_journal == 2


# ----------------------------------------------------------------------
# Cache audit/repair
# ----------------------------------------------------------------------
def test_cache_audit_and_repair(tmp_path):
    cache = ResultCache(tmp_path / "cache", salt="s" * 64)
    config = ScenarioConfig(n_nodes=16, duration=30.0, seed=4, attack_start=10.0)
    path = cache.put(config, _FakeWorker()(config))
    assert audit_cache(cache.root) == []

    torn = path.with_name("torn.json")
    torn.write_text('{"schema": %d, "rep' % CACHE_SCHEMA_VERSION)
    skewed = path.with_name("skewed.json")
    skewed.write_text(json.dumps({"schema": 1, "report": {}}))
    malformed = path.with_name("malformed.json")
    malformed.write_text(json.dumps({"schema": CACHE_SCHEMA_VERSION,
                                     "report": {"bogus": True}}))

    problems = audit_cache(cache.root)
    kinds = sorted(problem.kind for problem in problems)
    assert kinds == ["bad_version", "corrupt", "malformed_entry"]

    repaired = repair_cache(cache.root)
    assert len(repaired) == 3
    assert audit_cache(cache.root) == []
    # The good entry still serves; damage is parked, not deleted.
    assert cache.get(config) is not None
    assert torn.with_name(torn.name + ".quarantine").exists()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_doctor_exit_codes(tmp_path, capsys):
    from repro.cli import main

    journal = _healthy_journal(tmp_path)
    assert main(["campaign", "doctor", str(journal)]) == 0
    capsys.readouterr()

    journal.write_bytes(journal.read_bytes() + b'{"torn')
    assert main(["campaign", "doctor", str(journal)]) == 2
    out = capsys.readouterr().out
    assert "torn_tail" in out

    assert main(["campaign", "doctor", str(journal), "--repair"]) == 0
    out = capsys.readouterr().out
    assert "repaired" in out
    assert main(["campaign", "doctor", str(journal)]) == 0
