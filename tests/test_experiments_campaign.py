"""Tests for the campaign orchestrator: spec loading, compilation,
journaling, resume byte-identity, backends, and retry."""

import inspect
import json

import pytest

from repro.experiments import campaign as campaign_module
from repro.experiments.cache import ResultCache, config_digest
from repro.experiments.campaign import (
    CampaignError,
    CampaignJournal,
    CampaignRunner,
    CampaignSpec,
    InlineBackend,
    ProcessBackend,
    RetryPolicy,
    SupervisionPolicy,
    aggregate_campaign,
    apply_overrides,
    compile_campaign,
    load_journal,
    load_spec,
    make_backend,
    run_campaign,
)
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.obs.progress import CampaignProgress


def tiny_spec(name="tiny", runs=2, **base_overrides):
    base = ScenarioConfig(
        n_nodes=16, duration=30.0, seed=4, attack_start=10.0, **base_overrides
    )
    return CampaignSpec(
        name=name,
        base=base,
        axes=(("n_malicious", (0, 2)),),
        runs=runs,
    )


# ----------------------------------------------------------------------
# Overrides + spec
# ----------------------------------------------------------------------
def test_apply_overrides_top_level_and_dotted():
    config = ScenarioConfig(n_nodes=20)
    out = apply_overrides(config, {"n_malicious": 2, "liteworp.theta": 4})
    assert out.n_malicious == 2
    assert out.liteworp.theta == 4
    # Untouched fields survive, the input is not mutated.
    assert out.n_nodes == 20
    assert config.liteworp.theta != 4 or config.n_malicious == 0


def test_apply_overrides_rejects_unknown_field():
    with pytest.raises(CampaignError, match="no_such_field"):
        apply_overrides(ScenarioConfig(), {"no_such_field": 1})
    with pytest.raises(CampaignError, match="nested"):
        apply_overrides(ScenarioConfig(), {"liteworp.nested": 1})


def test_spec_axes_sorted_and_points_are_cartesian():
    spec = CampaignSpec(
        name="grid",
        axes=(("seed", (1, 2)), ("n_malicious", (0, 2, 4))),
        runs=1,
    )
    assert [axis for axis, _ in spec.axes] == ["n_malicious", "seed"]
    points = spec.points()
    assert len(points) == 6
    assert points[0] == (("n_malicious", 0), ("seed", 1))


def test_spec_validation():
    with pytest.raises(CampaignError):
        CampaignSpec(name="")
    with pytest.raises(CampaignError):
        CampaignSpec(name="x", runs=0)
    with pytest.raises(CampaignError):
        CampaignSpec(name="x", axes=(("n_malicious", ()),))


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(CampaignError, match="bogus"):
        CampaignSpec.from_dict({"name": "x", "bogus": 1})
    with pytest.raises(CampaignError, match="name"):
        CampaignSpec.from_dict({"runs": 1})


def test_load_spec_toml_and_json_agree(tmp_path):
    toml_path = tmp_path / "study.toml"
    toml_path.write_text(
        'name = "study"\n'
        "runs = 2\n"
        "[base]\n"
        "n_nodes = 16\n"
        "duration = 30.0\n"
        "attack_start = 10.0\n"
        '"liteworp.theta" = 4\n'
        "[axes]\n"
        "n_malicious = [0, 2]\n"
    )
    json_path = tmp_path / "study.json"
    json_path.write_text(json.dumps({
        "name": "study",
        "runs": 2,
        "base": {"n_nodes": 16, "duration": 30.0, "attack_start": 10.0,
                 "liteworp.theta": 4},
        "axes": {"n_malicious": [0, 2]},
    }))
    from_toml = load_spec(toml_path)
    from_json = load_spec(json_path)
    assert from_toml == from_json
    assert from_toml.digest() == from_json.digest()
    assert from_toml.base.liteworp.theta == 4


def test_load_spec_bad_file(tmp_path):
    missing = tmp_path / "nope.toml"
    with pytest.raises(CampaignError, match="cannot read"):
        load_spec(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CampaignError, match="invalid JSON"):
        load_spec(bad)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def test_compile_is_deterministic_and_content_addressed():
    spec = tiny_spec()
    jobs_a = compile_campaign(spec)
    jobs_b = compile_campaign(spec)
    assert [j.digest for j in jobs_a] == [j.digest for j in jobs_b]
    assert len(jobs_a) == 2 * spec.runs
    # Replication 0 keeps the base seed; later replications derive new ones.
    by_rep = {(j.point, j.replication): j for j in jobs_a}
    assert by_rep[(("n_malicious", 0),), 0].config.seed == spec.base.seed
    assert by_rep[(("n_malicious", 0),), 1].config.seed != spec.base.seed
    for job in jobs_a:
        assert job.digest == config_digest(job.config)


def test_compile_rejects_invalid_point_value():
    spec = CampaignSpec(
        name="bad", base=ScenarioConfig(n_nodes=16), axes=(("defense", ("prayer",)),)
    )
    with pytest.raises(CampaignError, match="invalid sweep point"):
        compile_campaign(spec)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def test_journal_roundtrip(tmp_path):
    spec = tiny_spec(runs=1)
    jobs = compile_campaign(spec)
    report = run_scenario(jobs[0].config)
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path) as journal:
        journal.begin(spec, total_jobs=len(jobs))
        journal.record(jobs[0], report)
    state = load_journal(path)
    assert state.spec_digest == spec.digest()
    assert state.total_jobs == len(jobs)
    assert len(state) == 1
    loaded = state.reports[jobs[0].digest]
    assert loaded.to_state() == report.to_state()


def test_journal_tolerates_truncated_final_line(tmp_path):
    spec = tiny_spec(runs=1)
    jobs = compile_campaign(spec)
    report = run_scenario(jobs[0].config)
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path) as journal:
        journal.begin(spec, total_jobs=len(jobs))
        journal.record(jobs[0], report)
    # Simulate a writer killed mid-append: chop the final line in half.
    text = path.read_text()
    path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
    state = load_journal(path, tolerate_partial=True)
    assert state.partial_lines == 1
    assert len(state) == 0
    with pytest.raises(CampaignError, match="corrupt"):
        load_journal(path, tolerate_partial=False)


def test_journal_rejects_midfile_corruption_and_bad_version(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text("garbage\n" + json.dumps({"event": "begin"}) + "\n")
    with pytest.raises(CampaignError, match="corrupt"):
        load_journal(path)
    path.write_text(json.dumps({"event": "begin", "version": 99}) + "\n")
    with pytest.raises(CampaignError, match="version"):
        load_journal(path)
    path.write_text(json.dumps({"event": "mystery"}) + "\n")
    with pytest.raises(CampaignError, match="unknown journal event"):
        load_journal(path)


# ----------------------------------------------------------------------
# Resume byte-identity (the acceptance criterion)
# ----------------------------------------------------------------------
class _RecordingWorker:
    """Picklable worker spy: appends each executed digest to a file (so it
    also observes jobs run inside process-pool workers)."""

    def __init__(self, log_path):
        self.log_path = str(log_path)

    def __call__(self, config):
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(config_digest(config) + "\n")
        return run_scenario(config)



@pytest.mark.parametrize("backend_name", ["inline", "process"])
def test_interrupted_campaign_resumes_byte_identical(tmp_path, backend_name):
    spec = tiny_spec(runs=2)

    baseline = run_campaign(
        spec, backend=make_backend(backend_name, jobs=2),
        journal=tmp_path / "full.jsonl",
    )
    assert baseline.complete and baseline.executed == 4

    # Interrupt after 3 of 4 jobs, then resume the rest.
    journal = tmp_path / "interrupted.jsonl"
    first = run_campaign(
        spec, backend=make_backend(backend_name, jobs=2),
        journal=journal, max_jobs=3,
    )
    assert not first.complete
    assert first.executed == 3
    assert first.aggregate is None
    journaled_before_resume = set(load_journal(journal).reports)
    assert len(journaled_before_resume) == 3

    call_log = tmp_path / "calls.log"
    resumed = CampaignRunner(
        spec, make_backend(backend_name, jobs=2),
        journal=journal, resume=True, worker=_RecordingWorker(call_log),
    ).run()
    calls = call_log.read_text().split()
    assert resumed.complete
    assert resumed.from_journal == 3
    assert resumed.executed == 1
    # Exactly the one unjournaled job ran; no completed job ran again.
    assert len(calls) == 1
    assert calls[0] not in journaled_before_resume

    a = json.dumps(baseline.aggregate, sort_keys=True)
    b = json.dumps(resumed.aggregate, sort_keys=True)
    assert a == b


def test_resume_with_complete_journal_runs_nothing(tmp_path):
    spec = tiny_spec(runs=1)
    journal = tmp_path / "j.jsonl"
    full = run_campaign(spec, journal=journal)
    assert full.complete

    def exploding_worker(config):
        raise AssertionError("no job should execute on a finished journal")

    replay = CampaignRunner(
        spec, journal=journal, resume=True, worker=exploding_worker
    ).run()
    assert replay.executed == 0
    assert replay.from_journal == replay.total_jobs
    assert json.dumps(replay.aggregate, sort_keys=True) == json.dumps(
        full.aggregate, sort_keys=True
    )


@pytest.mark.parametrize(
    "fsync, supervision",
    [
        (False, SupervisionPolicy(timeout=None, quarantine=False)),
        (True, SupervisionPolicy(timeout=300.0, quarantine=True)),
    ],
    ids=["bare", "supervised"],
)
def test_campaign_aggregate_matches_raw_loop(tmp_path, fsync, supervision):
    """The journaled campaign aggregates exactly what a bare
    ``run_scenario`` loop over the same jobs yields, whether or not the
    journal is fsynced and the workers supervised."""
    spec = tiny_spec()
    jobs = compile_campaign(spec)
    raw = {job.index: run_scenario(job.config) for job in jobs}
    result = run_campaign(
        spec, journal=tmp_path / "j.jsonl", fsync=fsync, supervision=supervision
    )
    assert result.executed == len(jobs)
    assert json.dumps(result.aggregate, sort_keys=True) == json.dumps(
        aggregate_campaign(spec, jobs, raw), sort_keys=True
    )


def test_resume_rejects_spec_mismatch(tmp_path):
    journal = tmp_path / "j.jsonl"
    run_campaign(tiny_spec(name="alpha"), journal=journal, max_jobs=1)
    with pytest.raises(CampaignError, match="different campaign spec"):
        run_campaign(tiny_spec(name="beta"), journal=journal, resume=True)


def test_resume_requires_journal_path():
    with pytest.raises(CampaignError, match="journal"):
        CampaignRunner(tiny_spec(), resume=True)


# ----------------------------------------------------------------------
# Options: declared once, on the runner
# ----------------------------------------------------------------------
def test_run_campaign_forwards_every_option_to_the_runner():
    assert list(inspect.signature(run_campaign).parameters) == ["spec", "options"]


@pytest.mark.parametrize("option", ["jurnal", "journal_path", "sleep"])
def test_unknown_option_raises_type_error_naming_it(tmp_path, option):
    with pytest.raises(TypeError, match=option):
        run_campaign(tiny_spec(runs=1), **{option: tmp_path / "j.jsonl"})
    with pytest.raises(TypeError, match=option):
        CampaignRunner(tiny_spec(runs=1), **{option: tmp_path / "j.jsonl"})


def test_runner_coerces_spec_backend_and_cache(tmp_path):
    spec = tiny_spec(runs=1)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "name": "tiny",
        "runs": 1,
        "base": {"n_nodes": 16, "duration": 30.0, "seed": 4, "attack_start": 10.0},
        "axes": {"n_malicious": [0, 2]},
    }))
    reference = CampaignRunner(
        spec, ProcessBackend(2), cache=ResultCache(tmp_path / "reference-cache")
    )
    coerced = [
        CampaignRunner(path, "process", jobs=2, cache=tmp_path / "path-cache"),
        CampaignRunner(
            json.loads(path.read_text()), backend="process", jobs=2,
            cache=str(tmp_path / "mapping-cache"),
        ),
    ]
    expected = reference.run().to_json()
    for runner in coerced:
        assert runner.spec == spec
        assert isinstance(runner.backend, ProcessBackend) and runner.backend.jobs == 2
        assert isinstance(runner.cache, ResultCache)
        assert runner.run().to_json() == expected
    assert any((tmp_path / "path-cache").rglob("*.json"))
    assert isinstance(CampaignRunner(spec).backend, InlineBackend)
    with pytest.raises(CampaignError, match="unknown backend"):
        CampaignRunner(spec, "quantum")


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
def test_make_backend_names():
    assert isinstance(make_backend("inline"), InlineBackend)
    assert isinstance(make_backend("process", jobs=2), ProcessBackend)
    with pytest.raises(CampaignError, match="unknown backend"):
        make_backend("quantum")


def test_cache_serves_second_campaign(tmp_path):
    spec = tiny_spec(runs=1)
    cache = ResultCache(tmp_path / "cache")
    cold = run_campaign(spec, cache=cache)
    warm = run_campaign(spec, cache=cache)
    assert cold.executed == warm.from_cache == cold.total_jobs
    assert warm.executed == 0
    assert json.dumps(cold.aggregate, sort_keys=True) == json.dumps(
        warm.aggregate, sort_keys=True
    )


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------
def test_retry_policy_validation_and_backoff():
    policy = RetryPolicy(retries=3, backoff=0.5, multiplier=2.0)
    assert policy.delay(1) == 0.5
    assert policy.delay(2) == 1.0
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=-0.1)


def test_flaky_worker_retried_to_success(tmp_path, monkeypatch):
    spec = tiny_spec(runs=1)
    failed_once = set()
    sleeps = []
    monkeypatch.setattr(campaign_module.time, "sleep", sleeps.append)

    def flaky(config):
        digest = config_digest(config)
        if digest not in failed_once:
            failed_once.add(digest)
            raise RuntimeError("transient crash")
        return run_scenario(config)

    progress = CampaignProgress(printer=lambda line: None)
    result = CampaignRunner(
        spec,
        worker=flaky,
        retry=RetryPolicy(retries=2, backoff=0.01),
        progress=progress,
    ).run()
    assert result.complete
    assert result.retried == result.total_jobs
    assert sleeps  # backoff was honoured (via the patched time.sleep)
    assert progress.retries == result.retried
    reference = run_campaign(spec)
    assert json.dumps(result.aggregate, sort_keys=True) == json.dumps(
        reference.aggregate, sort_keys=True
    )


def test_retry_exhaustion_raises_campaign_error():
    # With quarantine off, exhausting the retry budget is fatal (the
    # pre-supervision behaviour).
    spec = tiny_spec(runs=1)

    def always_fails(config):
        raise RuntimeError("hopeless")

    with pytest.raises(CampaignError, match="failed after"):
        CampaignRunner(
            spec,
            worker=always_fails,
            retry=RetryPolicy(retries=1, backoff=0.0),
            supervision=SupervisionPolicy(quarantine=False),
        ).run()


# ----------------------------------------------------------------------
# Progress + trace
# ----------------------------------------------------------------------
def test_progress_counters_and_trace_records(tmp_path):
    from repro.sim.trace import TraceLog

    spec = tiny_spec(runs=1)
    lines = []
    progress = CampaignProgress(printer=lines.append)
    trace = TraceLog()
    result = run_campaign(
        spec, journal=tmp_path / "j.jsonl", progress=progress, trace=trace
    )
    assert result.complete
    assert progress.total == result.total_jobs
    assert progress.executed == result.total_jobs
    assert lines  # at least one progress line rendered
    records = [r for r in trace if r.kind == "campaign_job"]
    assert len(records) == result.total_jobs
    assert all(r.fields["source"] == "run" for r in records)
