"""Tests for campaign worker supervision and crash consistency: per-job
timeouts, poison-job quarantine, graceful stop, torn journal writes, and
the acceptance proof that a campaign run under injected harness churn
resumes to byte-identical aggregates versus a fault-free run."""

import json
import multiprocessing
import time

import pytest

from repro.experiments.campaign import (
    CampaignError,
    CampaignJournal,
    CampaignRunner,
    CampaignSpec,
    RetryPolicy,
    SupervisionPolicy,
    load_journal,
    make_backend,
)
from repro.experiments.scenario import ScenarioConfig
from repro.faults.harness import (
    CorruptResult,
    HarnessFaultController,
    HarnessFaultPlan,
    SinkIOError,
    TornJournalWrite,
    WorkerCrash,
    WorkerHang,
    WorkerSlowdown,
)
from repro.metrics.collector import MetricsReport


def tiny_spec(name="supervised", runs=2):
    base = ScenarioConfig(n_nodes=16, duration=30.0, seed=4, attack_start=10.0)
    return CampaignSpec(
        name=name, base=base, axes=(("n_malicious", (0, 2)),), runs=runs
    )


class _FakeWorker:
    """Picklable instant worker: a deterministic report from the config.

    Supervision tests exercise scheduling, not simulation — a sub-ms
    worker keeps timeout windows (and therefore the suite) tight.
    """

    def __call__(self, config):
        return MetricsReport(
            duration=config.duration,
            originated=10 + config.seed % 7,
            delivered=8,
            wormhole_drops=config.n_malicious,
            routes_established=9,
            malicious_routes=config.n_malicious,
            drop_times=(1.0,),
            isolation_times={},
            first_activity={},
            detections=config.n_malicious,
            isolations=0,
        )


class _SlowWorker(_FakeWorker):
    """Sleeps ``seconds`` before answering (inline-timeout fodder)."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __call__(self, config):
        import time

        time.sleep(self.seconds)
        return super().__call__(config)


def _aggregate_json(result):
    return json.dumps(result.aggregate, sort_keys=True)


# ----------------------------------------------------------------------
# Policy + inline timeout semantics
# ----------------------------------------------------------------------
def test_supervision_policy_validation():
    with pytest.raises(ValueError, match="timeout"):
        SupervisionPolicy(timeout=0.0)
    with pytest.raises(ValueError, match="timeout"):
        SupervisionPolicy(timeout=-1.0)
    assert SupervisionPolicy().quarantine is True
    assert SupervisionPolicy().timeout is None


def test_inline_timeout_dead_letters_slow_jobs(tmp_path):
    spec = tiny_spec(runs=1)
    journal = tmp_path / "slow.jsonl"
    result = CampaignRunner(
        spec,
        worker=_SlowWorker(0.05),
        journal=journal,
        retry=RetryPolicy(retries=0, backoff=0.0),
        supervision=SupervisionPolicy(timeout=0.01),
    ).run()
    assert not result.complete
    assert result.timeouts == result.total_jobs
    assert result.dead_lettered == result.total_jobs
    state = load_journal(journal)
    assert len(state.dead_letters) == result.total_jobs
    for payload in state.dead_letters.values():
        assert "JobTimeoutError" in payload["error"]
        assert "timeout" in payload["error"]

    # Dead-lettered jobs are not "complete": a resume (without the
    # timeout) gives every one of them a fresh chance.
    resumed = CampaignRunner(
        spec, worker=_FakeWorker(), journal=journal, resume=True
    ).run()
    assert resumed.complete
    assert resumed.executed == result.total_jobs


def test_quarantine_off_raises_like_before(tmp_path):
    spec = tiny_spec(runs=1)
    with pytest.raises(CampaignError, match="failed after"):
        CampaignRunner(
            spec,
            worker=_SlowWorker(0.05),
            retry=RetryPolicy(retries=0, backoff=0.0),
            supervision=SupervisionPolicy(timeout=0.01, quarantine=False),
        ).run()


# ----------------------------------------------------------------------
# Poison quarantine keeps the campaign going
# ----------------------------------------------------------------------
class _PoisonWorker(_FakeWorker):
    """Raises ``error`` on every attempt at one specific job digest;
    instant otherwise."""

    def __init__(self, poison_digest, error=None):
        self.poison_digest = poison_digest
        self.error = error or RuntimeError("poison payload")

    def __call__(self, config):
        from repro.experiments.cache import config_digest

        if config_digest(config) == self.poison_digest:
            raise self.error
        return super().__call__(config)


def test_poison_job_is_quarantined_not_fatal(tmp_path):
    from repro.experiments.campaign import compile_campaign

    spec = tiny_spec(runs=2)
    jobs = compile_campaign(spec)
    journal = tmp_path / "poison.jsonl"
    result = CampaignRunner(
        spec,
        worker=_PoisonWorker(jobs[1].digest),
        journal=journal,
        retry=RetryPolicy(retries=1, backoff=0.0),
    ).run()
    # Every innocent job finished; exactly the poison one is quarantined.
    assert result.dead_lettered == 1
    assert result.executed == len(jobs) - 1
    assert not result.complete
    state = load_journal(journal)
    (payload,) = state.dead_letters.values()
    assert payload["digest"] == jobs[1].digest
    assert payload["attempts"] == 2  # first try + one retry
    assert "poison payload" in payload["error"]
    assert "RuntimeError" in payload["traceback"]

    # Resume with a healed worker completes, byte-identical to clean.
    clean = CampaignRunner(spec, worker=_FakeWorker()).run()
    resumed = CampaignRunner(
        spec, worker=_FakeWorker(), journal=journal, resume=True
    ).run()
    assert resumed.complete
    assert resumed.executed == 1
    assert _aggregate_json(resumed) == _aggregate_json(clean)


# ----------------------------------------------------------------------
# Graceful stop (the SIGINT path, minus the signal)
# ----------------------------------------------------------------------
def test_stop_flag_interrupts_with_journal_record(tmp_path):
    spec = tiny_spec(runs=2)
    journal = tmp_path / "stopped.jsonl"
    flag = {"stop": False}
    done = {"count": 0}

    class _CountingWorker(_FakeWorker):
        def __call__(self, config):
            done["count"] += 1
            if done["count"] >= 2:
                flag["stop"] = True
            return super().__call__(config)

    result = CampaignRunner(
        spec,
        worker=_CountingWorker(),
        journal=journal,
        stop=lambda: flag["stop"],
    ).run()
    assert result.interrupted == "signal"
    assert not result.complete
    assert 0 < result.executed < result.total_jobs
    state = load_journal(journal)
    assert state.interrupts == 1
    assert len(state.reports) == result.executed

    # The interrupt is clean: resume finishes and matches a clean run.
    clean = CampaignRunner(spec, worker=_FakeWorker()).run()
    resumed = CampaignRunner(
        spec, worker=_FakeWorker(), journal=journal, resume=True
    ).run()
    assert resumed.complete
    assert _aggregate_json(resumed) == _aggregate_json(clean)


# ----------------------------------------------------------------------
# Torn journal writes + tail self-repair
# ----------------------------------------------------------------------
def test_torn_write_interrupts_and_resume_is_byte_identical(tmp_path):
    spec = tiny_spec(runs=2)
    journal = tmp_path / "torn.jsonl"
    controller = HarnessFaultController(
        HarnessFaultPlan.of(TornJournalWrite(entry=1, fraction=0.4)),
        tmp_path / "fault-state",
    )
    result = CampaignRunner(
        spec,
        worker=_FakeWorker(),
        journal=journal,
        harness_faults=controller,
    ).run()
    assert result.interrupted == "torn_write"
    assert not result.complete
    # On disk: one full completion, then a torn (unterminated) line.
    raw = journal.read_bytes()
    assert not raw.endswith(b"\n")
    state = load_journal(journal, tolerate_partial=True)
    assert state.partial_lines == 1
    assert len(state.reports) == 1

    # Resume heals the tail (truncates the fragment), re-runs the torn
    # job, and lands on the clean-run aggregate byte for byte.
    clean = CampaignRunner(spec, worker=_FakeWorker()).run()
    resumed = CampaignRunner(
        spec,
        worker=_FakeWorker(),
        journal=journal,
        resume=True,
        harness_faults=controller,  # same state: the fault stays spent
    ).run()
    assert resumed.complete
    assert resumed.from_journal == 1
    assert resumed.executed == 3
    assert _aggregate_json(resumed) == _aggregate_json(clean)
    # The healed journal is fully parseable, no partial lines left.
    healed = load_journal(journal)
    assert healed.partial_lines == 0
    assert len(healed.reports) == 4


def test_journal_tail_self_repair_truncates_fragment(tmp_path):
    path = tmp_path / "frag.jsonl"
    path.write_text('{"event":"interrupt","reason":"x","completed":0}\n{"ev')
    journal = CampaignJournal(path)
    journal.interrupt(reason="signal", completed=0)
    journal.close()
    assert journal.repaired_tail_bytes == len('{"ev')
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        json.loads(line)  # every surviving line is whole


# ----------------------------------------------------------------------
# Corrupt result payloads
# ----------------------------------------------------------------------
def test_corrupt_result_is_caught_and_retried(tmp_path):
    spec = tiny_spec(runs=1)
    controller = HarnessFaultController(
        HarnessFaultPlan.of(CorruptResult(job=0)), tmp_path / "fault-state"
    )
    result = CampaignRunner(
        spec,
        worker=_FakeWorker(),
        retry=RetryPolicy(retries=1, backoff=0.0),
        harness_faults=controller,
    ).run()
    # The garbage payload never reached the aggregate: the job retried
    # (fault spent) and the campaign completed clean.
    assert result.complete
    assert result.retried == 1


def test_corrupt_result_never_reaches_journal(tmp_path):
    spec = tiny_spec(runs=1)
    journal = tmp_path / "corrupt.jsonl"
    controller = HarnessFaultController(
        HarnessFaultPlan.of(CorruptResult(job=0, times=5)),
        tmp_path / "fault-state",
    )
    result = CampaignRunner(
        spec,
        worker=_FakeWorker(),
        journal=journal,
        retry=RetryPolicy(retries=1, backoff=0.0),
        harness_faults=controller,
    ).run()
    # times=5 outlasts the retry budget: the job dead-letters instead of
    # a corrupt line ever landing in the journal.
    assert result.dead_lettered == 1
    state = load_journal(journal)
    (payload,) = state.dead_letters.values()
    assert "CorruptResultError" in payload["error"]
    for report in state.reports.values():
        assert isinstance(report, MetricsReport)


# ----------------------------------------------------------------------
# Process-backend supervision (real pools, real preemption)
# ----------------------------------------------------------------------
def test_process_hang_is_preempted_and_campaign_completes(tmp_path):
    spec = tiny_spec(runs=2)
    controller = HarnessFaultController(
        HarnessFaultPlan.of(WorkerHang(job=1, seconds=30.0)),
        tmp_path / "fault-state",
    )
    result = CampaignRunner(
        spec,
        make_backend("process", jobs=2),
        worker=_FakeWorker(),
        retry=RetryPolicy(retries=2, backoff=0.0),
        supervision=SupervisionPolicy(timeout=1.0),
        harness_faults=controller,
    ).run()
    assert result.complete
    assert result.timeouts >= 1
    assert result.retried >= 1


def test_process_hard_crash_is_dead_lettered_without_collateral(tmp_path):
    spec = tiny_spec(runs=2)
    journal = tmp_path / "hardcrash.jsonl"
    controller = HarnessFaultController(
        HarnessFaultPlan.of(WorkerCrash(job=0, hard=True, times=99)),
        tmp_path / "fault-state",
    )
    result = CampaignRunner(
        spec,
        make_backend("process", jobs=2),
        worker=_FakeWorker(),
        journal=journal,
        retry=RetryPolicy(retries=1, backoff=0.0),
        harness_faults=controller,
    ).run()
    # The poison job (killing its whole pool every attempt) is
    # quarantined; every innocent neighbour still completed.
    assert result.dead_lettered == 1
    assert result.executed == result.total_jobs - 1
    state = load_journal(journal)
    assert len(state.dead_letters) == 1
    assert len(state.reports) == result.total_jobs - 1


def test_process_timeout_charges_only_the_hung_job(tmp_path):
    # Job 2 starts on job 1's worker at 1.5 s and is still running when
    # job 0 passes its 2 s deadline: only job 0's worker is killed.
    spec = tiny_spec(runs=2)
    controller = HarnessFaultController(
        HarnessFaultPlan.of(
            WorkerHang(job=0),
            WorkerSlowdown(job=1, seconds=1.5),
            WorkerSlowdown(job=2, seconds=1.5),
        ),
        tmp_path / "fault-state",
    )
    result = CampaignRunner(
        spec,
        make_backend("process", jobs=2),
        worker=_FakeWorker(),
        retry=RetryPolicy(retries=2, backoff=0.0),
        supervision=SupervisionPolicy(timeout=2.0),
        harness_faults=controller,
    ).run()
    assert result.complete
    assert result.timeouts == 1
    assert result.retried == 1


def test_process_workers_never_outlive_run(tmp_path):
    spec = tiny_spec(runs=2)

    def run(name, worker, plan=(), **kwargs):
        return CampaignRunner(
            spec,
            make_backend("process", jobs=2),
            worker=worker,
            journal=tmp_path / f"{name}.jsonl",
            retry=RetryPolicy(retries=0, backoff=0.0),
            harness_faults=HarnessFaultController(
                HarnessFaultPlan.of(*plan), tmp_path / "fault-state"
            ),
            **kwargs,
        ).run()

    timed_out = run(
        "hang", _FakeWorker(), [WorkerHang(job=1)], supervision=SupervisionPolicy(timeout=0.5)
    )
    assert timed_out.timeouts == 1
    assert multiprocessing.active_children() == []

    crashed = run("crash", _FakeWorker(), [WorkerCrash(job=2, hard=True)])
    assert crashed.dead_lettered == 1
    (payload,) = load_journal(tmp_path / "crash.jsonl").dead_letters.values()
    assert "WorkerLostError: worker exited with code 23" in payload["error"]
    assert multiprocessing.active_children() == []

    # A stop ends the in-flight jobs instead of waiting for them.
    started = time.monotonic()
    stopped = run("stop", _SlowWorker(30.0), stop=lambda: time.monotonic() > started + 0.5)
    assert stopped.interrupted == "signal"
    assert stopped.executed == 0
    assert time.monotonic() - started < 10.0
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, message, extra):
        super().__init__(message)
        self.extra = extra


@pytest.mark.parametrize(
    "error, shown",
    [
        (RuntimeError("poison payload"), "RuntimeError: poison payload"),
        (_Unpicklable("odd payload", 1), "CampaignError: _Unpicklable: odd payload"),
    ],
    ids=["picklable", "stand-in"],
)
def test_process_dead_letter_keeps_worker_traceback(tmp_path, error, shown):
    from repro.experiments.campaign import compile_campaign

    spec = tiny_spec(runs=1)
    journal = tmp_path / "remote.jsonl"
    result = CampaignRunner(
        spec,
        make_backend("process", jobs=2),
        worker=_PoisonWorker(compile_campaign(spec)[0].digest, error),
        journal=journal,
        retry=RetryPolicy(retries=0, backoff=0.0),
    ).run()
    assert result.dead_lettered == 1
    (payload,) = load_journal(journal).dead_letters.values()
    assert payload["error"] == shown
    # The raise site exists only in the worker process.
    assert "in __call__\n    raise self.error" in payload["traceback"]


def test_acceptance_chaos_run_resumes_byte_identical(tmp_path):
    """ISSUE acceptance: >=1 worker crash, >=1 hang past the timeout,
    >=1 torn journal write — the campaign, resumed, must match a
    fault-free run byte for byte."""
    spec = tiny_spec(name="chaos-acceptance", runs=2)
    plan = HarnessFaultPlan.of(
        WorkerCrash(job=0),
        WorkerHang(job=1, seconds=30.0),
        TornJournalWrite(entry=2, fraction=0.5),
    )
    state_dir = tmp_path / "fault-state"
    journal = tmp_path / "chaos.jsonl"

    clean = CampaignRunner(spec, worker=_FakeWorker()).run()
    assert clean.complete

    first = CampaignRunner(
        spec,
        make_backend("process", jobs=2),
        worker=_FakeWorker(),
        journal=journal,
        retry=RetryPolicy(retries=2, backoff=0.0),
        supervision=SupervisionPolicy(timeout=1.0),
        harness_faults=HarnessFaultController(plan, state_dir),
    ).run()
    assert first.interrupted == "torn_write"
    assert not first.complete
    assert first.timeouts >= 1  # the hang was preempted

    resumed = CampaignRunner(
        spec,
        make_backend("process", jobs=2),
        worker=_FakeWorker(),
        journal=journal,
        resume=True,
        retry=RetryPolicy(retries=2, backoff=0.0),
        supervision=SupervisionPolicy(timeout=1.0),
        harness_faults=HarnessFaultController(plan, state_dir),
    ).run()
    assert resumed.complete
    assert resumed.from_journal >= 1
    assert _aggregate_json(resumed) == _aggregate_json(clean)


# ----------------------------------------------------------------------
# Trace sink degradation
# ----------------------------------------------------------------------
def test_sink_io_error_degrades_to_ring_buffer(tmp_path):
    from repro.obs.sinks import JsonlSink
    from repro.sim.trace import TraceLog

    controller = HarnessFaultController(
        HarnessFaultPlan.of(SinkIOError(write=1)), tmp_path / "fault-state"
    )
    log = TraceLog()
    sink = controller.wrap_sink(JsonlSink(tmp_path / "out.jsonl"))
    log.attach_sink(sink)
    log.emit(0.1, "mac_drop", node=1)
    with pytest.warns(RuntimeWarning, match="sink .* failed"):
        log.emit(0.2, "mac_drop", node=2)  # injected ENOSPC
    log.emit(0.3, "mac_drop", node=3)  # the run continues

    assert log.degraded_sinks == ["FaultySink"]
    assert log.sinks == ()  # the failed sink was detached
    assert log.capacity is not None  # unbounded store became a ring
    # All three records (plus the degradation marker) stayed queryable.
    assert log.count("mac_drop") == 3
    (marker,) = log.of_kind("sink_degraded")
    assert "ENOSPC" in marker["error"] or "injected" in marker["error"]
    # Stamped with the failed write's time, so the trace never runs backwards.
    assert marker.time == 0.2
    times = [record.time for record in log]
    assert times == sorted(times)


def test_sink_degradation_keeps_existing_capacity(tmp_path):
    from repro.sim.trace import TraceLog

    class _BrokenSink:
        def write(self, record):
            raise OSError(28, "No space left on device")

    log = TraceLog(capacity=8)
    log.attach_sink(_BrokenSink())
    with pytest.warns(RuntimeWarning):
        log.emit(0.1, "mac_drop", node=1)
    assert log.capacity == 8  # an explicit ring is left alone
    assert log.count("sink_degraded") == 1
