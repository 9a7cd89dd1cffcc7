"""Microbenchmarks over the simulator's hot paths.

Seven benchmarks, each a pure function returning a :class:`BenchResult`
that serialises to a ``BENCH_<name>.json`` trajectory file:

- ``engine`` — raw event dispatch throughput of the discrete-event
  kernel (a self-rescheduling callback chain).  One warmup round is
  discarded and the headline metric is the *median* of the timed
  rounds: scheduler jitter produced outliers when the best round was
  reported.
- ``channel`` — broadcast transmissions over a static 100-node field,
  exercising the memoized coverage/distance hot path end to end.
- ``identity`` — the byte-identity guarantee behind the engine
  rearchitecture: the figure-sweep scenario matrix (fig8/9/10 seeds)
  run on the accelerated stack and again under
  :func:`repro.sim.accel.reference_mode`, hard-failing unless every
  MetricsReport is byte-identical.
- ``scale`` — a 1000-node, multi-wormhole (4 colluders, fully
  connected tunnel mesh) scenario end to end, with a wall-clock
  budget and a peak-memory budget.  Quick mode runs the reduced
  300-node variant CI uses as a scale smoke test.
- ``sweep`` — the paper's replication structure: a density sweep at
  30 replications per point, run serial-cold, parallel-cold, and
  cache-warm through the campaign executor.  Verifies the three produce
  byte-identical reports and records the wall-clock speedups (the
  acceptance trajectory for the process backend and the result cache).
  Runs under a :class:`~repro.obs.spans.SpanProfiler`, so its JSON also
  carries the harness stage timings (build / run / collect / cache).
- ``trace`` — per-record ``TraceLog.emit`` cost with no sink attached,
  a :class:`MemorySink`, a :class:`JsonlSink`, and in bounded ring
  mode — the observability tax on the simulator's hottest call.
- ``campaign`` — the campaign orchestrator's tax over a raw scenario
  loop (journal appends, aggregation, progress accounting), the replay
  speed of a journal-only resume, and the marginal cost of worker
  supervision plus durable (fsync) journal writes over an unsupervised
  no-fsync run.

Timing numbers are environment-dependent by nature; correctness flags
(``byte_identical``) are not.  CI runs the suite in quick mode and only
fails on crash or a determinism violation, never on timing.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import replication_configs, run_sweep
from repro.experiments.scenario import ScenarioConfig
from repro.net.channel import Channel
from repro.net.packet import DataPacket, Frame
from repro.net.radio import UnitDiskRadio
from repro.sim import accel
from repro.sim.engine import make_simulator
from repro.sim.rng import RngRegistry


@dataclass
class BenchResult:
    """One benchmark's parameters, per-step trajectory, and summary."""

    name: str
    params: Dict[str, object]
    samples: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    spans: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "params": self.params,
            "samples": self.samples,
            "metrics": self.metrics,
        }
        if self.spans:
            payload["spans"] = self.spans
        return payload

    def write(self, output_dir: Union[str, pathlib.Path]) -> pathlib.Path:
        """Persist as ``BENCH_<name>.json`` under ``output_dir``."""
        output_dir = pathlib.Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        path = output_dir / f"BENCH_{self.name}.json"
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def summary(self) -> str:
        """One human line per headline metric."""
        parts = ", ".join(
            f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in sorted(self.metrics.items())
        )
        return f"{self.name}: {parts}"


# ----------------------------------------------------------------------
# Kernel: event dispatch throughput
# ----------------------------------------------------------------------
def bench_engine(quick: bool = True) -> BenchResult:
    """Events/second through the kernel's dispatch loop.

    One untimed warmup round (allocator and code caches settle) followed
    by five timed rounds; the headline metric is the **median** rate, so
    a single scheduler hiccup cannot skew the committed number the way
    the old best-of-3 did (the seed file carried a 361k/s outlier round
    next to a 703k/s best).
    """
    total_events = 50_000 if quick else 500_000
    rounds = 5

    def one_round() -> float:
        sim = make_simulator()
        remaining = [total_events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        started = time.perf_counter()
        sim.run()
        return time.perf_counter() - started

    one_round()  # warmup, discarded
    samples: List[Dict[str, object]] = []
    for round_index in range(rounds):
        elapsed = one_round()
        samples.append(
            {
                "round": round_index,
                "events": total_events,
                "seconds": elapsed,
                "events_per_second": total_events / elapsed,
            }
        )
    rates = [sample["events_per_second"] for sample in samples]
    return BenchResult(
        name="engine",
        params={
            "events": total_events,
            "rounds": rounds,
            "warmup_rounds": 1,
            "quick": quick,
            "kernel": type(make_simulator()).__module__,
        },
        samples=samples,
        metrics={
            "median_events_per_second": statistics.median(rates),
            "best_events_per_second": max(rates),
        },
    )


# ----------------------------------------------------------------------
# Channel: broadcast hot path
# ----------------------------------------------------------------------
def bench_channel(quick: bool = True) -> BenchResult:
    """Transmissions/second over a static field (reception fan-out included)."""
    n_nodes = 100
    transmissions = 2_000 if quick else 20_000
    side = 10  # 10x10 grid, 15 m pitch -> ~8 neighbors at r=30
    positions = {
        node: (15.0 * (node % side), 15.0 * (node // side)) for node in range(n_nodes)
    }
    rounds = 5

    def one_round(round_index: int) -> Dict[str, object]:
        sim = make_simulator()
        radio = UnitDiskRadio(positions, default_range=30.0)
        channel = Channel(sim, radio, RngRegistry(round_index))
        sink_counts = [0]

        def sink(_frame: Frame) -> None:
            sink_counts[0] += 1

        for node in positions:
            channel.attach(node, sink)
        frame_duration = channel.duration_of(
            Frame(packet=DataPacket(origin=0, destination=1, payload_size=64),
                  transmitter=0)
        )
        started = time.perf_counter()
        for index in range(transmissions):
            sender = index % n_nodes
            packet = DataPacket(origin=sender, destination=(sender + 1) % n_nodes,
                                payload_size=64)
            # Space transmissions out so they deliver rather than collide:
            # the delivery path (not the collision path) is the common case.
            channel.transmit(sender, Frame(packet=packet, transmitter=sender))
            sim.run(until=sim.now + 2 * frame_duration)
        elapsed = time.perf_counter() - started
        return {
            "round": round_index,
            "transmissions": transmissions,
            "receptions": sink_counts[0],
            "seconds": elapsed,
            "tx_per_second": transmissions / elapsed,
        }

    one_round(-1)  # warmup, discarded
    samples = [one_round(round_index) for round_index in range(rounds)]
    rates = [sample["tx_per_second"] for sample in samples]
    return BenchResult(
        name="channel",
        params={"n_nodes": n_nodes, "transmissions": transmissions,
                "rounds": rounds, "warmup_rounds": 1, "quick": quick},
        samples=samples,
        metrics={
            "median_tx_per_second": statistics.median(rates),
            "best_tx_per_second": max(rates),
        },
    )


# ----------------------------------------------------------------------
# Identity: accelerated stack == reference stack, byte for byte
# ----------------------------------------------------------------------
def _identity_configs(quick: bool) -> Dict[str, ScenarioConfig]:
    """The figure-sweep seeds the byte-identity guarantee is proven on."""
    from dataclasses import replace

    duration = 60.0 if quick else 120.0
    fig10_duration = 55.0 if quick else 110.0
    fig8 = ScenarioConfig(
        n_nodes=30, duration=duration, seed=4, attack_start=40.0, n_malicious=2
    )
    fig9 = ScenarioConfig(
        n_nodes=30, duration=duration, seed=7, attack_start=40.0, n_malicious=4
    )
    fig10 = ScenarioConfig(
        n_nodes=40,
        avg_neighbors=15.0,
        duration=fig10_duration,
        seed=11,
        attack_start=40.0,
        n_malicious=2,
    )
    return {
        "fig8": fig8,
        "fig9_m4": fig9,
        "fig10_theta3": replace(fig10, liteworp=replace(fig10.liteworp, theta=3)),
    }


def bench_identity(quick: bool = True) -> BenchResult:
    """Byte-identity of MetricsReports: accelerated vs reference stack.

    Every figure-sweep seed scenario runs twice in this process — once on
    the full accelerated stack (C kernel, grid index, batched delivery,
    pooling) and once under :func:`repro.sim.accel.reference_mode` (the
    seed engine's exact code paths).  The canonical JSON of the two
    reports must match byte for byte; ``run_benchmarks`` turns any
    mismatch into a hard failure.  The recorded per-scenario timings are
    the honest end-to-end speedup of the rearchitecture.
    """
    from repro.experiments.scenario import run_scenario

    samples: List[Dict[str, object]] = []
    identical = True
    for label, config in _identity_configs(quick).items():
        accel_started = time.perf_counter()
        accel_report = run_scenario(config)
        accel_seconds = time.perf_counter() - accel_started
        with accel.reference_mode():
            ref_started = time.perf_counter()
            ref_report = run_scenario(config)
            ref_seconds = time.perf_counter() - ref_started
        matches = json.dumps(accel_report.to_state(), sort_keys=True) == json.dumps(
            ref_report.to_state(), sort_keys=True
        )
        identical = identical and matches
        samples.append(
            {
                "scenario": label,
                "n_nodes": config.n_nodes,
                "seed": config.seed,
                "accel_seconds": accel_seconds,
                "reference_seconds": ref_seconds,
                "speedup": ref_seconds / accel_seconds if accel_seconds else 0.0,
                "byte_identical": matches,
            }
        )
    return BenchResult(
        name="identity",
        params={"quick": quick, "scenarios": len(samples),
                "kernel": type(make_simulator()).__module__},
        samples=samples,
        metrics={
            "byte_identical": identical,
            "median_speedup": statistics.median(
                sample["speedup"] for sample in samples
            ),
        },
    )


# ----------------------------------------------------------------------
# Scale: 1000-node multi-wormhole under wall-clock and memory budgets
# ----------------------------------------------------------------------
def bench_scale(quick: bool = True) -> BenchResult:
    """A large multi-wormhole campaign scenario, end to end, on a budget.

    Full mode is the committed acceptance point: 1000 nodes, four
    colluders forming a fully connected out-of-band tunnel mesh (a
    multi-ended wormhole), 60 simulated seconds, budget 300 s of wall
    clock.  Quick mode is the reduced 300-node variant CI runs as a
    scale smoke test with a 240 s budget.  Density is N_B = 12 (the
    paper's N_B = 8 almost never yields a *connected* 1000-node uniform
    draw, and the defense analysis assumes a connected graph).

    The process's peak resident set (``ru_maxrss``, which Linux reports
    in KiB) is held to a memory budget too: about 1.3x the peak measured
    on a shared 2-core x86 container (198 MiB quick, 684 MiB full).
    """
    import resource

    from repro.experiments.scenario import run_scenario

    n_nodes = 300 if quick else 1000
    budget_seconds = 240.0 if quick else 300.0
    memory_budget_mb = 256.0 if quick else 900.0
    config = ScenarioConfig(
        n_nodes=n_nodes,
        avg_neighbors=12.0,
        duration=60.0,
        seed=4,
        attack_start=20.0,
        n_malicious=4,
    )
    started = time.perf_counter()
    report = run_scenario(config)
    elapsed = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    state = report.to_state()
    return BenchResult(
        name="scale",
        params={
            "quick": quick,
            "n_nodes": n_nodes,
            "n_malicious": config.n_malicious,
            "avg_neighbors": config.avg_neighbors,
            "duration": config.duration,
            "seed": config.seed,
            "budget_seconds": budget_seconds,
            "memory_budget_mb": memory_budget_mb,
            "kernel": type(make_simulator()).__module__,
        },
        samples=[
            {
                "n_nodes": n_nodes,
                "seconds": elapsed,
                "sim_seconds_per_wall_second": config.duration / elapsed,
            }
        ],
        metrics={
            "wall_seconds": elapsed,
            "within_budget": elapsed <= budget_seconds,
            "peak_rss_mb": peak_rss_mb,
            "within_memory_budget": peak_rss_mb <= memory_budget_mb,
            "detections": state.get("detections", 0),
            "isolations": state.get("isolations", 0),
        },
    )


# ----------------------------------------------------------------------
# Sweep: replication parallelism + result cache
# ----------------------------------------------------------------------
def _sweep_configs(quick: bool, runs: int) -> List[ScenarioConfig]:
    """The density-sweep work list: ``runs`` replications per point."""
    if quick:
        settings = ((16, 8.0), (20, 8.0))
        duration = 40.0
    else:
        settings = ((20, 8.0), (30, 8.0), (40, 8.0))
        duration = 60.0
    configs: List[ScenarioConfig] = []
    for n_nodes, avg_neighbors in settings:
        point = ScenarioConfig(
            n_nodes=n_nodes,
            avg_neighbors=avg_neighbors,
            duration=duration,
            seed=4,
            attack_start=20.0,
        )
        configs.extend(replication_configs(point, runs))
    return configs


def bench_sweep(
    quick: bool = True,
    jobs: Optional[int] = None,
    runs: Optional[int] = None,
) -> BenchResult:
    """Serial vs parallel vs cache-warm wall clock on a density sweep.

    Three passes over the identical work list, each through the
    campaign executor (:func:`~repro.experiments.campaign.run_sweep`):

    1. **serial-cold** — inline backend, no cache, each replication
       timed individually (the trajectory samples);
    2. **parallel-cold** — process backend with ``jobs`` workers
       (default 2) writing an empty result cache;
    3. **warm** — every point served from that cache.

    All three must produce byte-identical reports (``byte_identical``);
    the recorded speedups are relative to the serial-cold pass.
    """
    import tempfile

    from repro.obs.spans import SpanProfiler, activate

    runs = runs if runs is not None else (3 if quick else 30)
    jobs = jobs if jobs is not None else 2
    configs = _sweep_configs(quick, runs)
    profiler = SpanProfiler()

    samples: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_root, \
            activate(profiler):
        serial_reports = []
        serial_started = time.perf_counter()
        for index, config in enumerate(configs):
            run_started = time.perf_counter()
            serial_reports.extend(run_sweep([config]).reports)
            samples.append(
                {
                    "phase": "serial",
                    "index": index,
                    "n_nodes": config.n_nodes,
                    "seed": config.seed,
                    "seconds": time.perf_counter() - run_started,
                }
            )
        serial_seconds = time.perf_counter() - serial_started

        parallel_started = time.perf_counter()
        parallel_reports = run_sweep(
            configs, jobs=jobs, cache=ResultCache(cache_root)
        ).reports
        parallel_seconds = time.perf_counter() - parallel_started
        samples.append({"phase": "parallel", "jobs": jobs, "seconds": parallel_seconds})

        warm_started = time.perf_counter()
        warm = run_sweep(configs, cache=ResultCache(cache_root))
        warm_seconds = time.perf_counter() - warm_started
        warm_reports = warm.reports
        samples.append(
            {"phase": "warm", "cache_hits": warm.from_cache, "seconds": warm_seconds}
        )

    canonical = [json.dumps(r.to_state(), sort_keys=True) for r in serial_reports]
    byte_identical = (
        canonical == [json.dumps(r.to_state(), sort_keys=True) for r in parallel_reports]
        and canonical == [json.dumps(r.to_state(), sort_keys=True) for r in warm_reports]
    )
    return BenchResult(
        name="sweep",
        params={
            "quick": quick,
            "runs_per_point": runs,
            "points": len(configs) // runs,
            "total_replications": len(configs),
            "jobs": jobs,
        },
        samples=samples,
        metrics={
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "warm_seconds": warm_seconds,
            "speedup_parallel": serial_seconds / parallel_seconds,
            "speedup_cached": serial_seconds / warm_seconds,
            "byte_identical": byte_identical,
        },
        spans=profiler.flat(),
    )


# ----------------------------------------------------------------------
# Trace: per-record emit overhead across sink configurations
# ----------------------------------------------------------------------
def bench_trace(quick: bool = True) -> BenchResult:
    """Nanoseconds per ``TraceLog.emit`` with each sink configuration.

    The emit call sits on the simulator's hottest paths (every frame,
    every monitor event), so the observability subsystem's whole cost
    story reduces to this number.  Four configurations:

    - ``no_sink`` — the baseline everyone pays: append to the resident
      list only;
    - ``memory_sink`` — plus one in-process subscriber-style sink;
    - ``jsonl_sink`` — plus JSON serialisation and a line-buffered file
      append (the export path);
    - ``ring`` — bounded residency (``capacity=512``), the long-run
      memory-safety mode.

    Overhead ratios are best-round times relative to ``no_sink``.
    """
    import tempfile

    from repro.obs.sinks import JsonlSink, MemorySink
    from repro.sim.trace import TraceLog

    emits = 20_000 if quick else 200_000
    rounds = 3

    def run_config(label: str, make: Callable[[pathlib.Path], TraceLog]) -> float:
        """Best-of-rounds seconds for one configuration; records samples."""
        best = None
        for round_index in range(rounds):
            with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as temp:
                trace = make(pathlib.Path(temp))
                started = time.perf_counter()
                for index in range(emits):
                    trace.emit(
                        float(index), "malicious_drop", node=7, packet=index
                    )
                elapsed = time.perf_counter() - started
                trace.close_sinks()
            samples.append(
                {
                    "config": label,
                    "round": round_index,
                    "emits": emits,
                    "seconds": elapsed,
                    "ns_per_emit": 1e9 * elapsed / emits,
                }
            )
            if best is None or elapsed < best:
                best = elapsed
        return best if best is not None else 0.0

    samples: List[Dict[str, object]] = []

    def plain(_temp: pathlib.Path) -> TraceLog:
        return TraceLog()

    def with_memory(_temp: pathlib.Path) -> TraceLog:
        trace = TraceLog()
        trace.attach_sink(MemorySink())
        return trace

    def with_jsonl(temp: pathlib.Path) -> TraceLog:
        trace = TraceLog()
        trace.attach_sink(JsonlSink(temp / "trace.jsonl"))
        return trace

    def with_ring(_temp: pathlib.Path) -> TraceLog:
        return TraceLog(capacity=512)

    timings = {
        "no_sink": run_config("no_sink", plain),
        "memory_sink": run_config("memory_sink", with_memory),
        "jsonl_sink": run_config("jsonl_sink", with_jsonl),
        "ring": run_config("ring", with_ring),
    }
    base = timings["no_sink"]
    metrics: Dict[str, object] = {
        f"{label}_ns_per_emit": 1e9 * seconds / emits
        for label, seconds in timings.items()
    }
    for label in ("memory_sink", "jsonl_sink", "ring"):
        metrics[f"{label}_overhead"] = timings[label] / base if base else 0.0
    return BenchResult(
        name="trace",
        params={"emits": emits, "rounds": rounds, "quick": quick},
        samples=samples,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# Campaign: orchestration + journal overhead over a raw loop
# ----------------------------------------------------------------------
def bench_campaign(quick: bool = True) -> BenchResult:
    """Campaign harness tax: journaled campaign vs a raw scenario loop.

    Runs the same job grid five ways over identical configs:

    1. **raw** — a bare ``run_scenario`` loop, no journal, no aggregate
       (the floor every campaign feature is priced against);
    2. **campaign-cold** — the inline backend with a JSONL journal,
       progress accounting, and aggregation;
    3. **campaign-resume** — a second run over the finished journal:
       every job replayed from disk, zero simulations;
    4. **unsupervised** — journal without fsync, no per-job timeout,
       quarantine off (the pre-supervision execution profile);
    5. **supervised** — durable fsync journal, a generous per-job
       wall-clock timeout, and quarantine on (the default profile).

    The gap between 4 and 5, per job, is ``supervision_overhead_per_job_ms``
    — what crash consistency and worker supervision cost when nothing
    goes wrong.

    Correctness flag: the resumed, unsupervised, and supervised
    aggregates must all be byte-identical to the cold one, and the cold
    aggregate must equal the one recomputed from the raw loop's reports
    (``byte_identical``).
    """
    import tempfile

    from repro.experiments.campaign import (
        CampaignSpec,
        SupervisionPolicy,
        aggregate_campaign,
        compile_campaign,
        run_campaign,
    )
    from repro.experiments.scenario import run_scenario

    runs = 2 if quick else 5
    nodes = (16, 20) if quick else (16, 20, 24)
    spec = CampaignSpec(
        name="bench",
        base=ScenarioConfig(n_nodes=16, duration=30.0, seed=4, attack_start=10.0),
        axes=(("n_nodes", tuple(nodes)),),
        runs=runs,
    )
    jobs = compile_campaign(spec)

    samples: List[Dict[str, object]] = []
    raw_started = time.perf_counter()
    raw_reports: Dict[int, object] = {}
    for job in jobs:
        job_started = time.perf_counter()
        raw_reports[job.index] = run_scenario(job.config)
        samples.append(
            {
                "phase": "raw",
                "index": job.index,
                "n_nodes": job.config.n_nodes,
                "seed": job.config.seed,
                "seconds": time.perf_counter() - job_started,
            }
        )
    raw_seconds = time.perf_counter() - raw_started

    with tempfile.TemporaryDirectory(prefix="repro-bench-campaign-") as temp:
        journal = pathlib.Path(temp) / "bench.journal.jsonl"
        cold_started = time.perf_counter()
        cold = run_campaign(spec, journal=journal)
        cold_seconds = time.perf_counter() - cold_started
        samples.append(
            {"phase": "campaign_cold", "executed": cold.executed,
             "seconds": cold_seconds}
        )
        resume_started = time.perf_counter()
        resumed = run_campaign(spec, journal=journal, resume=True)
        resume_seconds = time.perf_counter() - resume_started
        samples.append(
            {"phase": "campaign_resume", "from_journal": resumed.from_journal,
             "seconds": resume_seconds}
        )

        bare_journal = pathlib.Path(temp) / "bench.bare.jsonl"
        bare_started = time.perf_counter()
        bare = run_campaign(
            spec,
            journal=bare_journal,
            fsync=False,
            supervision=SupervisionPolicy(timeout=None, quarantine=False),
        )
        bare_seconds = time.perf_counter() - bare_started
        samples.append(
            {"phase": "campaign_unsupervised", "executed": bare.executed,
             "seconds": bare_seconds}
        )

        guarded_journal = pathlib.Path(temp) / "bench.guarded.jsonl"
        guarded_started = time.perf_counter()
        guarded = run_campaign(
            spec,
            journal=guarded_journal,
            fsync=True,
            supervision=SupervisionPolicy(timeout=300.0, quarantine=True),
        )
        guarded_seconds = time.perf_counter() - guarded_started
        samples.append(
            {"phase": "campaign_supervised", "executed": guarded.executed,
             "seconds": guarded_seconds}
        )

    raw_aggregate = aggregate_campaign(spec, jobs, raw_reports)
    cold_canonical = json.dumps(cold.aggregate, sort_keys=True)
    byte_identical = (
        resumed.executed == 0
        and cold_canonical == json.dumps(resumed.aggregate, sort_keys=True)
        and cold_canonical == json.dumps(raw_aggregate, sort_keys=True)
        and cold_canonical == json.dumps(bare.aggregate, sort_keys=True)
        and cold_canonical == json.dumps(guarded.aggregate, sort_keys=True)
    )
    return BenchResult(
        name="campaign",
        params={"quick": quick, "jobs": len(jobs), "runs_per_point": runs,
                "points": len(nodes)},
        samples=samples,
        metrics={
            "raw_seconds": raw_seconds,
            "campaign_seconds": cold_seconds,
            "resume_seconds": resume_seconds,
            "unsupervised_seconds": bare_seconds,
            "supervised_seconds": guarded_seconds,
            "overhead_per_job_ms": 1e3 * (cold_seconds - raw_seconds) / len(jobs),
            "supervision_overhead_per_job_ms": (
                1e3 * (guarded_seconds - bare_seconds) / len(jobs)
            ),
            "byte_identical": byte_identical,
        },
    )


BENCHMARKS: Dict[str, Callable[..., BenchResult]] = {
    "engine": bench_engine,
    "channel": bench_channel,
    "identity": bench_identity,
    "scale": bench_scale,
    "sweep": bench_sweep,
    "trace": bench_trace,
    "campaign": bench_campaign,
}


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = True,
    jobs: Optional[int] = None,
    output_dir: Optional[Union[str, pathlib.Path]] = None,
) -> List[BenchResult]:
    """Run the selected benchmarks, write their JSON files, return results.

    Raises RuntimeError on correctness failures (as opposed to timing
    ones): a determinism violation in the sweep or campaign benchmark, a
    byte-identity mismatch between the accelerated and reference stacks,
    or a scale run blowing its wall-clock or memory budget.
    """
    selected = list(names) if names else list(BENCHMARKS)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmarks: {unknown}; available: {list(BENCHMARKS)}")
    results: List[BenchResult] = []
    for name in selected:
        if name == "sweep":
            result = BENCHMARKS[name](quick=quick, jobs=jobs)
        else:
            result = BENCHMARKS[name](quick=quick)
        if output_dir is not None:
            result.write(output_dir)
        if result.metrics.get("byte_identical") is False:
            raise RuntimeError(
                f"{name} benchmark: reports diverged across execution modes"
            )
        if result.metrics.get("within_budget") is False:
            raise RuntimeError(
                f"{name} benchmark: exceeded its wall-clock budget "
                f"({result.metrics.get('wall_seconds'):.1f}s > "
                f"{result.params.get('budget_seconds')}s)"
            )
        if result.metrics.get("within_memory_budget") is False:
            raise RuntimeError(
                f"{name} benchmark: exceeded its memory budget "
                f"({result.metrics.get('peak_rss_mb'):.1f} MiB > "
                f"{result.params.get('memory_budget_mb')} MiB)"
            )
        results.append(result)
    return results
