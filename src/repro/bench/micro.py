"""Microbenchmarks over the simulator's hot paths.

Four benchmarks, each a pure function returning a :class:`BenchResult`
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

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "params": self.params,
            "samples": self.samples,
            "metrics": self.metrics,
        }

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
    the full accelerated stack (C kernel and its channel medium, grid
    index) and once under :func:`repro.sim.accel.reference_mode` (the
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


BENCHMARKS: Dict[str, Callable[..., BenchResult]] = {
    "engine": bench_engine,
    "channel": bench_channel,
    "identity": bench_identity,
    "scale": bench_scale,
}


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = True,
    output_dir: Optional[Union[str, pathlib.Path]] = None,
) -> List[BenchResult]:
    """Run the selected benchmarks, write their JSON files, return results.

    Raises RuntimeError on correctness failures (as opposed to timing
    ones): a byte-identity mismatch between the accelerated and reference
    stacks, or a scale run blowing its wall-clock or memory budget.
    """
    selected = list(names) if names else list(BENCHMARKS)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmarks: {unknown}; available: {list(BENCHMARKS)}")
    results: List[BenchResult] = []
    for name in selected:
        result = BENCHMARKS[name](quick=quick)
        if output_dir is not None:
            result.write(output_dir)
        if result.metrics.get("byte_identical") is False:
            raise RuntimeError(
                f"{name} benchmark: accelerated and reference reports diverged"
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
