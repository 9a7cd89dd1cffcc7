"""Figure and table regenerators (paper section 6).

Each ``run_figN`` function executes the simulation sweep behind the
corresponding figure and returns a structured result whose ``rows()`` /
``format()`` methods print the same series the paper plots.  Defaults are
scaled down from the paper (duration and replication count) so the
benchmark suite completes in minutes; pass ``duration=2000, runs=30`` for
full paper fidelity.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.analysis.coverage import CoverageParams, detection_vs_theta
from repro.experiments.cache import ResultCache
from repro.experiments.campaign import replication_configs, run_sweep
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.collector import MetricsReport
from repro.obs.config import ObsConfig
from repro.obs.spans import span


def _mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return statistics.fmean(values)


def _sweep_reports(
    point_configs: Dict[Hashable, ScenarioConfig],
    runs: int,
    jobs: Optional[int],
    cache: Optional[ResultCache],
) -> Dict[Hashable, List[MetricsReport]]:
    """Replication reports for every sweep point, keyed like the input.

    All points' replications are flattened into one campaign job list so
    a process backend keeps every worker busy across the whole figure,
    not just within one parameter point.
    """
    flat: List[ScenarioConfig] = []
    for config in point_configs.values():
        flat.extend(replication_configs(config, runs))
    with span("figure.sweep"):
        reports = run_sweep(flat, jobs=jobs, cache=cache).reports
    grouped: Dict[Hashable, List[MetricsReport]] = {}
    for offset, key in enumerate(point_configs):
        grouped[key] = reports[offset * runs:(offset + 1) * runs]
    return grouped


# ----------------------------------------------------------------------
# Figure 8 — cumulative dropped packets over time
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    """Cumulative wormhole-dropped packets vs. time, per configuration."""

    times: Tuple[float, ...]
    series: Dict[Tuple[int, bool], Tuple[float, ...]]  # (M, liteworp) -> counts

    def format(self) -> str:
        """Human-readable table of the four curves."""
        lines = ["time     " + "".join(
            f"M={m} {'LW' if lw else 'base':4s}  " for (m, lw) in sorted(self.series)
        )]
        for i, t in enumerate(self.times):
            row = f"{t:7.1f}  "
            for key in sorted(self.series):
                row += f"{self.series[key][i]:9.1f}  "
            lines.append(row)
        return "\n".join(lines)


def run_fig8(
    base: Optional[ScenarioConfig] = None,
    malicious_counts: Sequence[int] = (2, 4),
    runs: int = 2,
    sample_interval: float = 25.0,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    obs: Optional["ObsConfig"] = None,
) -> Fig8Result:
    """Figure 8: cumulative dropped packets with and without LITEWORP."""
    config = base if base is not None else ScenarioConfig(n_nodes=100, duration=300.0)
    if obs is not None:
        config = replace(config, obs=obs)
    times = tuple(
        config.attack_start * 0 + t
        for t in _sample_times(config.duration, sample_interval)
    )
    point_configs: Dict[Hashable, ScenarioConfig] = {
        (m, liteworp): replace(
            config, n_malicious=m, defense="liteworp" if liteworp else "none"
        )
        for m in malicious_counts
        for liteworp in (False, True)
    }
    grouped = _sweep_reports(point_configs, runs, jobs, cache)
    series: Dict[Tuple[int, bool], Tuple[float, ...]] = {}
    for key, reports in grouped.items():
        stacked = [report.drop_series(times) for report in reports]
        series[key] = tuple(
            _mean(run[i] for run in stacked) for i in range(len(times))
        )
    return Fig8Result(times=times, series=series)


def _sample_times(duration: float, interval: float) -> List[float]:
    times = []
    t = interval
    while t <= duration:
        times.append(t)
        t += interval
    if not times or times[-1] < duration:
        times.append(duration)
    return times


# ----------------------------------------------------------------------
# Figure 9 — fractions vs. number of compromised nodes
# ----------------------------------------------------------------------
@dataclass
class Fig9Result:
    """Dropped-packet and malicious-route fractions vs. M."""

    malicious_counts: Tuple[int, ...]
    fraction_dropped: Dict[Tuple[int, bool], float]
    fraction_malicious_routes: Dict[Tuple[int, bool], float]

    def rows(self) -> List[Tuple[int, float, float, float, float]]:
        """(M, dropped_base, mal_routes_base, dropped_lw, mal_routes_lw)."""
        out = []
        for m in self.malicious_counts:
            out.append(
                (
                    m,
                    self.fraction_dropped[(m, False)],
                    self.fraction_malicious_routes[(m, False)],
                    self.fraction_dropped[(m, True)],
                    self.fraction_malicious_routes[(m, True)],
                )
            )
        return out

    def format(self) -> str:
        lines = ["M   drop(base)  malroutes(base)  drop(LW)  malroutes(LW)"]
        for m, db, rb, dl, rl in self.rows():
            lines.append(f"{m}   {db:10.4f}  {rb:15.4f}  {dl:8.4f}  {rl:13.4f}")
        return "\n".join(lines)


def run_fig9(
    base: Optional[ScenarioConfig] = None,
    malicious_counts: Sequence[int] = (0, 1, 2, 3, 4),
    runs: int = 2,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    obs: Optional["ObsConfig"] = None,
) -> Fig9Result:
    """Figure 9: snapshot fractions for M = 0..4, with/without LITEWORP."""
    config = base if base is not None else ScenarioConfig(n_nodes=100, duration=300.0)
    if obs is not None:
        config = replace(config, obs=obs)
    point_configs: Dict[Hashable, ScenarioConfig] = {}
    for m in malicious_counts:
        for liteworp in (False, True):
            mode = config.attack_mode if m >= 2 or config.attack_mode == "none" else "none"
            effective_m = m if mode != "none" else 0
            if m == 1 and config.attack_mode in ("outofband", "encapsulation"):
                # One colluder cannot form a tunnel: equivalent to no attack.
                mode, effective_m = "none", 0
            point_configs[(m, liteworp)] = replace(
                config,
                n_malicious=effective_m,
                attack_mode=mode,
                defense="liteworp" if liteworp else "none",
            )
    grouped = _sweep_reports(point_configs, runs, jobs, cache)
    dropped: Dict[Tuple[int, bool], float] = {}
    mal_routes: Dict[Tuple[int, bool], float] = {}
    for key, reports in grouped.items():
        dropped[key] = _mean(r.fraction_wormhole_dropped for r in reports)
        mal_routes[key] = _mean(r.fraction_malicious_routes for r in reports)
    return Fig9Result(
        malicious_counts=tuple(malicious_counts),
        fraction_dropped=dropped,
        fraction_malicious_routes=mal_routes,
    )


# ----------------------------------------------------------------------
# Figure 10 — detection probability and isolation latency vs. theta
# ----------------------------------------------------------------------
@dataclass
class Fig10Result:
    """Detection probability (simulated + analytical) and isolation latency
    as the detection confidence index θ varies."""

    thetas: Tuple[int, ...]
    sim_detection: Dict[int, float]
    sim_latency: Dict[int, Optional[float]]
    analytical_detection: Dict[int, float] = field(default_factory=dict)

    def rows(self) -> List[Tuple[int, float, float, Optional[float]]]:
        """(θ, P_detect sim, P_detect analytical, isolation latency)."""
        return [
            (
                theta,
                self.sim_detection[theta],
                self.analytical_detection.get(theta, float("nan")),
                self.sim_latency[theta],
            )
            for theta in self.thetas
        ]

    def format(self) -> str:
        lines = ["theta  P(det) sim  P(det) ana  isolation latency (s)"]
        for theta, sim_p, ana_p, latency in self.rows():
            latency_text = f"{latency:8.2f}" if latency is not None else "     n/a"
            lines.append(f"{theta:5d}  {sim_p:10.3f}  {ana_p:10.3f}  {latency_text}")
        return "\n".join(lines)


def run_fig10(
    base: Optional[ScenarioConfig] = None,
    thetas: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    runs: int = 3,
    coverage: Optional[CoverageParams] = None,
    analytical_neighbors: float = 15.0,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    obs: Optional["ObsConfig"] = None,
) -> Fig10Result:
    """Figure 10: sweep θ at N_B = 15 with M = 2 colluders."""
    config = base if base is not None else ScenarioConfig(
        n_nodes=60, avg_neighbors=15.0, duration=220.0, n_malicious=2
    )
    if obs is not None:
        config = replace(config, obs=obs)
    point_configs: Dict[Hashable, ScenarioConfig] = {
        int(theta): replace(
            config,
            liteworp=replace(config.liteworp, theta=int(theta)),
            defense="liteworp",
        )
        for theta in thetas
    }
    grouped = _sweep_reports(point_configs, runs, jobs, cache)
    sim_detection: Dict[int, float] = {}
    sim_latency: Dict[int, Optional[float]] = {}
    for theta, reports in grouped.items():
        detected: List[float] = []
        latencies: List[float] = []
        for report in reports:
            attacked = [m for m in report.first_activity]
            if not attacked:
                continue
            isolated = [m for m in attacked if report.isolation_latency(m) is not None]
            detected.append(len(isolated) / len(attacked))
            latencies.extend(
                report.isolation_latency(m) for m in isolated  # type: ignore[misc]
            )
        sim_detection[int(theta)] = _mean(detected)
        sim_latency[int(theta)] = _mean(latencies) if latencies else None
    params = coverage or CoverageParams()
    analytical = dict(detection_vs_theta(list(thetas), analytical_neighbors, params))
    return Fig10Result(
        thetas=tuple(int(t) for t in thetas),
        sim_detection=sim_detection,
        sim_latency=sim_latency,
        analytical_detection=analytical,
    )
