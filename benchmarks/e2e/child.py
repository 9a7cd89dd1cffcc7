"""One repetition of one workload, in its own process.

Usage (the parent, ``run.py``, builds this command line)::

    python child.py WORKLOAD SEED MODE [--verdict]

``MODE`` is ``plain`` (the measured repetition), ``traced`` (the same
repetition with every layer wrapped in spans) or ``warmup`` (import the
program and load the C kernel, building it if needed, then exit).
``--verdict`` also checks the workload's protocol verdict, which only
holds on the pinned configuration.

A plain repetition reports its times in reference seconds
(``refclock.py``) and, for reading only, in wall seconds.  The child
prints one JSON object on its last line of standard output.
"""

import sys

from refclock import RefClock

# Set-up time starts here, before the program is imported.  Only the
# measured repetition interleaves calibration chunks: the traced child's
# span times stay free of them.
CLOCK = RefClock()
if sys.argv[3:4] == ["plain"]:
    CLOCK.start()
STARTED = CLOCK.now()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

from workloads import SWEEP_JOURNAL, SWEEP_TRACE, WORKLOADS, Workload, canonical_sha  # noqa: E402

C_KERNEL = "repro.sim._ckernel"

#: ``(begin, end)`` clock readings of one timed phase.
Span = Tuple[float, float]


def _warmup() -> Dict[str, Any]:
    from repro.sim import accel

    return {"kernel": type(accel.make_simulator()).__module__}


def _protocol_violations(records, theta: int) -> List[str]:
    from repro.obs.invariants import InvariantChecker

    checker = InvariantChecker(theta=theta)
    checker.check_all(records)
    return [f"{v.rule}: {v.message}" for v in checker.protocol_violations]


def _run_scenarios(workload: Workload, seed: int, verdict: bool, scope) -> Dict[str, Any]:
    """Build, run and check every scenario of the workload's panel."""
    from repro.experiments.scenario import build_scenario

    imported = CLOCK.now()
    built_first = None
    runs: List[Span] = []
    digests: List[str] = []
    problems: List[str] = []
    sim_s = check_s = 0.0
    with scope:
        for member in workload.scenario_seeds(seed):
            config = workload.scenario_config(member)
            scenario = build_scenario(config)
            built = CLOCK.now()
            report = scenario.run()
            finished = CLOCK.now()
            runs.append((built, finished))
            built_first = built_first or built

            found: List[str] = []
            if not 0 < report.delivered <= report.originated:
                found.append(f"delivered {report.delivered} of {report.originated} originated")
            if config.effective_defense() == "none" and (report.detections or report.isolations):
                found.append("detections without a defense")
            found += _protocol_violations(scenario.trace, config.liteworp.theta)
            if verdict and workload.verdict is not None:
                found += workload.verdict(report, scenario)
            problems += [f"scenario seed {member}: {problem}" for problem in found]
            digests.append(canonical_sha(report.to_state()))
            sim_s += config.duration
            check_s += CLOCK.wall_seconds(finished, CLOCK.now())
            del scenario, report
    return {
        "phases": {"import": (STARTED, imported), "setup": (STARTED, built_first), "runs": runs},
        "check_wall_s": check_s,
        "sim_s": sim_s,
        "jobs": len(runs),
        "digest": canonical_sha(digests),
        "problems": problems,
    }


def _run_campaign(workload: Workload, seed: int, scope) -> Dict[str, Any]:
    import os

    from repro.experiments.campaign import compile_campaign, run_campaign

    imported = CLOCK.now()
    for stale in (SWEEP_TRACE, SWEEP_JOURNAL):
        if os.path.exists(stale):
            os.remove(stale)
    spec = workload.campaign_spec(seed)
    with scope:
        jobs = compile_campaign(spec)
        built = CLOCK.now()
        result = run_campaign(spec, backend="inline", journal=SWEEP_JOURNAL)
        finished = CLOCK.now()

    from repro.obs.invariants import check_export
    from repro.obs.sinks import read_jsonl

    with open(SWEEP_TRACE, "rb") as handle:
        export = handle.read()
    violations, runs = check_export(read_jsonl(SWEEP_TRACE), theta=spec.base.liteworp.theta)
    problems = [f"{v.rule}: {v.message}" for v in violations if v.category == "protocol"]
    if not result.complete or result.executed != len(jobs):
        problems.append(f"campaign incomplete: {result.executed} of {len(jobs)} jobs ran")
    if runs != len(jobs):
        problems.append(f"trace export holds {runs} runs, expected {len(jobs)}")
    aggregate_sha = hashlib.sha256(result.to_json().encode()).hexdigest()
    export_sha = hashlib.sha256(export).hexdigest()
    lines = export.count(b"\n")
    return {
        "phases": {"import": (STARTED, imported), "setup": (STARTED, built), "runs": [(built, finished)]},
        "check_wall_s": CLOCK.wall_seconds(finished, CLOCK.now()),
        "sim_s": sum(job.config.duration for job in jobs),
        "jobs": len(jobs),
        "digest": f"aggregate={aggregate_sha} export={export_sha} lines={lines}",
        "problems": problems,
    }


def _times(phases: Dict[str, Any], measured: bool) -> Dict[str, float]:
    """Each phase in wall seconds and, when measured, reference seconds."""
    import_s, setup, runs = phases["import"], phases["setup"], phases["runs"]
    times = {
        "import_wall_s": CLOCK.wall_seconds(*import_s),
        "setup_wall_s": CLOCK.wall_seconds(*setup),
        "run_wall_s": sum(CLOCK.wall_seconds(*run) for run in runs),
    }
    if measured:
        times["setup_s"] = CLOCK.ref_seconds(*setup)
        times["run_s"] = sum(CLOCK.ref_seconds(*run) for run in runs)
    return times


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("plain", "traced", "warmup"))
    parser.add_argument("--verdict", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "warmup":
        print(json.dumps(_warmup()))
        return 0

    from layers import LayerTracer, ScenarioTally, per_layer_metrics

    workload = WORKLOADS[args.workload]
    tally = ScenarioTally()
    tracer = LayerTracer() if args.mode == "traced" else None
    with tally.installed():
        scope = tracer.installed() if tracer is not None else contextlib.nullcontext()
        if workload.kind == "campaign":
            result = _run_campaign(workload, args.seed, scope)
        else:
            result = _run_scenarios(workload, args.seed, args.verdict, scope)
    if tracer is None:
        CLOCK.stop()

    phases = result.pop("phases")
    result.update(_times(phases, measured=tracer is None))
    result["events"] = tally.totals["events"]
    result["receptions"] = tally.totals["frames_received"]
    result["kernels"] = sorted(tally.kernels)
    if result["kernels"] != [C_KERNEL]:
        result["problems"].append(f"ran on {result['kernels']}, not the C kernel")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = per_layer_metrics(
            tracer,
            tally,
            result["import_wall_s"],
            result["run_wall_s"],
            workload.kind == "campaign",
        )
    # Neither the output checks nor the calibration chunks are the
    # program's work: the parent subtracts both from the child's wall time.
    result["overhead_s"] = result.pop("check_wall_s") + sum(CLOCK.durations)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
