"""End-to-end benchmark of the LITEWORP simulator.

Two ways to run it, both from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--only W ...] [--out FILE]

The first measures one workload and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  The second runs a full set: every
workload's repetitions, then one traced child each, printed as a table
and written as JSON for ``compare.py``.  Both make the same repetitions:
``Workload.reps(seconds)`` runs of the input made from the seed.

One child process at a time runs one repetition (``child.py``); nothing
runs in parallel.  Children run with ``REPRO_ACCEL=require``, so a C
kernel that fails to build is an error, not a slower pure-Python number.
An untimed warm-up child first imports the program and builds the kernel.
Times are in reference seconds (``refclock.py``), which a shared host's
changing speed barely moves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"
PINS = HERE / "pins.json"

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all (no result is printed)."""


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count (quartiles as ``statistics``
    computes them; a single sample is its own quartiles)."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["REPRO_ACCEL"] = "require"
    # Keep the C compiler's scratch files inside the checkout.
    env["TMPDIR"] = str(WORK / "tmp")
    # One hash layout for every child, so set and dict iteration costs do
    # not vary from one repetition to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: Workload, seed: int, mode: str, verdict: bool = False) -> Dict[str, Any]:
    """Run one child; returns its JSON plus ``wall_s``, or ``error``."""
    command = [sys.executable, str(CHILD), workload.name, str(seed), mode]
    if verdict:
        command.append("--verdict")
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command,
            cwd=WORK,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=workload.timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {workload.timeout:.0f} s", "seed": seed}
    wall = time.perf_counter() - started
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["(no output)"]
        return {"error": f"exit {done.returncode}: {tail[0]}", "seed": seed}
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"no result line: {done.stdout[-200:]!r}", "seed": seed}
    result["seed"] = seed
    if "overhead_s" in result:
        result["wall_s"] = wall - result["overhead_s"]
    return result


def warm_up(workload: Workload) -> str:
    """Import the program and build the C kernel, untimed."""
    WORK.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    result = spawn(workload, DEFAULT_SEED, "warmup")
    if "error" in result:
        raise SetupError(f"warm-up child failed: {result['error']}")
    return result["kernel"]


#: Units of every end-to-end metric a repetition yields.  Times are in
#: reference seconds (``refclock.py``) except ``wall_s`` and
#: ``run_wall_s``, which are plain wall time.  BENCHMARK.json gives a
#: regression bound to the ones whose run-to-run spread across seeds is
#: small; the others (wall times, and rates of a whole scenario, whose
#: size changes with its seed) are printed by a full set for reading only.
UNITS = {
    "setup_s": "s",
    "rx_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "wall_s": "s",
    "run_wall_s": "s",
    "sim_rate": "sim-s/s",
    "events_per_s": "1/s",
    "jobs_per_s": "jobs/s",
}


def derived(rep: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one repetition, keyed as :data:`UNITS`."""
    return {
        "setup_s": rep["setup_s"],
        "rx_per_s": rep["receptions"] / rep["run_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "wall_s": rep["wall_s"],
        "run_wall_s": rep["run_wall_s"],
        "sim_rate": rep["sim_s"] / rep["run_s"],
        "events_per_s": rep["events"] / rep["run_s"],
        "jobs_per_s": rep["jobs"] / rep["run_s"],
    }


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def load_pins() -> Dict[str, str]:
    """``{workload: digest}`` at the pinned seed."""
    try:
        with open(PINS, encoding="utf-8") as handle:
            pins = json.load(handle)
        if pins["seed"] != DEFAULT_SEED:
            raise SetupError(f"{PINS} pins seed {pins['seed']}, not {DEFAULT_SEED}")
        return dict(pins["digests"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SetupError(f"cannot read pins from {PINS}: {exc!r}") from exc


def check_reps(
    workload: Workload, seed: int, reps: List[Dict[str, Any]], pins: Dict[str, str]
) -> None:
    """Mark each repetition that fails a check with ``error``.

    Every repetition of a run simulates the same input, so all must agree
    with the first; at the pinned seed they must also equal the pin.
    """
    first: Optional[str] = None
    for rep in reps:
        if "error" in rep:
            continue
        if rep["problems"]:
            rep["error"] = "; ".join(rep["problems"])
            continue
        if seed == DEFAULT_SEED and rep["digest"] != pins.get(workload.name):
            rep["error"] = f"digest {rep['digest']} differs from pin {pins.get(workload.name)}"
            continue
        first = first or rep["digest"]
        if rep["digest"] != first:
            rep["error"] = f"seed {seed} is not deterministic: {rep['digest']} != {first}"


def measure(
    workload: Workload, seed: int, reps: int, pins: Dict[str, str]
) -> List[Dict[str, Any]]:
    """The untraced, checked repetitions of one run."""
    verdict = seed == DEFAULT_SEED
    results = [spawn(workload, seed, "plain", verdict=verdict) for _ in range(reps)]
    check_reps(workload, seed, results, pins)
    return results


def traced(workload: Workload, reference: Dict[str, Any]) -> Dict[str, Any]:
    """One traced child of ``reference``'s scenario seed.

    Its per-layer table is discarded, and the child counts as failed,
    when tracing changed the program's output.
    """
    rep = spawn(workload, reference["seed"], "traced")
    if "error" not in rep and rep["problems"]:
        rep["error"] = "; ".join(rep["problems"])
    if "error" not in rep and rep["digest"] != reference.get("digest"):
        rep["error"] = "traced digest differs from the untraced digest"
    if "error" in rep:
        rep.pop("layers", None)
    return rep


# ----------------------------------------------------------------------
# One workload, one phase, one JSON line
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    workload = WORKLOADS[args.workload]
    pins = load_pins()
    warm_up(workload)
    if args.trace:
        units = {spec["name"]: spec["unit"] for spec in benchmark["per_layer"]}
        (untraced,) = measure(workload, args.seed, 1, pins)
        reps = [untraced]
        values: Dict[str, float] = {}
        if "error" not in untraced:
            tracedrep = traced(workload, untraced)
            reps.append(tracedrep)
            if "error" not in tracedrep:
                values = dict(tracedrep["layers"])
                values["traced_overhead"] = tracedrep["wall_s"] / untraced["wall_s"]
    else:
        units = {spec["name"]: UNITS[spec["name"]] for spec in benchmark["end_to_end"]}
        reps = measure(workload, args.seed, workload.reps(args.seconds), pins)
        good = [derived(rep) for rep in reps if "error" not in rep]
        values = {name: statistics.median(sample[name] for sample in good) for name in units} if good else {}
    failed = [rep for rep in reps if "error" in rep]
    for rep in failed:
        print(f"{workload.name} seed {rep['seed']}: {rep['error']}", file=sys.stderr)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values
    }
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(reps),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failed else 1


# ----------------------------------------------------------------------
# Suite mode: every workload, a table, and a result file
# ----------------------------------------------------------------------
def run_suite(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    pins = load_pins()
    names = args.only or [spec["name"] for spec in benchmark["workloads"]]
    kernel = warm_up(WORKLOADS[names[0]])
    result: Dict[str, Any] = {
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "kernel": kernel,
        "workloads": {},
    }
    bounds = {spec["name"]: spec["bound"] for spec in benchmark["end_to_end"]}
    for name in names:
        workload = WORKLOADS[name]
        reps = measure(workload, args.seed, workload.reps(args.seconds), pins)
        good = [rep for rep in reps if "error" not in rep]
        per_rep = [derived(rep) for rep in good]
        entry: Dict[str, Any] = {
            "attempted": len(reps),
            "failed": len(reps) - len(good),
            "error_rate": (len(reps) - len(good)) / len(reps),
            "errors": [rep["error"] for rep in reps if "error" in rep],
            "end_to_end": {
                name: dict(
                    unit=unit,
                    samples=[sample[name] for sample in per_rep],
                    **summarize([sample[name] for sample in per_rep]),
                )
                for name, unit in UNITS.items()
                if per_rep
            },
            "per_layer": {},
        }
        if good:
            rep = traced(workload, good[0])
            if "error" in rep:
                entry["errors"].append(f"traced child: {rep['error']}")
            else:
                untraced = statistics.median(r["wall_s"] for r in good)
                layers = dict(rep["layers"])
                layers["traced_overhead"] = rep["wall_s"] / untraced
                entry["per_layer"] = {
                    spec["name"]: {"unit": spec["unit"], "value": layers[spec["name"]]}
                    for spec in benchmark["per_layer"]
                }
        result["workloads"][name] = entry
        print_workload(name, entry, bounds)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    clean = all(not entry["errors"] for entry in result["workloads"].values())
    return 0 if clean else 1


def print_workload(name: str, entry: Dict[str, Any], bounds: Dict[str, float]) -> None:
    print(f"\n== {name}: {entry['attempted']} repetitions, error_rate {entry['error_rate']:.2f}")
    for error in entry["errors"]:
        print(f"   error: {error}")
    print(
        f"   {'metric':<14} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  bound"
    )
    for metric, row in entry["end_to_end"].items():
        bound = f"{bounds[metric]:.0%}" if metric in bounds else "(info)"
        print(
            f"   {metric:<14} {row['unit']:<9} {row['median']:>12.5g}"
            f" {row['q1']:>12.5g} {row['q3']:>12.5g} {row['n']:>3}  {bound}"
        )
    if entry["end_to_end"] and max(row["n"] for row in entry["end_to_end"].values()) <= 20:
        print("   no upper percentile: none has ten samples beyond it at this n")
    if entry["per_layer"]:
        print("   per layer (one traced child):")
        for metric, row in entry["per_layer"].items():
            print(f"     {metric:<28} {row['value']:>14.6g} {row['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--only", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", help="suite mode: write the result set here")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise SetupError(f"no program to measure: {SRC / 'repro'} is missing")
        benchmark = load_benchmark()
        if args.workload:
            return run_one(args, benchmark)
        return run_suite(args, benchmark)
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
