"""Compare two result sets written by ``run.py --out``.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload and end-to-end metric, judged against the bounds in
``BENCHMARK.json``:

- ``regressed`` / ``improved``: B's median is worse / better than A's by
  more than the bound;
- ``unchanged``: the medians are within the bound of each other;
- ``unresolved``: either side's quartile spread (IQR over median) is wider
  than the bound, so the medians cannot be told apart, unless every run
  on one side beats every run on the other.

Then every per-layer count (unit ``count``) that differs between the two
sets.  Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    """Judge B against A for one metric (rows as ``run.py`` writes them)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    beats = [sign * x for x in b["samples"]]
    beaten = [sign * x for x in a["samples"]]
    spread = max((side["q3"] - side["q1"]) / side["median"] for side in (a, b))
    if spread > bound:
        if max(beats) < min(beaten):
            return "improved"
        if min(beats) > max(beaten):
            return "regressed"
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any], benchmark: Dict[str, Any]) -> List[str]:
    lines = [
        f"{'workload':<14} {'metric':<14} {'unit':<9} {'A median':>12} {'B median':>12}"
        f" {'change':>8} {'bound':>6}  verdict"
    ]
    regressed = False
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            lines.append(f"{name:<14} missing from B")
            continue
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            row_a = entry_a["end_to_end"].get(metric)
            row_b = entry_b["end_to_end"].get(metric)
            if row_a is None or row_b is None:
                lines.append(f"{name:<14} {metric:<14} missing")
                continue
            result = verdict(row_a, row_b, spec["better"], spec["bound"])
            regressed |= result == "regressed"
            change = (row_b["median"] - row_a["median"]) / row_a["median"]
            lines.append(
                f"{name:<14} {metric:<14} {spec['unit']:<9} {row_a['median']:>12.5g}"
                f" {row_b['median']:>12.5g} {change:>+8.1%} {spec['bound']:>6.0%}  {result}"
            )
        if entry_a["failed"] != entry_b["failed"]:
            lines.append(f"{name:<14} failed repetitions: {entry_a['failed']} -> {entry_b['failed']}")
    counts = [spec["name"] for spec in benchmark["per_layer"] if spec["unit"] == "count"]
    differing = []
    for name, entry_a in a["workloads"].items():
        layers_b = b["workloads"].get(name, {}).get("per_layer", {})
        for metric in counts:
            value_a = entry_a["per_layer"].get(metric, {}).get("value")
            value_b = layers_b.get(metric, {}).get("value")
            if value_a != value_b:
                differing.append(f"  {name:<14} {metric:<28} {value_a} -> {value_b}")
    lines.append("")
    if differing:
        lines.append(f"per-layer counts that differ ({len(differing)}):")
        lines.extend(differing)
    else:
        lines.append(f"per-layer counts: all {len(counts)} identical on every workload")
    if regressed:
        lines.append("REGRESSED")
    return lines


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    sets = [json.loads(Path(path).read_text()) for path in argv]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = compare(sets[0], sets[1], benchmark)
    print("\n".join(lines))
    return 1 if lines[-1] == "REGRESSED" else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
