"""Engine-throughput regression gate for CI: the change against its parent.

Runs the quick engine microbenchmark (``repro bench --quick --only
engine``: warmup, then the median of five timed rounds) on two
checkouts, this one and its parent commit's, alternately, each run in a
fresh process with ``REPRO_ACCEL=require``.  Each round runs both trees
back to back and gives one change/parent ratio; the gate fails (exit 1)
when the median of those per-round ratios drops below ``--threshold``
(default 0.80).  Both trees run on the same runner in the same job, so
the ratio judges the kernel, not the runner's speed against a number
recorded on other hardware.  A ratio taken within a round also cancels
the host's drift from round to round, which a ratio of the two trees'
medians over all rounds does not: on a busy runner those medians come
from different rounds.

Usage, from the root of a checkout, with the parent commit unpacked
beside it (``mkdir ../parent && git archive HEAD^ | tar -x -C ../parent``)::

    python scripts/check_bench_regression.py --parent ../parent
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
# Benchmark runs per tree.  The trees alternate which runs first, so a
# drift of the host's speed within a round favours neither.
ROUNDS = 9


def engine_median(tree: pathlib.Path) -> float:
    """One quick engine benchmark of ``tree``'s sources: its median ev/s."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), REPRO_ACCEL="require")
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--quick", "--only", "engine",
             "--output-dir", out],
            cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        data = json.loads(pathlib.Path(out, "BENCH_engine.json").read_text())
    return float(data["metrics"]["median_events_per_second"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True,
                        help="a checkout of the parent commit")
    parser.add_argument("--threshold", type=float, default=0.8,
                        help="minimum change/parent median ratio (default 0.8)")
    args = parser.parse_args()
    trees = {"change": REPO, "parent": args.parent.resolve()}
    medians = {name: [] for name in trees}
    for i in range(ROUNDS):
        for name in (("change", "parent") if i % 2 == 0 else ("parent", "change")):
            medians[name].append(engine_median(trees[name]))
    ratios = [c / p for c, p in zip(medians["change"], medians["parent"])]
    ratio = statistics.median(ratios)
    verdict = "ok" if ratio >= args.threshold else "REGRESSION"
    for name in trees:
        runs = ", ".join(f"{m:,.0f}" for m in medians[name])
        print(f"{name}: {runs} ev/s")
    print("per-round change/parent: " + ", ".join(f"{r:.2f}" for r in ratios))
    print(
        f"engine throughput: median per-round ratio {ratio:.2f} "
        f"(threshold {args.threshold:.2f}) -> {verdict}"
    )
    if ratio < args.threshold:
        print("The kernel's event dispatch got slower than its parent's on the same runner.")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
