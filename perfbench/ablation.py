"""Reference figures: the historical speedups under this benchmark.

Runs one workload's rounds on two configurations, alternating which
goes first, and prints each arm's median round wall time with its
quartiles, the ratio of the medians and the core count.  These are
README reference figures, not workloads: the benchmark itself always
runs the default configuration.

Usage: python3 perfbench/ablation.py --workload W [--pairs N] [--seed N]
"""

from __future__ import annotations

import argparse
import os
import statistics

from run import run_worker

#: The configuration each workload is compared against: the subplan
#: cache off (``KillCheckConfig.uncached()``) where the kill-check
#: dominates, delta solving off (``GenConfig(delta_solve=False)``) where
#: generation does.
ARMS = {"table12": "subplan-uncached", "conformance": "no-delta",
        "grading": "no-delta"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ARMS))
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    arm = ARMS[args.workload]
    walls = {"default": [], arm: []}
    for pair in range(args.pairs):
        arms = ["default", arm]
        if pair % 2:
            arms.reverse()
        for name in arms:
            _, result = run_worker(args.workload, args.seed, arm=name)
            if result["errors"]:
                raise SystemExit(f"{name}: wrong outputs: {result['errors'][:3]}")
            walls[name].append(result["wall_s"])
            print(f"{name}: wall {result['wall_s']:.3f}s", flush=True)
    for name, values in walls.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{args.workload} {name}: median {statistics.median(values):.3f}s "
              f"(quartiles {q1:.3f}-{q3:.3f}s, {len(values)} rounds)")
    ratio = statistics.median(walls[arm]) / statistics.median(walls["default"])
    print(f"{arm} / default = {ratio:.2f}x on {os.cpu_count()} cores")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
