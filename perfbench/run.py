"""End-to-end benchmark: whole requests, layer by layer.

Usage:
    python3 perfbench/run.py --workload {table12,conformance,grading}
        --seed N --seconds S --trace {0,1}

Runs rounds of the workload until ``--seconds`` have passed, each round
in a fresh worker process (``worker.py``), and prints one JSON object as
the last line of standard output: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` rounds alternate
between untraced and traced (spans around every layer call) and the
metrics are the per-layer ones, including the tracing overhead.  Run it
from the repository root; it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table12", "conformance", "grading")
#: Set-up is measured once per round; short runs add set-up-only probes
#: until there are this many, and report the median.
MIN_SETUPS = 5
#: A worker that has not finished by then is killed with its service.
WORKER_TIMEOUT_S = 120


def run_worker(workload: str, seed: int, traced: bool = False,
               setup_only: bool = False, arm: str = "default"):
    """(set-up seconds, round result or None) of one fresh worker."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--arm", arm]
    if traced:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    start = time.monotonic()
    worker = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=env, start_new_session=True)
    watchdog = threading.Timer(
        WORKER_TIMEOUT_S, os.killpg, (worker.pid, signal.SIGKILL)
    )
    watchdog.start()
    try:
        setup_s = None
        for line in worker.stdout:
            if line.strip() == "READY":
                setup_s = time.monotonic() - start
                break
        rest = worker.stdout.read()
        worker.wait()
    finally:
        watchdog.cancel()
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
    if worker.returncode != 0 or setup_s is None:
        raise SystemExit(
            f"{workload} worker exited with code {worker.returncode}"
        )
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def request_latencies(rounds: list[dict]) -> list[float]:
    """Every round makes the same requests in the same order: a request's
    latency is its median over the rounds.  A failed request counts as
    infinitely slow."""
    return [
        statistics.median(math.inf if v is None else v for v in request)
        for request in zip(*(r["latencies_ms"] for r in rounds))
    ]


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    """Medians over the run's rounds, so that a slow stretch of a shared
    machine moves one round, not the result."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "latency_p95_ms": percentile(request_latencies(rounds), 0.95),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }


def per_layer(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if "layers" in r]
    untraced = [r for r in rounds if "layers" not in r]
    out = {
        key: statistics.median(r["layers"][key] for r in traced)
        for key in traced[0]["layers"]
    }
    out["request.latency_p50_ms"] = percentile(request_latencies(untraced), 0.50)
    out["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.overhead_pct"] = (
        100.0 * out["trace.overhead_s"] / out["trace.untraced_wall_s"]
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)

    rounds = []
    setups = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        setup_s, result = run_worker(args.workload, args.seed, traced)
        setups.append(setup_s)
        rounds.append(result)
        print(
            f"round {len(rounds)}{' (traced)' if traced else ''}: "
            f"wall {result['wall_s']:.3f}s, set-up {setup_s:.3f}s, "
            f"{result['attempted']} requests, {result['failed']} failed, "
            f"{len(result['errors'])} wrong"
        )
        enough = not args.trace or len(rounds) >= 2
        if enough and time.monotonic() - start >= args.seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(
            run_worker(args.workload, args.seed, setup_only=True)[0]
        )

    for message in sorted({m for r in rounds for m in r["failures"]}):
        print(f"failed: {message}")
    for message in sorted({m for r in rounds for m in r["errors"]}):
        print(f"WRONG: {message}")

    if args.trace:
        values, wanted = per_layer(rounds), declared["per_layer"]
    else:
        values, wanted = end_to_end(rounds, setups), declared["end_to_end"]
    print(json.dumps({
        "correct": not any(r["errors"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
