"""The ``grading`` workload's service process.

Runs :class:`repro.service.Service` on an ephemeral loopback port with
two job workers and a JSON-lines suite cache, as ``xdata serve`` does.
Prints ``LISTENING <url>`` once bound, serves until its standard input
closes, stops the service (which compacts the cache file), and prints
one JSON line: its peak resident memory and, with ``--trace``, the
spans recorded around the generator, mutation and kill-check calls the
job workers make.

Usage: python3 perfbench/serve.py --cache-path PATH [--trace] [--arm ARM]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys

from spans import (
    Recorder,
    report_counts,
    space_counts,
    suite_counts,
    traced,
)


def install_spans(recorder: Recorder) -> None:
    """Time the public calls a job makes, in every job worker thread."""
    import repro.api
    from repro.core.generator import XDataGenerator

    XDataGenerator.generate = traced(
        recorder, "generate", XDataGenerator.generate, suite_counts
    )
    repro.api.enumerate_mutants = traced(
        recorder, "enumerate", repro.api.enumerate_mutants, space_counts
    )
    repro.api.evaluate_suite = traced(
        recorder, "evaluate", repro.api.evaluate_suite, report_counts
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-path", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--arm", default="default",
                        choices=("default", "no-delta"))
    args = parser.parse_args()

    from repro.service import Service

    recorder = Recorder()
    if args.trace:
        install_spans(recorder)
    service = Service(port=0, workers=2, cache_path=args.cache_path)
    if args.arm == "no-delta":
        service.queue.config = dataclasses.replace(
            service.queue.config, delta_solve=False
        )
    service.start()
    print(f"LISTENING {service.url}", flush=True)
    try:
        sys.stdin.read()
    finally:
        service.stop()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rss_mb": peak, "spans": recorder.spans}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
