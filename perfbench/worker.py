"""One round of one workload, run in a fresh process.

Each round starts from a new interpreter, so no request inherits
process-level state (parse, skeleton or declaration stores, sessions,
caches) from an earlier round or run.  The worker sets up (imports,
schemas, inputs; for ``grading`` also the service process, until
``/healthz`` answers), prints ``READY``, runs every request of the
workload once, checks the outputs apart from the timed region, and
prints one JSON line with the round's measurements.

Usage:
    python3 perfbench/worker.py --workload W --seed N [--trace]
        [--setup-only] [--arm ARM]

``--arm`` selects a non-default configuration for the README's
reference figures (``perfbench/ablation.py``); the benchmark itself
always runs the default arm.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

import checks
import inputs
from spans import Layers, Recorder, adopt, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
#: Per-layer metrics only the ``grading`` workload exercises.
SERVICE_METRICS = (
    "service.hit_rate", "service.hit_latency_p50_ms",
    "service.miss_latency_p50_ms", "service.queue_wait_p50_ms",
    "service.http_overhead_p50_ms", "service.cache_file_bytes",
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def table12(args):
    """The paper's evaluation: generate, enumerate (FULL OUTER included)
    and kill-check over the suite plus the sample instance."""
    from repro.core.generator import XDataGenerator
    from repro.datasets import (
        UNIVERSITY_QUERIES,
        schema_with_fks,
        university_sample_database,
    )
    from repro.testing.killcheck import KillCheckConfig

    requests = inputs.table12_requests()
    variants = {}
    for _, fks in requests:
        if fks not in variants:
            schema = schema_with_fks(list(fks))
            variants[fks] = (schema, university_sample_database(schema))
    kill_config = (
        KillCheckConfig.uncached() if args.arm == "subplan-uncached"
        else KillCheckConfig()
    )

    def run(layers):
        rng = random.Random(args.seed)
        wall = 0.0
        latencies = []
        errors = []
        table1 = {}
        for name, fks in requests:
            schema, sample = variants[fks]
            start = time.monotonic()
            parsed = layers.parse(UNIVERSITY_QUERIES[name]["sql"])
            suite = layers.generate(XDataGenerator(schema), parsed)
            space = layers.enumerate(suite.analyzed, include_full_outer=True)
            databases = suite.databases + [sample]
            report = layers.evaluate(space, databases, config=kill_config)
            elapsed = time.monotonic() - start
            wall += elapsed
            latencies.append(elapsed * 1000.0)

            label = f"{name} with {len(fks)} FK(s)"
            table1[name, len(fks)] = suite.non_original_count()
            for index, db in enumerate(databases):
                errors += checks.fk_load_errors(db, f"{label}, dataset {index}")
            errors += checks.verdict_errors(
                space, databases, report, checks.sample_pairs(report, rng),
                label,
            )
        errors += checks.table1_errors(table1)
        return {"wall_s": wall, "latencies_ms": latencies,
                "attempted": len(requests), "failed": 0, "failures": [],
                "errors": errors, "rss_mb": peak_rss_mb()}

    return run, None


def conformance(args):
    """Distinct grammar queries, each generated cold, enumerated and
    executed on the engine with every execution shadowed on SQLite."""
    from repro.backends import BackendDisagreement, EngineBackend, SqliteBackend
    from repro.core.generator import GenConfig, XDataGenerator
    from repro.datasets import university_schema
    from repro.engine.subplan import SubplanCache
    from repro.errors import UnsupportedSqlError, XDataError
    from repro.testing.conformance import sample_conformance_query

    schema = university_schema()
    config = GenConfig(delta_solve=False) if args.arm == "no-delta" else None
    requests = [
        (seed, sample_conformance_query(random.Random(seed), schema))
        for seed in inputs.conformance_requests(args.seed)
    ]

    def run(layers):
        wall = 0.0
        latencies = []
        failures = []
        errors = []
        for seed, sql in requests:
            start = time.monotonic()
            try:
                parsed = layers.parse(sql)
                suite = layers.generate(XDataGenerator(schema, config), parsed)
                space = layers.enumerate(
                    suite.analyzed, include_full_outer=True
                )
                cache = SubplanCache()
                executions = layers.crosscheck(
                    space, suite.databases, EngineBackend(subplan_cache=cache),
                    SqliteBackend(force_join_rewrites=bool(seed % 2)),
                    f"seed {seed}", cache,
                )
            except UnsupportedSqlError:
                outcome = "rejected"  # the documented answer: completed
            except BackendDisagreement as exc:
                outcome = "wrong"
                errors.append(f"seed {seed}: {exc}")
            except XDataError as exc:
                outcome = "failed"
                failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            else:
                outcome = "done"
            elapsed = time.monotonic() - start
            wall += elapsed
            latencies.append(None if outcome == "failed" else elapsed * 1000.0)
            if outcome == "done":
                expected = (len(space.mutants) + 1) * len(suite.databases)
                if executions != expected:
                    errors.append(
                        f"seed {seed}: {executions} cross-checked executions, "
                        f"expected {expected}"
                    )
        return {"wall_s": wall, "latencies_ms": latencies,
                "attempted": len(requests), "failed": len(failures),
                "failures": failures, "errors": errors,
                "rss_mb": peak_rss_mb()}

    return run, None


class _Client:
    """HTTP to the service: one connection per request, closed by the
    server after its response (``Connection: close``), as ``urllib``
    does."""

    def __init__(self, url: str) -> None:
        host, port = url.split("//", 1)[1].split(":")
        self.host, self.port = host, int(port)

    def request(self, method: str, path: str, body: dict | None = None):
        headers = {"Connection": "close"}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return (response.status, response.getheader("X-Xdata-Cache"),
                    response.read())
        finally:
            conn.close()

    def json(self, method: str, path: str, body: dict | None = None) -> dict:
        status, _, data = self.request(method, path, body)
        if status >= 300:
            raise RuntimeError(f"{method} {path}: HTTP {status}: {data[:200]!r}")
        return json.loads(data)

    def wait(self, job_id: str) -> dict:
        """Poll the job until it finishes: at once, then after 0.25 ms,
        doubling up to a 4 ms ceiling (the API has no blocking wait)."""
        delay = 0.00025
        while True:
            status = self.json("GET", f"/v1/jobs/{job_id}")
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            time.sleep(delay)
            delay = min(delay * 2, 0.004)


def grading(args):
    """A classroom stream: one closed-loop client, ``mode=evaluate``
    submissions over HTTP to a separate service process."""
    from repro.datasets import university_schema
    from repro.schema.ddl import to_ddl

    schema = university_schema()
    ddl = to_ddl(schema)
    stream = inputs.grading_stream(args.seed, schema)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="grading-", dir=WORK)
    cache_path = os.path.join(workdir, "cache.jsonl")
    command = [sys.executable, "-u", os.path.join(HERE, "serve.py"),
               "--cache-path", cache_path, "--arm", args.arm]
    if args.trace:
        command.append("--trace")
    service = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    state = {}

    def close():
        """Stop the service (idempotent); returns its peak memory and
        spans."""
        if "served" in state:
            return state["served"]
        try:
            out, _ = service.communicate(input="", timeout=60)
        except subprocess.TimeoutExpired:
            service.kill()
            service.wait()
            raise
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if service.returncode != 0:
            raise RuntimeError(f"service exited with {service.returncode}")
        state["served"] = json.loads(out.strip().splitlines()[-1])
        return state["served"]

    try:
        listening = service.stdout.readline().split()
        if listening[:1] != ["LISTENING"]:
            raise RuntimeError(f"service did not start: {listening}")
        client = _Client(listening[1])
        while client.request("GET", "/healthz")[0] != 200:
            time.sleep(0.01)
    except BaseException:
        close()
        raise

    def run(layers):
        recorder = layers.recorder
        records = []
        start = time.monotonic()
        for label, sql in stream:
            with recorder.span("request") if recorder else nullcontext():
                sent = time.monotonic()
                job = client.json("POST", "/v1/jobs", {
                    "schema": ddl, "query": sql, "mode": "evaluate",
                })
                status = client.wait(job["id"])
                header = body = None
                if status["state"] == "done":
                    code, header, body = client.request(
                        "GET", f"/v1/jobs/{job['id']}/result"
                    )
                    if code != 200:
                        raise RuntimeError(f"result of {job['id']}: HTTP {code}")
                latency = time.monotonic() - sent
            records.append((label, job["fingerprint"], status, header, body,
                            latency))
        wall = time.monotonic() - start
        metrics_text = client.request("GET", "/metrics")[2].decode("utf-8")
        cache_bytes = os.path.getsize(cache_path)
        served = close()

        failures = []
        errors = []
        latencies = []
        hit_ms, miss_ms, queue_ms, http_ms = [], [], [], []
        hits = misses = 0
        for label, _, status, header, _, latency in records:
            if status["state"] != "done":
                misses += 1
                error = status.get("error") or status["state"]
                if error.startswith("UnsupportedSqlError"):
                    latencies.append(latency * 1000.0)
                else:
                    failures.append(f"{label}: {error}")
                    latencies.append(None)
                continue
            latencies.append(latency * 1000.0)
            (hit_ms if header == "hit" else miss_ms).append(latency * 1000.0)
            hits += header == "hit"
            misses += header == "miss"
            job_s = status["finished_at"] - status["submitted_at"]
            queue_ms.append((status["started_at"] - status["submitted_at"]) * 1000.0)
            http_ms.append((latency - job_s) * 1000.0)
        errors += checks.hit_body_errors(
            (fp, header, body) for _, fp, status, header, body, _ in records
            if status["state"] == "done"
        )
        errors += checks.counter_errors(metrics_text, hits, misses)

        result = {"wall_s": wall, "latencies_ms": latencies,
                  "attempted": len(records), "failed": len(failures),
                  "failures": failures, "errors": errors,
                  "rss_mb": served["rss_mb"]}
        if recorder is not None:
            spans = adopt(recorder.spans, served["spans"])
            result["layers"] = dict(
                layer_metrics(spans, wall),
                **{
                    "service.hit_rate": hits / (hits + misses),
                    "service.hit_latency_p50_ms": statistics.median(hit_ms),
                    "service.miss_latency_p50_ms": statistics.median(miss_ms),
                    "service.queue_wait_p50_ms": statistics.median(queue_ms),
                    "service.http_overhead_p50_ms": statistics.median(http_ms),
                    "service.cache_file_bytes": cache_bytes,
                },
            )
        return result

    return run, close


WORKLOADS = {"table12": table12, "conformance": conformance,
             "grading": grading}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--arm", default="default",
                        choices=("default", "subplan-uncached", "no-delta"))
    args = parser.parse_args()

    run, close = WORKLOADS[args.workload](args)
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        recorder = Recorder() if args.trace else None
        result = run(Layers(recorder))
    finally:
        if close is not None:
            close()
    if recorder is not None and "layers" not in result:
        result["layers"] = dict(
            layer_metrics(recorder.spans, result["wall_s"]),
            **dict.fromkeys(SERVICE_METRICS, 0.0),
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
