"""The service layer: suite cache, job queue, HTTP front end.

The load-bearing property throughout is the cache contract: a
fingerprint hit returns bytes identical to the cold solve, and the
lifecycle/metrics bookkeeping around it stays consistent (hits + misses
== executed jobs, journal validates, counters reconcile).
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.obs.journal import validate_journal
from repro.service import JobQueue, JobRequest, JobState, Service, SuiteCache
from repro.service.cache import canonical_bytes
from repro.service.jobs import request_key

DDL = """
CREATE TABLE dept (id INT PRIMARY KEY, name VARCHAR);
CREATE TABLE emp (
    id INT PRIMARY KEY,
    dept_id INT REFERENCES dept(id),
    salary INT
);
"""

SQL = "SELECT e.salary FROM emp e, dept d WHERE e.dept_id = d.id AND e.salary > 10"
#: The same request in a different spelling (case/spacing/aliases).
SQL_RESPELLED = (
    "select X.SALARY from EMP x , DEPT y\nwhere x.dept_id = y.id and x.salary > 10"
)
SQL_OTHER = "SELECT e.id FROM emp e WHERE e.salary > 99"


# ---------------------------------------------------------------------------
# SuiteCache
# ---------------------------------------------------------------------------


class TestSuiteCache:
    def test_roundtrip_and_stats(self):
        cache = SuiteCache()
        assert cache.get("k") is None
        cache.put("k", b"payload")
        assert cache.get("k") == b"payload"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_over_byte_budget(self):
        cache = SuiteCache(max_bytes=100)
        cache.put("a", b"x" * 40)
        cache.put("b", b"y" * 40)
        cache.get("a")  # refresh a: b becomes LRU
        cache.put("c", b"z" * 40)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_oversized_entry_is_still_admitted(self):
        cache = SuiteCache(max_bytes=10)
        cache.put("big", b"x" * 50)
        assert cache.get("big") == b"x" * 50

    def test_replacing_a_key_updates_the_byte_total(self):
        cache = SuiteCache(max_bytes=1000)
        cache.put("k", b"x" * 100)
        cache.put("k", b"y" * 10)
        assert cache.total_bytes == 10
        assert len(cache) == 1

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        first = SuiteCache(path=path)
        first.put("k1", b'{"a":1}')
        first.put("k2", b'{"b":2}')
        reloaded = SuiteCache(path=path)
        assert reloaded.get("k1") == b'{"a":1}'
        assert reloaded.get("k2") == b'{"b":2}'

    def test_persistence_last_write_wins(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        first = SuiteCache(path=path)
        first.put("k", b"old")
        first.put("k", b"new")
        assert SuiteCache(path=path).get("k") == b"new"

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = SuiteCache(path=path)
        cache.put("k", b"v")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "half')  # crash mid-append
        assert SuiteCache(path=path).get("k") == b"v"

    def test_compact_rewrites_to_live_entries(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = SuiteCache(path=path)
        for _ in range(5):
            cache.put("k", b"v")
        cache.compact()
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 1
        assert SuiteCache(path=path).get("k") == b"v"

    def test_canonical_bytes_is_order_insensitive(self):
        assert canonical_bytes({"b": 1, "a": 2}) == canonical_bytes(
            {"a": 2, "b": 1}
        )


# ---------------------------------------------------------------------------
# JobQueue
# ---------------------------------------------------------------------------


def sync_queue(**kwargs) -> JobQueue:
    """A queue in deterministic inline-execution mode."""
    return JobQueue(workers=0, **kwargs)


class TestJobQueueLifecycle:
    def test_duplicate_submissions_hit_the_cache_byte_identically(self):
        queue = sync_queue()
        cold = queue.submit(JobRequest(DDL, SQL))
        warm = queue.submit(JobRequest(DDL, SQL_RESPELLED))
        assert cold.state is JobState.DONE and warm.state is JobState.DONE
        assert not cold.cached and warm.cached
        assert cold.fingerprint == warm.fingerprint
        assert cold.result == warm.result
        assert queue.cache.stats.hits == 1
        assert queue.cache.stats.misses == 1
        queue.close()

    def test_generate_and_evaluate_modes_cache_separately(self):
        queue = sync_queue()
        generated = queue.submit(JobRequest(DDL, SQL, mode="generate"))
        evaluated = queue.submit(JobRequest(DDL, SQL, mode="evaluate"))
        assert not evaluated.cached
        assert b'"kill"' in evaluated.result
        assert b'"kill"' not in generated.result
        payload = json.loads(evaluated.result)
        assert payload["kill"]["killed"] <= payload["kill"]["total"]
        queue.close()

    def test_payload_is_canonical_and_complete(self):
        queue = sync_queue()
        job = queue.submit(JobRequest(DDL, SQL))
        payload = json.loads(job.result)
        assert payload["canonical_sql"] == job.canonical_sql
        assert payload["health"]["completed"] == len(payload["datasets"])
        first = payload["datasets"][0]
        assert set(first["tables"]) == {"dept", "emp"}
        assert "INSERT INTO" in first["insert_sql"]
        # Canonical bytes: serializing the parsed payload reproduces
        # the stored bytes exactly.
        assert canonical_bytes(payload) == job.result
        queue.close()

    def test_cancellation_of_pending_job(self):
        # No workers consume the queue, so the job stays PENDING.
        queue = JobQueue(workers=0)
        queue._threads = [object()]  # force enqueue instead of inline run
        job = queue.submit(JobRequest(DDL, SQL))
        assert job.state is JobState.PENDING
        assert queue.cancel(job.id)
        assert job.state is JobState.CANCELLED
        assert not queue.cancel(job.id), "double-cancel must report False"
        queue._threads = []
        queue.close()

    def test_cancel_unknown_or_finished_job_returns_false(self):
        queue = sync_queue()
        job = queue.submit(JobRequest(DDL, SQL))
        assert not queue.cancel(job.id)  # already DONE
        assert not queue.cancel("job-does-not-exist")
        queue.close()

    def test_deadline_expired_while_queued_fails_without_solving(self):
        queue = JobQueue(workers=0)
        queue._threads = [object()]  # park the job in PENDING
        job = queue.submit(JobRequest(DDL, SQL, deadline_s=0.01))
        queue._threads = []
        time.sleep(0.03)
        queue._execute(job)
        assert job.state is JobState.FAILED
        assert "expired" in job.error
        assert queue.cache.stats.misses == 0, "deadline kill must not solve"
        queue.close()

    def test_deadline_limited_complete_solve_is_cached(self):
        queue = sync_queue()
        generous = queue.submit(JobRequest(DDL, SQL, deadline_s=300.0))
        assert generous.state is JobState.DONE, generous.error
        follow_up = queue.submit(JobRequest(DDL, SQL))
        assert follow_up.cached
        assert follow_up.result == generous.result
        queue.close()

    def test_invalid_sql_fails_the_job_not_the_queue(self):
        queue = sync_queue()
        # Parse errors surface at submit (fingerprinting parses); the
        # queue must reject the request without dying.
        with pytest.raises(Exception):
            queue.submit(JobRequest(DDL, "SELECT FROM WHERE"))
        ok = queue.submit(JobRequest(DDL, SQL))
        assert ok.state is JobState.DONE
        queue.close()

    def test_unknown_mode_is_rejected_at_request_construction(self):
        with pytest.raises(ValueError, match="unknown job mode"):
            JobRequest(DDL, SQL, mode="explain")

    def test_metrics_counters_reconcile(self):
        queue = sync_queue()
        queue.submit(JobRequest(DDL, SQL))
        queue.submit(JobRequest(DDL, SQL_RESPELLED))
        queue.submit(JobRequest(DDL, SQL_OTHER))
        snapshot = queue.snapshot()
        counters = snapshot["counters"]
        assert counters["xdata_service_jobs_submitted_total"] == 3
        assert counters["xdata_service_jobs_done_total"] == 3
        assert counters["xdata_service_cache_hits_total"] == 1
        assert counters["xdata_service_cache_misses_total"] == 2
        assert counters["xdata_service_cache_hits_total"] == queue.cache.stats.hits
        assert (
            counters["xdata_service_cache_misses_total"]
            == queue.cache.stats.misses
        )
        queue.close()

    def test_threaded_workers_drain_a_duplicated_batch(self):
        queue = JobQueue(workers=3)
        try:
            jobs = [
                queue.submit(JobRequest(DDL, sql))
                for sql in [SQL, SQL_RESPELLED, SQL, SQL_OTHER, SQL_RESPELLED]
            ]
            queue.drain(timeout=120.0)
            assert all(job.state is JobState.DONE for job in jobs)
            results = {job.fingerprint: job.result for job in jobs}
            for job in jobs:
                assert job.result == results[job.fingerprint]
            stats = queue.cache.stats
            assert stats.misses == 2, "single-flight: one solve per fingerprint"
            assert stats.hits == 3
        finally:
            queue.close()

    def test_request_key_separates_modes_and_options(self):
        fp = "f" * 8
        keys = {
            request_key(fp, "generate", None),
            request_key(fp, "evaluate", None),
            request_key(
                fp, "evaluate", repro.EvalOptions(include_full_outer=True)
            ),
        }
        assert len(keys) == 3
        assert request_key(fp, "evaluate", None) == request_key(
            fp, "evaluate", repro.EvalOptions()
        )


class TestJobQueueJournal:
    def test_journal_validates_and_audits_every_job(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        queue = sync_queue(journal_path=path)
        queue.submit(JobRequest(DDL, SQL))
        queue.submit(JobRequest(DDL, SQL_RESPELLED))
        queue.close()
        events = validate_journal(path)
        starts = [e for e in events if e["event"] == "run_start"]
        ends = [e for e in events if e["event"] == "run_end"]
        assert len(starts) == 2 and len(ends) == 2
        # Both runs record the same canonical SQL.
        assert len({e["sql"] for e in starts}) == 1
        # The cold solve replays its spans; the cache hit has none.
        assert {e["health"].get("cache") for e in ends} == {"miss", "hit"}
        spans = [e for e in events if e["event"] == "span"]
        assert spans, "the cold solve must journal its span tree"

    def test_failed_job_journals_run_abort(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        queue = JobQueue(workers=0, journal_path=path)
        queue._threads = [object()]
        job = queue.submit(JobRequest(DDL, SQL, deadline_s=0.001))
        queue._threads = []
        time.sleep(0.01)
        queue._execute(job)
        queue.close()
        events = validate_journal(path)
        assert events[-1]["event"] == "run_abort"
        assert "expired" in events[-1]["error"]


# ---------------------------------------------------------------------------
# HTTP service
# ---------------------------------------------------------------------------


@pytest.fixture()
def service():
    with Service(port=0, workers=2) as svc:
        yield svc


def _post_job(svc, body: dict) -> dict:
    request = urllib.request.Request(
        svc.url + "/v1/jobs",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        assert response.status == 202
        return json.loads(response.read())


def _wait_done(svc, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with urllib.request.urlopen(f"{svc.url}/v1/jobs/{job_id}") as response:
            status = json.loads(response.read())
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise TimeoutError(job_id)


class TestHttpService:
    def test_healthz(self, service):
        with urllib.request.urlopen(service.url + "/healthz") as response:
            assert json.loads(response.read()) == {"status": "ok"}

    def test_accepted_sockets_disable_nagle(self, monkeypatch):
        # Headers and body leave in separate writes; without TCP_NODELAY
        # a keep-alive client waits for a delayed ACK on every response.
        from repro.service.server import _Handler

        flags = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            flags.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        with Service(port=0, workers=1) as svc:
            with urllib.request.urlopen(svc.url + "/healthz") as response:
                response.read()
        assert flags and all(flags)

    def test_submit_poll_result_roundtrip(self, service):
        submitted = _post_job(service, {"schema": DDL, "query": SQL})
        status = _wait_done(service, submitted["id"])
        assert status["state"] == "done", status
        assert status["fingerprint"] == submitted["fingerprint"]
        with urllib.request.urlopen(
            f"{service.url}/v1/jobs/{submitted['id']}/result"
        ) as response:
            assert response.headers["X-Xdata-Cache"] == "miss"
            payload = json.loads(response.read())
        assert payload["canonical_sql"] == status["canonical_sql"]

    def test_duplicate_submission_serves_identical_bytes_from_cache(
        self, service
    ):
        first = _post_job(service, {"schema": DDL, "query": SQL})
        _wait_done(service, first["id"])
        second = _post_job(service, {"schema": DDL, "query": SQL_RESPELLED})
        assert second["fingerprint"] == first["fingerprint"]
        status = _wait_done(service, second["id"])
        assert status["cached"] is True
        bodies = []
        for job in (first, second):
            with urllib.request.urlopen(
                f"{service.url}/v1/jobs/{job['id']}/result"
            ) as response:
                bodies.append(response.read())
        assert bodies[0] == bodies[1]

    def test_result_before_done_is_409_and_unknown_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(service.url + "/v1/jobs/job-999/result")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(service.url + "/v1/jobs/job-999")
        assert excinfo.value.code == 404

    def test_bad_submission_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/v1/jobs",
            data=json.dumps({"query": SQL}).encode(),  # schema missing
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_metrics_exposition_reconciles_with_cache(self, service):
        first = _post_job(service, {"schema": DDL, "query": SQL})
        _wait_done(service, first["id"])
        second = _post_job(service, {"schema": DDL, "query": SQL_RESPELLED})
        _wait_done(service, second["id"])
        with urllib.request.urlopen(service.url + "/metrics") as response:
            text = response.read().decode()
        assert "xdata_service_cache_hits_total 1" in text
        assert "xdata_service_cache_misses_total 1" in text
        assert "xdata_service_jobs_done_total 2" in text
        assert "xdata_service_queue_depth" in text

    def test_evaluate_mode_over_http(self, service):
        submitted = _post_job(
            service, {"schema": DDL, "query": SQL, "mode": "evaluate"}
        )
        _wait_done(service, submitted["id"])
        with urllib.request.urlopen(
            f"{service.url}/v1/jobs/{submitted['id']}/result"
        ) as response:
            payload = json.loads(response.read())
        assert payload["kill"]["total"] > 0

    def test_delete_cancels_only_pending_jobs(self, service):
        submitted = _post_job(service, {"schema": DDL, "query": SQL})
        _wait_done(service, submitted["id"])
        request = urllib.request.Request(
            f"{service.url}/v1/jobs/{submitted['id']}", method="DELETE"
        )
        with urllib.request.urlopen(request) as response:
            body = json.loads(response.read())
        assert body["cancelled"] is False  # already finished
