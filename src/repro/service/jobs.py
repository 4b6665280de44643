"""Async job queue: submit → PENDING/RUNNING/DONE/FAILED/CANCELLED.

The queue is the service's execution core, independent of HTTP: jobs
carry ``(schema, query, mode)`` requests, worker threads execute them
through :class:`repro.api.Session` executors (whose
:class:`~repro.core.generator.GenConfig` routes spec solves into the
shared ``core/parallel`` process pool when ``workers > 1``), and results
land in the content-addressed :class:`~repro.service.cache.SuiteCache`
as canonical payload bytes.

Duplicate submissions are **single-flighted**: the first job owning a
fingerprint solves it, concurrent duplicates block on its completion and
then serve from cache, so a classroom burst of N equivalent spellings
costs one solve.  Per-job deadlines reuse the ``*_deadline_s`` budget
machinery — the time left when a job starts becomes its suite deadline —
and a deadline-limited run that had to budget-skip targets is *not*
cached (the cache holds only complete solves, preserving byte-identity
with unconstrained runs).

With a ``journal_path``, the queue keeps a per-job audit log in the obs
run-journal format (one ``run_start``/``run_end`` pair per job, spans
replayed from the solve trace), validatable with
``python -m repro.obs.journal``.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import queue as _queue
import threading
import time
from dataclasses import dataclass, field

from repro.api import EvalOptions, Session
from repro.core.generator import Budgets, GenConfig
from repro.engine.export import to_csv_map, to_insert_script
from repro.obs.metrics import Metrics
from repro.service.cache import SuiteCache, canonical_bytes
from repro.service.fingerprint import canonical_query, canonical_schema
from repro.solver.search import replace_config

__all__ = [
    "Job",
    "JobQueue",
    "JobRequest",
    "JobState",
    "build_payload",
    "request_key",
]


class JobState(enum.Enum):
    """Job lifecycle; values are the wire spellings."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass(frozen=True)
class JobRequest:
    """One generation/evaluation request as submitted.

    Attributes:
        schema: Raw DDL text or a parsed schema.
        query: The submitted SQL (any spelling; the solve runs on its
            canonical form).
        mode: ``"generate"`` (suite only) or ``"evaluate"`` (suite +
            mutant kill report).
        config: Generator configuration (fingerprinted, so two requests
            differing in a result-affecting knob never share a cache
            entry).
        options: Kill-check switches for ``mode="evaluate"``.
        deadline_s: Wall-clock budget measured from submission; a job
            still queued when it expires fails without solving.
    """

    schema: object
    query: str
    mode: str = "generate"
    config: GenConfig | None = None
    options: EvalOptions | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("generate", "evaluate"):
            raise ValueError(f"unknown job mode {self.mode!r}")


@dataclass
class Job:
    """One submitted request plus its lifecycle state and result."""

    id: str
    request: JobRequest
    fingerprint: str
    canonical_sql: str
    state: JobState = JobState.PENDING
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: True when the result was served from the suite cache.
    cached: bool = False
    #: Canonical payload bytes (DONE jobs only).
    result: bytes | None = None

    def status(self) -> dict:
        """The wire representation for ``GET /v1/jobs/{id}``."""
        return {
            "id": self.id,
            "state": self.state.value,
            "mode": self.request.mode,
            "query": self.request.query,
            "canonical_sql": self.canonical_sql,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


def request_key(fingerprint: str, mode: str, options: EvalOptions | None) -> str:
    """The cache key of a request: fingerprint + everything else that
    shapes the payload (mode, kill-check options)."""
    if mode == "generate":
        return f"{fingerprint}|generate"
    return f"{fingerprint}|evaluate|{options or EvalOptions()!r}"


def _dataset_payload(dataset) -> dict:
    """One dataset's deterministic wire form (no timings, no stats)."""
    return {
        "group": dataset.group,
        "target": dataset.target,
        "purpose": dataset.purpose,
        "relaxation": dataset.relaxation,
        "used_input_db": dataset.used_input_db,
        "attempts": dataset.attempts,
        "tables": to_csv_map(dataset.db, include_empty=True),
        "insert_sql": to_insert_script(dataset.db, include_empty=False),
    }


def build_payload(run, evaluation=None) -> dict:
    """The canonical result payload of a job.

    Deliberately excludes every nondeterministic field (timings,
    per-stage clocks, solver statistics): fingerprint-equal requests
    must serialize to *byte-identical* payloads, and that property is
    asserted end-to-end by ``benchmarks/bench_service.py``.
    """
    suite = run.suite
    health = suite.health
    payload = {
        "canonical_sql": suite.sql,
        "datasets": [_dataset_payload(d) for d in suite.datasets],
        "skipped": [
            {
                "group": s.group,
                "target": s.target,
                "reason": s.reason,
            }
            for s in suite.skipped
        ],
        "health": {
            "completed": health.completed,
            "skipped_equivalent": health.skipped_equivalent,
            "skipped_unsat": health.skipped_unsat,
            "skipped_budget": health.skipped_budget,
            "errored": health.errored,
            "degraded_targets": list(health.degraded_targets),
        },
    }
    if evaluation is not None:
        payload["kill"] = {
            "total": evaluation.total,
            "killed": evaluation.killed,
            "survivors": sorted(str(m) for m in evaluation.survivors),
        }
    return payload


class JobQueue:
    """Thread-backed job queue over a suite cache and session executors.

    Args:
        workers: Worker-thread count.  ``0`` runs synchronously — each
            :meth:`submit` executes inline before returning, which is
            the deterministic mode tests use.
        cache: Shared :class:`SuiteCache`; a fresh in-memory one by
            default.
        journal_path: Per-job audit log in the obs run-journal format.
        config: Default generator configuration for requests that carry
            none.
        max_sessions: Bound on distinct ``(schema, config)`` sessions
            kept warm; least-recently-created beyond that are dropped.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        cache: SuiteCache | None = None,
        journal_path: str | None = None,
        config: GenConfig | None = None,
        max_sessions: int = 8,
    ) -> None:
        self.cache = cache if cache is not None else SuiteCache()
        self.metrics = Metrics()
        self.config = config or GenConfig()
        self.max_sessions = max_sessions
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._pending: _queue.Queue = _queue.Queue()
        self._sessions: dict[str, Session] = {}
        #: key -> Event; presence means a solve for that key is running.
        self._inflight: dict[str, threading.Event] = {}
        self._journal = None
        self._journal_lock = threading.Lock()
        if journal_path is not None:
            from repro.obs.journal import JournalWriter

            self._journal = JournalWriter(journal_path)
        self._closed = False
        self._threads: list[threading.Thread] = []
        for index in range(workers):
            thread = threading.Thread(
                target=self._worker, name=f"xdata-job-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> Job:
        """Enqueue a request; returns its :class:`Job` immediately.

        With ``workers=0`` the job is executed inline instead and is
        already finished on return.
        """
        if self._closed:
            raise RuntimeError("queue is closed")
        config = request.config or self.config
        session = self._session_for(request.schema, config)
        job = Job(
            id=f"job-{next(self._ids)}",
            request=request,
            fingerprint=session.fingerprint(request.query),
            canonical_sql=session.canonical_sql(request.query),
            submitted_at=time.time(),
        )
        with self._lock:
            self._jobs[job.id] = job
        self.metrics.inc("xdata_service_jobs_submitted_total")
        if self._threads:
            self._pending.put(job.id)
            self._update_depth()
        else:
            self._execute(job)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-pending job; running/finished jobs stay put."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.PENDING:
                return False
            job.state = JobState.CANCELLED
            job.finished_at = time.time()
        self.metrics.inc("xdata_service_jobs_cancelled_total")
        return True

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` finishes (poll-based; test helper)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.state.finished:
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"{job_id} still {job.state.value}")
            time.sleep(0.005)

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted job has finished."""
        with self._lock:
            ids = list(self._jobs)
        for job_id in ids:
            self.wait(job_id, timeout)

    def close(self) -> None:
        """Stop the workers (pending jobs are abandoned) and the journal."""
        self._closed = True
        for _ in self._threads:
            self._pending.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._journal is not None:
            self._journal.close()

    def shutdown(self, drain_s: float = 5.0) -> dict:
        """Graceful close: refuse new work, drain RUNNING jobs, stop.

        New submissions are refused immediately; still-PENDING jobs are
        cancelled (their clients see ``cancelled``, an honest answer,
        rather than a connection reset); RUNNING jobs get up to
        ``drain_s`` seconds to finish.  Returns drain accounting:
        ``{"cancelled": n, "abandoned": m}`` where ``abandoned`` counts
        jobs still running when the deadline expired.
        """
        self._closed = True
        with self._lock:
            pending_ids = [
                job.id
                for job in self._jobs.values()
                if job.state is JobState.PENDING
            ]
        cancelled = sum(1 for job_id in pending_ids if self.cancel(job_id))
        deadline = time.monotonic() + max(0.0, drain_s)
        abandoned = 0
        while True:
            with self._lock:
                abandoned = sum(
                    1
                    for job in self._jobs.values()
                    if job.state is JobState.RUNNING
                )
            if abandoned == 0 or time.monotonic() >= deadline:
                break
            time.sleep(0.01)
        self.close()
        return {"cancelled": cancelled, "abandoned": abandoned}

    def snapshot(self) -> dict:
        """Metrics snapshot for ``/metrics`` (queue depth refreshed)."""
        self._update_depth()
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _session_for(self, schema, config: GenConfig) -> Session:
        from repro.service.fingerprint import canonical_config

        key = f"{canonical_schema(schema)}\x1f{canonical_config(config)}"
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                if len(self._sessions) >= self.max_sessions:
                    oldest = next(iter(self._sessions))
                    self._sessions.pop(oldest)
                session = Session(schema, config=config)
                self._sessions[key] = session
            return session

    def _update_depth(self) -> None:
        self.metrics.gauge(
            "xdata_service_queue_depth", self._pending.qsize()
        )

    def _worker(self) -> None:
        while True:
            job_id = self._pending.get()
            if job_id is None:
                return
            self._update_depth()
            job = self.get(job_id)
            if job is None or job.state is not JobState.PENDING:
                continue  # cancelled while queued
            try:
                self._execute(job)
            except Exception as exc:  # defensive: workers must survive
                self._finish(job, JobState.FAILED,
                             error=f"{type(exc).__name__}: {exc}")

    def _execute(self, job: Job) -> None:
        request = job.request
        job.started_at = time.time()
        wait = job.started_at - job.submitted_at
        self.metrics.observe("xdata_service_queue_wait_seconds", wait)
        if request.deadline_s is not None and wait >= request.deadline_s:
            self._finish(
                job, JobState.FAILED,
                error=f"deadline_s={request.deadline_s} expired while queued",
            )
            return
        job.state = JobState.RUNNING
        key = request_key(job.fingerprint, request.mode, request.options)
        try:
            payload, cached = self._resolve(job, key)
        except Exception as exc:
            self._finish(job, JobState.FAILED,
                         error=f"{type(exc).__name__}: {exc}")
            return
        job.result = payload
        job.cached = cached
        self._finish(job, JobState.DONE)

    def _resolve(self, job: Job, key: str) -> tuple[bytes, bool]:
        """Serve ``key`` from cache or solve it, single-flighted.

        Exactly one cache hit or miss is accounted per executed job:
        duplicates that waited on an in-flight owner count as hits once
        the owner's result lands.
        """
        while True:
            owner_event = None
            with self._lock:
                if key in self.cache:
                    hit = True
                else:
                    owner_event = self._inflight.get(key)
                    if owner_event is None:
                        self._inflight[key] = threading.Event()
                        hit = False
            if owner_event is not None:
                owner_event.wait()
                continue  # cache now holds it, or the owner failed
            if hit:
                self.cache.stats.hits += 1
                self.metrics.inc("xdata_service_cache_hits_total")
                payload = self.cache.peek(key)
                self._journal_hit(job)
                return payload, True
            # We own the solve for this key.
            self.cache.stats.misses += 1
            self.metrics.inc("xdata_service_cache_misses_total")
            try:
                payload, complete = self._solve(job)
                if complete:
                    self.cache.put(key, payload)
                return payload, False
            finally:
                with self._lock:
                    self._inflight.pop(key, None).set()

    def _solve(self, job: Job) -> tuple[bytes, bool]:
        """Run the job's pipeline; returns (payload bytes, cacheable)."""
        request = job.request
        config = request.config or self.config
        session = self._session_for(request.schema, config)
        deadline_limited = request.deadline_s is not None
        if deadline_limited:
            remaining = request.deadline_s - (time.time() - job.submitted_at)
            solve_config = self._budgeted(config, max(remaining, 0.01))
            run = _solo_run(session, job.canonical_sql, solve_config)
        elif self._journal is not None and not config.trace:
            # The audit log replays spans from the trace; force it on
            # (observability never changes generated bytes).
            run = _solo_run(
                session, job.canonical_sql,
                replace_config(config, trace=True),
            )
        else:
            run = session.generate(job.canonical_sql)
        evaluation = None
        if request.mode == "evaluate":
            from repro.api import _evaluate_run

            evaluation = _evaluate_run(
                run, request.options or EvalOptions()
            )
        payload = canonical_bytes(build_payload(run, evaluation))
        self._journal_solve(job, run)
        # A run that budget-skipped targets under its per-job deadline
        # is incomplete; caching it would poison byte-identity with
        # unconstrained solves of the same fingerprint.
        complete = not deadline_limited or run.health.skipped_budget == 0
        return payload, complete

    @staticmethod
    def _budgeted(config: GenConfig, remaining_s: float) -> GenConfig:
        """The job's config with the remaining wall clock as suite budget."""
        existing = config.suite_deadline_s
        budget = remaining_s if existing is None else min(existing, remaining_s)
        changes: dict = {"budgets": Budgets(suite_deadline_s=budget)}
        return replace_config(config, **changes)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _finish(self, job: Job, state: JobState, error: str | None = None) -> None:
        job.state = state
        job.error = error
        job.finished_at = time.time()
        if job.started_at is not None:
            self.metrics.observe(
                "xdata_service_job_seconds", job.finished_at - job.started_at
            )
        if state is JobState.DONE:
            self.metrics.inc("xdata_service_jobs_done_total")
        elif state is JobState.FAILED:
            self.metrics.inc("xdata_service_jobs_failed_total")
            self._journal_failure(job)

    def _journal_hit(self, job: Job) -> None:
        if self._journal is None:
            return
        with self._journal_lock:
            self._journal.run_start(job.canonical_sql)
            self._journal.run_end(
                0.0, True, {"job": job.id, "cache": "hit"}
            )

    def _journal_solve(self, job: Job, run) -> None:
        if self._journal is None:
            return
        from repro.obs.trace import span_path_events

        suite = run.suite
        with self._journal_lock:
            self._journal.run_start(job.canonical_sql)
            for root in suite.trace or ():
                for record, path in span_path_events(root):
                    self._journal.span_sink(record, path)
            health = dataclasses.asdict(suite.health)
            health["job"] = job.id
            health["cache"] = "miss"
            self._journal.run_end(suite.elapsed, suite.health.ok, health)

    def _journal_failure(self, job: Job) -> None:
        if self._journal is None:
            return
        with self._journal_lock:
            self._journal.run_start(job.canonical_sql)
            self._journal.event(
                "run_abort", ts=time.time(),
                error=job.error or "unknown failure",
            )


def _solo_run(session: Session, canonical_sql: str, config: GenConfig):
    """One uncached run with a per-job config override.

    Deadline- and trace-overridden solves bypass the session memo (their
    config is not the session's) but reuse its parsed schema.
    """
    from repro.api import Run
    from repro.core.generator import XDataGenerator

    generator = XDataGenerator(session.schema, config)
    return Run(generator.generate(canonical_sql))
