"""Process-pool fan-out for dataset generation.

Every :class:`~repro.core.spec.DatasetSpec` is an independent constraint
problem (Algorithm 1 emits one per mutation-killing target), so the spec
solves parallelise trivially — except that specs hold ``build`` closures,
which do not pickle.  The protocol here sidesteps that:

* the parent ships only ``(schema, sql, config)`` to the workers;
* a worker re-parses and re-analyzes the query, re-derives the *same*
  spec list (``XDataGenerator._derive_specs`` is deterministic for a
  given query, schema and config) and solves the spec at its assigned
  index;
* results come back as picklable :class:`~repro.core.generator.SpecResult`
  objects and are merged in spec order, so a parallel run produces a
  suite identical to a sequential one.

Workers memoize the derived state per process (keyed by a per-dispatch
token), so re-derivation costs one analysis per process, not one per
spec; the per-process database-constraint cache likewise warms up across
the specs a worker handles.  The same holds for the compiled query
skeletons of the delta-solve pipeline (DESIGN.md §5j): skeletons hold
formula graphs with cyclic memo fields and are deliberately *never*
pickled — each worker compiles (or pulls from its own process-level
``_SKELETON_STORE``/``_DECL_STORE``) the skeletons for the specs it is
assigned, and the stores warm up per worker exactly like the
database-constraint cache.

:func:`generate_suites_parallel` applies the same idea one level up for
multi-query workloads: one task per query, each worker running the full
sequential pipeline for its queries.

The process pool is created lazily and kept alive for the life of the
parent process: pool start-up (fork + pipe setup) costs tens of
milliseconds, comparable to a whole solve for small queries, so paying
it once per process instead of once per ``generate()`` call is what
makes spec-level parallelism profitable for workload-sized batches.

Failure isolation (DESIGN.md §5d).  Each item is submitted as its own
future, so one poisoned task cannot take a whole ``map`` batch down
with it:

* task-level exceptions are captured *inside* the worker into picklable
  results (an error :class:`SkippedTarget` for specs, a
  :class:`FailedSuite` for whole queries) unless ``config.fail_fast``;
* a worker crash (or pool-creation failure) breaks only the futures
  without results; the batch emits a
  :class:`~repro.errors.PoolDegradedWarning`, marks itself degraded and
  resumes **only the unfinished indices** sequentially in the parent —
  completed results are never re-solved;
* an optional deadline bounds every wait, so a hung worker degrades the
  run instead of hanging it (the hung process is abandoned with the
  discarded pool; specs still unfinished when the deadline passes come
  back as ``None`` for the caller to budget-skip).

Degradation is loud but lossless — parallelism is a throughput lever,
never a correctness requirement.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import PoolDegradedWarning
from repro.schema.catalog import Schema
from repro.solver.search import replace_config


def effective_workers(
    requested: int, tasks: int, cap_to_cpus: bool = True
) -> int:
    """The pool size actually worth using for ``tasks`` tasks.

    Never more than there are tasks and, by default, never more than the
    machine has CPUs: on an oversubscribed host extra workers cannot run
    concurrently, so they contribute only scheduling churn, duplicated
    cache warm-up and pickling overhead.  ``cap_to_cpus=False`` bypasses
    the hardware cap (tests exercising the pool protocol on small
    machines).
    """
    limit = min(requested, tasks)
    if cap_to_cpus:
        limit = min(limit, os.cpu_count() or 1)
    return max(1, limit)

#: The shared executor, grown on demand, alive until :func:`shutdown_pool`
#: or interpreter exit (concurrent.futures joins workers atexit).
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0

#: Parent-side dispatch tokens; workers key their memoized state on the
#: token so successive dispatches (different schemas, configs, queries)
#: through the same long-lived pool never mix state.
_TOKENS = itertools.count(1)

#: Per-worker-process memo: token -> {"payload": ..., "derived": {...}}.
_WORKER_STATE: dict = {}
_WORKER_STATE_LIMIT = 8


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=False)
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def _discard_pool(cancel: bool = False) -> None:
    global _POOL, _POOL_WORKERS
    if _POOL is not None and cancel:
        _POOL.shutdown(wait=False, cancel_futures=True)
    _POOL = None
    _POOL_WORKERS = 0


def shutdown_pool() -> None:
    """Stop the shared worker pool (it restarts lazily on next use)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=True)
    _discard_pool()


class SupervisedPool:
    """A process pool whose workers can be hard-killed and respawned.

    The campaign driver (``repro.campaign``) needs something the shared
    batch pool deliberately does not offer: a *watchdog* path that kills
    a stuck worker outright (``SIGKILL``, not cooperative cancellation)
    and keeps scheduling on a fresh pool, because a hung case must cost
    one deadline, never the campaign.  The executor is created lazily on
    first :meth:`submit` and transparently recreated after :meth:`kill`,
    so callers treat it as an immortal submit surface.

    Unlike the module-level shared pool, a ``SupervisedPool`` is owned
    by one scheduler; killing it cannot disturb concurrent
    ``generate()`` fan-outs.
    """

    def __init__(self, workers: int):
        self.workers = max(1, workers)
        self._executor: ProcessPoolExecutor | None = None
        #: Pools killed by the watchdog so far (telemetry).
        self.kills = 0

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def submit(self, fn, *args):
        """Submit ``fn(*args)``; recreates the pool if it was killed."""
        return self._ensure().submit(fn, *args)

    def kill(self) -> None:
        """SIGKILL every worker process and discard the executor.

        In-flight futures fail with :class:`BrokenProcessPool` (or stay
        cancelled); the caller is expected to requeue the tasks it still
        cares about.  The next :meth:`submit` starts a fresh pool.
        """
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        self.kills += 1
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:
                pass  # already dead
        executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Orderly shutdown (waits for running tasks)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _warn_degraded(detail: str) -> None:
    warnings.warn(
        f"process-pool fan-out degraded to sequential execution: {detail}",
        PoolDegradedWarning,
        stacklevel=3,
    )


def _worker_state(token: int, payload: tuple) -> dict:
    state = _WORKER_STATE.get(token)
    if state is None:
        if len(_WORKER_STATE) >= _WORKER_STATE_LIMIT:
            _WORKER_STATE.clear()
        state = {"payload": payload, "derived": {}}
        _WORKER_STATE[token] = state
    return state


def _sequential_config(config, strip_journal: bool = False):
    """The config a worker runs with: same semantics, no nested pools.

    ``strip_journal`` is set by the *suite-level* entry points, whose
    workers run whole ``generate()`` calls: concurrent appends to one
    journal file would interleave runs, so the path is removed and
    tracing forced on instead — the parent (see
    ``repro.testing.workload``) replays the shipped span trees into its
    own journal.  Spec-level fan-out keeps the path: workers never open
    it (``_run_spec`` only collects spans), it merely flags
    observability as on.
    """
    changes: dict = {"workers": 1}
    if strip_journal and getattr(config, "journal_path", None) is not None:
        changes["journal_path"] = None
        changes["trace"] = True
    return replace_config(config, **changes)


@dataclass
class BatchOutcome:
    """One batched dispatch: per-item results plus degradation telemetry.

    ``results[i]`` is ``None`` only when the batch deadline expired
    before item ``i`` was solved anywhere.  ``resumed`` lists the
    indices re-run sequentially in the parent after a pool failure —
    by construction disjoint from the indices whose pooled results
    arrived, which are never re-solved.
    """

    results: list
    degraded: bool = False
    resumed: list[int] = field(default_factory=list)
    #: ``time.time()`` stamp taken when the batch's futures were
    #: submitted (0.0 for in-process batches); against each result's
    #: ``started_at`` it yields the pool queue wait (§5e metrics).
    submitted_at: float = 0.0


@dataclass
class FailedSuite:
    """Picklable per-query failure marker (suite-level fan-out).

    Returned in place of a :class:`TestSuite` when a worker's
    ``generate()`` raised and ``config.fail_fast`` was off; the workload
    layer turns it into a per-query error entry.
    """

    sql: str
    error_type: str
    message: str

    @property
    def error(self) -> str:
        return f"{self.error_type}: {self.message}"


def _derived_spec_state(state: dict):
    """(generator, analyzed query, specs, db cache), memoized per token."""
    derived = state["derived"]
    cached = derived.get("specs")
    if cached is None:
        from repro.core.analyze import analyze_query
        from repro.core.generator import XDataGenerator
        from repro.sql.parser import parse_query

        schema, config, sql = state["payload"]
        generator = XDataGenerator(schema, config)
        parsed = parse_query(sql)
        if parsed.has_subquery_predicates:
            from repro.core.decorrelate import decorrelate

            parsed = decorrelate(parsed, schema)
        aq = analyze_query(parsed, schema)
        specs, _skipped = generator._derive_specs(aq)
        cached = (generator, aq, specs, {})
        derived["specs"] = cached
    return cached


def _solve_spec_task(token: int, payload: tuple, spec_index: int):
    """Worker-side spec solve; never lets an exception poison the batch.

    ``_run_spec`` already isolates solve-time failures; this guard
    covers everything outside it (re-parse, re-analysis, spec
    derivation), which would otherwise surface as a future exception
    and be indistinguishable from a pool failure.
    """
    from repro.core.generator import SpecResult
    from repro.core.spec import SkippedTarget

    started = time.time()
    state = _worker_state(token, payload)
    try:
        generator, aq, specs, caches = _derived_spec_state(state)
        result = generator._run_spec(
            aq, specs[spec_index], caches, spec_index=spec_index
        )
        result.started_at = started
        return result
    except Exception as exc:
        if state["payload"][1].fail_fast:
            raise
        return SpecResult(
            None,
            SkippedTarget(
                "pipeline",
                f"spec[{spec_index}]",
                f"error:{type(exc).__name__}",
                detail=str(exc),
            ),
            0.0,
            attempts=0,
            started_at=started,
        )


def _generate_suite_task(token: int, payload: tuple, sql: str):
    state = _worker_state(token, payload)
    generator = state["derived"].get("generator")
    if generator is None:
        from repro.core.generator import XDataGenerator

        schema, config = state["payload"]
        generator = XDataGenerator(schema, config)
        state["derived"]["generator"] = generator
    try:
        return generator.generate(sql)
    except Exception as exc:
        if generator.config.fail_fast:
            raise
        return FailedSuite(sql, type(exc).__name__, str(exc))


def _run_batch(
    task, args: list, pool_size: int, deadline: float | None = None
) -> BatchOutcome:
    """Run ``task(arg)`` for every arg, pooled, with failure isolation.

    Each item is its own future: a crash or timeout loses only the
    unfinished items, which are resumed sequentially in the parent
    (unless the deadline has passed — those stay ``None``).
    """
    count = len(args)
    outcome = BatchOutcome(results=[None] * count)

    def expired() -> bool:
        return deadline is not None and time.perf_counter() > deadline

    if pool_size <= 1:
        for index, arg in enumerate(args):
            if expired():
                outcome.degraded = True
                break
            outcome.results[index] = task(arg)
        return outcome

    futures = None
    try:
        pool = _get_pool(pool_size)
        outcome.submitted_at = time.time()
        futures = [pool.submit(task, arg) for arg in args]
    except (OSError, BrokenProcessPool) as exc:
        _warn_degraded(f"could not dispatch to the pool ({exc!r})")
        _discard_pool()

    broken = futures is None
    timed_out = False
    if futures is not None:
        for index, future in enumerate(futures):
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.perf_counter())
            try:
                outcome.results[index] = future.result(timeout=remaining)
            except _FuturesTimeout:
                if not timed_out:
                    _warn_degraded(
                        "batch deadline expired while waiting on a worker; "
                        "abandoning the pool"
                    )
                timed_out = True
                # Keep scanning with zero timeout: later futures that
                # already finished still surface their results.
            except (OSError, BrokenProcessPool) as exc:
                if not broken:
                    _warn_degraded(f"worker pool broke mid-batch ({exc!r})")
                broken = True
                # Keep scanning: futures completed before the break
                # still hold results and must not be re-solved.
        if timed_out or broken:
            _discard_pool(cancel=True)

    if broken or timed_out:
        outcome.degraded = True
        for index, arg in enumerate(args):
            if outcome.results[index] is not None or expired():
                continue
            outcome.results[index] = task(arg)
            outcome.resumed.append(index)
    return outcome


def solve_specs_parallel(
    schema: Schema,
    sql: str,
    config,
    count: int,
    cap_to_cpus: bool = True,
    deadline: float | None = None,
) -> BatchOutcome:
    """Solve the ``count`` specs of ``sql`` across the shared process pool.

    Returns a :class:`BatchOutcome` whose ``results`` hold one
    :class:`SpecResult` per spec, in spec order (``None`` for specs the
    ``deadline`` — an absolute ``time.perf_counter()`` stamp — cut off).
    Falls back to an in-process sequential run when the effective pool
    size is one or no pool can be created.
    """
    workers = effective_workers(config.workers, count, cap_to_cpus)
    payload = (schema, _sequential_config(config), sql)
    token = next(_TOKENS)
    task = functools.partial(_solve_spec_task, token, payload)
    return _run_batch(task, list(range(count)), workers, deadline)


def _generate_job_task(token: int, payload: tuple, job: tuple[int, str]):
    state = _worker_state(token, payload)
    schema_index, sql = job
    generators = state["derived"].setdefault("generators", {})
    generator = generators.get(schema_index)
    if generator is None:
        from repro.core.generator import XDataGenerator

        config, schemas = state["payload"]
        generator = XDataGenerator(schemas[schema_index], config)
        generators[schema_index] = generator
    try:
        return generator.generate(sql)
    except Exception as exc:
        if generator.config.fail_fast:
            raise
        return FailedSuite(sql, type(exc).__name__, str(exc))


def _flag_degraded_suites(results: list) -> None:
    """Stamp pool degradation on every real suite of a degraded batch."""
    for suite in results:
        if suite is not None and not isinstance(suite, FailedSuite):
            suite.health.pool_degraded = True


def generate_jobs_parallel(
    jobs: list[tuple[Schema, str]], config, workers: int,
    cap_to_cpus: bool = True,
) -> list:
    """One result per ``(schema, sql)`` job, across the shared pool.

    The flat-batch entry point for workload-scale fan-out (many queries
    over many schema variants, as in a grading service).  Schemas are
    deduplicated (by identity) and shipped once in the task payload;
    workers keep one generator per schema so declaration caches warm up
    across the jobs they handle.  Results arrive in job order; a
    failing query yields a :class:`FailedSuite` (with
    ``config.fail_fast`` it raises instead), and pool failures degrade
    to a sequential resume of the unfinished jobs with a
    :class:`PoolDegradedWarning` and ``health.pool_degraded`` set on
    the batch's suites.
    """
    schemas: list[Schema] = []
    schema_index: dict[int, int] = {}
    indexed_jobs: list[tuple[int, str]] = []
    for schema, sql in jobs:
        index = schema_index.get(id(schema))
        if index is None:
            index = schema_index[id(schema)] = len(schemas)
            schemas.append(schema)
        indexed_jobs.append((index, sql))
    pool_size = effective_workers(workers, len(jobs), cap_to_cpus)
    payload = (_sequential_config(config, strip_journal=True), tuple(schemas))
    token = next(_TOKENS)
    task = functools.partial(_generate_job_task, token, payload)
    outcome = _run_batch(task, indexed_jobs, pool_size)
    if outcome.degraded:
        _flag_degraded_suites(outcome.results)
    return outcome.results


def generate_suites_parallel(
    schema: Schema, queries: dict[str, str], config, workers: int,
    cap_to_cpus: bool = True,
) -> dict:
    """One result per query, generated across the shared pool.

    Queries are independent generation problems; each worker runs the
    full sequential pipeline for the queries it is handed.  Results are
    keyed and ordered like ``queries``; a failing query maps to a
    :class:`FailedSuite` instead of poisoning the batch (with
    ``config.fail_fast`` it raises).  Falls back — loudly, see
    :class:`PoolDegradedWarning` — to an in-process sequential run when
    the pool breaks, resuming only the queries without results.
    """
    names = list(queries)
    sqls = [queries[name] for name in names]
    pool_size = effective_workers(workers, len(sqls), cap_to_cpus)
    payload = (schema, _sequential_config(config, strip_journal=True))
    token = next(_TOKENS)
    task = functools.partial(_generate_suite_task, token, payload)
    outcome = _run_batch(task, sqls, pool_size)
    if outcome.degraded:
        _flag_degraded_suites(outcome.results)
    return dict(zip(names, outcome.results))
