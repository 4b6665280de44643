"""Algorithm 1: the XData dataset generator.

:class:`XDataGenerator` ties the whole pipeline together::

    generateDataSet(q):
        preprocess query tree          -> repro.core.analyze
        initializeIndices()            -> repro.core.tuplespace
        generateDataSetForOriginalQuery()
        killEquivalenceClasses()       -> repro.core.kill_eqclass
        killOtherPredicates()          -> repro.core.kill_predicates
        killComparisonOperators()      -> repro.core.kill_comparison
        killAggregates()               -> repro.core.kill_aggregates

Each dataset spec is solved independently with a fresh solver; UNSAT
results are reported as skipped (equivalent) mutation groups, never as
errors.  The number of datasets is linear in query size: at most one per
equivalence-class element, one per (non-equi join predicate, relation),
three per selection conjunct, and one per aggregation operator.
"""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
from dataclasses import InitVar, dataclass, field
from typing import ClassVar

from repro.core import (
    kill_aggregates,
    kill_comparison,
    kill_eqclass,
    kill_predicates,
)
from repro.core.analyze import AnalyzedQuery, analyze_query
from repro.core.assemble import assemble_dataset
from repro.core.dbconstraints import add_fk_support_slots, db_constraints
from repro.core.input_database import input_constraints
from repro.core.spec import DatasetSpec, SkippedTarget
from repro.core.tuplespace import ProblemSpace
from repro.engine.database import Database
from repro.errors import GenerationError, SolverLimitError
from repro.obs import Metrics, Tracer
from repro.obs.trace import NULL_TRACER
from repro.schema.catalog import Schema
from repro.solver.search import SearchConfig, replace_config
from repro.solver.skeleton import compile_skeleton
from repro.solver.solver import Solver, SolveStats
from repro.solver.terms import Formula
from repro.sql.ast import Query
from repro.sql.parser import parse_query


@dataclass(frozen=True)
class Budgets:
    """Every wall-clock budget of a run, under one naming convention.

    Overlay object for :class:`GenConfig`: ``GenConfig(budgets=Budgets(
    suite_deadline_s=30.0))`` applies each non-``None`` field onto the
    matching config knob (``solve_deadline_s`` lands on the nested
    :attr:`GenConfig.solver` search config).  All values are seconds.
    """

    #: Budget for one solver search run (:attr:`SearchConfig.solve_deadline_s`).
    solve_deadline_s: float | None = None
    #: Budget for one spec's whole retry ladder.
    spec_deadline_s: float | None = None
    #: Budget for a whole ``generate()`` call.
    suite_deadline_s: float | None = None
    #: Budget for a pooled run's wait on any single worker result.
    pool_deadline_s: float | None = None


@dataclass
class GenConfig:
    """Generator configuration.

    Attributes:
        unfold: Unfold bounded quantifiers before solving (Section VI-B).
            Turning this off reproduces the paper's slow path.
        include_comparisons: Generate the comparison-operator datasets.
        include_aggregates: Generate the aggregation datasets.
        input_db: Optional input database (Section VI-A).
        input_mode: 'domain' or 'tuples' (see
            :mod:`repro.core.input_database`).
        solver: Search configuration forwarded to every solve call.
        trace_constraints: Attach each dataset's constraint set, rendered
            in CVC3 ASSERT syntax, to the result (debugging aid matching
            the paper's presentation).
    """

    _ALIAS_INITVARS: ClassVar[tuple[str, ...]] = ("pool_timeout_s",)

    unfold: bool = True
    include_comparisons: bool = True
    include_aggregates: bool = True
    input_db: Database | None = None
    input_mode: str = "domain"
    solver: SearchConfig = field(default_factory=SearchConfig)
    trace_constraints: bool = False
    #: Worker processes for dataset generation.  Every spec is an
    #: independent constraint problem; with ``workers > 1`` they are
    #: fanned out across a process pool (see :mod:`repro.core.parallel`)
    #: and merged back in spec order, so the resulting suite is identical
    #: to a sequential run.
    workers: int = 1
    #: Hot-path ablation switch: reuse of the database-constraint formula
    #: list across attempts/specs with the same tuple-space signature.
    #: Off reproduces the seed's rebuild-every-attempt behaviour
    #: (benchmarks only; generated datasets are identical either way).
    hot_path_caching: bool = True
    #: Delta-solve override (DESIGN.md §5j): ``True``/``False`` force
    #: :attr:`SearchConfig.delta_solve` on the forwarded solver config;
    #: ``None`` leaves the solver config as constructed.  Convenience
    #: plumb-through for the CLI's ``--no-delta-solve``.  Delta solving
    #: additionally requires ``unfold`` and ``hot_path_caching`` and is
    #: bypassed for attempts that assert input-database constraints.
    delta_solve: bool | None = None
    #: Extension: anti-coincidence datasets that kill wrong-attribute
    #: join-condition mutants (repro.mutation.joincond); off by default
    #: to preserve the paper's dataset counts.
    include_join_condition_datasets: bool = False
    #: Ablation switches (each disables one of the paper's design
    #: choices; see benchmarks/bench_ablation.py for their effect):
    use_equivalence_classes: bool = True  # Section IV-B / Fig. 2
    use_fk_support_slots: bool = True  # Section V-B extra tuples
    use_groupby_distinctness: bool = True  # aggregate-masking guard
    #: -- fault tolerance (DESIGN.md §5d) --------------------------------
    #: Wall-clock budget for one spec, covering its whole retry ladder
    #: (seconds; ``None`` = unbounded).  Also bounds each individual
    #: solve via :attr:`SearchConfig.deadline_s`.
    spec_deadline_s: float | None = None
    #: Wall-clock budget for the whole :meth:`XDataGenerator.generate`
    #: call; specs not started (or not finished, in a pooled run) when
    #: it expires are skipped with reason ``"budget"``.
    suite_deadline_s: float | None = None
    #: Upper bound on a pooled run's wait for any single worker result;
    #: a hung worker then degrades the run instead of hanging it.
    #: ``suite_deadline_s`` implies the same bound; this one applies
    #: even without a suite deadline.
    pool_deadline_s: float | None = None
    #: Retry ladder (§5d): after a budget trip on the primary attempt,
    #: how many times to retry it with an escalated node budget
    #: (``node_limit * retry_node_factor**i``) before dropping to the
    #: spec's relaxations.
    retries: int = 1
    retry_node_factor: int = 4
    #: Final ladder rung: retry the primary build with ``copies=1``
    #: (best-effort — specs whose builds hard-code the copy count simply
    #: fail the rung).
    retry_shrink_copies: bool = True
    #: Abort the suite on the first degraded spec (budget exhaustion or
    #: unexpected error) instead of recording a skip and continuing.
    #: UNSAT specs are never failures (they are equivalence proofs).
    fail_fast: bool = False
    #: -- observability (DESIGN.md §5e) ----------------------------------
    #: Collect a nested-span trace of the run; the span tree is attached
    #: to the suite as :attr:`TestSuite.trace`.
    trace: bool = False
    #: Aggregate counters/gauges/histograms over the run; the snapshot is
    #: attached as :attr:`TestSuite.metrics`.
    metrics: bool = False
    #: Append the JSON-lines run journal to this file: ``run_start``, one
    #: ``span`` event per span close, and ``run_end`` / ``run_abort`` —
    #: flushed per event, so crashed or deadline-killed runs leave a
    #: complete forensic record.  Pooled *suite-level* fan-out strips the
    #: path from worker configs (one writer only); the workload layer
    #: replays worker span trees into the parent's journal instead.
    journal_path: str | None = None
    #: Deprecated spelling of :attr:`pool_deadline_s` (constructor
    #: keyword only; warns).
    pool_timeout_s: InitVar[float | None] = None
    #: Optional :class:`Budgets` overlay applied onto the deadline knobs.
    budgets: InitVar[Budgets | None] = None

    def __post_init__(
        self, pool_timeout_s: float | None, budgets: Budgets | None
    ) -> None:
        # Apply only when pool_deadline_s was not itself set: replace()
        # round-trips the alias property, and the re-passed old value
        # must not clobber a new pool_deadline_s in the same call.
        if pool_timeout_s is not None and self.pool_deadline_s is None:
            warnings.warn(
                "GenConfig(pool_timeout_s=...) is deprecated; use "
                "pool_deadline_s",
                DeprecationWarning,
                stacklevel=3,
            )
            self.pool_deadline_s = pool_timeout_s
        if self.delta_solve is not None:
            self.solver = replace_config(
                self.solver, delta_solve=self.delta_solve
            )
        if budgets is not None:
            if budgets.solve_deadline_s is not None:
                self.solver = replace_config(
                    self.solver, solve_deadline_s=budgets.solve_deadline_s
                )
            if budgets.spec_deadline_s is not None:
                self.spec_deadline_s = budgets.spec_deadline_s
            if budgets.suite_deadline_s is not None:
                self.suite_deadline_s = budgets.suite_deadline_s
            if budgets.pool_deadline_s is not None:
                self.pool_deadline_s = budgets.pool_deadline_s

    @property
    def observability_on(self) -> bool:
        """True when any of trace / metrics / journal is requested."""
        return self.trace or self.metrics or self.journal_path is not None


def _pool_timeout_s_alias(self) -> float | None:
    warnings.warn(
        "GenConfig.pool_timeout_s is deprecated; read pool_deadline_s",
        DeprecationWarning,
        stacklevel=2,
    )
    return self.pool_deadline_s


# Assigned after the decorator ran so the dataclass machinery sees only
# the InitVar, not the property, as the ``pool_timeout_s`` class attribute.
GenConfig.pool_timeout_s = property(_pool_timeout_s_alias)


@dataclass
class GeneratedDataset:
    """One generated test dataset plus its provenance."""

    group: str
    target: str
    purpose: str
    db: Database
    stats: SolveStats
    relaxation: str | None = None
    used_input_db: bool = False
    constraints_cvc: str | None = None
    #: Solve attempts spent before this dataset emerged (1 = first try;
    #: > 1 means the retry ladder fired).
    attempts: int = 1

    def pretty(self) -> str:
        header = f"[{self.group}] {self.purpose}"
        if self.relaxation:
            header += f" (relaxed: {self.relaxation})"
        return f"{header}\n{self.db.pretty()}"


#: Stage keys reported in :attr:`TestSuite.stage_times`.
STAGES = ("analyze", "build", "preprocess", "search", "assemble")

#: Per-spec outcome category -> metrics counter.  Each counter's total
#: equals the matching :class:`SuiteHealth` field at the end of a run.
_SPEC_COUNTERS = {
    "completed": "xdata_specs_completed_total",
    "unsat": "xdata_specs_skipped_unsat_total",
    "budget": "xdata_specs_skipped_budget_total",
    "error": "xdata_specs_errored_total",
    "equivalent": "xdata_specs_skipped_equivalent_total",
}


@dataclass
class SpecResult:
    """Outcome of solving one :class:`DatasetSpec` (picklable)."""

    dataset: GeneratedDataset | None
    skipped: SkippedTarget | None
    solve_time: float
    stage_times: dict[str, float] = field(default_factory=dict)
    #: Total solve attempts across the retry ladder.
    attempts: int = 1
    #: -- observability (§5e); all picklable, shipped across the pool ----
    #: Closed ``attempt`` span records collected while solving (only when
    #: observability is on), grafted under the parent's ``solve`` span.
    spans: list | None = None
    #: Search nodes expanded across every attempt.
    nodes: int = 0
    #: Attempts aborted by a node/deadline budget trip.
    limit_hits: int = 0
    #: Hot-path cache traffic (domain memo, db-constraint and
    #: declaration-snapshot caches) as counter deltas.
    cache_counts: dict = field(default_factory=dict)
    #: ``time.time()`` stamp when a pool worker picked the spec up (0.0
    #: for in-process solves); with ``BatchOutcome.submitted_at`` this
    #: yields the pool queue wait.
    started_at: float = 0.0


@dataclass
class SuiteHealth:
    """Failure-semantics summary of one suite (DESIGN.md §5d).

    ``completed + skipped_equivalent + skipped_unsat + skipped_budget +
    errored`` covers every derived target; ``degraded_targets`` names
    the budget/error ones so callers can triage without scanning the
    skip list.
    """

    #: Targets that produced a dataset.
    completed: int = 0
    #: Targets proven equivalent without solving (structural proofs).
    skipped_equivalent: int = 0
    #: Targets whose constraints the solver proved UNSAT (equivalent).
    skipped_unsat: int = 0
    #: Targets abandoned after exhausting node/deadline budgets.
    skipped_budget: int = 0
    #: Targets abandoned after an unexpected exception was isolated.
    errored: int = 0
    #: Datasets that needed more than one solve attempt (ladder fired).
    retried: int = 0
    #: True when the process-pool fan-out fell back to sequential
    #: solving (worker crash, timeout, or pool creation failure).
    pool_degraded: bool = False
    #: Wall-clock seconds by outcome category ("completed", "unsat",
    #: "budget", "error").
    time_by_reason: dict[str, float] = field(default_factory=dict)
    #: ``target`` strings of the budget/error skips, in spec order.
    degraded_targets: list[str] = field(default_factory=list)
    #: Subplan-cache traffic of the suite's kill check (DESIGN.md §5g),
    #: filled by :func:`repro.api.evaluate` / the CLI from
    #: ``KillReport.cache_stats``; empty when no cached kill check ran.
    subplan_cache: dict = field(default_factory=dict)
    #: Compiled-query-skeleton traffic of the suite's delta solves
    #: (DESIGN.md §5j): hits/misses of the per-shape skeleton cache and
    #: of the shared-formula rewrite cache.  Empty when delta solving
    #: was off (or never engaged, e.g. input-database runs).
    skeleton_cache: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when nothing failed (equivalences are not failures)."""
        return (
            not self.skipped_budget
            and not self.errored
            and not self.pool_degraded
        )

    def summary(self) -> str:
        parts = [
            f"completed={self.completed}",
            f"equivalent={self.skipped_equivalent + self.skipped_unsat}",
        ]
        if self.skipped_budget:
            parts.append(f"budget={self.skipped_budget}")
        if self.errored:
            parts.append(f"errored={self.errored}")
        if self.retried:
            parts.append(f"retried={self.retried}")
        if self.pool_degraded:
            parts.append("pool-degraded")
        text = "health: " + " ".join(parts)
        if self.degraded_targets:
            text += "\n  degraded: " + ", ".join(self.degraded_targets)
        if self.subplan_cache:
            stats = self.subplan_cache
            text += (
                f"\n  subplan cache: {stats.get('hit_rate', 0.0):.0%} hit rate "
                f"({stats.get('hits', 0)} hits / {stats.get('misses', 0)} misses)"
            )
        if self.skeleton_cache:
            stats = self.skeleton_cache
            text += (
                f"\n  skeleton cache: {stats.get('hit_rate', 0.0):.0%} hit rate "
                f"({stats.get('hits', 0)} hits / {stats.get('misses', 0)} misses, "
                f"{stats.get('rewrite_hits', 0)} rewrite hits)"
            )
        return text


@dataclass
class TestSuite:
    """The full result of Algorithm 1 for one query."""

    sql: str
    analyzed: AnalyzedQuery
    datasets: list[GeneratedDataset]
    skipped: list[SkippedTarget]
    elapsed: float
    solve_time: float
    #: A1-A8 audit findings (see repro.core.assumptions); non-empty means
    #: the completeness guarantee may not cover this query.
    warnings: list = field(default_factory=list)
    #: Wall-clock per pipeline stage, keyed by :data:`STAGES`:
    #: analyze (parse + analysis + spec derivation), build (constraint
    #: construction), preprocess / search (solver-internal split), and
    #: assemble (model -> Database).  Stages running in worker processes
    #: report their in-worker time.
    stage_times: dict[str, float] = field(default_factory=dict)
    #: Failure-semantics summary: what completed, what degraded and why.
    health: SuiteHealth = field(default_factory=SuiteHealth)
    #: Root span records of the run's trace (:attr:`GenConfig.trace`),
    #: else ``None``.  Render with :func:`repro.testing.report.format_trace`.
    trace: list | None = None
    #: Metrics snapshot (:attr:`GenConfig.metrics`), else ``None``.
    #: Render with :func:`repro.obs.render_text` / ``render_json``.
    metrics: dict | None = None

    @property
    def databases(self) -> list[Database]:
        return [d.db for d in self.datasets]

    def count(self, group: str | None = None) -> int:
        if group is None:
            return len(self.datasets)
        return sum(1 for d in self.datasets if d.group == group)

    def non_original_count(self) -> int:
        """Dataset count excluding the original-query dataset.

        This matches Table I/II's "#Datasets Generated" convention, which
        "does not include the dataset generated to satisfy the original
        query".
        """
        return sum(1 for d in self.datasets if d.group != "original")

    def pretty(self) -> str:
        # Health formatting lives in SuiteHealth.summary() alone; the old
        # inline line also miscounted (it called every skip "equivalent",
        # budget/error skips included) and never adjusted its plural.
        datasets = len(self.datasets)
        skips = len(self.skipped)
        blocks = [
            f"Test suite for: {self.sql}",
            f"  {datasets} dataset{'' if datasets == 1 else 's'}, "
            f"{skips} mutation group{'' if skips == 1 else 's'} skipped\n"
            f"  {self.health.summary()}",
        ]
        for dataset in self.datasets:
            blocks.append(dataset.pretty())
        return "\n\n".join(blocks)


def _original_spec(aq: AnalyzedQuery) -> DatasetSpec:
    copies = 1
    if aq.having:
        from repro.core.kill_having import MAX_COPIES
        from repro.engine.values import sql_compare

        # Pick a tuple-set count satisfying every COUNT-style conjunct.
        # COUNT op constant needs up to MAX_COPIES + 1 copies (e.g.
        # COUNT > MAX_COPIES is first true at MAX_COPIES + 1).
        for candidate in range(1, MAX_COPIES + 2):
            if all(
                h.agg.func != "COUNT"
                or sql_compare(h.op, candidate, h.constant) is True
                for h in aq.having
            ):
                copies = candidate
                break

    def build(space: ProblemSpace) -> list[Formula]:
        # Reads space.copies (== spec.copies normally) rather than the
        # captured count, so the copies=1 degradation rung can replay
        # this build over a smaller space.
        conds: list[Formula] = []
        for copy in range(space.copies):
            for ec in space.aq.eq_classes:
                conds.extend(space.eq_class_conditions(ec, copy=copy))
            for info in space.aq.selections + space.aq.other_joins:
                conds.append(space.pred_formula(info.pred, copy=copy))
        if space.aq.having:
            from repro.core.kill_having import satisfy_all
            from repro.solver import builders

            for attr in space.aq.group_by:
                for copy in range(space.copies - 1):
                    conds.append(
                        builders.eq(
                            space.attr_var(attr, copy),
                            space.attr_var(attr, copy + 1),
                        )
                    )
            forced = satisfy_all(space, space.copies)
            if forced is not None:
                conds.extend(forced)
        return conds

    return DatasetSpec(
        group="original",
        target="original-query",
        purpose="non-empty result for the original query",
        build=build,
        copies=copies,
    )


#: Parsed-AST cache keyed by query text (hot-path mode only).  The AST is
#: immutable — every node in :mod:`repro.sql.ast` is a frozen dataclass and
#: neither analysis nor decorrelation mutates one — so a single parse can
#: serve every generator and schema variant that sees the same SQL text.
_PARSE_CACHE: dict[str, Query] = {}


#: Process-level compiled-skeleton store (DESIGN.md §5j), keyed by the
#: request fingerprint (canonical schema + query + config — the suite
#: cache's content address, under which generation is byte-identical)
#: plus the tuple-space shape signature.  The per-run skeleton cache
#: amortises compiles across the sibling groups of one ``generate()``
#: call; this store amortises them across calls — re-running the same
#: query (benchmark rounds, campaign re-visits, service sessions)
#: re-uses the compiled shared system and its warm rewrite cache
#: instead of recompiling per run.  Per process: pool workers each
#: grow their own store; skeletons are never pickled.
_SKELETON_STORE: dict[tuple, object] = {}
_SKELETON_STORE_CAP = 512

#: Process-level declaration-snapshot store, same keying and contract
#: as :data:`_SKELETON_STORE`: (request fingerprint, shape key) ->
#: :class:`~repro.core.tuplespace.SpaceSnapshot`.  Snapshots are
#: already replayed copy-on-write across the sibling specs of one run;
#: the store replays them across runs of the same request.
_DECL_STORE: dict[tuple, object] = {}


def clear_process_stores() -> None:
    """Drop every process-level compiled skeleton and declaration
    snapshot (tests, memory pressure)."""
    _SKELETON_STORE.clear()
    _DECL_STORE.clear()


def _store_put(store: dict, key: tuple, value) -> None:
    """Insert with FIFO eviction at the shared cap.  The stores exist
    for repeat-request workloads; any eviction only costs a recompile
    or re-declaration on the next visit."""
    if len(store) >= _SKELETON_STORE_CAP:
        del store[next(iter(store))]
    store[key] = value


def _request_fingerprint(schema: Schema, query_sql: str, config) -> str:
    """Content address of one generation request.

    ``query_sql`` must be the *exact* rendered SQL of the analyzed
    query, not its :func:`~repro.service.fingerprint.canonical_query`
    form: alias renamings produce identical datasets (so the service
    suite cache may merge them) but different slot *names*, and the
    skeleton/declaration stores hold slot-name-addressed state.  The
    schema render is memoized on the (construction-validated, never
    mutated) schema instance, leaving only the config render per call.
    """
    from repro.service.fingerprint import (
        canonical_config,
        canonical_schema,
        fingerprint_parts,
    )

    canon_schema = getattr(schema, "_canon_memo", None)
    if canon_schema is None:
        canon_schema = canonical_schema(schema)
        schema._canon_memo = canon_schema
    return fingerprint_parts(
        canon_schema, query_sql, canonical_config(config)
    )


def _fault_hooks_enabled() -> bool:
    """Cheap per-attempt gate for the test-only fault-injection hook.

    Mirrors :mod:`repro.testing.faults` (FAULTS_ENV / LOG_ENV) without
    importing it — the hook must cost two dict lookups when idle.
    """
    return bool(
        os.environ.get("XDATA_FAULTS") or os.environ.get("XDATA_FAULTS_LOG")
    )


def _bump(counts: dict | None, key: str, amount: int = 1) -> None:
    """Add to a cache counter, when a counts dict is threaded in."""
    if counts is not None:
        counts[key] = counts.get(key, 0) + amount


def _parse_cached(query: str) -> Query:
    parsed = _PARSE_CACHE.get(query)
    if parsed is None:
        if len(_PARSE_CACHE) >= 256:
            _PARSE_CACHE.clear()
        parsed = _PARSE_CACHE[query] = parse_query(query)
    return parsed


class XDataGenerator:
    """Generates complete mutant-killing test suites for SQL queries."""

    def __init__(self, schema: Schema, config: GenConfig | None = None):
        self.schema = schema
        self.config = config or GenConfig()

    # -- public API ---------------------------------------------------------

    def generate(self, query: str | Query) -> TestSuite:
        """Run Algorithm 1 for ``query`` and return the test suite.

        Queries with EXISTS / IN (SELECT ...) predicates are decorrelated
        into joins first (Section V-H) when that is multiplicity-safe.

        With observability on (:attr:`GenConfig.trace` / ``metrics`` /
        ``journal_path``, see DESIGN.md §5e) the suite also carries the
        span tree and the metrics snapshot, and every span close is
        journalled as it happens — a run killed mid-flight still leaves
        its events on disk.
        """
        config = self.config
        journal = None
        metrics = None
        tracer = NULL_TRACER
        if config.observability_on:
            if config.journal_path is not None:
                # Imported lazily so `python -m repro.obs.journal` can
                # run the validator without runpy's re-execution warning.
                from repro.obs import JournalWriter

                journal = JournalWriter(config.journal_path)
                journal.run_start(query if isinstance(query, str) else None)
            tracer = Tracer(
                sink=journal.span_sink if journal is not None else None
            )
            if config.metrics:
                metrics = Metrics()
        try:
            suite = self._generate(query, tracer, metrics)
        except BaseException as exc:
            if journal is not None:
                journal.run_abort(exc)
                journal.close()
            raise
        if config.trace:
            suite.trace = tracer.roots
        if metrics is not None:
            suite.metrics = metrics.snapshot()
        if journal is not None:
            journal.run_end(
                suite.elapsed, suite.health.ok,
                dataclasses.asdict(suite.health), suite.metrics,
            )
            journal.close()
        return suite

    def _generate(
        self, query: str | Query, tracer: Tracer, metrics: Metrics | None
    ) -> TestSuite:
        start = time.perf_counter()
        config = self.config
        with tracer.span("generate") as root:
            with tracer.span("parse") as record:
                if isinstance(query, str):
                    if config.hot_path_caching:
                        if metrics is not None:
                            metrics.inc(
                                "xdata_cache_parse_hits"
                                if query in _PARSE_CACHE
                                else "xdata_cache_parse_misses"
                            )
                        parsed = _parse_cached(query)
                    else:
                        parsed = parse_query(query)
                else:
                    parsed = query
                if parsed.has_subquery_predicates:
                    from repro.core.decorrelate import decorrelate

                    parsed = decorrelate(parsed, self.schema)
                    record["attrs"]["decorrelated"] = True
            with tracer.span("analyze"):
                aq = analyze_query(parsed, self.schema)
            with tracer.span("derive_specs") as record:
                specs, skipped = self._derive_specs(aq)
                record["attrs"]["specs"] = len(specs)
                record["attrs"]["structural_skips"] = len(skipped)
            analyze_time = time.perf_counter() - start
            sql = query if isinstance(query, str) else str(parsed)

            suite_deadline = (
                start + config.suite_deadline_s
                if config.suite_deadline_s is not None
                else None
            )
            results: list[SpecResult]
            pool_degraded = False
            use_pool = False
            if config.workers > 1 and len(specs) > 1:
                from repro.core.parallel import effective_workers

                use_pool = effective_workers(config.workers, len(specs)) > 1
            if use_pool:
                from repro.core.parallel import solve_specs_parallel

                pool_deadline = suite_deadline
                if config.pool_deadline_s is not None:
                    stamp = time.perf_counter() + config.pool_deadline_s
                    pool_deadline = (
                        stamp if pool_deadline is None
                        else min(pool_deadline, stamp)
                    )
                outcome = solve_specs_parallel(
                    self.schema, sql, config, len(specs),
                    deadline=pool_deadline,
                )
                pool_degraded = outcome.degraded
                if metrics is not None:
                    metrics.gauge(
                        "xdata_pool_workers",
                        effective_workers(config.workers, len(specs)),
                    )
                    metrics.gauge("xdata_pool_degraded", int(outcome.degraded))
                    resumed = set(outcome.resumed)
                    for index, result in enumerate(outcome.results):
                        if (
                            result is not None
                            and index not in resumed
                            and outcome.submitted_at
                            and result.started_at
                        ):
                            metrics.observe(
                                "xdata_pool_queue_wait_seconds",
                                max(
                                    0.0,
                                    result.started_at - outcome.submitted_at,
                                ),
                            )
                results = [
                    result
                    if result is not None
                    else SpecResult(
                        None,
                        SkippedTarget(
                            spec.group, spec.target, "budget",
                            detail="suite budget exhausted before the spec "
                            "was solved",
                        ),
                        0.0,
                        attempts=0,
                    )
                    for spec, result in zip(specs, outcome.results)
                ]
            else:
                caches: dict = {}
                if (
                    config.solver.delta_solve
                    and config.unfold
                    and config.hot_path_caching
                ):
                    # Content address of this request.  Scopes the
                    # process-level skeleton store: same scope ==
                    # identical (schema, analyzed query text, config) ==
                    # identical slot declarations and shared constraint
                    # systems, so cross-run reuse is sound by
                    # construction.  The exact post-analysis render is
                    # deliberate — see _request_fingerprint.
                    from repro.sql.printer import to_sql

                    caches["skeleton_scope"] = _request_fingerprint(
                        self.schema, to_sql(parsed), config
                    )
                results = []
                for index, spec in enumerate(specs):
                    if (
                        suite_deadline is not None
                        and time.perf_counter() > suite_deadline
                    ):
                        results.append(
                            SpecResult(
                                None,
                                SkippedTarget(
                                    spec.group, spec.target, "budget",
                                    detail="suite deadline exceeded",
                                ),
                                0.0,
                                attempts=0,
                            )
                        )
                        continue
                    results.append(
                        self._run_spec(
                            aq, spec, caches, spec_index=index,
                            suite_deadline=suite_deadline,
                        )
                    )

            datasets: list[GeneratedDataset] = []
            solve_time = 0.0
            stage_times = {name: 0.0 for name in STAGES}
            stage_times["analyze"] = analyze_time
            health = SuiteHealth(pool_degraded=pool_degraded)
            health.skipped_equivalent = len(skipped)
            if metrics is not None and skipped:
                # Structural equivalence proofs never reach the solver;
                # count them here so spec counters reconcile with health.
                metrics.inc(
                    "xdata_specs_skipped_equivalent_total", len(skipped)
                )
            time_by = health.time_by_reason
            skeleton_counts = {
                "hits": 0, "misses": 0,
                "rewrite_hits": 0, "rewrite_misses": 0,
            }
            for index, result in enumerate(results):
                spec = specs[index]
                fail_fast_message = None
                solve_time += result.solve_time
                for key in skeleton_counts:
                    skeleton_counts[key] += result.cache_counts.get(
                        f"skeleton_{key}", 0
                    )
                for name, spent in result.stage_times.items():
                    stage_times[name] = stage_times.get(name, 0.0) + spent
                if result.dataset is not None:
                    status = "completed"
                    category = "completed"
                    span_elapsed = result.solve_time
                    datasets.append(result.dataset)
                    health.completed += 1
                    if result.attempts > 1:
                        health.retried += 1
                    time_by["completed"] = (
                        time_by.get("completed", 0.0) + result.solve_time
                    )
                else:
                    skip = result.skipped
                    if skip is None:
                        continue
                    skipped.append(skip)
                    span_elapsed = skip.elapsed
                    if skip.reason == "budget":
                        health.skipped_budget += 1
                        category = "budget"
                    elif skip.reason.startswith("error:"):
                        health.errored += 1
                        category = "error"
                    elif skip.reason == "unsat":
                        health.skipped_unsat += 1
                        category = "unsat"
                    else:
                        health.skipped_equivalent += 1
                        category = "equivalent"
                    # A budget skip that never got an attempt means the
                    # suite/pool deadline killed the spec outright.
                    status = (
                        "killed-by-deadline"
                        if category == "budget" and result.attempts == 0
                        else f"skipped:{skip.reason}"
                    )
                    time_by[category] = (
                        time_by.get(category, 0.0) + skip.elapsed
                    )
                    if skip.is_degraded:
                        health.degraded_targets.append(skip.target)
                        if config.fail_fast:
                            fail_fast_message = (
                                f"fail-fast: {skip.target} degraded "
                                f"({skip.reason}"
                                + (f": {skip.detail}" if skip.detail else "")
                                + ")"
                            )
                if tracer.enabled:
                    tracer.add_record({
                        "name": "solve",
                        "start_s": 0.0,
                        "elapsed_s": round(span_elapsed, 6),
                        "status": status,
                        "attrs": {
                            "spec": index,
                            "group": spec.group,
                            "target": spec.target,
                            "attempts": result.attempts,
                            "nodes": result.nodes,
                            "limit_hits": result.limit_hits,
                            "cache": result.cache_counts,
                        },
                        "children": list(result.spans or ()),
                    })
                if metrics is not None:
                    metrics.inc("xdata_specs_total")
                    metrics.inc(_SPEC_COUNTERS[category])
                    metrics.inc("xdata_solver_nodes_total", result.nodes)
                    metrics.inc("xdata_limit_hits_total", result.limit_hits)
                    metrics.inc_all(result.cache_counts, prefix="xdata_cache_")
                    metrics.observe(
                        "xdata_solve_latency_seconds", result.solve_time
                    )
                    metrics.observe("xdata_retry_ladder_depth", result.attempts)
                if fail_fast_message is not None:
                    # Raised only after the spec's span/metrics landed, so
                    # the journal still accounts for the fatal spec.
                    raise GenerationError(fail_fast_message)
            lookups = skeleton_counts["hits"] + skeleton_counts["misses"]
            if lookups:
                health.skeleton_cache = dict(
                    skeleton_counts,
                    hit_rate=skeleton_counts["hits"] / lookups,
                )
                if metrics is not None:
                    for key, value in skeleton_counts.items():
                        metrics.inc(
                            f"xdata_skeleton_cache_{key}_total", value
                        )
            elapsed = time.perf_counter() - start
            with tracer.span("assemble") as record:
                from repro.core.assumptions import check_assumptions

                suite = TestSuite(
                    sql, aq, datasets, skipped, elapsed, solve_time,
                    warnings=check_assumptions(aq),
                    stage_times=stage_times,
                    health=health,
                )
                record["attrs"]["datasets"] = len(datasets)
                record["attrs"]["skipped"] = len(skipped)
            root["attrs"]["specs"] = len(specs)
            root["attrs"]["datasets"] = len(datasets)
            root["attrs"]["degraded"] = len(health.degraded_targets)
        return suite

    def _derive_specs(
        self, aq: AnalyzedQuery
    ) -> tuple[list[DatasetSpec], list[SkippedTarget]]:
        """Enumerate every dataset spec for ``aq``, in canonical order.

        The order is deterministic for a given (query, schema, config):
        worker processes rely on this to re-derive a spec from its index
        alone (specs hold closures, which do not pickle).
        """
        aq.pools.cache_enabled = self.config.hot_path_caching
        specs: list[DatasetSpec] = [_original_spec(aq)]
        skipped: list[SkippedTarget] = []

        ec_specs, ec_skipped = kill_eqclass.specs(
            aq,
            merged_ecs=self.config.use_equivalence_classes,
            groupby_distinct=self.config.use_groupby_distinctness,
        )
        specs.extend(ec_specs)
        skipped.extend(ec_skipped)

        pred_specs, pred_skipped = kill_predicates.specs(
            aq, groupby_distinct=self.config.use_groupby_distinctness
        )
        specs.extend(pred_specs)
        skipped.extend(pred_skipped)

        if self.config.include_comparisons:
            cmp_specs, cmp_skipped = kill_comparison.specs(aq)
            specs.extend(cmp_specs)
            skipped.extend(cmp_skipped)

        if self.config.include_aggregates:
            agg_specs, agg_skipped = kill_aggregates.specs(aq)
            specs.extend(agg_specs)
            skipped.extend(agg_skipped)

        if self.config.include_join_condition_datasets:
            from repro.core import kill_joincond

            jc_specs, jc_skipped = kill_joincond.specs(aq)
            specs.extend(jc_specs)
            skipped.extend(jc_skipped)

        if aq.having:
            from repro.core import kill_having

            hav_specs, hav_skipped = kill_having.specs(aq)
            specs.extend(hav_specs)
            skipped.extend(hav_skipped)

        if aq.null_tests:
            from repro.core import kill_nulltest

            null_specs, null_skipped = kill_nulltest.specs(aq)
            specs.extend(null_specs)
            skipped.extend(null_skipped)

        return specs, skipped

    # -- internals --------------------------------------------------------------

    def _attempt_config(
        self, node_scale: int, remaining_s: float | None
    ) -> SearchConfig:
        """The search config for one ladder attempt.

        Scales the node budget (escalation rungs) and clamps the solver
        deadline to the time left in the spec/suite budget.
        """
        base = self.config.solver
        deadline = base.solve_deadline_s
        if remaining_s is not None:
            deadline = (
                remaining_s if deadline is None else min(deadline, remaining_s)
            )
        if node_scale == 1 and deadline == base.solve_deadline_s:
            return base
        return replace_config(
            base, node_limit=base.node_limit * node_scale,
            solve_deadline_s=deadline,
        )

    def _db_constraints_for(
        self, space: ProblemSpace, db_cache: dict,
        counts: dict | None = None,
    ):
        """Database constraints, cached per tuple-space signature.

        The pk/fk formula set depends only on the slot counts per table
        and the forced-null triples — attempts, input-option retries and
        sibling specs with the same signature produce structurally
        identical formulas over the same variable names, so one list is
        built and shared.  Shared formulas also amortise their
        ``unfold_formula`` / ``formula_variables`` memos across solves.

        ``counts`` (observability, §5e) receives hit/miss deltas under
        the ``db_constraints_*`` keys.
        """
        if not self.config.hot_path_caching:
            return db_constraints(space)
        signature = (
            space.copies,
            tuple(sorted(space.sizes.items())),
            frozenset(space.forced_nulls),
        )
        cached = db_cache.get(signature)
        if cached is None:
            _bump(counts, "db_constraints_misses")
            cached = db_constraints(space)
            db_cache[signature] = cached
        else:
            _bump(counts, "db_constraints_hits")
        return cached

    def _skeleton_for(
        self, space: ProblemSpace, spec: DatasetSpec, shared_formulas,
        skel_cache: dict, counts: dict | None = None,
        scope: str | None = None,
    ):
        """Compiled query skeleton for ``spec``'s shape, cached per run.

        The key (:meth:`DatasetSpec.skeleton_signature`) captures
        everything the shared system depends on: copies + support
        columns determine the declared-variable set *and its insertion
        order* (which drives the member scans and thus domain
        ordering), and the forced-null triples select which FK
        constraints exist.  ``shared_formulas`` is a zero-argument
        callable producing the exact formula list a full compile would
        assert after the delta — called only on a miss, so cache hits
        never build the shared system at all.  Returns
        ``(skeleton, "hit" | "miss")``.

        With ``scope`` set (the request fingerprint) a run-level miss
        falls through to the process-level :data:`_SKELETON_STORE`, so
        repeat runs of the same request skip the compile entirely.
        """
        key = spec.skeleton_signature(
            space, self.config.use_fk_support_slots
        )
        skeleton = skel_cache.get(key)
        if skeleton is not None:
            _bump(counts, "skeleton_hits")
            return skeleton, "hit"
        if scope is not None:
            store_key = (scope, key)
            skeleton = _SKELETON_STORE.get(store_key)
            if skeleton is not None:
                _bump(counts, "skeleton_hits")
                skel_cache[key] = skeleton
                return skeleton, "hit"
        _bump(counts, "skeleton_misses")
        skeleton = compile_skeleton(
            shared_formulas(), space.solver._infos, space.solver.config
        )
        skel_cache[key] = skeleton
        if scope is not None:
            _store_put(_SKELETON_STORE, (scope, key), skeleton)
        return skeleton, "miss"

    def _declared_space(
        self,
        aq: AnalyzedQuery,
        spec: DatasetSpec,
        decl_cache: dict,
        search_config: SearchConfig | None = None,
        counts: dict | None = None,
        scope: str | None = None,
    ) -> ProblemSpace:
        """A fresh, fully-declared problem space for ``spec``.

        The declared state depends only on (query, copies, support-column
        sequence); with hot-path caching on, it is built once per shape
        and replayed from a snapshot for every sibling attempt and spec.
        Support columns vary per spec, so the per-``copies`` base
        declaration (occurrence slots only) is snapshotted separately and
        spec-specific support slots are declared incrementally on top —
        declaration order (occurrence slots first, then support slots)
        matches a from-scratch build, so interned codes are identical.

        ``scope`` (the request fingerprint, set on the delta-solve
        path) additionally keys the snapshots into the process-level
        :data:`_DECL_STORE`, so repeat runs replay them instead of
        re-declaring.
        """
        search_config = search_config or self.config.solver
        support = (
            tuple(spec.support_columns)
            if self.config.use_fk_support_slots
            else ()
        )
        if not self.config.hot_path_caching:
            solver = Solver(search_config)
            space = ProblemSpace(aq, solver, copies=spec.copies)
            for table, column in support:
                add_fk_support_slots(space, table, column)
            space.finalize_declarations()
            return space
        key = (spec.copies, support)
        snap = decl_cache.get(key)
        if snap is None and scope is not None:
            snap = _DECL_STORE.get((scope, key))
            if snap is not None:
                decl_cache[key] = snap
        if snap is not None:
            _bump(counts, "declaration_hits")
            return ProblemSpace.restore(aq, snap, search_config)
        _bump(counts, "declaration_misses")
        base_key = (spec.copies, ())
        base = decl_cache.get(base_key)
        if base is None and scope is not None:
            base = _DECL_STORE.get((scope, base_key))
            if base is not None:
                decl_cache[base_key] = base
        if base is None:
            solver = Solver(search_config)
            # Sibling base builds (other ``copies`` shapes) declare the
            # same schema-wide value set in the same first-occurrence
            # order, so they replay the first base's warm symbol table
            # (and its frozen universes) instead of re-interning it.
            warm = decl_cache.get("__warm_symbols__")
            if warm is not None:
                solver.symbols = warm.copy()
                solver.warm_declarations = True
            space = ProblemSpace(aq, solver, copies=spec.copies)
            space.finalize_declarations()
            base = space.snapshot()
            decl_cache[base_key] = base
            if scope is not None:
                _store_put(_DECL_STORE, (scope, base_key), base)
            if warm is None:
                decl_cache["__warm_symbols__"] = base.symbols
        space = ProblemSpace.restore(aq, base, search_config)
        if support:
            for table, column in support:
                add_fk_support_slots(space, table, column)
            space.finalize_declarations()
            snap = space.snapshot()
            decl_cache[key] = snap
            if scope is not None:
                _store_put(_DECL_STORE, (scope, key), snap)
        return space

    def _run_spec(
        self,
        aq: AnalyzedQuery,
        spec: DatasetSpec,
        caches: dict | None = None,
        spec_index: int | None = None,
        suite_deadline: float | None = None,
    ) -> SpecResult:
        """Solve one spec through the retry ladder (DESIGN.md §5d).

        No failure escapes unless ``fail_fast`` is set: budget overruns
        and unexpected exceptions become :class:`SkippedTarget` reasons
        ``"budget"`` / ``"error:<Type>"``, distinct from ``"unsat"``.
        The ladder: primary build → primary with escalated node budgets
        (only after a budget trip — UNSAT is definitive) → the spec's
        relaxations → a best-effort ``copies=1`` degradation (failures
        only, never after a clean UNSAT).
        """
        if caches is None:
            caches = {}
        db_cache = caches.setdefault("db", {})
        decl_cache = caches.setdefault("decl", {})
        # Compiled query skeletons (§5j).  Rides the same per-run cache
        # dict, so pooled runs get one per worker (skeletons hold live
        # formula objects and are never pickled across the pool).
        skel_cache = caches.setdefault("skeleton", {})
        skel_scope = caches.get("skeleton_scope")
        config = self.config
        started = time.perf_counter()
        deadline = (
            started + config.spec_deadline_s
            if config.spec_deadline_s is not None
            else None
        )
        if suite_deadline is not None:
            deadline = (
                suite_deadline if deadline is None
                else min(deadline, suite_deadline)
            )

        solve_time = 0.0
        stage = {"build": 0.0, "preprocess": 0.0, "search": 0.0, "assemble": 0.0}
        attempts = 0
        budget_trips = 0
        budget_detail = ""
        first_error: tuple[str, str] | None = None
        inject = spec_index is not None and _fault_hooks_enabled()
        # Observability (§5e): attempt spans are collected on a local
        # tracer — this method also runs inside pool workers, so the
        # records travel back with the (picklable) SpecResult and the
        # parent grafts them under its own solve span.
        local = Tracer() if config.observability_on else NULL_TRACER
        nodes_total = 0
        limit_hits = 0
        counts: dict[str, int] = {}

        def tally(space) -> SolveStats | None:
            nonlocal solve_time, nodes_total, limit_hits
            stats = space.solver.last_stats if space is not None else None
            if stats is None:
                return None
            solve_time += stats.elapsed
            stage["preprocess"] += stats.preprocess_time
            stage["search"] += stats.search_time
            nodes_total += stats.nodes
            counts["domain_hits"] = (
                counts.get("domain_hits", 0) + stats.cache_hits
            )
            counts["domain_misses"] = (
                counts.get("domain_misses", 0) + stats.cache_misses
            )
            if stats.limit_hit:
                limit_hits += 1
            return stats

        def spec_result(dataset: GeneratedDataset | None,
                        skip: SkippedTarget | None) -> SpecResult:
            return SpecResult(
                dataset,
                skip,
                solve_time,
                stage,
                attempts=attempts,
                spans=local.roots or None,
                nodes=nodes_total,
                limit_hits=limit_hits,
                cache_counts=counts,
            )

        def attempt(rung_spec, build, note, node_scale):
            """One build through the input options.

            Returns a :class:`SpecResult` on SAT, else the rung outcome
            code: ``'unsat'`` | ``'budget'`` | ``'error'``.
            """
            nonlocal attempts, budget_trips, budget_detail, first_error
            outcome = "unsat"
            for use_input in self._input_options():
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        budget_trips += 1
                        budget_detail = budget_detail or "deadline exhausted"
                        return "budget"
                attempts += 1
                with local.span(
                    "attempt",
                    rung=note if note else "primary",
                    node_scale=node_scale,
                    input_db=use_input,
                ) as arec:
                    space = None
                    try:
                        build_start = time.perf_counter()
                        space = self._declared_space(
                            aq, rung_spec, decl_cache,
                            self._attempt_config(node_scale, remaining),
                            counts=counts, scope=skel_scope,
                        )
                        solver = space.solver
                        # Delta solving (§5j) needs the shared system
                        # asserted strictly after the delta (prefix
                        # property) and owned by the skeleton; input
                        # constraints break that layout, so such
                        # attempts take the full-compile path.
                        use_delta = (
                            solver.config.delta_solve
                            and config.unfold
                            and config.hot_path_caching
                            and not use_input
                        )
                        solver.add_all(build(space))
                        self._apply_null_tests(aq, space, rung_spec)

                        # Built lazily: a warm skeleton hit (§5j)
                        # solves without ever materialising the shared
                        # formula list — the compiled skeleton already
                        # holds its preprocessed form.
                        shared: list | None = None

                        def shared_formulas() -> list:
                            nonlocal shared
                            if shared is None:
                                shared = self._db_constraints_for(
                                    space, db_cache, counts
                                )
                            return shared

                        skeleton = None
                        skel_status = None
                        if not use_delta:
                            solver.add_all(shared_formulas())
                        if use_input:
                            solver.add_all(
                                input_constraints(
                                    space, config.input_db, config.input_mode
                                )
                            )
                        build_elapsed = time.perf_counter() - build_start
                        stage["build"] += build_elapsed
                        if use_delta:
                            # Compiled outside the build window: the
                            # skeleton's unfold/normalize/union-find
                            # pass is preprocessing, attributed below.
                            skeleton, skel_status = self._skeleton_for(
                                space, rung_spec, shared_formulas,
                                skel_cache, counts, scope=skel_scope,
                            )
                        if inject:
                            from repro.testing import faults

                            faults.fire(spec_index)
                        rewrites = (
                            (skeleton.rewrite_hits, skeleton.rewrite_misses)
                            if skeleton is not None
                            else (0, 0)
                        )
                        try:
                            model = solver.solve(
                                unfold=config.unfold, base=skeleton
                            )
                        finally:
                            stats_obj = solver.last_stats
                            if stats_obj is not None:
                                stats_obj.build_time = build_elapsed
                                stats_obj.skeleton = skel_status
                                if skel_status == "miss":
                                    # Amortized attribution: the
                                    # compile is charged once, to the
                                    # solve that triggered it — sibling
                                    # hits report only their own time.
                                    stats_obj.preprocess_time += (
                                        skeleton.compile_time
                                    )
                                    stats_obj.elapsed += (
                                        skeleton.compile_time
                                    )
                            if skeleton is not None:
                                _bump(
                                    counts, "skeleton_rewrite_hits",
                                    skeleton.rewrite_hits - rewrites[0],
                                )
                                _bump(
                                    counts, "skeleton_rewrite_misses",
                                    skeleton.rewrite_misses - rewrites[1],
                                )
                    except SolverLimitError as exc:
                        stats = tally(space)
                        arec["status"] = "budget"
                        arec["attrs"]["nodes"] = stats.nodes if stats else 0
                        budget_trips += 1
                        budget_detail = budget_detail or str(exc)
                        outcome = "budget"
                        continue
                    except Exception as exc:  # failure isolation (§5d)
                        if config.fail_fast:
                            raise
                        stats = tally(space)
                        arec["status"] = f"error:{type(exc).__name__}"
                        arec["attrs"]["nodes"] = stats.nodes if stats else 0
                        if first_error is None:
                            first_error = (type(exc).__name__, str(exc))
                        if outcome != "budget":
                            outcome = "error"
                        continue
                    stats = tally(space)
                    arec["attrs"]["nodes"] = stats.nodes if stats else 0
                    if model is None:
                        arec["status"] = "unsat"
                        continue
                    arec["status"] = "sat"
                    assemble_start = time.perf_counter()
                    db = assemble_dataset(space, model)
                    stage["assemble"] += time.perf_counter() - assemble_start
                    trace = None
                    if config.trace_constraints:
                        from repro.solver.cvcformat import assertions

                        # Under delta solving the shared system lives in
                        # the skeleton, not the solver; render the same
                        # delta-then-shared list a full compile asserts.
                        formulas = solver.formulas
                        if skeleton is not None:
                            formulas += list(shared_formulas())
                        trace = assertions(formulas)
                    return spec_result(
                        GeneratedDataset(
                            group=spec.group,
                            target=spec.target,
                            purpose=spec.purpose,
                            db=db,
                            stats=stats,
                            relaxation=note,
                            used_input_db=use_input,
                            constraints_cvc=trace,
                            attempts=attempts,
                        ),
                        None,
                    )
            return outcome

        # Rung 1: the primary build.
        result = attempt(spec, spec.build, None, 1)
        # Rung 2: escalate the node budget while budget is what failed.
        if result == "budget":
            for step in range(1, config.retries + 1):
                result = attempt(
                    spec, spec.build, None, config.retry_node_factor ** step
                )
                if result != "budget":
                    break
        # Rung 3: the spec's relaxations (Algorithm 4's drop loop).
        if not isinstance(result, SpecResult):
            for note, build in spec.relaxations:
                result = attempt(spec, build, note, 1)
                if isinstance(result, SpecResult):
                    break
        # Rung 4: shrink to one tuple-set copy.  Failure recovery only:
        # a clean UNSAT is an equivalence proof and must stand.
        if (
            not isinstance(result, SpecResult)
            and config.retry_shrink_copies
            and spec.copies > 1
            and (budget_trips or first_error is not None)
        ):
            shrunk = dataclasses.replace(spec, copies=1)
            result = attempt(shrunk, spec.build, "degraded to copies=1", 1)
        if isinstance(result, SpecResult):
            return result

        if budget_trips:
            reason, detail = "budget", budget_detail
        elif first_error is not None:
            reason = f"error:{first_error[0]}"
            detail = first_error[1]
        else:
            reason, detail = "unsat", ""
        return spec_result(
            None,
            SkippedTarget(
                spec.group, spec.target, reason, detail=detail,
                elapsed=time.perf_counter() - started, attempts=attempts,
            ),
        )

    def _apply_null_tests(self, aq, space, spec) -> None:
        """Make every IS [NOT] NULL conjunct hold (flipping any the spec
        targets): absent values are forced NULL at assembly time, present
        values need nothing (the solver always assigns one)."""
        for index, info in enumerate(aq.null_tests):
            wants_null = not info.pred.negated
            if index in spec.flip_null_tests:
                wants_null = not wants_null
            if not wants_null:
                continue
            table = aq.table_of(info.attr.binding)
            for copy in range(spec.copies):
                space.force_null(
                    table, space.slot_of(info.attr.binding, copy),
                    info.attr.column,
                )

    def _input_options(self) -> list[bool]:
        """Try with input-database constraints first, then without."""
        if self.config.input_db is None:
            return [False]
        return [True, False]
