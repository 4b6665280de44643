"""Workload-level generation: one dataset collection for many queries.

The paper's future-work list includes "data generation for an application
with multiple queries".  This module generates a suite per query and then
minimises *across* the workload: a dataset generated for one query often
kills mutants of another (they share relations), so the combined
fixture set is much smaller than the concatenation of per-query suites.

The cover is greedy set cover over the union kill-matrix, with the
guarantee that every mutant killed by its own query's full suite stays
killed by the workload datasets.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro.core.generator import GenConfig, GeneratedDataset, TestSuite, XDataGenerator
from repro.engine.database import Database
from repro.engine.executor import execute_plan
from repro.engine.subplan import SubplanCache
from repro.mutation.space import MutationSpace, enumerate_mutants
from repro.schema.catalog import Schema
from repro.solver.search import replace_config
from repro.testing.killcheck import (
    _attach_subplan_cache,
    class_order,
    result_signature,
)


@dataclass
class WorkloadEntry:
    """Per-query results inside a workload.

    A query whose generation failed outright has ``error`` set and no
    suite or mutation space; it contributes nothing to the kill matrix
    but does not abort the workload (DESIGN.md §5d).
    """

    name: str
    sql: str
    suite: TestSuite | None
    space: MutationSpace | None
    killed: int = 0
    total: int = 0
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class WorkloadSuite:
    """The combined result of :func:`generate_workload`."""

    entries: list[WorkloadEntry]
    datasets: list[GeneratedDataset] = field(default_factory=list)
    #: (entry index, dataset index within its suite) per combined dataset.
    provenance: list[tuple[int, int]] = field(default_factory=list)

    @property
    def databases(self) -> list[Database]:
        return [d.db for d in self.datasets]

    def summary(self) -> str:
        generated = sum(
            len(e.suite.datasets) for e in self.entries if e.suite is not None
        )
        lines = [
            f"workload: {len(self.entries)} queries, "
            f"{len(self.datasets)} combined datasets "
            f"(from {generated} generated)"
        ]
        for entry in self.entries:
            if entry.failed:
                lines.append(f"  {entry.name}: FAILED ({entry.error})")
            else:
                lines.append(
                    f"  {entry.name}: kills {entry.killed}/{entry.total} mutants"
                )
        return "\n".join(lines)

    @property
    def failures(self) -> list[WorkloadEntry]:
        return [entry for entry in self.entries if entry.failed]


def _replay_run(journal, sql: str, suite) -> None:
    """Journal one pooled query's run from its shipped span tree.

    Workers run with the journal path stripped (concurrent appends would
    interleave) but tracing forced on; the parent replays each suite's
    spans here in close order, producing the same event sequence an
    in-process run would have written.
    """
    from repro.core.parallel import FailedSuite
    from repro.obs.trace import span_path_events

    journal.run_start(sql)
    if isinstance(suite, FailedSuite) or suite is None:
        error = suite.error if suite is not None else "no result from pool"
        journal.event("run_abort", ts=time.time(), error=error)
        return
    for root in suite.trace or ():
        for record, path in span_path_events(root):
            journal.span_sink(record, path)
    journal.run_end(
        suite.elapsed,
        suite.health.ok,
        dataclasses.asdict(suite.health),
        suite.metrics,
    )


def generate_workload(
    schema: Schema,
    queries: dict[str, str],
    config: GenConfig | None = None,
    minimize: bool = True,
    workers: int | None = None,
    fail_fast: bool = False,
    backend=None,
    cross_check: bool = False,
    subplan_cache: bool = True,
) -> WorkloadSuite:
    """Generate suites for every query and combine them.

    Args:
        schema: Shared schema.
        queries: name -> SQL mapping.
        config: Generator configuration (shared).
        minimize: Greedily drop datasets that add no killing power across
            the whole workload (each query's original-result dataset is
            always kept).
        workers: Process-pool width for generation, parallel across
            queries (each query is an independent generation problem).
            Defaults to ``config.workers``; 1 means sequential.  The
            combined suite is identical either way — results are merged
            in query order.
        fail_fast: Re-raise the first per-query generation failure
            instead of recording it as a failed entry and continuing
            with the remaining queries (the default; see
            :attr:`WorkloadEntry.error`).
        backend: Execution backend for the union kill matrix — a name
            (``"engine"``, ``"sqlite"``) or backend instance; ``None``
            keeps the direct engine path.
        cross_check: Shadow every kill-matrix execution on the second
            backend and raise
            :class:`repro.backends.BackendDisagreement` on any split
            (see :func:`repro.testing.killcheck.evaluate_suite`).
        subplan_cache: Share subtree results across the union
            kill-matrix batch (DESIGN.md §5g); ``False`` is the
            ablation arm (``--no-subplan-cache``) that re-executes
            every tree from scratch.  The matrix is identical either
            way.

    Observability (DESIGN.md §5e): with ``config.journal_path`` set,
    every query's run is appended to one journal.  Sequential runs
    journal live from inside each ``generate()`` call; pooled runs strip
    the path from worker configs (one writer only) and the parent
    replays each suite's shipped span tree here, so the journal is
    complete either way.
    """
    config = config or GenConfig()
    if fail_fast and not config.fail_fast:
        config = replace_config(config, fail_fast=True)
    fail_fast = fail_fast or config.fail_fast
    if workers is None:
        workers = config.workers

    def failed_entry(name: str, sql: str, error: str) -> WorkloadEntry:
        return WorkloadEntry(name, sql, None, None, error=error)

    entries: list[WorkloadEntry] = []
    if workers > 1 and len(queries) > 1:
        from repro.core.parallel import FailedSuite, generate_suites_parallel

        suites = generate_suites_parallel(schema, queries, config, workers)
        journal = None
        if config.journal_path is not None:
            from repro.obs import JournalWriter

            journal = JournalWriter(config.journal_path)
        try:
            for name, suite in suites.items():
                if journal is not None:
                    _replay_run(journal, queries[name], suite)
                if isinstance(suite, FailedSuite):
                    entries.append(
                        failed_entry(name, queries[name], suite.error)
                    )
                    continue
                space = enumerate_mutants(suite.analyzed)
                entries.append(
                    WorkloadEntry(name, queries[name], suite, space)
                )
        finally:
            if journal is not None:
                journal.close()
    else:
        generator = XDataGenerator(schema, config)
        for name, sql in queries.items():
            try:
                suite = generator.generate(sql)
            except Exception as exc:
                if fail_fast:
                    raise
                entries.append(
                    failed_entry(name, sql, f"{type(exc).__name__}: {exc}")
                )
                continue
            space = enumerate_mutants(suite.analyzed)
            entries.append(WorkloadEntry(name, sql, suite, space))

    all_datasets: list[tuple[int, int, GeneratedDataset]] = []
    for entry_index, entry in enumerate(entries):
        if entry.failed:
            continue
        for dataset_index, dataset in enumerate(entry.suite.datasets):
            all_datasets.append((entry_index, dataset_index, dataset))

    # Union kill matrix: which combined dataset kills which (query, mutant).
    # Batched per dataset (DESIGN.md §5g): each combined dataset is
    # visited once, every query's original and fingerprint-sorted mutant
    # batch runs over it against one shared subplan cache — scans and
    # join subtrees shared *across queries* are computed once per
    # dataset too, then the dataset's entries (and backend handles) are
    # released before moving on.
    cache = SubplanCache() if subplan_cache else None
    checker = None
    if backend is not None or cross_check:
        from repro.backends import CrossChecker, resolve_backend

        primary = resolve_backend(backend)
        reference = None
        if cross_check:
            reference = resolve_backend(
                "engine" if primary.name == "sqlite" else "sqlite"
            )
        _attach_subplan_cache((primary, reference), cache)
        checker = CrossChecker(primary, reference)

    def signature_of(plan, db, context):
        if checker is None:
            return result_signature(execute_plan(plan, db, cache))
        return checker.signature(plan, db, context)

    # One representative per semantic class executes (DESIGN.md §5k);
    # its kills are recorded for every member of the class.
    orders = [
        class_order(entry.space.mutants, fingerprint_sort=subplan_cache)
        if not entry.failed
        else []
        for entry in entries
    ]
    kills: list[set[tuple[int, int]]] = [set() for _ in all_datasets]
    killable: set[tuple[int, int]] = set()
    try:
        for dataset_pos, (_, _, dataset) in enumerate(all_datasets):
            db = dataset.db
            for entry_index, entry in enumerate(entries):
                if entry.failed:
                    continue
                original = signature_of(
                    entry.space.original_plan, db,
                    f"{entry.name}: original query",
                )
                for members in orders[entry_index]:
                    mutant = entry.space.mutants[members[0]]
                    context = f"{entry.name}: mutant {mutant.description}"
                    if signature_of(mutant.plan, db, context) != original:
                        for mutant_index in members:
                            kills[dataset_pos].add((entry_index, mutant_index))
                            killable.add((entry_index, mutant_index))
            if checker is not None:
                checker.release(db)
            if cache is not None:
                cache.drop_dataset(db)
        for entry in entries:
            if not entry.failed:
                entry.total = len(entry.space.mutants)
    finally:
        if checker is not None:
            checker.close()

    selected: set[int] = set()
    if minimize:
        covered: set[tuple[int, int]] = set()
        for dataset_pos, (_, _, dataset) in enumerate(all_datasets):
            if dataset.group == "original":
                selected.add(dataset_pos)
                covered |= kills[dataset_pos]
        while covered != killable:
            best, best_gain = -1, 0
            for dataset_pos in range(len(all_datasets)):
                if dataset_pos in selected:
                    continue
                gain = len(kills[dataset_pos] - covered)
                if gain > best_gain:
                    best, best_gain = dataset_pos, gain
            if best < 0:
                break
            selected.add(best)
            covered |= kills[best]
    else:
        selected = set(range(len(all_datasets)))

    suite = WorkloadSuite(entries)
    for dataset_pos in sorted(selected):
        entry_index, dataset_index, dataset = all_datasets[dataset_pos]
        suite.datasets.append(dataset)
        suite.provenance.append((entry_index, dataset_index))
    for entry_index, entry in enumerate(entries):
        entry.killed = len(
            {
                (e, m)
                for pos in selected
                for (e, m) in kills[pos]
                if e == entry_index
            }
        )
    return suite
