"""Kill checking: differential execution of mutants over datasets.

A mutant is *killed* by a dataset when the original query and the mutant
produce different results on it (Section I).  Results are compared as
bags of rows with columns aligned by name, so equivalent plans that emit
columns in different orders (different join orders under ``SELECT *``)
still compare equal.

The evaluation loop is batched per dataset (DESIGN.md §5g): each dataset
is loaded once, the original executes once, and the mutant set runs in
fingerprint-sorted order against a shared
:class:`~repro.engine.subplan.SubplanCache`, so every subtree unchanged
from the original — and every subtree shared between sibling mutants —
is computed once per dataset instead of once per mutant.
:class:`KillCheckConfig` carries the ablation switches; verdicts are
byte-identical with every switch off (the seed's re-execute-everything
path, kept for benchmarks and equivalence tests).

Join-order mutants that differ only in the join trees around the
mutated node compute the same result on every database (DESIGN.md §5k).
Each :attr:`~repro.mutation.space.Mutant.semantic_class` executes once
per dataset, through its first member, and every member receives that
member's verdicts; the kill matrix still has one row per mutant.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from repro.engine.database import Database
from repro.engine.executor import execute_plan
from repro.engine.plan import PlanNode, plan_fingerprint
from repro.engine.relation import Relation
from repro.engine.subplan import SubplanCache
from repro.mutation.space import Mutant, MutationSpace, semantic_classes


def canonical_value(value):
    """Quantise a result value for cross-backend comparison.

    The engine computes division and AVG exactly (``Fraction``) while
    real systems return floating point; both map to the same canonical
    form here — 12 significant digits, integral values as int — so the
    signature comparison has a built-in tolerance.  12 digits leaves
    ~4 guard digits of double precision for accumulation-order noise
    while still distinguishing any two values a mutant kill hinges on
    in practice.
    """
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return value
        quantised = float(f"{value:.12g}")
        return int(quantised) if quantised.is_integer() else quantised
    return value


def result_signature(relation: Relation) -> tuple[tuple[str, ...], Counter]:
    """(sorted column names, bag of name-aligned canonicalised rows).

    Memoized per relation object: the subplan cache returns one shared
    :class:`Relation` for every mutant whose final input content
    matched, so a whole batch of verdicts reuses one canonicalisation.
    """
    memo = getattr(relation, "_canonical_signature", None)
    if memo is not None:
        return memo
    order = sorted(range(len(relation.columns)), key=lambda i: relation.columns[i])
    names = tuple(relation.columns[i] for i in order)
    bag = Counter(
        tuple(canonical_value(row[i]) for i in order) for row in relation.rows
    )
    relation._canonical_signature = (names, bag)
    return names, bag


def results_differ(a: Relation, b: Relation) -> bool:
    """True when two results differ as name-aligned bags."""
    return result_signature(a) != result_signature(b)


def raw_signature(relation: Relation) -> tuple[tuple[str, ...], Counter]:
    """Like :func:`result_signature` but without value canonicalisation.

    Python's ``==`` already equates ``1``, ``1.0`` and ``Fraction(1)``,
    and :func:`canonical_value` maps ``==``-equal values to ``==``-equal
    canonical forms — so raw-equal bags are always canonically equal.
    The converse does not hold (canonicalisation has a 12-significant-
    digit tolerance), so a raw mismatch is never a verdict by itself.
    Memoized per relation object, like :func:`result_signature`.
    """
    memo = getattr(relation, "_raw_sig", None)
    if memo is not None:
        return memo
    order = sorted(range(len(relation.columns)), key=lambda i: relation.columns[i])
    names = tuple(relation.columns[i] for i in order)
    bag = Counter(tuple(row[i] for i in order) for row in relation.rows)
    relation._raw_sig = (names, bag)
    return names, bag


def differs_from_signature(
    relation: Relation,
    signature,
    rowcount: int,
    short_circuit: bool = True,
    raw=None,
) -> bool:
    """Does ``relation`` differ from a precomputed original signature?

    With ``short_circuit`` on, a row-count mismatch decides immediately
    — bags of different cardinality can never be equal — and, when the
    original's :func:`raw_signature` is supplied, a raw-bag match
    decides "not killed" without canonicalising anything.  Only results
    that match on count but differ raw pay the full
    12-significant-digit canonicalisation.  Verdicts are identical
    either way.
    """
    if short_circuit:
        if len(relation.rows) != rowcount:
            return True
        if raw is not None and raw_signature(relation) == raw:
            return False
    return result_signature(relation) != signature


@dataclass(frozen=True)
class KillCheckConfig:
    """Kill-check evaluation switches (``SearchConfig`` conventions).

    Every switch preserves verdicts; they exist as ablation levers for
    :mod:`benchmarks.bench_killcheck` and the equivalence tests.

    Attributes:
        subplan_cache: Memoize subplan results per (fingerprint,
            dataset) across the mutant batch (the §5g hot path; the CLI
            spells the ablation ``--no-subplan-cache``).
        fingerprint_sort: Walk each dataset's mutant batch in
            fingerprint-sorted order so structurally adjacent mutants
            run back to back and the cache stays warm.
        short_circuit: Compare row counts before canonicalising full
            result bags (see :func:`differs_from_signature`).
    """

    subplan_cache: bool = True
    fingerprint_sort: bool = True
    short_circuit: bool = True

    @classmethod
    def uncached(cls) -> "KillCheckConfig":
        """The seed's behaviour: re-execute every tree from scratch."""
        return cls(subplan_cache=False, fingerprint_sort=False,
                   short_circuit=False)


@dataclass
class MutantOutcome:
    """Per-mutant kill record."""

    mutant: Mutant
    killed_by: list[int] = field(default_factory=list)

    @property
    def killed(self) -> bool:
        return bool(self.killed_by)


@dataclass
class KillReport:
    """The kill matrix for one suite against one mutation space."""

    outcomes: list[MutantOutcome]
    dataset_count: int
    #: Subplan-cache traffic for the run (``SubplanCache.stats()``), or
    #: ``None`` when the cache was disabled.
    cache_stats: dict | None = None

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def killed(self) -> int:
        return sum(1 for o in self.outcomes if o.killed)

    @property
    def survivors(self) -> list[Mutant]:
        return [o.mutant for o in self.outcomes if not o.killed]

    def kills_of_dataset(self, index: int) -> int:
        return sum(1 for o in self.outcomes if index in o.killed_by)


def mutant_order(mutants: list[Mutant], fingerprint_sort: bool = True) -> list[int]:
    """Indices of ``mutants`` in cache-friendly evaluation order.

    Fingerprint-sorted order clusters structurally similar plans —
    sibling join-type mutants, comparison mutants over the same join
    tree — so each dataset's warm-cache window is maximised.  The
    returned indices always cover every mutant exactly once; outcome
    lists stay in the original mutant order regardless.
    """
    order = list(range(len(mutants)))
    if fingerprint_sort:
        order.sort(key=lambda i: plan_fingerprint(mutants[i].plan))
    return order


def class_order(
    mutants: list[Mutant], fingerprint_sort: bool = True
) -> list[list[int]]:
    """Semantic classes of ``mutants`` in evaluation order.

    Each class is a list of mutant indices whose first entry is the
    representative that executes; the classes are ordered by
    :func:`mutant_order` over the representatives alone, so no other
    member's plan is built.
    """
    classes = semantic_classes(mutants)
    representatives = [mutants[members[0]] for members in classes]
    return [
        classes[k] for k in mutant_order(representatives, fingerprint_sort)
    ]


def _share_verdicts(outcomes: list[MutantOutcome], classes) -> None:
    """Copy each representative's ``killed_by`` to its class members."""
    for members in classes:
        killed_by = outcomes[members[0]].killed_by
        for index in members[1:]:
            outcomes[index].killed_by = list(killed_by)


def evaluate_suite(
    space: MutationSpace,
    databases: list[Database],
    original_plan: PlanNode | None = None,
    stop_at_first_kill: bool = False,
    backend=None,
    cross_check: bool = False,
    config: KillCheckConfig | None = None,
) -> KillReport:
    """Run every mutant against every dataset; record which kills occur.

    Mutants are batched per dataset: the dataset is loaded/validated
    once, the original executes once, and one representative per
    semantic class walks in fingerprint-sorted order over a shared
    subplan cache (dropped when the batch moves to the next dataset, so
    memory stays bounded by one dataset's working set).  Every class
    member ends with its representative's ``killed_by``.

    Args:
        space: The mutation space (provides the analyzed query).
        databases: The generated test datasets.
        original_plan: Plan for the original query; defaults to the
            space's compiled-once plan (:attr:`MutationSpace.original_plan`).
        stop_at_first_kill: Record only the first killing dataset per
            mutant (faster for large spaces; the kill counts are equal).
        backend: Execution backend — a name (``"engine"``, ``"sqlite"``)
            or a :class:`repro.backends.Backend` instance.  ``None``
            keeps the direct in-process engine path.
        cross_check: Shadow every execution on a second backend (SQLite
            when the primary is the engine, the engine otherwise) and
            raise :class:`repro.backends.BackendDisagreement` the moment
            their result bags differ — every kill verdict becomes a
            differential test of the engine itself.
        config: Evaluation switches (:class:`KillCheckConfig`); the
            default enables the full §5g hot path.
    """
    config = config or KillCheckConfig()
    plan = original_plan if original_plan is not None else space.original_plan
    mutants = space.mutants
    outcomes = [MutantOutcome(mutant) for mutant in mutants]
    classes = class_order(mutants, config.fingerprint_sort)
    order = [members[0] for members in classes]
    cache = SubplanCache() if config.subplan_cache else None

    if backend is None and not cross_check:
        # Hot path: no handle indirection, no integrity re-validation.
        plans = {i: mutants[i].plan for i in order}
        short_circuit = config.short_circuit
        for index, db in enumerate(databases):
            original = execute_plan(plan, db, cache)
            signature = result_signature(original)
            raw = raw_signature(original) if short_circuit else None
            rowcount = len(original.rows)
            for i in order:
                outcome = outcomes[i]
                if stop_at_first_kill and outcome.killed_by:
                    continue
                mutant_result = execute_plan(plans[i], db, cache)
                # The subplan cache returns the original's relation
                # object itself when a mutant's result content matched
                # it — identical by construction, no comparison needed.
                if mutant_result is original:
                    continue
                # Distinct-but-shared result objects get one verdict
                # each per dataset: the memo is keyed on the original's
                # identity, so a new dataset (new original) re-decides.
                memo = mutant_result.__dict__.get("_verdict_memo")
                if memo is not None and memo[0] is original:
                    differs = memo[1]
                else:
                    differs = differs_from_signature(
                        mutant_result, signature, rowcount,
                        short_circuit, raw,
                    )
                    mutant_result._verdict_memo = (original, differs)
                if differs:
                    outcome.killed_by.append(index)
            if cache is not None:
                cache.drop_dataset(db)
        _share_verdicts(outcomes, classes)
        return KillReport(
            outcomes, len(databases),
            cache_stats=cache.stats() if cache is not None else None,
        )

    from repro.backends import CrossChecker, resolve_backend

    primary = resolve_backend(backend)
    reference = None
    if cross_check:
        reference = resolve_backend(
            "engine" if primary.name == "sqlite" else "sqlite"
        )
    _attach_subplan_cache((primary, reference), cache)
    with CrossChecker(primary, reference) as checker:
        for index, db in enumerate(databases):
            if cross_check:
                # Both backends' bags are compared inside the checker,
                # so the full signature is computed regardless.
                signature = checker.signature(plan, db, "original query")
                rowcount = None
            else:
                original = checker.result(plan, db, "original query")
                signature = result_signature(original)
                raw = (
                    raw_signature(original) if config.short_circuit else None
                )
                rowcount = len(original.rows)
            for i in order:
                outcome = outcomes[i]
                if stop_at_first_kill and outcome.killed_by:
                    continue
                mutant = mutants[i]
                context = f"mutant [{mutant.kind}] {mutant.description}"
                if cross_check:
                    differs = (
                        checker.signature(mutant.plan, db, context) != signature
                    )
                else:
                    differs = differs_from_signature(
                        checker.result(mutant.plan, db, context),
                        signature, rowcount, config.short_circuit, raw,
                    )
                if differs:
                    outcome.killed_by.append(index)
            checker.release(db)
            if cache is not None:
                cache.drop_dataset(db)
    _share_verdicts(outcomes, classes)
    return KillReport(
        outcomes, len(databases),
        cache_stats=cache.stats() if cache is not None else None,
    )


def _attach_subplan_cache(backends, cache: SubplanCache | None) -> None:
    """Hand the shared subplan cache to every engine-executing backend."""
    if cache is None:
        return
    for backend in backends:
        if backend is not None and getattr(backend, "name", "") == "engine":
            backend.subplan_cache = cache
