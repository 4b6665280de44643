"""The combined mutation space for a query."""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, field

from repro.core.analyze import AnalyzedQuery, analyze_query
from repro.engine.plan import PlanNode
from repro.mutation.aggregate import aggregate_mutants
from repro.mutation.comparison import comparison_mutants
from repro.mutation.jointype import join_mutants
from repro.schema.catalog import Schema
from repro.sql.ast import Query
from repro.sql.parser import parse_query


class Mutant:
    """One executable mutant.

    Attributes:
        kind: 'join', 'comparison' or 'aggregate'.
        plan: Executable plan of the mutant.  Join-order mutants that
            are not the first of their semantic class build it on first
            access (``build``).
        description: Human-readable description of the single mutation.
        semantic_class: Key shared by mutants that compute the same
            result on every database (DESIGN.md §5k), or ``None`` for a
            class of its own.  The kill check executes one member per
            class and copies its verdicts to the rest.
    """

    __slots__ = ("kind", "description", "semantic_class", "_plan", "_build")

    def __init__(
        self,
        kind: str,
        plan: PlanNode | None,
        description: str,
        semantic_class: Hashable | None = None,
        build: Callable[[], PlanNode] | None = None,
    ) -> None:
        if plan is None and build is None:
            raise ValueError("a mutant needs a plan or a way to build one")
        self.kind = kind
        self.description = description
        self.semantic_class = semantic_class
        self._plan = plan
        self._build = build

    @property
    def plan(self) -> PlanNode:
        # Two threads may both build it; they build equal plans.
        plan = self._plan
        if plan is None:
            plan = self._plan = self._build()
        return plan

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mutant):
            return NotImplemented
        return (self.kind, self.description, self.plan) == (
            other.kind, other.description, other.plan
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.description, self.plan))

    def __repr__(self) -> str:
        return f"Mutant(kind={self.kind!r}, description={self.description!r})"

    def __str__(self) -> str:
        return f"{self.kind}: {self.description}"


def semantic_classes(mutants: list[Mutant]) -> list[list[int]]:
    """Indices of ``mutants`` grouped by semantic class.

    Classes appear in the order of their first member, and each lists
    its members in mutant order, so a class's first index is its
    representative.  A mutant without a class key is a class of its own.
    """
    classes: list[list[int]] = []
    by_key: dict[Hashable, list[int]] = {}
    for index, mutant in enumerate(mutants):
        key = mutant.semantic_class
        if key is None:
            classes.append([index])
            continue
        members = by_key.get(key)
        if members is None:
            members = by_key[key] = []
            classes.append(members)
        members.append(index)
    return classes


@dataclass
class MutationSpace:
    """All mutants of a query, grouped by kind."""

    analyzed: AnalyzedQuery
    mutants: list[Mutant] = field(default_factory=list)
    #: Lazily compiled plan of the original query — see :attr:`original_plan`.
    _original_plan: PlanNode | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def original_plan(self) -> PlanNode:
        """The original query's plan, compiled once per space.

        Kill-check callers (``evaluate_suite``, the workload matrix, the
        conformance harness, benchmarks) previously recompiled the
        original for every evaluation pass; the space is the natural
        owner — one compile per (query, mutation space), shared by every
        suite and dataset evaluated against it.
        """
        if self._original_plan is None:
            from repro.engine.plan import compile_query

            self._original_plan = compile_query(self.analyzed.query)
        return self._original_plan

    def by_kind(self, kind: str) -> list[Mutant]:
        """Mutants of one kind ('join', 'comparison', 'aggregate', ...)."""
        return [m for m in self.mutants if m.kind == kind]

    def __len__(self) -> int:
        return len(self.mutants)


def enumerate_mutants(
    query: str | Query | AnalyzedQuery,
    schema: Schema | None = None,
    include_full_outer: bool = False,
    include_join: bool = True,
    include_comparison: bool = True,
    include_aggregate: bool = True,
    include_join_conditions: bool = False,
    tree_cap: int = 20000,
) -> MutationSpace:
    """Enumerate the mutation space of Section II for ``query``.

    ``include_full_outer`` matches the paper's experimental choice of
    ignoring mutations *to* full outer join when False (the default).
    ``include_join_conditions`` adds the wrong-attribute and
    missing-conjunct extension space (:mod:`repro.mutation.joincond`),
    which is outside the paper's evaluated space and off by default.
    """
    if isinstance(query, AnalyzedQuery):
        aq = query
    else:
        parsed = parse_query(query) if isinstance(query, str) else query
        if schema is None:
            raise ValueError("schema is required unless an AnalyzedQuery is given")
        aq = analyze_query(parsed, schema)
    space = MutationSpace(aq)
    if include_join:
        for m in join_mutants(aq, include_full_outer, tree_cap):
            space.mutants.append(
                Mutant(
                    "join", m.compiled, m.description, m.semantic_class,
                    m.site.plan if m.site is not None else None,
                )
            )
    if include_comparison:
        for m in comparison_mutants(aq):
            space.mutants.append(Mutant("comparison", m.plan, m.description))
        from repro.engine.plan import compile_query
        from repro.mutation.util import replace_where_conjunct

        for info in aq.null_tests:
            mutated = replace_where_conjunct(
                aq.query, info.position, info.pred.flipped()
            )
            space.mutants.append(
                Mutant(
                    "nulltest",
                    compile_query(mutated),
                    f"where[{info.position}]: '{info.pred}' -> "
                    f"'{info.pred.flipped()}'",
                )
            )
    if include_aggregate:
        for m in aggregate_mutants(aq):
            space.mutants.append(Mutant("aggregate", m.plan, m.description))
    if include_join_conditions:
        from repro.mutation.joincond import (
            missing_conjunct_mutants,
            wrong_attribute_mutants,
        )

        for m in wrong_attribute_mutants(aq):
            space.mutants.append(Mutant("joincond-wrong", m.plan, m.description))
        for m in missing_conjunct_mutants(aq):
            space.mutants.append(
                Mutant("joincond-missing", m.plan, m.description)
            )
    return space
