"""Join-type mutants over the join-order space.

For inner-join queries every unordered join tree of the join graph is
enumerated (:mod:`repro.core.joinorders`); each internal node is flipped
to LEFT, RIGHT and (optionally) FULL outer join, one node at a time.
Every (tree, node, kind) triple is a distinct mutant: in the canonical
form symmetric operators (inner and full joins) order their children
lexicographically and RIGHT joins are rewritten as mirrored LEFT joins,
and no two triples share a canonical string.

Inner-path mutants also carry a *semantic class* (DESIGN.md §5k): the
mutated node's (left binding set, right binding set, kind), with RIGHT
normalised to a mirrored LEFT.  Only inner joins sit around the mutated
node, so every tree in a class computes the same result on every
database; the kill check runs one representative per class.  Only the
first member of each class compiles its plan at enumeration time; the
others build theirs on first access.

Queries whose FROM clause already contains outer joins are not freely
reorderable; their space is the written join tree with each node's type
replaced by the three alternatives (the paper's experimental treatment of
mixed inner/outer queries).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyze import AnalyzedQuery
from repro.core.joinorders import (
    NodeShape,
    Shape,
    enumerate_shapes,
    shape_nodes,
    shape_to_plan,
)
from repro.engine.plan import (
    AggregateNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    compile_query,
)
from repro.sql.ast import JoinKind

#: Join types introduced by a single mutation (the paper's experiments
#: ignore the mutation to full outer join; pass ``include_full=True`` to
#: include it).
DEFAULT_TARGETS = (JoinKind.LEFT, JoinKind.RIGHT)
ALL_TARGETS = (JoinKind.LEFT, JoinKind.RIGHT, JoinKind.FULL)


@dataclass(frozen=True, eq=False)
class JoinSite:
    """One node of one join tree, set to a new join type."""

    aq: AnalyzedQuery
    shape: Shape
    node: NodeShape
    kind: JoinKind

    def plan(self) -> PlanNode:
        """The mutant's executable plan."""
        return shape_to_plan(self.aq, self.shape, kinds={self.node: self.kind})


@dataclass(frozen=True)
class JoinMutant:
    """One join-type mutant.

    Attributes:
        description: Human-readable description of the mutation.
        semantic_class: Key shared by mutants that compute the same
            result on every database (inner path), or ``None`` for a
            class of its own (written-tree mutants of outer-join
            queries).
        site: Where the inner-path mutation applies; builds the plan.
        compiled: The plan compiled at enumeration time, or ``None``
            when it is built from ``site`` on demand.
    """

    description: str
    semantic_class: tuple | None = None
    site: JoinSite | None = None
    compiled: PlanNode | None = None

    @property
    def plan(self) -> PlanNode:
        if self.compiled is not None:
            return self.compiled
        return self.site.plan()

    @property
    def canonical(self) -> str:
        return plan_canonical(self.plan)


def plan_canonical(plan: PlanNode) -> str:
    """Canonical string of a plan modulo join commutativity.

    INNER, CROSS and FULL joins are symmetric: children are sorted.  A
    RIGHT join is a mirrored LEFT join.  Conditions are derived from the
    node's binding sets, so they don't participate in identity.
    """
    if isinstance(plan, ScanNode):
        return plan.binding
    if isinstance(plan, SelectNode):
        return plan_canonical(plan.child)
    if isinstance(plan, (ProjectNode, AggregateNode)):
        return plan_canonical(plan.child)
    assert isinstance(plan, JoinNode)
    left = plan_canonical(plan.left)
    right = plan_canonical(plan.right)
    kind = plan.kind
    if kind is JoinKind.RIGHT:
        kind = JoinKind.LEFT
        left, right = right, left
    if kind in (JoinKind.INNER, JoinKind.FULL, JoinKind.CROSS) and right < left:
        left, right = right, left
    symbol = {
        JoinKind.INNER: "J",
        JoinKind.LEFT: "L",
        JoinKind.FULL: "F",
        JoinKind.CROSS: "X",
    }[kind]
    return f"({left} {symbol} {right})"


def semantic_class(
    left: tuple[str, ...], right: tuple[str, ...], kind: JoinKind
) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """Class key of a mutated node with sorted binding tuples ``left``
    and ``right`` (DESIGN.md §5k).

    The node's ON condition is a function of the two binding sets
    (:func:`~repro.core.joinorders.node_conditions`), so it needs no
    place in the key.  RIGHT is a mirrored LEFT, and FULL is symmetric.
    """
    if kind is JoinKind.RIGHT:
        kind = JoinKind.LEFT
        left, right = right, left
    elif kind is JoinKind.FULL and right < left:
        left, right = right, left
    return (kind.value, left, right)


def join_mutants_inner(
    aq: AnalyzedQuery,
    include_full: bool = False,
    tree_cap: int = 20000,
) -> list[JoinMutant]:
    """Every single join-type mutant over all join orders.

    Each (shape, node, kind) triple is its own mutant (their canonical
    strings are pairwise distinct), so nothing is deduplicated.  Only
    the first member of each semantic class compiles its plan here.
    """
    targets = ALL_TARGETS if include_full else DEFAULT_TARGETS
    mutants: list[JoinMutant] = []
    seen: set[tuple] = set()
    for shape in enumerate_shapes(aq, cap=tree_cap):
        for node in shape_nodes(shape):
            left = tuple(sorted(node.left.bindings))
            right = tuple(sorted(node.right.bindings))
            for kind in targets:
                key = semantic_class(left, right, kind)
                site = JoinSite(aq, shape, node, kind)
                compiled = None
                if key not in seen:
                    seen.add(key)
                    compiled = site.plan()
                description = (
                    f"[{','.join(left)}] {kind.value} [{','.join(right)}]"
                )
                mutants.append(JoinMutant(description, key, site, compiled))
    return mutants


def _mutate_plan_nodes(plan: PlanNode, targets) -> list[tuple[PlanNode, str]]:
    """Single-node kind changes over a compiled plan (outer-join queries)."""
    joins: list[JoinNode] = []

    def collect(node: PlanNode):
        if isinstance(node, JoinNode):
            joins.append(node)
            collect(node.left)
            collect(node.right)
        elif isinstance(node, SelectNode):
            collect(node.child)
        elif isinstance(node, (ProjectNode, AggregateNode)):
            collect(node.child)

    collect(plan)

    def rebuild(node: PlanNode, victim: JoinNode, kind: JoinKind) -> PlanNode:
        if node is victim:
            assert isinstance(node, JoinNode)
            return JoinNode(
                kind,
                rebuild(node.left, victim, kind),
                rebuild(node.right, victim, kind),
                node.condition,
                node.natural,
            )
        if isinstance(node, JoinNode):
            return JoinNode(
                node.kind,
                rebuild(node.left, victim, kind),
                rebuild(node.right, victim, kind),
                node.condition,
                node.natural,
            )
        if isinstance(node, SelectNode):
            return SelectNode(rebuild(node.child, victim, kind), node.predicates)
        if isinstance(node, ProjectNode):
            return ProjectNode(
                rebuild(node.child, victim, kind), node.items, node.distinct
            )
        if isinstance(node, AggregateNode):
            return AggregateNode(
                rebuild(node.child, victim, kind), node.group_by, node.items
            )
        return node

    out: list[tuple[PlanNode, str]] = []
    for victim in joins:
        kinds = set(targets) | {JoinKind.INNER}
        kinds.discard(victim.kind)
        if victim.kind is JoinKind.CROSS:
            continue
        for kind in sorted(kinds, key=lambda k: k.value):
            out.append(
                (rebuild(plan, victim, kind), f"{victim.kind.value} -> {kind.value}")
            )
    return out


def join_mutants_outer(
    aq: AnalyzedQuery, include_full: bool = False
) -> list[JoinMutant]:
    """Single-node join-type mutants of the written (outer-join) tree."""
    targets = ALL_TARGETS if include_full else DEFAULT_TARGETS
    base = compile_query(aq.query)
    mutants: dict[str, JoinMutant] = {}
    for plan, description in _mutate_plan_nodes(base, targets):
        canonical = plan_canonical(plan)
        if canonical == plan_canonical(base):
            continue
        if canonical not in mutants:
            mutants[canonical] = JoinMutant(description, compiled=plan)
    return list(mutants.values())


def join_mutants(
    aq: AnalyzedQuery,
    include_full: bool = False,
    tree_cap: int = 20000,
) -> list[JoinMutant]:
    """The join-type mutant space appropriate for the query."""
    from repro.sql.ast import Star

    if len(aq.occurrences) < 2:
        return []
    star_select = any(
        isinstance(item.expr, Star) for item in aq.query.select_items
    )
    if aq.has_outer_joins or (aq.natural_conditions and star_select):
        # Outer joins are not freely reorderable; NATURAL joins under
        # SELECT * coalesce common columns, which reordered plans would
        # not — either way, mutate the written tree only.
        return join_mutants_outer(aq, include_full)
    return join_mutants_inner(aq, include_full, tree_cap)
