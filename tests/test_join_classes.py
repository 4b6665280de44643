"""Differential parity harness for class-shared join verdicts (DESIGN.md §5k).

Join-order mutants whose mutated node has the same (left binding set,
right binding set, kind) compute the same result on every database, so
the kill check executes one representative per semantic class and
copies its verdicts to the other members.  This file pins that sharing
against a per-tree reference: the same mutants, copied without their
class key, so every tree executes on its own.

* Kill matrices, survivor strings and classifications must be identical
  over the Table I/II workload (FULL OUTER mutants included, suite plus
  the sample instance).  Q6 and a 2000-seed conformance-grammar sweep
  ride behind ``-m slow``.
* The lazily built plans must equal plans compiled eagerly from every
  (shape, node, kind) triple, in enumeration order, and no two triples
  may share a canonical string (nothing is deduplicated any more).
"""

from __future__ import annotations

import random
import re

import pytest

from repro.core.analyze import analyze_query
from repro.core.generator import XDataGenerator
from repro.core.joinorders import enumerate_shapes, shape_nodes, shape_to_plan
from repro.datasets import (
    UNIVERSITY_QUERIES,
    schema_with_fks,
    university_sample_database,
    university_schema,
)
from repro.errors import GenerationError, UnsupportedSqlError
from repro.mutation import Mutant, MutationSpace, enumerate_mutants
from repro.mutation.jointype import ALL_TARGETS, plan_canonical
from repro.mutation.space import semantic_classes
from repro.sql.parser import parse_query
from repro.testing import (
    classify_survivors,
    evaluate_suite,
    generate_workload,
    sample_conformance_query,
)
from repro.testing.killcheck import class_order

SLOW_QUERIES = {"Q6"}


def per_tree(space: MutationSpace) -> MutationSpace:
    """The same mutants without class keys: every tree executes."""
    return MutationSpace(
        space.analyzed,
        [Mutant(m.kind, m.plan, m.description) for m in space.mutants],
    )


def matrix(report):
    return [(str(o.mutant), o.killed_by) for o in report.outcomes]


def assert_parity(space, databases, **kwargs):
    shared = evaluate_suite(space, databases, **kwargs)
    reference = evaluate_suite(per_tree(space), databases, **kwargs)
    assert matrix(shared) == matrix(reference)
    assert (shared.total, shared.killed) == (reference.total, reference.killed)
    assert [str(m) for m in shared.survivors] == [
        str(m) for m in reference.survivors
    ]
    return shared


def table12_cases(slow: bool):
    for name, info in UNIVERSITY_QUERIES.items():
        if (name in SLOW_QUERIES) != slow:
            continue
        for fks in info["fk_rows"]:
            yield pytest.param(name, fks, id=f"{name}-fk{len(fks)}")


def table12_parity(name, fks):
    schema = schema_with_fks(fks)
    suite = XDataGenerator(schema).generate(UNIVERSITY_QUERIES[name]["sql"])
    space = enumerate_mutants(suite.analyzed, include_full_outer=True)
    databases = suite.databases + [university_sample_database(schema)]
    assert_parity(space, databases)


@pytest.mark.parametrize("name,fks", table12_cases(slow=False))
def test_table12_kill_matrix_matches_per_tree(name, fks):
    table12_parity(name, fks)


@pytest.mark.slow
@pytest.mark.parametrize("name,fks", table12_cases(slow=True))
def test_table12_kill_matrix_matches_per_tree_slow(name, fks):
    table12_parity(name, fks)


def test_backend_path_matches_per_tree():
    """The backend path (cross-checked on SQLite) shares verdicts too."""
    schema = schema_with_fks([])
    suite = XDataGenerator(schema).generate(UNIVERSITY_QUERIES["Q4"]["sql"])
    space = enumerate_mutants(suite.analyzed, include_full_outer=True)
    assert_parity(space, suite.databases, backend="engine", cross_check=True)
    assert_parity(space, suite.databases, stop_at_first_kill=True)


def test_survivor_classification_matches_per_tree():
    schema = schema_with_fks([])
    suite = XDataGenerator(schema).generate(UNIVERSITY_QUERIES["Q5"]["sql"])
    space = enumerate_mutants(suite.analyzed, include_full_outer=True)
    # One dataset leaves whole classes of join mutants alive.
    survivors = evaluate_suite(space, suite.databases[:1]).survivors
    assert len(semantic_classes(survivors)) < len(survivors)
    shared = classify_survivors(space, survivors, trials=5)
    reference = classify_survivors(
        space, [Mutant(m.kind, m.plan, m.description) for m in survivors],
        trials=5,
    )
    assert [(str(r.mutant), r.likely_equivalent) for r in shared.results] == [
        (str(r.mutant), r.likely_equivalent) for r in reference.results
    ]


def test_workload_union_matrix_matches_per_tree(monkeypatch):
    schema = schema_with_fks(["teaches.id"])
    queries = {
        name: UNIVERSITY_QUERIES[name]["sql"] for name in ("Q2", "Q4", "Q9")
    }
    shared = generate_workload(schema, queries, minimize=True)

    real = enumerate_mutants

    def class_less(*args, **kwargs):
        return per_tree(real(*args, **kwargs))

    monkeypatch.setattr("repro.testing.workload.enumerate_mutants", class_less)
    reference = generate_workload(schema, queries, minimize=True)
    assert [(e.total, e.killed) for e in shared.entries] == [
        (e.total, e.killed) for e in reference.entries
    ]
    assert shared.provenance == reference.provenance


# -- conformance-grammar corpus -------------------------------------------------


def corpus_parity(seeds) -> int:
    schema = university_schema()
    checked = 0
    for seed in seeds:
        sql = sample_conformance_query(random.Random(seed), schema)
        try:
            suite = XDataGenerator(schema).generate(sql)
            space = enumerate_mutants(suite.analyzed, include_full_outer=True)
        except (GenerationError, UnsupportedSqlError):
            continue
        assert_parity(space, suite.databases)
        checked += 1
    return checked


def test_200_seed_corpus_matches_per_tree():
    assert corpus_parity(range(200)) >= 150


@pytest.mark.slow
def test_2000_seed_corpus_matches_per_tree():
    assert corpus_parity(range(2000)) >= 1500


# -- lazy plans and classes -------------------------------------------------------


def eager_join_plans(aq):
    """(description, plan) of every (shape, node, kind) triple, compiled
    eagerly in enumeration order."""
    out = []
    for shape in enumerate_shapes(aq):
        for node in shape_nodes(shape):
            left = ",".join(sorted(node.left.bindings))
            right = ",".join(sorted(node.right.bindings))
            for kind in ALL_TARGETS:
                out.append((
                    f"[{left}] {kind.value} [{right}]",
                    shape_to_plan(aq, shape, kinds={node: kind}),
                ))
    return out


def lazy_cases():
    for name, info in UNIVERSITY_QUERIES.items():
        marks = [pytest.mark.slow] if name in SLOW_QUERIES else []
        yield pytest.param(name, id=name, marks=marks)


@pytest.mark.parametrize("name", lazy_cases())
def test_lazy_plans_equal_eager_plans(name):
    aq = analyze_query(
        parse_query(UNIVERSITY_QUERIES[name]["sql"]), schema_with_fks([])
    )
    space = enumerate_mutants(aq, include_full_outer=True)
    joins = space.by_kind("join")
    eager = eager_join_plans(aq)
    assert [m.description for m in joins] == [d for d, _ in eager]
    for mutant, (_, plan) in zip(joins, eager):
        assert mutant.plan == plan
    canonicals = [plan_canonical(plan) for _, plan in eager]
    assert len(set(canonicals)) == len(canonicals)


def test_only_representatives_compile_at_enumeration():
    aq = analyze_query(
        parse_query(UNIVERSITY_QUERIES["Q5"]["sql"]), schema_with_fks([])
    )
    space = enumerate_mutants(aq, include_full_outer=True)
    classes = semantic_classes(space.mutants)
    joins = [members for members in classes
             if space.mutants[members[0]].kind == "join"]
    assert len(joins) < len(space.by_kind("join"))
    for members in joins:
        assert space.mutants[members[0]]._plan is not None
        assert all(space.mutants[i]._plan is None for i in members[1:])
    # Ordering the batch reads representatives only.
    class_order(space.mutants)
    assert all(
        space.mutants[i]._plan is None
        for members in joins for i in members[1:]
    )


def test_class_members_share_the_mutated_node():
    """A class is one (left, right, kind) node, RIGHT read as mirrored LEFT."""
    aq = analyze_query(
        parse_query(UNIVERSITY_QUERIES["Q4"]["sql"]), schema_with_fks([])
    )
    joins = enumerate_mutants(aq, include_full_outer=True).by_kind("join")

    def node(description):
        left, kind, right = re.fullmatch(
            r"\[(.*)\] (.*) \[(.*)\]", description
        ).groups()
        if kind == "RIGHT OUTER JOIN":
            return "LEFT OUTER JOIN", right, left
        return kind, left, right

    classes = semantic_classes(joins)
    assert len(classes) < len(joins)
    nodes = [{node(joins[i].description) for i in members}
             for members in classes]
    assert all(len(n) == 1 for n in nodes)
    assert len({n.pop() for n in nodes}) == len(classes)


def test_outer_join_queries_keep_one_class_per_mutant():
    sql = (
        "SELECT i.id, t.course_id FROM instructor i "
        "LEFT OUTER JOIN teaches t ON i.id = t.id"
    )
    space = enumerate_mutants(sql, schema_with_fks([]), include_full_outer=True)
    joins = space.by_kind("join")
    assert joins and all(m.semantic_class is None for m in joins)
