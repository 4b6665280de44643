"""Equivalence classification of surviving mutants.

The paper manually verified that every unkilled mutant was equivalent to
the original query (Section VI-C.1).  This module automates the check by
differential testing on randomized *legal* database instances: a survivor
that ever disagrees with the original is a *missed* (non-equivalent)
mutant — a completeness violation — while one that always agrees over
many random instances is classified "likely equivalent".  For the query
classes with completeness guarantees, the integration tests assert that
no survivor is ever missed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.engine.executor import execute_plan
from repro.engine.plan import PlanNode, compile_query
from repro.mutation.space import Mutant, MutationSpace, semantic_classes
from repro.schema.catalog import Schema
from repro.testing.killcheck import result_signature


def _topological_tables(schema: Schema) -> list[str]:
    """Tables ordered so referenced tables come before referencing ones."""
    remaining = {t.name for t in schema.tables}
    deps = {
        t.name: {fk.ref_table for fk in t.foreign_keys if fk.ref_table != t.name}
        for t in schema.tables
    }
    ordered: list[str] = []
    while remaining:
        ready = sorted(
            name for name in remaining if not (deps[name] & remaining)
        )
        if not ready:  # FK cycle; break arbitrarily but deterministically
            ready = [sorted(remaining)[0]]
        for name in ready:
            ordered.append(name)
            remaining.remove(name)
    return ordered


def random_database(
    schema: Schema,
    rng: random.Random,
    rows_per_table: int = 4,
    value_range: int = 6,
) -> Database:
    """A random legal instance: PKs unique, FKs resolved against parents.

    Small value ranges are deliberate — they make joins and collisions
    likely, which is what distinguishes inequivalent plans.
    """
    db = Database(schema)
    for table_name in _topological_tables(schema):
        table = schema.table(table_name)
        # Composite foreign keys must be sampled as whole parent keys, so
        # collect candidate *tuples* per foreign key, not per column.
        fk_choices: list[tuple[tuple[str, ...], list[tuple]]] = []
        fk_columns: set[str] = set()
        for fk in table.foreign_keys:
            target = db.relation(fk.ref_table)
            indices = [target.column_index(c) for c in fk.ref_columns]
            keys = [tuple(row[i] for i in indices) for row in target.rows]
            fk_choices.append((fk.columns, keys))
            fk_columns.update(fk.columns)
        pk_seen: set[tuple] = set()
        pk_cols = set(table.primary_key)
        for _ in range(rows_per_table):
            for _attempt in range(20):
                values = {}
                ok = True
                for columns, keys in fk_choices:
                    if not keys:
                        ok = False
                        break
                    chosen = rng.choice(keys)
                    for column_name, value in zip(columns, chosen):
                        values[column_name] = value
                if not ok:
                    break
                for column in table.columns:
                    if column.name in fk_columns:
                        continue
                    elif column.domain:
                        values[column.name] = rng.choice(list(column.domain))
                    elif column.sqltype.is_textual:
                        values[column.name] = f"v{rng.randrange(value_range)}"
                    else:
                        values[column.name] = rng.randrange(value_range)
                if pk_cols:
                    key = tuple(values[c] for c in table.primary_key)
                    if key in pk_seen:
                        continue
                    pk_seen.add(key)
                db.insert_dict(table_name, values)
                break
    db.validate()
    return db


@dataclass
class SurvivorClassification:
    """Outcome of differential testing one surviving mutant."""

    mutant: Mutant
    likely_equivalent: bool
    witness: Database | None = None  # instance where results differed


@dataclass
class ClassificationReport:
    results: list[SurvivorClassification] = field(default_factory=list)

    @property
    def missed(self) -> list[SurvivorClassification]:
        """Survivors proven non-equivalent (completeness violations)."""
        return [r for r in self.results if not r.likely_equivalent]

    @property
    def likely_equivalent(self) -> list[SurvivorClassification]:
        return [r for r in self.results if r.likely_equivalent]


def classify_survivors(
    space: MutationSpace,
    survivors: list[Mutant],
    trials: int = 25,
    rows_per_table: int = 4,
    seed: int = 20100301,
    original_plan: PlanNode | None = None,
) -> ClassificationReport:
    """Differentially test survivors on random legal instances.

    One survivor per semantic class is executed (DESIGN.md §5k); the
    other members of its class share its classification and witness.
    """
    rng = random.Random(seed)
    plan = original_plan or compile_query(space.analyzed.query)
    instances = [
        random_database(space.analyzed.schema, rng, rows_per_table)
        for _ in range(trials)
    ]
    original = [result_signature(execute_plan(plan, db)) for db in instances]
    results: list[SurvivorClassification | None] = [None] * len(survivors)
    for members in semantic_classes(survivors):
        witness = None
        for db, expected in zip(instances, original):
            got = result_signature(execute_plan(survivors[members[0]].plan, db))
            if got != expected:
                witness = db
                break
        for index in members:
            results[index] = SurvivorClassification(
                survivors[index], witness is None, witness
            )
    return ClassificationReport(results)
