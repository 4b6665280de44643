"""Correctness checks made apart from the program's own answers.

Every check returns a list of human-readable violations; an empty list
means the check passed.  The checks compare the program's outputs with
figures it does not compute itself: the paper's published Table I
dataset counts, SQLite's own enforcement of keys, SQLite re-execution
of the original and mutant queries, and the bytes the service returned
for the same fingerprint earlier in the stream.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

#: Table I of the paper: "#Datasets Generated" (excluding the dataset
#: for the original query) per (query, number of foreign keys).
PAPER_TABLE1 = {
    ("Q1", 0): 2, ("Q1", 1): 1,
    ("Q2", 0): 4, ("Q2", 1): 3, ("Q2", 2): 2,
    ("Q3", 0): 6, ("Q3", 1): 5, ("Q3", 4): 3,
    ("Q4", 0): 7, ("Q4", 4): 4,
    ("Q5", 0): 9, ("Q5", 4): 6,
    ("Q6", 0): 11, ("Q6", 6): 6,
}


def table1_errors(counts: dict) -> list[str]:
    """``counts`` maps (query, #FK) to ``TestSuite.non_original_count()``."""
    errors = []
    for row, expected in PAPER_TABLE1.items():
        got = counts.get(row)
        if got != expected:
            errors.append(
                f"Table I {row[0]} with {row[1]} FK(s): {got} datasets, "
                f"paper {expected}"
            )
    return errors


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _ddl(schema) -> list[str]:
    """CREATE TABLE statements keyed like the catalog: primary keys (NOT
    NULL, WITHOUT ROWID) and every single-table foreign key."""
    statements = []
    for table in schema.tables:
        lines = []
        for column in table.columns:
            not_null = column.name in table.primary_key or not column.nullable
            lines.append(
                _quote(column.name) + (" NOT NULL" if not_null else "")
            )
        if table.primary_key:
            lines.append(
                "PRIMARY KEY (" + ", ".join(map(_quote, table.primary_key)) + ")"
            )
        for fk in table.foreign_keys:
            lines.append(
                "FOREIGN KEY (" + ", ".join(map(_quote, fk.columns)) + ") "
                f"REFERENCES {_quote(fk.ref_table)} ("
                + ", ".join(map(_quote, fk.ref_columns)) + ")"
            )
        suffix = " WITHOUT ROWID" if table.primary_key else ""
        statements.append(
            f"CREATE TABLE {_quote(table.name)} ({', '.join(lines)}){suffix}"
        )
    return statements


def fk_load_errors(db, label: str) -> list[str]:
    """Load ``db`` into SQLite with ``PRAGMA foreign_keys=ON`` and
    PK-keyed tables; every key violation SQLite reports is an error."""
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("PRAGMA foreign_keys=ON")
        for statement in _ddl(db.schema):
            conn.execute(statement)
        conn.execute("BEGIN")
        conn.execute("PRAGMA defer_foreign_keys=ON")
        for table in db.schema.tables:
            relation = db.relation(table.name)
            marks = ", ".join("?" * len(relation.columns))
            try:
                conn.executemany(
                    f"INSERT INTO {_quote(table.name)} VALUES ({marks})",
                    relation.rows,
                )
            except sqlite3.DatabaseError as exc:
                return [f"{label}: table {table.name}: {exc}"]
        try:
            conn.execute("COMMIT")
        except sqlite3.DatabaseError as exc:
            return [f"{label}: {exc}"]
        return []
    finally:
        conn.close()


def _canonical(value):
    if isinstance(value, float):
        value = float(f"{value:.12g}")
        return int(value) if value.is_integer() else value
    return value


def result_bag(relation) -> tuple:
    """(sorted column names, bag of rows aligned to those names)."""
    order = sorted(range(len(relation.columns)),
                   key=lambda i: relation.columns[i])
    names = tuple(relation.columns[i] for i in order)
    rows = Counter(
        tuple(_canonical(row[i]) for i in order) for row in relation.rows
    )
    return names, rows


def sample_pairs(report, rng, per_kind: int = 2) -> list[tuple[int, int]]:
    """Up to ``per_kind`` killing and ``per_kind`` non-killing
    (mutant index, dataset index) pairs of ``report``'s kill matrix."""
    killed, survived = [], []
    for m, outcome in enumerate(report.outcomes):
        hit = set(outcome.killed_by)
        for d in range(report.dataset_count):
            (killed if d in hit else survived).append((m, d))
    pairs = rng.sample(killed, min(per_kind, len(killed)))
    pairs += rng.sample(survived, min(per_kind, len(survived)))
    return pairs


def verdict_errors(space, databases, report, pairs, label: str) -> list[str]:
    """Re-decide each sampled kill verdict on SQLite: a mutant kills a
    dataset exactly when SQLite returns a different result bag for it
    than for the original query."""
    from repro.backends import SqliteBackend

    backend = SqliteBackend()
    handles = {}
    errors = []
    try:
        for m, d in pairs:
            if d not in handles:
                handles[d] = backend.load(databases[d])
            handle = handles[d]
            original = result_bag(backend.execute(handle, space.original_plan))
            mutant = result_bag(backend.execute(handle, space.mutants[m].plan))
            sqlite_kills = original != mutant
            engine_kills = d in report.outcomes[m].killed_by
            if sqlite_kills != engine_kills:
                errors.append(
                    f"{label}: mutant {space.mutants[m]} on dataset {d}: "
                    f"engine says killed={engine_kills}, SQLite says "
                    f"killed={sqlite_kills}"
                )
    finally:
        for handle in handles.values():
            backend.close(handle)
    return errors


def hit_body_errors(responses) -> list[str]:
    """``responses`` are (fingerprint, cache header, body) in stream order;
    every hit must repeat the miss body of its fingerprint byte for byte."""
    misses = {}
    errors = []
    for fingerprint, header, body in responses:
        if header == "miss":
            misses.setdefault(fingerprint, body)
        elif fingerprint not in misses:
            errors.append(f"hit for {fingerprint[:12]} before any miss")
        elif body != misses[fingerprint]:
            errors.append(
                f"hit body for {fingerprint[:12]} differs from its miss body"
            )
    return errors


def counter_errors(metrics_text: str, hits: int, misses: int) -> list[str]:
    """The service's ``/metrics`` hit/miss counters against the counts
    the client observed."""
    counters = {}
    for line in metrics_text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.partition(" ")
        counters[name] = value
    errors = []
    for name, seen in (("xdata_service_cache_hits_total", hits),
                       ("xdata_service_cache_misses_total", misses)):
        reported = counters.get(name)
        if reported is None or float(reported) != seen:
            errors.append(f"/metrics {name}={reported}, client saw {seen}")
    return errors
