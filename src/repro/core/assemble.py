"""Dataset assembly: solver model -> legal database instance.

Decodes every tuple slot of the problem space into rows, eliminates exact
duplicate rows (the chase constraints make slots that share a primary key
identical, which the paper's assembly also collapses), and transitively
synthesises rows for referenced relations *outside* the query so that the
emitted instance satisfies every foreign key (Section V-B's closing
paragraph).  Every assembled dataset is integrity-checked; a violation
here is a generator bug, not a user error.
"""

from __future__ import annotations

from repro.core.tuplespace import ProblemSpace, slot_var_name
from repro.engine.database import Database
from repro.engine.integrity import find_violations
from repro.errors import GenerationError
from repro.schema.catalog import Table
from repro.solver.model import Model


def _default_value(table: Table, column: str):
    schema_col = table.column(column)
    if schema_col.domain:
        return schema_col.domain[0]
    if schema_col.sqltype.is_textual:
        return f"{column}~fk"
    return 0


def assemble_dataset(space: ProblemSpace, model: Model) -> Database:
    """Decode ``model`` into a validated :class:`Database`."""
    schema = space.aq.schema
    db = Database(schema)
    forced = space.forced_nulls
    assignment = model.assignment
    infos = model.infos
    decode = model.symbols.decode
    for table, size in space.sizes.items():
        columns = schema.table(table).column_names
        seen: set[tuple] = set()
        for index in range(size):
            values = []
            for col in columns:
                if forced and (table, index, col) in forced:
                    values.append(None)
                    continue
                name = slot_var_name(table, index, col)
                code = assignment[name]
                info = infos.get(name)
                values.append(
                    decode(code)
                    if info is not None and info.kind == "str"
                    else code
                )
            row = tuple(values)
            if row not in seen:
                seen.add(row)
                db.insert(table, row)
    _close_foreign_keys(db, space)
    violations = find_violations(db)
    if violations:
        raise GenerationError(
            f"assembled dataset violates integrity: {violations[0]}"
        )
    return db


def _close_foreign_keys(db: Database, space: ProblemSpace) -> None:
    """Synthesise rows in out-of-query tables until all FKs are satisfied."""
    schema = db.schema
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 100:
            raise GenerationError("foreign-key closure did not converge")
        for table in schema.tables:
            relation = db.relation(table.name)
            if not relation.rows:
                continue
            for fk in table.foreign_keys:
                target_table = schema.table(fk.ref_table)
                target = db.relation(fk.ref_table)
                dst_idx = [target.column_index(c) for c in fk.ref_columns]
                existing = {
                    tuple(row[i] for i in dst_idx) for row in target.rows
                }
                src_idx = [relation.column_index(c) for c in fk.columns]
                for row in list(relation.rows):
                    key = tuple(row[i] for i in src_idx)
                    if any(v is None for v in key) or key in existing:
                        continue
                    if space.in_query(fk.ref_table):
                        raise GenerationError(
                            f"dangling foreign key {fk.table}->{fk.ref_table} "
                            f"{key!r} inside the query's tuple space"
                        )
                    db.insert(
                        fk.ref_table,
                        _synth_row(db, space, target_table, fk, key),
                    )
                    existing.add(key)
                    changed = True


def _synth_row(
    db: Database, space: ProblemSpace, target_table: Table, fk, key: tuple
) -> tuple:
    """A ``target_table`` row holding ``key`` under ``fk``'s referenced
    columns, every other column at its default.

    The closure may add rows only outside the query's tuple space.  So
    when the new row's own foreign key would dangle into a table inside
    it, those columns take the first key that table already holds; a
    default that resolves, or that points outside the query, is kept.
    """
    values = {
        col: _default_value(target_table, col)
        for col in target_table.column_names
    }
    values.update(zip(fk.ref_columns, key))
    for own in target_table.foreign_keys:
        if not space.in_query(own.ref_table) or set(own.columns) & set(
            fk.ref_columns
        ):
            continue
        parent = db.relation(own.ref_table)
        indices = [parent.column_index(c) for c in own.ref_columns]
        keys = [tuple(row[i] for i in indices) for row in parent.rows]
        if tuple(values[c] for c in own.columns) in keys:
            continue
        values.update(zip(own.columns, keys[0]))
    return tuple(values[col] for col in target_table.column_names)
