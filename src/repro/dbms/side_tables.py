"""The reserved-name tables kept beside the base relations: the
*intermediate relations* the recursion strategies create with ``setrel``
(paper section 7), the one home of the setrel frontier.  Maintained-view
support counts and interval labels are not here: they live in the
session's memory (:mod:`repro.materialize.views`,
:mod:`repro.materialize.intervals`).

:class:`SideTables` creates and replaces them.  It is a mixin of
:class:`~repro.dbms.sqlite_backend.ExternalDatabase` written against the
core's ``read`` / ``write`` / ``transaction`` primitives only: it never
touches a connection, a lock or a commit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import ExecutionError, SchemaError


def row_match(columns: Sequence[str]) -> str:
    """``WHERE`` text matching one whole tuple, one ``?`` per column.

    ``IS`` is SQLite's null-safe equality: ``col = ?`` is never true for
    a NULL, so a NULL-bearing tuple could be neither deleted nor found
    by a support-count update.  The planner treats ``IS ?`` like ``= ?``
    (``SEARCH … USING INDEX``).
    """
    return " AND ".join(f"{column} IS ?" for column in columns)


class SideTables:
    """Intermediate tables of one backend."""

    def _typed_columns(
        self, labels: Sequence[str], attributes: Sequence[str]
    ) -> str:
        """Column definitions typed from the catalog (TEXT when unknown)."""
        known = self.schema.attribute_names
        return ", ".join(
            f"{label} {self.schema.attribute(attribute).sql_type}"
            if attribute in known
            else f"{label} TEXT"
            for label, attribute in zip(labels, attributes)
        )

    # -- setrel intermediates ------------------------------------------------------

    def create_intermediate(self, name: str, attributes: Sequence[str]) -> None:
        """``setrel``: create (or reset) an intermediate relation."""
        if self.schema.has_relation(name):
            raise SchemaError(f"{name!r} clashes with a base relation")
        with self.transaction() as cursor:
            cursor.execute(f"DROP TABLE IF EXISTS {name}")
            cursor.execute(
                f"CREATE TABLE {name} "
                f"({self._typed_columns(attributes, attributes)})"
            )
            # The intermediate's column is joined against a base relation
            # on every level of the setrel loop; index it like any join
            # column.
            for attribute in attributes:
                cursor.execute(
                    f"CREATE INDEX IF NOT EXISTS idx_{name}_{attribute} "
                    f"ON {name} ({attribute})"
                )
        self._side_tables[name] = tuple(attributes)

    def drop_intermediate(self, name: str) -> None:
        if name not in self._side_tables:
            return
        with self.transaction() as cursor:
            cursor.execute(f"DROP TABLE IF EXISTS {name}")
        self._side_tables.pop(name, None)

    def set_intermediate_rows(self, name: str, rows: Iterable[tuple]) -> int:
        """Replace the contents of an intermediate relation; returns count.

        The delete and the insert commit together — once per swap, or
        once per enclosing :meth:`transaction` when the recursion loop
        brackets a whole frontier level.
        """
        columns = self._side_tables.get(name)
        if columns is None:
            raise ExecutionError(f"unknown side table {name!r}")
        placeholders = ", ".join("?" * len(columns))
        data = [tuple(row) for row in rows]

        def body(cursor) -> None:
            cursor.execute(f"DELETE FROM {name}")
            cursor.executemany(
                f"INSERT INTO {name} VALUES ({placeholders})", data
            )

        self.write(f"setrel {name}", body)
        return len(data)
