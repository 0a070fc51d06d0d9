"""The two reserved-name table families kept beside the base relations:
the *intermediate relations* the recursion strategies create with
``setrel`` (paper section 7) and the ``ivl_`` interval labelings — each
the one home of its derived relation (the setrel frontier; the pre/post
labels).  Maintained-view support counts are not here: they live in the
session's memory (:mod:`repro.materialize.views`).

Both families are created and replaced the same way, so
:class:`SideTables` does each of those once.  It is a mixin of
:class:`~repro.dbms.sqlite_backend.ExternalDatabase` written against the
core's ``read`` / ``write`` / ``transaction`` primitives only: it never
touches a connection, a lock or a commit.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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
    """Intermediate and interval tables of one backend."""

    #: Reserved name prefix for interval (pre/post nested-set) labelings,
    #: disjoint from base relations and setrel intermediates.
    INTERVAL_PREFIX = "ivl_"

    # -- the shared shape: create, replace -----------------------------------------

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

    def _create_side_table(
        self,
        name: str,
        columns: Sequence[str],
        ddl: Sequence[str],
        prefix: Optional[str] = None,
    ) -> None:
        """Create (or reset) one side table and register its columns."""
        if prefix is not None and not name.startswith(prefix):
            raise SchemaError(
                f"side table {name!r} must use the {prefix!r} prefix"
            )
        if self.schema.has_relation(name):
            raise SchemaError(f"{name!r} clashes with a base relation")
        with self.transaction() as cursor:
            cursor.execute(f"DROP TABLE IF EXISTS {name}")
            for statement in ddl:
                cursor.execute(statement)
        self._side_tables[name] = tuple(columns)

    def _side_columns(self, name: str) -> tuple[str, ...]:
        columns = self._side_tables.get(name)
        if columns is None:
            raise ExecutionError(f"unknown side table {name!r}")
        return columns

    def _replace_rows(self, label: str, name: str, rows: Iterable) -> int:
        """Swap ``name``'s contents for ``rows`` (whole rows, in column order).

        The delete and the insert commit together — once per swap, or
        once per enclosing :meth:`transaction`.
        """
        placeholders = ", ".join("?" * len(self._side_columns(name)))
        data = [tuple(row) for row in rows]

        def body(cursor) -> None:
            cursor.execute(f"DELETE FROM {name}")
            cursor.executemany(
                f"INSERT INTO {name} VALUES ({placeholders})", data
            )

        self.write(label, body)
        return len(data)

    # -- setrel intermediates ------------------------------------------------------

    def create_intermediate(self, name: str, attributes: Sequence[str]) -> None:
        """``setrel``: create (or reset) an intermediate relation."""
        # The intermediate's column is joined against a base relation on
        # every level of the setrel loop; index it like any join column.
        indexes = [
            f"CREATE INDEX IF NOT EXISTS idx_{name}_{attribute} "
            f"ON {name} ({attribute})"
            for attribute in attributes
        ]
        self._create_side_table(
            name,
            attributes,
            [f"CREATE TABLE {name} ({self._typed_columns(attributes, attributes)})"]
            + indexes,
        )

    def drop_intermediate(self, name: str) -> None:
        if name not in self._side_tables:
            return
        with self.transaction() as cursor:
            cursor.execute(f"DROP TABLE IF EXISTS {name}")
        self._side_tables.pop(name, None)

    def set_intermediate_rows(self, name: str, rows: Iterable[tuple]) -> int:
        """Replace the contents of an intermediate relation; returns count.

        One commit per swap, or one per enclosing :meth:`transaction`
        when the recursion loop brackets a whole frontier level.
        """
        return self._replace_rows(f"setrel {name}", name, rows)

    # -- interval-index tables (nested-set hierarchy labelings) --------------------

    def create_interval_index(self, name: str) -> None:
        """Create (or reset) an interval-labeling table for one hierarchy.

        One row per node: ``(node, pre, post, cyc)``.  The ``node``
        column deliberately has *no* declared type — BLOB affinity stores
        integer and text endpoint values exactly as bound, so probe
        results demultiplex by Python equality.  The composite
        ``(pre, post, node)`` index is the accelerator: a descendant
        probe is one range scan over it, *covering* — the trailing
        ``node`` column means the probe never touches the table.  ``cyc``
        marks nodes carrying a self-loop edge (the org generator's
        self-managed top department), which the tree labels cannot
        express.
        """
        self._create_side_table(
            name,
            ("node", "pre", "post", "cyc"),
            [
                f"CREATE TABLE {name} (node PRIMARY KEY, "
                "pre INTEGER NOT NULL, post INTEGER NOT NULL, "
                "cyc INTEGER NOT NULL DEFAULT 0)",
                f"CREATE INDEX idx_{name}_pre_post ON {name} (pre, post, node)",
            ],
            prefix=self.INTERVAL_PREFIX,
        )

    def set_interval_rows(self, name: str, rows: Iterable[tuple]) -> int:
        """Replace a labeling with ``(node, pre, post, cyc)`` rows.

        The bulk relabel: labels computed by the index's DFS cross the
        wire once, and the whole rewrite commits as one unit.
        """
        return self._replace_rows(f"interval relabel {name}", name, rows)

    def apply_interval_delta(
        self,
        name: str,
        upserts: Iterable[tuple] = (),
        deletes: Iterable = (),
    ) -> int:
        """Local label maintenance: upsert placed nodes, tombstone removed ones.

        Gap-based labels absorb a leaf attach as one ``(node, pre, post,
        cyc)`` upsert inside the parent's gap; a leaf delete just drops
        the row (its interval becomes reusable gap).  The whole delta
        commits as one unit.
        """
        self._side_columns(name)
        placed = [tuple(row) for row in upserts]
        removed = [(node,) for node in deletes]

        def body(cursor) -> None:
            if removed:
                cursor.executemany(f"DELETE FROM {name} WHERE node = ?", removed)
            if placed:
                cursor.executemany(
                    f"INSERT INTO {name} (node, pre, post, cyc) "
                    "VALUES (?, ?, ?, ?) ON CONFLICT(node) DO UPDATE SET "
                    "pre = excluded.pre, post = excluded.post, "
                    "cyc = excluded.cyc",
                    placed,
                )

        self.write(f"interval delta {name}", body)
        return len(placed) + len(removed)
