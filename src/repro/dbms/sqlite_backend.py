"""The external relational DBMS, backed by ``sqlite3``.

The paper's system talks to an SQL DBMS it does not control ("we assume
the use of an existing database system").  This module is that substitute
substrate, and its interface is deliberately narrow — SQL text in,
tuples out — so the translation layers above cannot accidentally depend
on anything a 1984 mainframe DBMS would not have offered.

:class:`ExternalDatabase` is a *statement-execution core*: everything
reaches the store through :meth:`~ExternalDatabase.read` (one SELECT on
the routed connection, under the retry ladder) or one of exactly two
write recipes —

* :meth:`~ExternalDatabase.transaction` — the write unit: write mutex,
  rollback on error, and the **only** ``commit()`` in the package, at
  the outermost exit.  Used bare for DDL, whose callers own
  recovery;
* :meth:`~ExternalDatabase.write` — the retry ladder around one
  ``transaction()`` running ``body(cursor)``.  Used for DML: each retry
  re-runs the whole rolled-back unit.

Every mutating method, here and in the :class:`~repro.dbms.side_tables.
SideTables` mixin (setrel intermediates of paper section 7, interval
labelings), is a body handed to one of the two.
The stateful machinery is composed: :class:`~repro.dbms.pool.ReaderPool`,
:class:`~repro.resilience.ladder.RetryLadder` and
:class:`~repro.dbms.statistics.StatisticsService`.

Besides transactions, two provisions a real DBMS of the era *did* offer
are modelled explicitly:

* **prepared statements** — :meth:`ExternalDatabase.prepare` renders a
  query tree to text exactly once; :meth:`execute_prepared` re-executes
  that text with bound parameters.  ``stats.sql_prints`` counts renders so
  callers (the recursion loop, the plan cache) can prove they compile
  once and execute many times;
* **catalog-driven indexes** — join and key attributes named by the
  catalog (shared attributes, functional-dependency determinants,
  referential-integrity endpoints) get a ``CREATE INDEX`` at DDL time.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
import time
from contextlib import contextmanager, suppress
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from ..errors import ExecutionError
from ..resilience.ladder import RetryLadder, interruptible_fetch
from ..resilience.policy import FaultPolicy
from ..resilience.stats import ResilienceStats
from ..schema.catalog import DatabaseSchema, Relation
from ..sql.ast import RecursiveQuery, SqlQuery, UnionQuery
from ..sql.dialects import SqliteDialect
from ..sql.printer import print_recursive, print_sql, print_union
from .pool import ReaderPool
from .side_tables import SideTables, row_match
from .statistics import ExecutionStats, RelationStatistics, StatisticsService

__all__ = ["ExternalDatabase", "ExecutionStats", "RelationStatistics", "Row", "Value"]

Row = tuple
Value = Union[int, float, str, None]

#: Distinguishes the shared-cache URIs of concurrently-open in-memory
#: databases (two anonymous ``:memory:`` pools must never alias).
_memory_names = itertools.count(1)


class _UnitCursor:
    """The cursor a write unit yields: its first statement begins the unit."""

    __slots__ = ("_cursor", "_begin")

    def __init__(self, cursor: sqlite3.Cursor, begin: Callable[[], None]):
        self._cursor = cursor
        self._begin = begin

    def execute(self, *args) -> sqlite3.Cursor:
        self._begin()
        return self._cursor.execute(*args)

    def executemany(self, *args) -> sqlite3.Cursor:
        self._begin()
        return self._cursor.executemany(*args)

    def __getattr__(self, name: str):
        return getattr(self._cursor, name)


class ExternalDatabase(SideTables):
    """An SQLite-backed relational store for one catalog.

    ``constraints`` (optional) widens the catalog-driven index set with
    functional-dependency determinants and referential-integrity
    endpoints; without it only attributes shared between relations (the
    tableau model's join columns) are indexed.

    ``policy`` configures the fault-handling layer (retry/backoff,
    circuit breakers, whole-ask retry bounds); ``FaultPolicy.disabled()``
    reverts to the pre-resilience single-attempt behaviour.

    Besides the methods below, an instance carries ``deadline``,
    ``current_deadline``, ``fault_context`` and ``breaker_states`` (bound
    from its :class:`~repro.resilience.ladder.RetryLadder`) and
    ``data_generation`` / ``relation_statistics`` (from its
    :class:`~repro.dbms.statistics.StatisticsService`).
    """

    #: Hook consulted before each instrumented backend operation.
    #: ``None`` on healthy backends — the fault-free hot path pays one
    #: attribute test; :class:`~repro.resilience.faults.
    #: FaultInjectingBackend` overrides it with the schedule drawer.
    _fault_point = None

    def __init__(
        self,
        schema: DatabaseSchema,
        path: str = ":memory:",
        constraints=None,
        policy: Optional[FaultPolicy] = None,
    ):
        self.schema = schema
        # Anonymous in-memory databases are private to one connection; the
        # read pool needs every connection to see the same store, so
        # ':memory:' becomes a uniquely-named shared-cache URI database
        # (alive while the owning write connection stays open).
        self._file_backed = path != ":memory:"
        if not self._file_backed:
            path = f"file:repro_mem_{next(_memory_names)}?mode=memory&cache=shared"
        self._target = path
        self._uri = path.startswith("file:")
        # cached_statements makes repeated execute() of identical text hit
        # sqlite3's internal prepared-statement cache — the "existing
        # database system" side of the compile-once contract.
        # check_same_thread=False: any thread may write through the owning
        # connection, serialized by ``_write_lock`` (the session's
        # KnowledgeBase write lock already excludes concurrent mutators;
        # this mutex keeps the backend safe under direct use too).
        connect = partial(
            sqlite3.connect,
            self._target,
            uri=self._uri,
            cached_statements=256,
            check_same_thread=False,
        )
        self._connection = connect()
        self._write_lock = threading.RLock()
        self._txn_depth = 0
        self._txn_thread: Optional[int] = None
        #: Whether the open unit issued its ``BEGIN`` (its first statement).
        self._txn_begun = False
        #: Base relations the open unit wrote: a rollback advances their
        #: data generations again, past anything read in the unit.
        self._txn_mutated: set[str] = set()
        self._closed = False
        #: The fault policy governing this backend's retry behaviour.
        self.policy = policy if policy is not None else FaultPolicy()
        self.resilience = ResilienceStats()
        self.stats = ExecutionStats()
        self._pool = ReaderPool(connect, self.stats, self.resilience)
        ladder = self._ladder = RetryLadder(
            self.policy,
            self.resilience,
            self.stats,
            self._pool.retire_current,
            self._fault_point,
        )
        statistics = self._statistics = StatisticsService(self)
        # The composed parts serve their share of the backend's public
        # surface themselves — no delegating frame on the per-ask paths.
        self.deadline = ladder.deadline
        self.current_deadline = ladder.current_deadline
        self.fault_context = ladder.fault_context
        self.breaker_states = ladder.breaker_states
        self.data_generation = statistics.data_generation
        self.relation_statistics = statistics.relation_statistics
        if self._file_backed:
            # WAL lets pooled readers proceed while the owning connection
            # writes; harmless no-op for in-memory targets (skipped).
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
        self._dialect = SqliteDialect()
        #: Optional execute observer ``(text, rows, seconds) -> None``,
        #: installed by an *enabled* tracer only — when ``None`` (the
        #: default, and the disabled-tracing case) the execute paths do
        #: not even read the clock for it.
        self.observer = None
        #: name -> columns of every live side table (:class:`SideTables`).
        self._side_tables: dict[str, tuple[str, ...]] = {}
        self.index_statements: list[str] = []
        self._create_tables()
        self._create_indexes(constraints)

    # -- the three primitives: read, transaction, write -----------------------------

    @staticmethod
    def _is_read_statement(text: str) -> bool:
        # WITH covers the recursive-CTE pushdown statements: a WITH whose
        # body mutates is not produced by any layer above (the CTE builder
        # only emits SELECT components), so routing by prefix stays sound.
        head = text.lstrip()[:6].upper()
        return head == "SELECT" or head.startswith("WITH")

    def _query_connection(self) -> sqlite3.Connection:
        """The calling thread's pooled reader — or the owning connection
        when the read must observe this thread's open transaction (only
        it sees the uncommitted rows)."""
        if self._txn_depth and self._txn_thread == threading.get_ident():
            return self._connection
        return self._pool.connection()

    def read(self, text: str, parameters: Sequence[Value] = ()) -> list[Row]:
        """Execute a SELECT on the routed connection with full fault handling.

        The connection is re-routed on every attempt so a poisoned
        reader retired mid-ladder is replaced by a fresh one before the
        retry, and an active deadline scope interrupts long statements
        from inside the SQLite VM.
        """
        if self._closed:
            raise ExecutionError("database is closed")
        params = tuple(parameters)
        ladder = self._ladder

        def attempt() -> list[Row]:
            connection = self._query_connection()
            scope = ladder.current_deadline()
            if scope is None:
                return connection.execute(text, params).fetchall()
            return interruptible_fetch(connection, scope, text, params)

        return ladder.run("read", text, attempt)

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Cursor]:
        """The write unit: several statements, one commit (nestable).

        Yields a cursor on the owning connection.  Inner units join the
        enclosing one; the outermost exit commits once, or rolls the
        whole unit back if the block raised — so no failed statement
        (an ``executemany`` mid-batch) can leave half its rows staged
        for whoever commits next.  The unit begins at its first
        statement, so one that ran none commits nothing.  The whole
        bracket holds the backend write mutex, so two threads'
        transactions serialize instead of interleaving statements on
        the owning connection.
        """
        if self._closed:
            raise ExecutionError("database is closed")
        with self._write_lock:
            self._txn_depth += 1
            self._txn_thread = threading.get_ident()
            try:
                yield _UnitCursor(self._connection.cursor(), self._begin)
                if self._txn_depth == 1 and self._txn_begun:
                    self._connection.commit()
                    self.stats.incr("commits")
            except BaseException:
                if self._txn_depth == 1 and self._txn_begun:
                    # nothing staged, or the connection is gone
                    with suppress(sqlite3.Error):
                        self._connection.rollback()
                    for relation_name in self._txn_mutated:
                        self._statistics.note_mutation(relation_name)
                raise
            finally:
                self._txn_depth -= 1
                if self._txn_depth == 0:
                    self._txn_thread = None
                    self._txn_begun = False
                    self._txn_mutated.clear()

    def _begin(self) -> None:
        """Open the current unit before its first statement."""
        if not self._txn_begun:
            # explicit: sqlite3 opens its implicit transaction only
            # before DML, and DDL units must roll back whole too
            self._connection.execute("BEGIN")
            self._txn_begun = True

    def _mutated(self, relation_name: str) -> None:
        """A write changed a base relation: advance its data generation."""
        self._statistics.note_mutation(relation_name)
        if self._txn_depth and self._txn_thread == threading.get_ident():
            self._txn_mutated.add(relation_name)

    def write(self, label: str, body: Callable[[sqlite3.Cursor], object]):
        """Run ``body(cursor)`` as one write unit under the retry ladder.

        Inside an open transaction the body joins the enclosing bracket,
        which owns recovery; only a lock refusal is waited out, in place
        (every body writes one table, so a lock can refuse only its
        first statement).  At top level each failed attempt is rolled
        back by :meth:`transaction` before the ladder retries.
        """
        if self._closed:
            raise ExecutionError("database is closed")
        if self._txn_depth and self._txn_thread == threading.get_ident():
            self._begin()
            cursor = self._connection.cursor()
            try:
                return body(cursor)
            except sqlite3.OperationalError as error:
                return self._ladder.outwait_lock(error, lambda: body(cursor))

        def attempt():
            with self.transaction() as cursor:
                return body(cursor)

        return self._ladder.run("write", label, attempt)

    @property
    def pool_size(self) -> int:
        """How many pooled read connections are currently open."""
        return self._pool.size

    @property
    def pool_peak(self) -> int:
        """The most read connections ever open at once."""
        return self._pool.peak

    # -- base-relation DDL -------------------------------------------------------------

    def _create_tables(self) -> None:
        with self.transaction() as cursor:
            for relation in self.schema.relations.values():
                columns = self._typed_columns(
                    relation.attributes, relation.attributes
                )
                cursor.execute(
                    f"CREATE TABLE IF NOT EXISTS {relation.name} ({columns})"
                )

    def _create_indexes(self, constraints=None) -> None:
        """``CREATE INDEX`` on every catalog-driven candidate.

        * attributes appearing in more than one relation — by the tableau
          model's construction these are exactly the equijoin columns;
        * functional-dependency determinants (key attributes);
        * both endpoints of each referential-integrity arc (the chase and
          the generated SQL join along these).
        """
        shared = {
            attribute.name
            for attribute in self.schema.attributes
            if len(self.schema.relations_with_attribute(attribute.name)) > 1
        }
        candidates: dict[str, set[str]] = {
            relation.name: {a for a in relation.attributes if a in shared}
            for relation in self.schema.relations.values()
        }
        if constraints is not None:
            for funcdep in getattr(constraints, "funcdeps", ()):
                candidates.setdefault(funcdep.relation, set()).update(funcdep.lhs)
            for refint in getattr(constraints, "refints", ()):
                candidates.setdefault(refint.from_relation, set()).update(
                    refint.from_attributes
                )
                candidates.setdefault(refint.to_relation, set()).update(
                    refint.to_attributes
                )
        with self.transaction() as cursor:
            for relation_name, attributes in candidates.items():
                if not self.schema.has_relation(relation_name):
                    continue
                for attribute in sorted(attributes):
                    ddl = (
                        f"CREATE INDEX IF NOT EXISTS idx_{relation_name}_{attribute} "
                        f"ON {relation_name} ({attribute})"
                    )
                    cursor.execute(ddl)
                    self.index_statements.append(ddl)

    # -- base-relation DML -------------------------------------------------------------

    def _checked_relation(self, relation_name: str, rows: Iterable) -> Relation:
        """The catalog entry, after checking every row has its arity."""
        relation = self.schema.relation(relation_name)
        for row in rows:
            if len(row) != relation.arity:
                raise ExecutionError(
                    f"{relation_name}: expected {relation.arity} values, got {len(row)}"
                )
        return relation

    def insert_rows(self, relation_name: str, rows: Iterable[Sequence[Value]]) -> int:
        """Bulk-load tuples into a base relation; returns the count."""
        data = [tuple(row) for row in rows]
        relation = self._checked_relation(relation_name, data)
        statement = (
            f"INSERT INTO {relation_name} "
            f"VALUES ({', '.join('?' * relation.arity)})"
        )
        self.write(
            f"insert {relation_name}",
            lambda cursor: cursor.executemany(statement, data),
        )
        self._mutated(relation_name)
        return len(data)

    def insert_absent(self, relation_name: str, rows: Iterable[Sequence[Value]]) -> int:
        """Insert each tuple the relation does not already hold; returns
        how many were added.  Merge (set) semantics for the session's
        base-relation writes: one null-safe, index-matched statement per
        tuple."""
        data = [tuple(row) for row in rows]
        relation = self._checked_relation(relation_name, data)
        statement = (
            f"INSERT INTO {relation_name} "
            f"SELECT {', '.join('?' * relation.arity)} WHERE NOT EXISTS "
            f"(SELECT 1 FROM {relation_name} "
            f"WHERE {row_match(relation.attributes)})"
        )
        added = self.write(
            f"insert absent {relation_name}",
            lambda cursor: cursor.executemany(
                statement, [row + row for row in data]
            ).rowcount,
        )
        if added:
            self._mutated(relation_name)
        return added

    def delete_row(self, relation_name: str, row: Sequence[Value]) -> int:
        """Delete tuples equal to ``row`` from a base relation; returns count."""
        relation = self._checked_relation(relation_name, [row])
        statement = (
            f"DELETE FROM {relation_name} WHERE {row_match(relation.attributes)}"
        )
        count = self.write(
            f"delete {relation_name}",
            lambda cursor: cursor.execute(statement, tuple(row)).rowcount,
        )
        self._mutated(relation_name)
        return count

    def clear_relation(self, relation_name: str) -> None:
        self.schema.relation(relation_name)  # validates
        self.write(
            f"clear {relation_name}",
            lambda cursor: cursor.execute(f"DELETE FROM {relation_name}"),
        )
        self._mutated(relation_name)

    def row_count(self, relation_name: str) -> int:
        return self.read(f"SELECT COUNT(*) FROM {relation_name}")[0][0]

    def fetch_relation(self, relation_name: str) -> list[Row]:
        """All tuples of a base relation (view maintenance's initial set)."""
        relation = self.schema.relation(relation_name)
        columns = ", ".join(relation.attributes)
        return self.execute(f"SELECT {columns} FROM {relation_name}")

    # -- query execution -----------------------------------------------------------

    def render(self, query: Union[SqlQuery, UnionQuery, RecursiveQuery]) -> str:
        """Render a query tree to executable text (counted in stats)."""
        self.stats.incr("sql_prints")
        if isinstance(query, SqlQuery):
            return print_sql(query, oneline=True, dialect=self._dialect)
        if isinstance(query, RecursiveQuery):
            return print_recursive(query, oneline=True, dialect=self._dialect)
        return print_union(query, oneline=True)

    def prepare(self, query: Union[SqlQuery, UnionQuery, RecursiveQuery, str]) -> str:
        """Render once for repeated :meth:`execute_prepared` calls.

        The returned text is the prepared-statement handle: sqlite3 keeps
        the compiled statement in its per-connection cache, so executing
        the same text again skips re-parsing as well as re-printing.
        """
        if isinstance(query, str):
            return query
        if isinstance(query, SqlQuery) and query.is_empty:
            raise ExecutionError("cannot prepare a provably-empty query")
        return self.render(query)

    def execute(
        self, query: Union[SqlQuery, UnionQuery, RecursiveQuery, str]
    ) -> list[Row]:
        """Run a generated query and fetch all result tuples."""
        if isinstance(query, SqlQuery) and query.is_empty:
            return []  # proven empty: never hits the DBMS
        if isinstance(query, UnionQuery) and not query.live_branches:
            return []
        return self._execute(self.prepare(query), (), False)

    def execute_prepared(
        self, text: str, parameters: Sequence[Value] = ()
    ) -> list[Row]:
        """Execute prepared SQL text with positional bind parameters."""
        return self._execute(text, parameters, True)

    def _execute(
        self, text: str, parameters: Sequence[Value], prepared: bool
    ) -> list[Row]:
        """The one routed-and-observed statement execution.

        SELECTs go to :meth:`read` (the calling thread's pooled reader,
        or the owning connection inside an open transaction); anything
        else is one :meth:`write` unit on the owning connection.
        """
        observer = self.observer
        started = time.perf_counter() if observer is not None else 0.0
        try:
            if self._is_read_statement(text):
                rows = self.read(text, parameters)
            else:
                params = tuple(parameters)
                rows = self.write(
                    text, lambda cursor: cursor.execute(text, params).fetchall()
                )
        except sqlite3.Error as error:
            raise ExecutionError(
                f"SQLite rejected {'prepared ' if prepared else ''}{text!r}: {error}"
            ) from error
        self.stats.record(len(rows), prepared)
        if observer is not None:
            observer(text, len(rows), time.perf_counter() - started)
        return rows

    def query_plan(
        self, text: str, parameters: Sequence[Value] = ()
    ) -> list[str]:
        """The substrate's ``EXPLAIN QUERY PLAN`` detail lines for ``text``.

        Bind parameters may be omitted — placeholders are bound to NULL
        (the plan shape does not depend on the value), which is exactly
        what the prepared-statement regression tests need: asserting
        catalog-driven indexes are *used* by warm plans, not merely
        created.
        """
        connection = self._query_connection()
        statement = "EXPLAIN QUERY PLAN " + text
        try:
            try:
                rows = connection.execute(
                    statement, tuple(parameters)
                ).fetchall()
            except sqlite3.ProgrammingError as error:
                # "... uses N, and there are 0 supplied": bind NULLs.
                message = str(error)
                if "bindings supplied" not in message:
                    raise
                expected = int(message.split("uses ")[1].split(",")[0])
                rows = connection.execute(
                    statement, (None,) * expected
                ).fetchall()
        except sqlite3.Error as error:
            raise ExecutionError(
                f"SQLite rejected EXPLAIN QUERY PLAN for {text!r}: {error}"
            ) from error
        return [str(row[-1]) for row in rows]

    def close(self) -> None:
        """Close every connection; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._pool.close()
        self._pool.optimize(self._connection)
        self._connection.close()

    def __enter__(self) -> "ExternalDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
