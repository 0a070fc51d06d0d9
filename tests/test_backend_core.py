"""The backend core's contracts: one write unit, NULL-safe row matching,
and one answer from a closed backend.

Every public mutating method of :class:`ExternalDatabase` is a body
handed to ``write`` or ``transaction``; the parametrized contract below
holds each of them to the same three promises — one commit at top level,
none of its own inside an enclosing ``transaction()``, and no row left
behind by a body that fails mid-way.
"""

import sqlite3
from contextlib import contextmanager

import pytest

from repro.dbms.side_tables import row_match
from repro.dbms.sqlite_backend import ExternalDatabase
from repro.errors import ExecutionError
from repro.schema.empdep import empdep_schema

EMPL_ROWS = [
    (1, "smiley", 80000, 1),
    (2, "jones", 40000, 1),
    (3, "miller", 35000, 2),
]

# Every public mutating method, each against the fixture below.
MUTATORS = {
    "insert_rows": lambda db: db.insert_rows("empl", [(9, "new", 1, 1)]),
    "insert_absent": lambda db: db.insert_absent("empl", [(9, "new", 1, 1)]),
    "delete_row": lambda db: db.delete_row("empl", EMPL_ROWS[0]),
    "clear_relation": lambda db: db.clear_relation("empl"),
    "create_intermediate": lambda db: db.create_intermediate("frontier", ["nam"]),
    "set_intermediate_rows": lambda db: db.set_intermediate_rows(
        "frontier", [("a",), ("b",)]
    ),
}

TABLES = ("empl", "frontier")


class _FailsAfterFirstStatement:
    """A cursor whose first statement runs — and then the body dies."""

    def __init__(self, cursor):
        self._cursor = cursor

    def _run(self, method, *args):
        getattr(self._cursor, method)(*args)
        raise sqlite3.IntegrityError("injected after the first statement")

    def execute(self, *args):
        return self._run("execute", *args)

    def executemany(self, *args):
        return self._run("executemany", *args)


class TrippableDatabase(ExternalDatabase):
    """Hands bodies a failing cursor while ``tripped`` is set."""

    tripped = False

    @contextmanager
    def transaction(self):
        with super().transaction() as cursor:
            yield _FailsAfterFirstStatement(cursor) if self.tripped else cursor


@pytest.fixture
def database():
    db = TrippableDatabase(empdep_schema())
    db.insert_rows("empl", EMPL_ROWS)
    db.create_intermediate("frontier", ["nam"])
    db.set_intermediate_rows("frontier", [("seed",)])
    yield db
    db.close()


def stored(db):
    """Every table's rows, straight from the store."""
    return {
        table: sorted(db.execute(f"SELECT * FROM {table}"), key=repr)
        for table in TABLES
    }


@pytest.mark.parametrize("name", MUTATORS)
class TestWriteUnitContract:
    def test_one_commit_at_top_level(self, database, name):
        before = database.stats.commits
        MUTATORS[name](database)
        assert database.stats.commits == before + 1

    def test_no_commit_of_its_own_inside_a_transaction(self, database, name):
        before = database.stats.commits
        with database.transaction():
            MUTATORS[name](database)
            assert database.stats.commits == before
        assert database.stats.commits == before + 1

    def test_failure_mid_body_leaves_rows_and_stamp(self, database, name):
        # (the name predates the deletion of the label stamps: rows only)
        before, commits = stored(database), database.stats.commits
        database.tripped = True
        with pytest.raises(sqlite3.IntegrityError):
            MUTATORS[name](database)
        database.tripped = False
        assert stored(database) == before
        assert database.stats.commits == commits
        # and the backend still takes the same write afterwards
        MUTATORS[name](database)
        assert stored(database) != before


class TestNullSafeRowMatch:
    def test_delete_row_matches_null(self, database):
        database.insert_rows("empl", [(0, 1, None, 3)])
        assert database.delete_row("empl", (0, 1, None, 3)) == 1
        assert database.row_count("empl") == len(EMPL_ROWS)

    def test_insert_absent_matches_null_and_duplicates(self, database):
        rows = [(0, 1, None, 3), EMPL_ROWS[0], (0, 1, None, 3), (7, "x", 1, 1)]
        generation = database.data_generation("empl")
        assert database.insert_absent("empl", rows) == 2
        assert database.row_count("empl") == len(EMPL_ROWS) + 2
        assert database.data_generation("empl") > generation
        # nothing added: not a mutation of the relation
        generation = database.data_generation("empl")
        assert database.insert_absent("empl", rows) == 0
        assert database.data_generation("empl") == generation

    def test_null_safe_match_still_uses_the_index(self, database):
        attributes = database.schema.relation("empl").attributes
        plan = database.query_plan(
            f"DELETE FROM empl WHERE {row_match(attributes)}"  # delete_row's text
        )
        assert any("USING INDEX" in line for line in plan)


class TestClosedBackend:
    def test_read_and_write_answer_alike(self, database):
        database.close()
        before = database.resilience.snapshot()
        with pytest.raises(ExecutionError, match="database is closed"):
            database.row_count("empl")
        with pytest.raises(ExecutionError, match="database is closed"):
            database.insert_rows("empl", [(9, "late", 1, 1)])
        with pytest.raises(ExecutionError, match="database is closed"):
            database.execute("SELECT 1")
        # a closed backend is not a failing one: the breakers never heard
        assert database.resilience.snapshot() == before
        assert database.breaker_states() == {"read": "closed", "write": "closed"}

    def test_close_is_idempotent(self, database):
        database.close()
        optimizes = database.stats.pragma_optimizes
        database.close()
        assert database.stats.pragma_optimizes == optimizes
