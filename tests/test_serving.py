"""The concurrent batched serving layer (PR 4).

Covers the set-oriented ``ask_many`` path (grouping, the ``IN (VALUES
…)`` parameter-batch statement, demultiplexing, and every fallback), the
reader–writer locking discipline under a multi-threaded hammer (answers
always equal *some* serial interleaving, stats never torn, no stale
plan-cache hits across generation bumps), the pooled read connections of
the backend, and the concurrency primitives themselves.
"""

import threading

import pytest

from repro.concurrency import ReentrantRWLock, StripedLock
from repro.coupling import PrologDbSession
from repro.coupling.global_opt import CachePolicy, goal_shape
from repro.dbms import ExternalDatabase, generate_org
from repro.prolog.reader import parse_goal
from repro.schema import ALL_VIEWS_SOURCE, empdep_schema
from repro.sql.ast import (
    ColumnRef,
    Condition,
    InValuesCondition,
    Parameter,
    SelectItem,
    SqlQuery,
    TableRef,
)
from repro.sql.printer import print_sql
from repro.sql.translate import batch_variant

pytestmark = pytest.mark.smoke


def answer_set(answers):
    return {frozenset(a.items()) for a in answers}


def make_session(org, result_cache: bool = True) -> PrologDbSession:
    session = PrologDbSession(
        cache_policy=CachePolicy(enabled=result_cache)
    )
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    return session


@pytest.fixture(scope="module")
def org():
    return generate_org(depth=3, branching=2, staff_per_dept=4, seed=11)


@pytest.fixture()
def session(org):
    session = make_session(org)
    yield session
    session.close()


# -- the IN (VALUES …) SQL machinery ------------------------------------------------


class TestBatchVariant:
    def _query(self, where):
        return SqlQuery(
            select=(SelectItem(ColumnRef("v1", "nam"), label="nam"),),
            from_tables=(TableRef("empl", "v1"), TableRef("empl", "v2")),
            where=tuple(where),
            distinct=True,
        )

    def test_single_parameter(self):
        query = self._query([Condition("eq", ColumnRef("v2", "nam"), Parameter(0))])
        variant = batch_variant(query, (0,), 3)
        text = print_sql(variant, oneline=True)
        assert "v2.nam IN (VALUES (?), (?), (?))" in text
        assert variant.parameter_order() == (0, 0, 0)
        # the anchor column is projected for demultiplexing
        assert text.startswith("SELECT DISTINCT v1.nam, v2.nam FROM")

    def test_non_anchor_occurrences_substituted(self):
        # v1.nam <> ?  becomes  v1.nam <> v2.nam  (anchor substitution)
        query = self._query(
            [
                Condition("eq", ColumnRef("v2", "nam"), Parameter(0)),
                Condition("neq", ColumnRef("v1", "nam"), Parameter(0)),
            ]
        )
        variant = batch_variant(query, (0,), 2)
        text = print_sql(variant, oneline=True)
        assert "(v1.nam <> v2.nam)" in text
        assert text.count("?") == 2

    def test_two_parameters_row_values(self):
        query = self._query(
            [
                Condition("eq", ColumnRef("v1", "nam"), Parameter(0)),
                Condition("eq", ColumnRef("v2", "nam"), Parameter(1)),
            ]
        )
        variant = batch_variant(query, (0, 1), 2)
        text = print_sql(variant, oneline=True)
        assert "(v1.nam, v2.nam) IN (VALUES (?, ?), (?, ?))" in text
        assert variant.parameter_order() == (0, 1, 0, 1)

    def test_parameter_without_equality_anchor_unbatchable(self):
        query = self._query([Condition("less", ColumnRef("v1", "nam"), Parameter(0))])
        assert batch_variant(query, (0,), 2) is None

    def test_in_values_condition_validates(self):
        from repro.errors import TranslationError

        with pytest.raises(TranslationError):
            InValuesCondition(columns=(), parameter_rows=((0,),))
        with pytest.raises(TranslationError):
            InValuesCondition(
                columns=(ColumnRef("v1", "nam"),), parameter_rows=((0, 1),)
            )

    def test_executes_on_sqlite(self, org):
        schema = empdep_schema()
        database = ExternalDatabase(schema)
        database.insert_rows(
            "empl", [(1, "a", 10, 1), (2, "b", 20, 1), (3, "c", 30, 2)]
        )
        query = SqlQuery(
            select=(SelectItem(ColumnRef("v1", "sal"), label="sal"),),
            from_tables=(TableRef("empl", "v1"),),
            where=(Condition("eq", ColumnRef("v1", "nam"), Parameter(0)),),
            distinct=True,
        )
        variant = batch_variant(query, (0,), 2)
        rows = database.execute_prepared(database.prepare(variant), ["a", "c"])
        assert sorted(rows) == [(10, "a"), (30, "c")]
        database.close()


# -- ask_many -----------------------------------------------------------------------


class TestAskMany:
    def test_identical_to_serial_warm(self, session, org):
        names = [e.nam for e in org.employees][:10]
        goals = [f"works_dir_for(X, {n})" for n in names]
        goals += [f"same_manager(X, {n})" for n in names]
        serial = [session.ask(g) for g in goals]
        batched = session.ask_many(goals)
        for a, b in zip(serial, batched):
            assert answer_set(a) == answer_set(b)
        assert session.plans.stats.batch_executions >= 2
        assert session.plans.stats.batched_asks >= 16

    def test_cold_group_warms_then_batches(self, org):
        session = make_session(org)
        names = [e.nam for e in org.employees][:8]
        goals = [f"works_dir_for(X, {n})" for n in names]
        batched = session.ask_many(goals)
        for goal, answers in zip(goals, batched):
            assert answer_set(answers) == answer_set(session.ask(goal))
        # the first member compiles the shape's plan, the rest is one batch
        assert session.plans.stats.batch_executions == 1
        assert session.plans.stats.batched_asks == len(goals) - 1
        assert session.plans.stats.compiled == 1
        session.close()

    def test_mixed_bag_falls_back_correctly(self, session, org):
        boss = org.root_manager_name()
        name = org.employees[0].nam
        goals = [
            f"works_dir_for(X, {name})",      # batchable
            f"works_dir_for(X, {name})",      # duplicate of above
            f"works_for(X, {boss})",          # recursive: serial fallback
            "specialist(X, Y)",               # engine: serial fallback
            f"same_manager(X, {name})",
            f"works_dir_for(X, {boss})",
        ]
        serial = [session.ask(g) for g in goals]
        batched = session.ask_many(goals)
        for a, b in zip(serial, batched):
            assert answer_set(a) == answer_set(b)

    def test_constant_sensitive_shape_serial_fallback(self, session, org):
        # The threshold reaches a comparison, so the shape caches exact
        # variants; ask_many must fall back and still be identical.
        goals = [
            f"empl(E, X, S, D), less(S, {t})" for t in (30000, 50000, 70000)
        ]
        serial = [session.ask(g) for g in goals]
        before = session.plans.stats.batch_executions
        batched = session.ask_many(goals)
        for a, b in zip(serial, batched):
            assert answer_set(a) == answer_set(b)
        assert session.plans.stats.batch_executions == before

    def test_empty_and_unshapeable(self, session):
        assert session.ask_many([]) == []
        # nested structure: no shape, serial path answers it
        batched = session.ask_many(["member(X, [a, b])"])
        assert answer_set(batched[0]) == answer_set(session.ask("member(X, [a, b])"))

    def test_max_solutions(self, session, org):
        names = [e.nam for e in org.employees][:6]
        goals = [f"same_manager(X, {n})" for n in names]
        for goal in goals:
            session.ask(goal)
        batched = session.ask_many(goals, max_solutions=1)
        for answers in batched:
            assert len(answers) <= 1
        full = session.ask_many(goals)
        for limited, complete in zip(batched, full):
            assert answer_set(limited) <= answer_set(complete)

    def test_valuebound_violating_member_is_empty(self, session):
        # sal has a declared bound; an impossible constant must answer []
        # without poisoning the rest of the batch.
        goals = [
            "empl(E, X, 25000, D)",
            "empl(E, X, 35000, D)",
            "empl(E, X, 40000, D)",
        ]
        serial = [session.ask(g) for g in goals]
        batched = session.ask_many(goals)
        for a, b in zip(serial, batched):
            assert answer_set(a) == answer_set(b)

    def test_batch_sees_writes(self, session, org):
        dept = org.departments[0]
        manager = next(
            e.nam for e in org.employees if e.eno == dept.mgr
        )
        goals = [f"works_dir_for(X, {manager})"] * 4
        before = session.ask_many(goals)
        session.assert_fact("empl", 99_991, "syn_batch", 30_000, dept.dno)
        after = session.ask_many(goals)
        assert {a["X"] for a in after[0]} == {a["X"] for a in before[0]} | {
            "syn_batch"
        }
        session.retract_fact("empl", 99_991, "syn_batch", 30_000, dept.dno)
        again = session.ask_many(goals)
        assert answer_set(again[0]) == answer_set(before[0])


# -- thread-safety hammer ------------------------------------------------------------


class TestConcurrentServing:
    def test_hammer_asks_vs_writes(self, org):
        """N threads ask while a writer asserts/retracts.

        Gates the satellite claims: no torn stats, no stale plan-cache
        hits across generation bumps, and every observed answer equals
        one of the serial checkpoint states.
        """
        session = make_session(org)
        dept = org.departments[-1]
        manager = next(e.nam for e in org.employees if e.eno == dept.mgr)
        probe = parse_goal(f"works_dir_for(X, {manager})")
        other = parse_goal(f"same_manager(X, {org.employees[3].nam})")
        base = answer_set(session.ask(probe))
        session.ask(other)

        rows = [(88_000 + i, f"ham{i}", 20_000 + i, dept.dno) for i in range(8)]
        # The writer asserts rows in order then retracts them in order, so
        # a serializable reader can only ever observe base ∪ prefix (the
        # assert phase) or base ∪ suffix (the retract phase).
        members = [frozenset({("X", row[1])}) for row in rows]
        valid = {
            frozenset(base | set(members[:k])) for k in range(len(members) + 1)
        } | {
            frozenset(base | set(members[k:])) for k in range(len(members) + 1)
        }
        errors: list = []
        observed: set = set()
        observed_lock = threading.Lock()

        def reader():
            try:
                local = set()
                for _ in range(120):
                    local.add(frozenset(answer_set(session.ask(probe))))
                    session.ask(other)
                with observed_lock:
                    observed.update(local)
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        def writer():
            try:
                for row in rows:
                    session.assert_fact("empl", *row)
                for row in rows:
                    session.retract_fact("empl", *row)
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, errors
        # every observed answer equals some serial interleaving's state
        stray = {state for state in observed if state not in valid}
        assert not stray, stray
        # the final state must be exact (the writer removed everything)
        assert answer_set(session.ask(probe)) == base

        stats = session.stats()
        # untorn counters keep their cross-field invariants
        db = stats["database"]
        assert db["queries_executed"] >= db["prepared_executions"]
        plan = stats["plan_cache"]
        assert plan["hits"] > 0 and plan["invalidations"] == 0
        result = stats["result_cache"]
        assert result["stored"] <= result["misses"]
        session.close()

    def test_no_stale_plan_hits_across_generations(self, org):
        """A write between two warm asks must be visible to the second."""
        session = make_session(org)
        dept = org.departments[0]
        manager = next(e.nam for e in org.employees if e.eno == dept.mgr)
        goal = f"works_dir_for(X, {manager})"
        session.ask(goal)
        before = answer_set(session.ask(goal))
        session.assert_fact("empl", 77_001, "stale_probe", 30_000, dept.dno)
        after = answer_set(session.ask(goal))
        assert frozenset({("X", "stale_probe")}) in after
        session.retract_fact("empl", 77_001, "stale_probe", 30_000, dept.dno)
        assert answer_set(session.ask(goal)) == before
        session.close()

    def test_concurrent_ask_many(self, org):
        """Batched serving from several threads stays identical."""
        session = make_session(org)
        names = [e.nam for e in org.employees]
        goals = [f"works_dir_for(X, {n})" for n in names[:12]]
        expected = [answer_set(session.ask(g)) for g in goals]
        errors: list = []

        def worker():
            try:
                for _ in range(20):
                    for got, want in zip(session.ask_many(goals), expected):
                        assert answer_set(got) == want
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        session.close()


# -- pooled backend -----------------------------------------------------------------


class TestPooledBackend:
    def test_per_thread_read_connections(self, org):
        # result caching off so every ask really reaches the backend
        session = make_session(org, result_cache=False)
        name = org.employees[0].nam
        session.ask(f"works_dir_for(X, {name})")
        session.ask(f"works_dir_for(X, {name})")

        def reader():
            session.ask(f"works_dir_for(X, {name})")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # main thread + 3 workers each got a pooled connection
        assert session.database.pool_peak >= 3
        session.close()

    def test_dead_threads_retire_their_connections(self, org):
        import gc

        session = make_session(org, result_cache=False)
        name = org.employees[0].nam
        session.ask(f"works_dir_for(X, {name})")
        session.ask(f"works_dir_for(X, {name})")
        for _ in range(6):
            thread = threading.Thread(
                target=lambda: session.ask(f"works_dir_for(X, {name})")
            )
            thread.start()
            thread.join()
        del thread
        gc.collect()
        assert session.database.pool_peak >= 2
        # thread-per-request churn must not accumulate open connections
        assert session.database.pool_size <= 2
        session.close()

    def test_readers_see_committed_writes(self):
        database = ExternalDatabase(empdep_schema())
        database.insert_rows("empl", [(1, "a", 10, 1)])
        seen = []

        def reader():
            seen.append(database.execute("SELECT nam FROM empl"))

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join()
        assert seen == [[("a",)]]
        database.close()

    def test_file_backed_uses_wal(self, tmp_path):
        database = ExternalDatabase(
            empdep_schema(), path=str(tmp_path / "serving.db")
        )
        mode = database.execute("SELECT 1")  # warm a reader connection
        journal = database._connection.execute("PRAGMA journal_mode").fetchone()
        assert journal[0] == "wal"
        assert mode == [(1,)]
        database.close()

    def test_transaction_reads_own_writes(self):
        database = ExternalDatabase(empdep_schema())
        with database.transaction():
            database.insert_rows("empl", [(5, "tx", 10, 1)])
            # inside the bracket the owning connection must see the row
            assert database.row_count("empl") == 1
        database.close()

    def test_stats_snapshot_is_atomic_copy(self):
        database = ExternalDatabase(empdep_schema())
        database.execute("SELECT count(*) FROM empl")
        snap = database.stats.snapshot()
        assert set(snap) == {
            "queries_executed",
            "rows_fetched",
            "sql_prints",
            "prepared_executions",
            "commits",
            "stats_refreshes",
            "stats_hits",
            "pragma_optimizes",
        }
        database.execute("SELECT count(*) FROM empl")
        assert database.stats.snapshot()["queries_executed"] == (
            snap["queries_executed"] + 1
        )
        assert snap["queries_executed"] == 1  # the copy did not move
        database.close()


# -- concurrency primitives ----------------------------------------------------------


class TestPrimitives:
    def test_rwlock_reentrant_write_and_read_in_write(self):
        lock = ReentrantRWLock()
        with lock.write():
            with lock.write():
                with lock.read():
                    assert lock.held_for_write()

    def test_rwlock_many_readers(self):
        lock = ReentrantRWLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_rwlock_writer_excludes_readers(self):
        lock = ReentrantRWLock()
        order = []
        ready = threading.Event()

        def writer():
            with lock.write():
                ready.set()
                order.append("write-start")
                threading.Event().wait(0.05)
                order.append("write-end")

        def reader():
            ready.wait(5)
            with lock.read():
                order.append("read")

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        w.join()
        r.join()
        assert order == ["write-start", "write-end", "read"]

    def test_rwlock_sole_reader_upgrade(self):
        lock = ReentrantRWLock()
        with lock.read():
            with lock.write():
                assert lock.held_for_write()

    def test_striped_lock_same_key_same_lock(self):
        stripes = StripedLock(8)
        assert stripes.for_key("k") is stripes.for_key("k")
        with stripes.all():
            pass  # must not deadlock against itself


# -- stats --------------------------------------------------------------------------


def test_session_stats_snapshot_consistent(session, org):
    name = org.employees[0].nam
    session.ask(f"works_dir_for(X, {name})")
    stats = session.stats()
    for group in ("plan_cache", "result_cache", "database"):
        assert all(isinstance(value, int) for value in stats[group].values())
    assert "batched_asks" in stats["plan_cache"]
    assert "batch_executions" in stats["plan_cache"]
