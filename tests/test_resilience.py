"""Tests for the fault-tolerant execution layer.

Covers the error taxonomy (per-code and per-message classification),
the retry/backoff policy and circuit breaker, seeded fault schedules and
the injecting backend, deadline budgets and their typed expiry, read-pool
capacity limits, the exception-safety of the write mutex under failing
transactions, the session-level degradation ladder (plan invalidation,
recursion rungs, batch→serial fallback), materialized-view quarantine /
self-healing, and the randomized fault-schedule
differential (a Hypothesis property: any eventually-healing schedule
yields answers identical to a fault-free run).
"""

import sqlite3
from collections import Counter
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coupling import PrologDbSession
from repro.coupling.recursion_exec import IncrementalClosure
from repro.dbms import generate_org
from repro.dbms.sqlite_backend import ExternalDatabase
from repro.errors import (
    BackendPoisonedError,
    DeadlineExceeded,
    ExecutionError,
    TransientBackendError,
    classify_sqlite_error,
)
from repro.materialize.delta import INSERT, Delta
from repro.resilience import CircuitBreaker, FaultPolicy, ResilienceStats
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjectingBackend,
    FaultSchedule,
)
from repro.schema import ALL_VIEWS_SOURCE
from repro.schema.empdep import empdep_constraints, empdep_schema


def answer_set(answers):
    return {frozenset(a.items()) for a in answers}


def make_backend(schedule=None, policy=None, **kwargs):
    schema = empdep_schema()
    constraints = empdep_constraints(schema)
    if schedule is None:
        return ExternalDatabase(
            schema, constraints=constraints, policy=policy, **kwargs
        )
    return FaultInjectingBackend(
        schema, constraints=constraints, policy=policy, schedule=schedule,
        **kwargs,
    )


def make_session(schedule=None, policy=None):
    database = make_backend(schedule=schedule, policy=policy)
    session = PrologDbSession(
        schema=database.schema,
        constraints=empdep_constraints(database.schema),
        database=database,
    )
    session.load_org(generate_org(depth=2, branching=2, staff_per_dept=3, seed=13))
    session.consult(ALL_VIEWS_SOURCE)
    return session


EMPL_ROWS = [
    (1, "emp00001", 90000, 1),
    (2, "emp00002", 50000, 1),
    (3, "emp00003", 40000, 2),
    (4, "emp00004", 30000, 2),
]


def coded(error_class, message, code):
    error = error_class(message)
    error.sqlite_errorcode = code
    return error


# -- error taxonomy (satellite: transient vs permanent per sqlite3 code) -------


@pytest.mark.smoke
class TestErrorTaxonomy:
    @pytest.mark.parametrize("code", [5, 6, 9, 10, 15])
    def test_transient_primary_codes(self, code):
        error = coded(sqlite3.OperationalError, "synthetic", code)
        assert classify_sqlite_error(error) == "transient"

    def test_extended_codes_mask_to_primary(self):
        # SQLITE_IOERR_READ = 10 | (1 << 8): extended bits must not hide
        # the transient primary code.
        error = coded(sqlite3.OperationalError, "disk failure", 10 | (1 << 8))
        assert classify_sqlite_error(error) == "transient"

    @pytest.mark.parametrize(
        ("code", "message"),
        [
            (1, "no such table: gone"),  # SQLITE_ERROR
            (19, "NOT NULL constraint failed"),  # SQLITE_CONSTRAINT
            (13, "database or disk is full"),  # SQLITE_FULL
        ],
    )
    def test_permanent_codes(self, code, message):
        error = coded(sqlite3.OperationalError, message, code)
        assert classify_sqlite_error(error) == "permanent"

    @pytest.mark.parametrize(
        "message",
        [
            "database is locked",
            "database table is locked: empl",
            "interrupted",
            "disk I/O error",
        ],
    )
    def test_transient_messages_without_codes(self, message):
        assert classify_sqlite_error(
            sqlite3.OperationalError(message)
        ) == "transient"

    @pytest.mark.parametrize(
        "message",
        [
            "Cannot operate on a closed database.",
            "database disk image is malformed",
        ],
    )
    def test_poisoned_messages(self, message):
        assert classify_sqlite_error(
            sqlite3.ProgrammingError(message)
        ) == "poisoned"

    def test_unknown_error_is_permanent(self):
        assert classify_sqlite_error(
            sqlite3.OperationalError("near SELEC: syntax error")
        ) == "permanent"

    def test_taxonomy_hierarchy(self):
        assert issubclass(TransientBackendError, ExecutionError)
        assert issubclass(BackendPoisonedError, TransientBackendError)
        # A deadline is a caller-imposed budget, not a backend fault:
        # neither the retry loop nor the ladder may swallow it.
        assert not issubclass(DeadlineExceeded, ExecutionError)


# -- policy and breaker --------------------------------------------------------


@pytest.mark.smoke
class TestFaultPolicy:
    def test_backoff_grows_exponentially_to_cap(self):
        policy = FaultPolicy(jitter=0.0)
        pauses = [policy.backoff(attempt) for attempt in range(10)]
        assert pauses[0] == pytest.approx(policy.base_backoff)
        assert all(b >= a for a, b in zip(pauses, pauses[1:]))
        assert pauses[-1] == policy.max_backoff

    def test_jitter_stays_within_band(self):
        policy = FaultPolicy(jitter=0.25)
        base = FaultPolicy(jitter=0.0).backoff(3)
        for _ in range(200):
            pause = policy.backoff(3)
            assert base * 0.75 <= pause <= base * 1.25

    def test_disabled_policy_is_single_attempt(self):
        policy = FaultPolicy.disabled()
        assert not policy.enabled
        assert policy.max_attempts == 1


class TestCircuitBreaker:
    def test_state_machine_and_counters(self):
        stats = ResilienceStats()
        breaker = CircuitBreaker(threshold=3, cooldown=0.02, stats=stats)
        assert breaker.state == "closed"
        assert breaker.allow()
        for _ in range(3):
            breaker.failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() > 0
        time.sleep(0.03)
        assert breaker.allow()  # cooldown elapsed: half-open probe
        assert breaker.state == "half-open"
        breaker.failure()  # failed probe re-opens immediately
        assert breaker.state == "open"
        time.sleep(0.03)
        assert breaker.allow()
        breaker.success()
        assert breaker.state == "closed"
        snapshot = stats.snapshot()
        assert snapshot["breaker_opens"] == 2
        assert snapshot["breaker_half_opens"] == 2
        assert snapshot["breaker_closes"] == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=3, cooldown=0.01)
        breaker.failure()
        breaker.failure()
        breaker.success()
        breaker.failure()
        breaker.failure()
        assert breaker.state == "closed"  # streak broken: never tripped


# -- fault schedules -----------------------------------------------------------


@pytest.mark.smoke
class TestFaultSchedule:
    def test_same_seed_same_schedule(self):
        a = FaultSchedule.random(seed=42)
        b = FaultSchedule.random(seed=42)
        assert a.events == b.events

    def test_draw_fires_at_ordinal_with_burst(self):
        schedule = FaultSchedule([FaultEvent(at=1, kind="locked", burst=2)])
        assert schedule.draw("read") is None  # ordinal 0
        assert schedule.draw("read").kind == "locked"  # 1: burst tick 1
        assert schedule.draw("read").kind == "locked"  # 2: burst tick 2
        assert schedule.draw("read") is None
        assert schedule.exhausted
        assert schedule.injected == 2

    def test_classes_count_independently(self):
        schedule = FaultSchedule(
            [FaultEvent(at=0, kind="write_locked"), FaultEvent(at=2, kind="locked")]
        )
        assert schedule.draw("write").kind == "write_locked"
        for _ in range(2):
            assert schedule.draw("read") is None
        assert schedule.draw("read").kind == "locked"
        assert schedule.exhausted

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0, kind="earthquake")


# -- backend retry ladder ------------------------------------------------------


class TestBackendRetries:
    def test_locked_burst_rides_out_within_budget(self):
        schedule = FaultSchedule([FaultEvent(at=0, kind="locked", burst=3)])
        with make_backend(schedule=schedule) as database:
            database.insert_rows("empl", EMPL_ROWS)
            assert database.row_count("empl") == 4
            snapshot = database.resilience.snapshot()
            assert snapshot["retries"] >= 3
            assert snapshot["faults_injected"] == 3
            assert schedule.exhausted

    def test_io_error_burst_exceeding_budget_is_typed(self):
        policy = FaultPolicy(max_attempts=2, lock_patience=0.0, jitter=0.0)
        schedule = FaultSchedule([FaultEvent(at=0, kind="io_error", burst=8)])
        with make_backend(schedule=schedule, policy=policy) as database:
            database.insert_rows("empl", EMPL_ROWS)
            with pytest.raises(TransientBackendError):
                database.row_count("empl")
            # the schedule eventually drains; later calls recover
            for _ in range(12):
                try:
                    assert database.row_count("empl") == 4
                    break
                except TransientBackendError:
                    continue
            else:
                pytest.fail("backend never recovered after schedule drained")
            assert schedule.exhausted

    def test_poisoned_reader_is_retired_and_replaced(self):
        schedule = FaultSchedule([FaultEvent(at=1, kind="poison")])
        with make_backend(schedule=schedule) as database:
            database.insert_rows("empl", EMPL_ROWS)
            assert database.row_count("empl") == 4  # read 0: healthy
            # read 1 draws the poison (its own reader is closed in place),
            # fails, retires the connection, and retries on a fresh one.
            assert database.row_count("empl") == 4
            assert database.resilience.snapshot()["poisoned_retired"] >= 1

    def test_write_locked_fault_is_retried(self):
        schedule = FaultSchedule([FaultEvent(at=0, kind="write_locked")])
        with make_backend(schedule=schedule) as database:
            database.insert_rows("empl", EMPL_ROWS)
            assert database.row_count("empl") == 4
            assert database.resilience.snapshot()["retries"] >= 1

    def test_disabled_policy_bypasses_injection_and_retries(self):
        # FaultPolicy.disabled() is the pre-resilience overhead baseline:
        # the fault point is never consulted and nothing is retried.
        schedule = FaultSchedule([FaultEvent(at=0, kind="io_error")])
        database = make_backend(
            schedule=schedule, policy=FaultPolicy.disabled()
        )
        with database:
            database.insert_rows("empl", EMPL_ROWS)
            assert database.row_count("empl") == 4
            snapshot = database.resilience.snapshot()
            assert snapshot["faults_injected"] == 0
            assert snapshot["retries"] == 0
            assert not schedule.exhausted  # never drawn from

    def test_breaker_states_exposed(self):
        with make_backend() as database:
            assert database.breaker_states() == {
                "read": "closed",
                "write": "closed",
            }


# -- deadlines (satellite: typed expiry with partial-work counters) ------------


class TestDeadlines:
    def test_expired_scope_raises_typed_error_with_partial_work(self):
        with make_backend() as database:
            database.insert_rows("empl", EMPL_ROWS)
            # some counted work before the budget dies
            database.execute("SELECT nam FROM empl")
            with database.deadline(0.0):
                with pytest.raises(DeadlineExceeded) as caught:
                    database.row_count("empl")
            partial = caught.value.partial
            assert partial["queries_executed"] >= 1
            assert set(partial) >= {
                "queries_executed",
                "rows_fetched",
                "retries",
                "backoff_seconds",
            }
            assert database.resilience.snapshot()["deadline_exceeded"] >= 1

    def test_nested_scopes_only_shrink(self):
        with make_backend() as database:
            with database.deadline(10.0):
                outer = database.current_deadline()
                with database.deadline(60.0):  # cannot extend the outer budget
                    assert database.current_deadline() is outer
                with database.deadline(0.001):
                    inner = database.current_deadline()
                    assert inner is not outer
                    assert inner.until <= outer.until
                assert database.current_deadline() is outer
            assert database.current_deadline() is None

    def test_ask_deadline_surfaces_from_session(self):
        session = make_session()
        try:
            with pytest.raises(DeadlineExceeded) as caught:
                session.ask("works_dir_for(X, Y)", deadline=0.0)
            assert "queries_executed" in caught.value.partial
        finally:
            session.close()

    def test_ask_without_deadline_unaffected(self):
        session = make_session()
        try:
            assert session.ask("works_dir_for(X, Y)")
        finally:
            session.close()


# -- write-mutex exception safety (satellite: failing-txn hammer) --------------


class TestWriteExceptionSafety:
    def test_failed_statement_stages_nothing(self):
        with make_backend() as database:

            def body(cursor):
                cursor.execute("INSERT INTO empl VALUES (7, 'ghost', 1, 1)")
                raise sqlite3.OperationalError("no such table: synthetic")

            with pytest.raises(sqlite3.OperationalError):
                database.write("hammer", body)
            with pytest.raises(sqlite3.OperationalError):
                with database.transaction() as cursor:
                    body(cursor)
            # The staged row was rolled back on the spot: a later commit
            # by an unrelated write must not resurrect it.
            database.insert_rows("dept", [(50, "d50", 1)])
            assert database.row_count("empl") == 0

    def test_concurrent_failing_transactions_leave_no_debris(self):
        with make_backend() as database:
            errors = []

            def worker(base):
                for i in range(12):
                    eno = base + i
                    row = (eno, f"emp{eno}", 100 + i, 1)
                    try:
                        if i % 3 == 2:
                            try:
                                with database.transaction():
                                    database.insert_rows("empl", [row])
                                    raise RuntimeError("abort this unit")
                            except RuntimeError:
                                pass  # the bracket rolled the insert back
                        else:
                            database.insert_rows("empl", [row])
                            database.row_count("empl")
                    except Exception as error:  # noqa: BLE001 - collected
                        errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(1000 * (n + 1),))
                for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            # 12 per thread, every third aborted: 8 survive per thread.
            assert database.row_count("empl") == 4 * 8
            # The write mutex is free: one more write goes straight through.
            database.insert_rows("empl", [(9999, "after", 1, 1)])
            assert database.row_count("empl") == 4 * 8 + 1

    @staticmethod
    def _insert_in_unit_while_read(database):
        """Hold this thread's pooled reader mid-``SELECT`` on ``empl`` and
        start a write unit inserting into ``empl`` on another thread."""
        database.insert_rows("empl", EMPL_ROWS)
        reader = database._query_connection().execute("SELECT * FROM empl")
        assert reader.fetchone() is not None  # unfinished: empl read-locked
        outcome = []

        def unit():
            try:
                with database.transaction():
                    database.insert_rows("empl", [(77, "emp00077", 1, 1)])
                outcome.append("committed")
            except sqlite3.OperationalError as error:
                outcome.append(error)

        thread = threading.Thread(target=unit)
        thread.start()
        return reader, thread, outcome

    def test_statement_in_a_unit_waits_out_a_reader_lock(self):
        with make_backend() as database:
            reader, thread, outcome = self._insert_in_unit_while_read(database)
            time.sleep(0.2)
            assert thread.is_alive() and outcome == []  # waiting, not failed
            reader.fetchall()  # drained: the read lock goes
            thread.join(timeout=5.0)
            assert outcome == ["committed"]
            assert database.row_count("empl") == len(EMPL_ROWS) + 1

    def test_no_lock_patience_surfaces_the_lock_inside_a_unit(self):
        policy = FaultPolicy(lock_patience=0.0)
        with make_backend(policy=policy) as database:
            reader, thread, outcome = self._insert_in_unit_while_read(database)
            thread.join(timeout=5.0)
            reader.fetchall()
            assert len(outcome) == 1 and "locked" in str(outcome[0])
            assert database.row_count("empl") == len(EMPL_ROWS)


# -- session degradation ladder ------------------------------------------------


class TestSessionLadder:
    def test_session_retries_through_statement_budget_exhaustion(self):
        policy = FaultPolicy(
            max_attempts=2, lock_patience=0.0, ask_retry_pause=0.001, jitter=0.0
        )
        schedule = FaultSchedule([FaultEvent(at=2, kind="io_error", burst=6)])
        session = make_session(schedule=schedule, policy=policy)
        try:
            baseline_session = make_session()
            expected = answer_set(baseline_session.ask("works_dir_for(X, Y)"))
            baseline_session.close()
            answers = session.ask("works_dir_for(X, Y)")
            assert answer_set(answers) == expected
            assert session.stats()["resilience"]["ask_retries"] >= 1
        finally:
            session.close()

    def test_permanent_warm_plan_failure_invalidates_and_recompiles(self):
        session = make_session()
        try:
            baseline = make_session()
            expected = answer_set(baseline.ask("works_dir_for(X, 'emp00004')"))
            baseline.close()
            # Warm the parameterized plan with two other constants.
            session.ask("works_dir_for(X, 'emp00002')")
            session.ask("works_dir_for(X, 'emp00003')")
            # Corrupt every cached plan: the prepared text now references
            # a table the backend never had (a permanent failure).  The
            # next ask must use a THIRD constant so the result cache
            # cannot answer without executing the corrupted plan.
            for entry in session.plans._entries.values():
                for plan in entry.variants.values():
                    object.__setattr__(
                        plan, "sql_text", "SELECT nam FROM vanished_table"
                    )
            answers = session.ask("works_dir_for(X, 'emp00004')")
            assert answer_set(answers) == expected
            resilience = session.stats()["resilience"]
            assert resilience["plan_invalidations"] >= 1
            # The cold recompile re-stored a working plan: the next warm
            # ask executes without another invalidation.
            before = resilience["plan_invalidations"]
            session.ask("works_dir_for(X, 'emp00004')")
            assert (
                session.stats()["resilience"]["plan_invalidations"] == before
            )
        finally:
            session.close()

    def test_recursive_ladder_steps_down_to_memory(self):
        # With the tour and the CTE down, the ask still reads: no rung
        # runs the setrel loop, which would create the intermediate
        # relation and commit once per level.
        session = make_session()
        try:
            expected = answer_set(session.ask("works_for(X, 'emp00001')"))
            closure = session.closure_for("works_for")
            original = closure.solve
            requested = []

            def failing_probe(strategy, bound, seed):
                raise TransientBackendError("substrate probe down")

            def failing_upper_rungs(
                low=None, high=None, strategy="auto", max_levels=64
            ):
                requested.append(strategy)
                if strategy in ("interval", "cte"):
                    raise TransientBackendError("substrate rung down")
                return original(
                    low=low, high=high, strategy=strategy, max_levels=max_levels
                )

            closure.probe = failing_probe
            closure.solve = failing_upper_rungs
            commits = session.database.stats.commits
            degraded = session.ask("works_for(X, 'emp00001')")
            assert answer_set(degraded) == expected
            assert session.stats()["resilience"]["degraded_answers"] >= 1
            assert session.database.stats.commits == commits
            assert "auto" not in requested and requested[-1] == "memory"
            assert session.database.execute(
                "SELECT name FROM sqlite_master WHERE name = 'intermediate'"
            ) == []
        finally:
            session.close()

    def test_memory_strategy_matches_other_rungs(self):
        session = make_session()
        try:
            memory = session.solve_recursive(
                "works_for", high="emp00001", strategy="memory"
            )
            cte = session.solve_recursive(
                "works_for", high="emp00001", strategy="cte"
            )
            frontier = session.solve_recursive(
                "works_for", high="emp00001", strategy="auto"
            )
            assert memory.pairs == cte.pairs == frontier.pairs
            assert memory.stats.strategy == "memory"
            upward = session.solve_recursive(
                "works_for", low="emp00004", strategy="memory"
            )
            assert upward.pairs == session.solve_recursive(
                "works_for", low="emp00004", strategy="cte"
            ).pairs
        finally:
            session.close()

    def test_batch_failure_degrades_to_serial(self):
        session = make_session()
        try:
            goals = [
                "works_dir_for(X, 'emp00002')",
                "works_dir_for(X, 'emp00003')",
                "works_dir_for(X, 'emp00002')",
            ]
            expected = [answer_set(session.ask(goal)) for goal in goals]
            original = session._ask_group

            def failing_group(*args, **kwargs):
                raise TransientBackendError("batched statement failed")

            session._ask_group = failing_group
            try:
                batched = session.ask_many(goals)
            finally:
                session._ask_group = original
            assert [answer_set(a) for a in batched] == expected
            assert session.stats()["resilience"]["degraded_answers"] >= 1
        finally:
            session.close()

    def test_stats_exposes_resilience_block(self):
        session = make_session()
        try:
            resilience = session.stats()["resilience"]
            for counter in (
                "retries",
                "backoff_seconds",
                "breaker_opens",
                "degraded_answers",
                "plan_invalidations",
                "deadline_exceeded",
                "poisoned_retired",
                "quarantines",
                "heals",
                "ask_retries",
                "faults_injected",
            ):
                assert counter in resilience
            assert resilience["breakers"] == {
                "read": "closed",
                "write": "closed",
            }
        finally:
            session.close()


# -- quarantine and self-healing views -----------------------------------------


class TestQuarantineAndHealing:
    def test_failed_delta_quarantines_then_heals_at_next_write(self):
        schedule = FaultSchedule([FaultEvent(at=0, kind="delta_fail")])
        session = make_session(schedule=schedule)
        try:
            views = [
                session.materialize.view(goal)
                for goal in (
                    "works_dir_for(X, Y)", "same_manager(X, Y)", "works_for(X, Y)"
                )
            ]
            session.ask("works_dir_for(X, Y)")
            commits = session.stats()["database"]["commits"]
            # The first maintained delta draws the fault before its counts
            # mutate: the view is pulled from serving, and the same write
            # event heals it (refresh).  The base row's commit — the
            # write's only one — is untouched, and so are the other views.
            hire = (901, "emp00901", 10000, 1)
            session.assert_fact("empl", *hire)
            assert schedule.exhausted
            assert hire in session.database.fetch_relation("empl")
            assert session.stats()["database"]["commits"] == commits + 1
            stats = session.materialize.stats
            assert (stats.quarantines, stats.heals) == (1, 1)
            assert views[0].stats.refreshes == 2  # registration, then the heal
            assert session.materialize.quarantined_views() == []
            for view in views:
                flat = view.edge_view if view.recursive else view
                assert flat.counts == Counter(
                    session.database.execute_prepared(flat._load_sql)
                )
            closure = views[2].closure
            assert closure.pairs == IncrementalClosure(
                views[2].edge_view.counts
            ).pairs
            answers = session.ask("works_dir_for(X, Y)")
            assert {"emp00901"} <= {a["X"] for a in answers}
        finally:
            session.close()

    def test_fault_at_the_delta_probe_leaves_the_view_untouched(self):
        schedule = FaultSchedule([FaultEvent(at=0, kind="delta_fail")])
        session = make_session(schedule=schedule)
        try:
            view = session.materialize.view("works_dir_for(X, Y)")
            session.ask("works_dir_for(X, 'emp00001')")  # builds a column index
            hire = (901, "emp00901", 10000, 1)
            session.database.insert_rows("empl", [hire])
            delta = Delta("empl", INSERT, hire)

            def held():
                return (
                    dict(view.counts),
                    {col: dict(index) for col, index in view._indexes.items()},
                    view.applied_generation,
                )

            before = held()
            assert before[1]  # there is an index to tear
            with pytest.raises(sqlite3.OperationalError):
                view.apply_delta(delta)
            assert held() == before
            appeared, disappeared = view.apply_delta(delta)  # schedule drained
            assert [row[0] for row in appeared] == ["emp00901"]
            assert disappeared == []
            assert view.applied_generation == before[2] + 1
        finally:
            session.close()

    def test_quarantined_view_serves_by_recompute_until_healed(self):
        session = make_session()
        try:
            view = session.materialize.view("works_dir_for(X, Y)")
            failures = {"remaining": 3}
            original_refresh = view.refresh
            original_delta = view.apply_delta

            def failing_delta(delta):
                raise TransientBackendError("maintenance substrate down")

            def flaky_refresh():
                if failures["remaining"] > 0:
                    failures["remaining"] -= 1
                    raise TransientBackendError("heal blocked")
                return original_refresh()

            view.apply_delta = failing_delta
            view.refresh = flaky_refresh
            session.assert_fact("empl", 902, "emp00902", 12000, 1)
            assert view.quarantined  # delta failed, heal attempts blocked
            # Serving continues — a cold recompute answers, correctly.
            answers = session.ask("works_dir_for(X, Y)")
            assert {"emp00902"} <= {a["X"] for a in answers}
            assert view.quarantined  # recompute service did not fake a heal
            # Restore maintenance and force the heal explicitly.
            view.apply_delta = original_delta
            failures["remaining"] = 0
            assert session.heal_materialized() == 0
            assert not view.quarantined
            healed = session.ask("works_dir_for(X, Y)")
            assert answer_set(healed) == answer_set(answers)
            resilience = session.stats()["resilience"]
            assert resilience["quarantines"] >= 1
            assert resilience["heals"] >= 1
        finally:
            session.close()

    def test_counts_match_backend_after_failed_delta(self):
        schedule = FaultSchedule([FaultEvent(at=1, kind="delta_fail")])
        session = make_session(schedule=schedule)
        try:
            view = session.materialize.view("works_dir_for(X, Y)")
            session.assert_fact("empl", 904, "emp00904", 14000, 1)
            session.assert_fact("empl", 905, "emp00905", 15000, 2)
            # The second delta drew the fault; healing refreshed: the
            # counts must equal what the load query derives from the store.
            recomputed = Counter(
                session.database.execute_prepared(view._load_sql)
            )
            assert view.counts == recomputed
            assert session.materialize.stats.quarantines == 1
            assert not view.quarantined
        finally:
            session.close()


# -- randomized fault-schedule differential (satellite: Hypothesis) ------------


def register_view(session, goal):
    """Register ``goal``, retrying transient failures the way an ask does.

    Registration's load query is one statement under the backend's retry
    ladder and, unlike an ask, has no session-level retry above it: a
    schedule may stack more consecutive read faults onto that statement
    than one ladder rides out.  A failed registration registers nothing,
    so the workload restarts it under the ask driver's own budget
    (``max_ask_retries``, see :func:`repro.coupling.driver.drive`).
    """
    policy = session.database.policy
    for attempt in range(1, policy.max_ask_retries + 1):
        try:
            return session.materialize.view(goal)
        except TransientBackendError:
            time.sleep(policy.ask_retry_pause * min(attempt, 8))
    return session.materialize.view(goal)


def run_workload(session):
    """The fixed differential workload: every serving surface, in order."""
    out = []
    register_view(session, "works_dir_for(X, Y)")
    out.append(answer_set(session.ask("works_dir_for(X, Y)")))
    out.append(answer_set(session.ask("works_dir_for(X, 'emp00001')")))
    session.assert_fact("empl", 901, "emp00901", 10000, 1)
    out.append(answer_set(session.ask("works_dir_for(X, Y)")))
    for answers in session.ask_many(
        [
            "works_dir_for(X, 'emp00001')",
            "works_dir_for(X, 'emp00002')",
            "works_dir_for(X, 'emp00003')",
            "works_dir_for(X, 'emp00002')",
        ]
    ):
        out.append(answer_set(answers))
    out.append(answer_set(session.ask("works_for(X, 'emp00001')")))
    session.retract_fact("empl", 901, "emp00901", 10000, 1)
    out.append(answer_set(session.ask("works_dir_for(X, Y)")))
    return out


def drain_schedule(session, schedule, limit=80):
    """Advance every fault class's ordinal until the schedule is dry.

    Asserts advance the delta and write ordinals; asks advance reads;
    net-zero direct backend writes advance the write ordinal without
    changing visible data.  Bounded so a mis-scheduled event fails the
    test instead of hanging it.
    """
    step = 0
    while not schedule.exhausted and step < limit:
        eno = 9500 + step
        session.assert_fact("empl", eno, f"emp{eno:05d}", 20000 + step, 1)
        session.ask("works_dir_for(X, 'emp00001')")
        session.database.insert_rows(
            "empl", [(eno + 400, f"tmp{eno}", 20000, 1)]
        )
        session.database.delete_row(
            "empl", (eno + 400, f"tmp{eno}", 20000, 1)
        )
        step += 1
    return schedule.exhausted


_BASELINE_OUTPUTS = None


def baseline_outputs():
    global _BASELINE_OUTPUTS
    if _BASELINE_OUTPUTS is None:
        session = make_session()
        try:
            _BASELINE_OUTPUTS = run_workload(session)
        finally:
            session.close()
    return _BASELINE_OUTPUTS


def assert_differential_holds(schedule):
    expected = baseline_outputs()
    session = make_session(schedule=schedule)
    try:
        observed = run_workload(session)
        assert observed == expected
        assert drain_schedule(session, schedule), (
            f"schedule never drained: {schedule.remaining()} firings left"
        )
        assert session.heal_materialized() == 0
        for view in session.materialize.quarantined_views():
            raise AssertionError(f"{view.name} still quarantined")
    finally:
        session.close()


class TestFaultDifferential:
    @pytest.mark.smoke
    def test_fixed_seed_differential(self):
        schedule = FaultSchedule.random(seed=2026, events=8, horizon=40)
        assert_differential_holds(schedule)
        assert schedule.injected > 0

    def test_heavy_schedule_differential(self):
        events = [
            FaultEvent(at=0, kind="locked", burst=3),
            FaultEvent(at=3, kind="io_error"),
            FaultEvent(at=5, kind="poison"),
            FaultEvent(at=8, kind="latency"),
            FaultEvent(at=0, kind="write_locked"),
            FaultEvent(at=0, kind="delta_fail"),
            FaultEvent(at=2, kind="delta_fail"),
        ]
        assert_differential_holds(FaultSchedule(events, latency=0.001))

    @given(
        events=st.lists(
            st.builds(
                FaultEvent,
                at=st.integers(min_value=0, max_value=25),
                kind=st.sampled_from(FAULT_KINDS),
                burst=st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(
        max_examples=8,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_eventually_healing_schedule_is_transparent(self, events):
        assert_differential_holds(FaultSchedule(events, latency=0.0005))
