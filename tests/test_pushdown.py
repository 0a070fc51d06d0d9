"""Backend pushdown: recursive CTEs, relation statistics, cost-based plans.

Covers the E15 engine end to end:

* the ``RecursiveQuery`` AST node, its printer, and the ``closure_cte``
  builder (single-seed and batch-seeded forms);
* the ``TransitiveClosure`` CTE strategy — answer-identical to every
  frontier strategy and to the maintained ``IncrementalClosure``, with
  zero per-level commits;
* the recursion planner (per bound side, reads only) and the greedy
  cost-based row order for flat plans;
* the backend relation-statistics service (lazy generation-keyed
  refresh, ``ANALYZE``, refresh/hit counters) and the read-pool
  ``PRAGMA optimize`` retirement hook;
* ``EXPLAIN QUERY PLAN`` regressions asserting the catalog-driven
  indexes of PR 2 are *used* by warm prepared statements;
* explicit ``QuelDialect`` behaviour for the new AST nodes;
* the per-phase cold-compile timing breakdown in ``session.stats()``;
* ``ask_many`` batching of warm recursive shapes.
"""

import pytest

from repro.coupling import PrologDbSession
from repro.coupling.global_opt import goal_shape
from repro.dbms import generate_org
from repro.dbms.sqlite_backend import ExternalDatabase
from repro.errors import TranslationError, UnsupportedDialectError
from repro.optimize.costs import greedy_row_order, order_rows
from repro.prolog.reader import parse_goal
from repro.schema import ALL_VIEWS_SOURCE, empdep_constraints, empdep_schema
from repro.sql.ast import (
    ColumnRef,
    Condition,
    Parameter,
    RecursiveQuery,
    SelectItem,
    SqlQuery,
    TableRef,
)
from repro.sql.dialects import QuelDialect, SqlDialect
from repro.sql.printer import print_recursive
from repro.sql.translate import closure_cte, translate


@pytest.fixture(scope="module")
def org():
    return generate_org(depth=4, branching=2, staff_per_dept=4, seed=5)


@pytest.fixture()
def session(org):
    session = PrologDbSession()
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    yield session
    session.close()


def answer_set(answers):
    return {frozenset(a.items()) for a in answers}


def edge_query():
    """A hand-built two-column edge SELECT over empl/dept/empl."""
    schema = empdep_schema()
    session = PrologDbSession()
    session.consult(ALL_VIEWS_SOURCE)
    trace = session.explain("works_dir_for(X, Y)")
    session.close()
    return trace.sql


# -- the AST node and builder ----------------------------------------------------------


class TestRecursiveQueryAst:
    def test_closure_cte_prints_with_recursive(self):
        query = closure_cte(edge_query(), frontier=1, result=0)
        text = print_recursive(query, oneline=True)
        assert text.startswith("WITH RECURSIVE reach(node) AS (")
        assert " UNION " in text and "UNION ALL" not in text
        assert text.count("?") == 1
        assert query.parameter_order() == (0,)

    def test_batch_form_threads_a_root_column(self):
        query = closure_cte(edge_query(), frontier=1, result=0, batch_size=3)
        assert query.columns == ("root", "node")
        text = print_recursive(query, oneline=True)
        assert "IN (VALUES (?), (?), (?))" in text
        # one bind slot per VALUES row, all standing for parameter 0
        assert query.parameter_order() == (0, 0, 0)

    def test_step_must_reference_the_cte(self):
        edge = edge_query()
        block = SqlQuery(
            select=(SelectItem(ColumnRef("v1", "nam")),),
            from_tables=(TableRef("empl", "v1"),),
        )
        with pytest.raises(TranslationError):
            RecursiveQuery(
                name="reach",
                columns=("node",),
                base=block,
                step=block,  # no reach reference
                final=block,
            )

    def test_edge_with_parameters_is_rejected(self):
        parameterized = SqlQuery(
            select=(
                SelectItem(ColumnRef("v1", "nam")),
                SelectItem(ColumnRef("v1", "dno")),
            ),
            from_tables=(TableRef("empl", "v1"),),
            where=(Condition("eq", ColumnRef("v1", "sal"), Parameter(0)),),
        )
        with pytest.raises(TranslationError):
            closure_cte(parameterized, frontier=0, result=1)

    def test_identical_endpoints_are_rejected(self):
        edge = edge_query()
        with pytest.raises(TranslationError):
            closure_cte(edge, frontier=0, result=0)


# -- strategy equivalence --------------------------------------------------------------


@pytest.mark.smoke
class TestCteStrategy:
    def test_cte_matches_every_frontier_strategy(self, session, org):
        closure = session.closure_for("works_for")
        leaf = org.leaf_employee_name()
        boss = org.root_manager_name()
        for low, high in ((leaf, None), (None, boss)):
            cte = closure.solve(low=low, high=high, strategy="cte")
            assert cte.stats.strategy == "cte"
            assert cte.stats.queries_issued == 1
            for strategy in ("auto", "topdown", "bottomup"):
                frontier = closure.solve(low=low, high=high, strategy=strategy)
                assert cte.pairs == frontier.pairs, (low, high, strategy)

    def test_cte_path_issues_zero_commits(self, session, org):
        closure = session.closure_for("works_for")
        closure.cte_queries()  # preparation prints happen here
        boss = org.root_manager_name()
        session.database.stats.reset()
        run = closure.solve(high=boss, strategy="cte")
        stats = session.database.stats
        assert run.pairs
        assert stats.commits == 0
        assert stats.sql_prints == 0
        assert stats.prepared_executions == 1

    def test_cte_handles_the_cyclic_top_manager(self, session, org):
        # The root manager manages their own department: a 1-cycle the
        # UNION deduplication must terminate through.
        closure = session.closure_for("works_for")
        boss = org.root_manager_name()
        cte = closure.solve(high=boss, strategy="cte")
        frontier = closure.solve(high=boss, strategy="topdown")
        assert (boss, boss) in cte.pairs
        assert cte.pairs == frontier.pairs

    def test_cte_matches_incremental_closure(self, org):
        maintained = PrologDbSession()
        maintained.load_org(org)
        maintained.consult(ALL_VIEWS_SOURCE)
        maintained.materialize.view("works_for(X, Y)")
        plain = PrologDbSession()
        plain.load_org(org)
        plain.consult(ALL_VIEWS_SOURCE)
        closure = plain.closure_for("works_for")
        leaf = org.leaf_employee_name()
        run = closure.solve(low=leaf, strategy="cte")
        answers = maintained.ask(f"works_for('{leaf}', Y)")
        assert {a["Y"] for a in answers} == {h for _l, h in run.pairs}
        maintained.close()
        plain.close()


# -- the planner -----------------------------------------------------------------------


DEAD_WORKS_SOURCE = """
    dead_edge(X, Y) :- empl(_, X, 5, D), dept(D, _, M),
                       empl(M, Y, _, _).
    dead_works(L, H) :- dead_edge(L, H).
    dead_works(L, H) :- dead_edge(L, M), dead_works(M, H).
"""


@pytest.fixture()
def dead_session(org):
    # An edge view that simplification proves empty: sal=5 violates the
    # empl salary valuebound.
    session = PrologDbSession()
    session.load_org(org)
    session.consult(DEAD_WORKS_SOURCE)
    yield session
    session.close()


class TestRecursionPlanner:
    def test_large_edge_views_take_the_interval_probe(self, session, org):
        # On a tree-shaped hierarchy either bound side answers from the
        # in-memory interval labels: a tour slice below a boss, the
        # parent walk above a subordinate.
        closure = session.closure_for("works_for")
        plan = closure.plan()
        assert plan.strategy == "interval"
        assert "labeled forest" in plan.reason
        assert closure.plan("low") is plan

    def test_tiny_edge_views_take_the_probes(self):
        # A tiny view plans the same reads as a large one, and answers
        # as the frontier loop does.
        tiny = generate_org(depth=2, branching=1, staff_per_dept=2, seed=5)
        session = PrologDbSession()
        session.load_org(tiny)
        session.consult(ALL_VIEWS_SOURCE)
        leaf, boss = tiny.leaf_employee_name(), tiny.root_manager_name()
        closure = session.closure_for("works_for")
        assert closure.plan().strategy == "interval"
        up = {(leaf, a["Y"]) for a in session.ask(f"works_for({leaf}, Y)")}
        down = {(a["X"], boss) for a in session.ask(f"works_for(X, {boss})")}
        assert up == session.solve_recursive(
            "works_for", low=leaf, strategy="bottomup"
        ).pairs
        assert down == session.solve_recursive(
            "works_for", high=boss, strategy="topdown"
        ).pairs
        assert up and down
        session.close()

    def test_failed_cte_preparation_is_cached(self, dead_session):
        # The view cannot push down, so the planner picks the memory
        # read; the failure is cached so later planned asks do not
        # re-metaevaluate.
        closure = dead_session.closure_for("dead_works")
        first = closure.plan()
        assert first.strategy == "memory"
        assert "no CTE support" in first.reason
        assert closure._cte_error is not None
        cached_error = closure._cte_error
        second = closure.plan()
        assert second.strategy == "memory"
        assert closure._cte_error is cached_error  # not recompiled
        assert dead_session.ask("dead_works(nobody, Y)") == []
        assert closure._cte_error is cached_error

    @pytest.mark.parametrize(
        "strategy", ["naive", "topdown", "bottomup", "auto", "memory", "ask"]
    )
    def test_provably_empty_view_answers_nothing_everywhere(
        self, dead_session, org, strategy
    ):
        leaf, boss = org.leaf_employee_name(), org.root_manager_name()
        for side, seed, goal in (
            ("low", leaf, f"dead_works({leaf}, Y)"),
            ("high", boss, f"dead_works(X, {boss})"),
        ):
            if strategy == "ask":
                assert dead_session.ask(goal) == []
            else:
                run = dead_session.solve_recursive(
                    "dead_works", strategy=strategy, **{side: seed}
                )
                assert run.pairs == set()

    def test_ask_routes_through_the_planner(self, session, org):
        boss = org.root_manager_name()
        session.ask(f"works_for(People, {boss})")
        plans = session.stats()["recursion_plans"]
        assert (plans["planned_asks"], plans["last_strategy"]) == (1, "interval")

    def test_warm_recursive_ask_binds_into_prepared_cte(self, session, org):
        boss = org.root_manager_name()
        leaf = org.leaf_employee_name()
        first = session.ask(f"works_for(People, {boss})")
        session.database.stats.reset()
        again = session.ask(f"works_for(People, {boss})")
        rotated = session.ask(f"works_for({leaf}, Superior)")
        stats = session.database.stats
        assert stats.sql_prints <= 1  # ascend direction printed lazily at most
        assert stats.commits == 0
        assert answer_set(first) == answer_set(again)
        assert rotated  # the other direction also answered


# -- statistics service ----------------------------------------------------------------


class TestRelationStatistics:
    def test_lazy_refresh_and_hits(self):
        schema = empdep_schema()
        database = ExternalDatabase(schema, constraints=empdep_constraints(schema))
        database.insert_rows("empl", [(i, f"e{i}", 20000, 1) for i in range(8)])
        database.insert_rows("dept", [(1, "sales", 0)])
        first = database.relation_statistics("empl")
        assert first.row_count == 8
        assert first.distinct["eno"] == 8
        assert first.distinct["dno"] == 1
        assert first.selectivity("eno") == pytest.approx(1 / 8)
        again = database.relation_statistics("empl")
        assert again is first  # generation unchanged: cached profile
        snap = database.stats.snapshot()
        assert snap["stats_refreshes"] == 1
        assert snap["stats_hits"] == 1
        database.insert_rows("empl", [(8, "e8", 20000, 2)])
        refreshed = database.relation_statistics("empl")
        assert refreshed.row_count == 9
        assert database.stats.snapshot()["stats_refreshes"] == 2
        database.close()

    def test_generations_are_per_relation(self):
        # Churn on dept must not invalidate empl's cached profile.
        schema = empdep_schema()
        database = ExternalDatabase(schema)
        database.insert_rows("empl", [(1, "a", 20000, 1)])
        database.relation_statistics("empl")
        database.insert_rows("dept", [(1, "sales", 1)])
        database.relation_statistics("empl")  # still generation-fresh
        snap = database.stats.snapshot()
        assert snap["stats_refreshes"] == 1
        assert snap["stats_hits"] == 1
        database.close()

    def test_delete_and_clear_invalidate(self):
        schema = empdep_schema()
        database = ExternalDatabase(schema)
        database.insert_rows("empl", [(1, "a", 20000, 1), (2, "b", 20000, 1)])
        assert database.relation_statistics("empl").row_count == 2
        database.delete_row("empl", (1, "a", 20000, 1))
        assert database.relation_statistics("empl").row_count == 1
        database.clear_relation("empl")
        assert database.relation_statistics("empl").row_count == 0
        database.close()

    def test_empty_relation_profiles_cleanly(self):
        # Edge case: statistics over a relation with no rows must not
        # divide by zero and must still cache per generation.
        schema = empdep_schema()
        database = ExternalDatabase(schema)
        profile = database.relation_statistics("empl")
        assert profile.row_count == 0
        assert profile.distinct["eno"] == 0
        assert database.relation_statistics("empl") is profile
        database.close()

    def test_clear_bumps_the_data_generation(self):
        schema = empdep_schema()
        database = ExternalDatabase(schema)
        database.insert_rows("empl", [(1, "a", 20000, 1)])
        before = database.data_generation("empl")
        database.clear_relation("empl")
        assert database.data_generation("empl") > before
        # And the post-clear profile reflects the emptied relation.
        assert database.relation_statistics("empl").row_count == 0
        database.close()

    def test_profiles_go_stale_across_churn(self):
        # A held profile object is a snapshot: churn must produce a new
        # object with the new counts, never mutate the old one in place.
        schema = empdep_schema()
        database = ExternalDatabase(schema)
        database.insert_rows("empl", [(1, "a", 20000, 1)])
        stale = database.relation_statistics("empl")
        database.insert_rows("empl", [(2, "b", 21000, 1)])
        database.delete_row("empl", (1, "a", 20000, 1))
        fresh = database.relation_statistics("empl")
        assert fresh is not stale
        assert stale.row_count == 1  # snapshot unchanged
        assert fresh.row_count == 1  # +1 insert, -1 delete
        assert fresh.distinct["nam"] == 1
        database.close()

    def test_analyze_feeds_sqlite_stat1(self):
        schema = empdep_schema()
        database = ExternalDatabase(schema, constraints=empdep_constraints(schema))
        database.insert_rows("empl", [(i, f"e{i}", 20000, 1) for i in range(4)])
        database.relation_statistics("empl")
        rows = database.execute(
            "SELECT tbl FROM sqlite_stat1 WHERE tbl = 'empl'"
        )
        assert rows  # ANALYZE ran for the profiled relation
        database.close()

    def test_pragma_optimize_on_close_and_retirement(self):
        import threading

        schema = empdep_schema()
        database = ExternalDatabase(schema)
        worker = threading.Thread(
            target=lambda: database.execute("SELECT COUNT(*) FROM empl")
        )
        worker.start()
        worker.join()
        import gc

        gc.collect()  # the dead thread's finalizer retires its reader
        database.close()
        assert database.stats.snapshot()["pragma_optimizes"] >= 2


# -- cost-based join order -------------------------------------------------------------


class TestCostOrder:
    def test_restricted_row_leads_the_order(self, session, org):
        name = org.employees[0].nam
        trace = session.explain(f"works_dir_for(X, '{name}')")
        predicate = trace.simplification.predicate
        stats_of = session.database.relation_statistics
        ordered = order_rows(predicate, stats_of)
        from repro.dbcl.symbols import ConstSymbol

        first = ordered.rows[0]
        assert any(
            isinstance(entry, ConstSymbol) for entry in first.entries
        ), "the constant-restricted row should lead"

    def test_constant_row_leads_even_without_statistics(self, session, org):
        # With no profile, the syntactic selectivity heuristic still
        # prefers the constant-restricted row — determinism matters more
        # than the exact estimate.
        name = org.employees[0].nam
        predicate = session.explain(
            f"works_dir_for(X, '{name}')"
        ).simplification.predicate
        order = greedy_row_order(predicate, None)
        from repro.dbcl.symbols import ConstSymbol

        first = predicate.rows[order[0]]
        assert any(isinstance(entry, ConstSymbol) for entry in first.entries)
        # Deterministic: the same input reproduces the same order.
        assert greedy_row_order(predicate, None) == order

    def test_unrestricted_shape_is_a_stable_noop_order(self, session):
        predicate = session.explain(
            "works_dir_for(X, Y)"
        ).simplification.predicate
        assert greedy_row_order(predicate, None) == list(
            range(len(predicate.rows))
        )
        assert order_rows(predicate, None) is predicate

    def test_warm_answers_unchanged_by_cost_order(self, session, org):
        # warm the shape (second miss parameterizes, with cost ordering)
        names = [e.nam for e in org.employees[:4]]
        for name in names:
            session.ask(f"same_manager(X, {name})")
        fresh = PrologDbSession(plan_cache=False)
        fresh.load_org(org)
        fresh.consult(ALL_VIEWS_SOURCE)
        for name in names:
            assert answer_set(session.ask(f"same_manager(X, {name})")) == (
                answer_set(fresh.ask(f"same_manager(X, {name})"))
            ), name
        fresh.close()


# -- EXPLAIN QUERY PLAN regressions (warm prepared statements use the indexes) ---------


@pytest.mark.smoke
class TestExplainQueryPlanRegressions:
    def _warm_plan_text(self, session, org):
        for employee in org.employees[:3]:
            session.ask(f"works_dir_for(X, {employee.nam})")
        goal = parse_goal(f"works_dir_for(X, {org.employees[0].nam})")
        entry = session.plans.entry_for(goal_shape(goal))
        assert entry is not None and not entry.uncacheable
        plan = entry.variants.get(())
        assert plan is not None and plan.sql_text is not None
        return plan.sql_text

    def test_catalog_indexes_exist_by_name(self, session):
        created = {line.split()[5] for line in session.database.index_statements}
        assert {
            "idx_empl_nam",
            "idx_empl_dno",
            "idx_empl_eno",
            "idx_dept_dno",
            "idx_dept_mgr",
        } <= created

    def test_warm_prepared_statement_uses_catalog_indexes(self, session, org):
        text = self._warm_plan_text(session, org)
        details = session.database.query_plan(text)
        used = " | ".join(details)
        # The nam seed, the mgr→eno hop, and the dno hop must all be
        # index searches; a silent index-name or column drift turns one
        # of these into a SCAN and fails here.
        assert "USING INDEX idx_empl_nam" in used, used
        assert "USING INDEX idx_dept_mgr" in used or (
            "USING INDEX idx_empl_eno" in used
        ), used
        assert "USING INDEX idx_empl_dno" in used or (
            "USING INDEX idx_dept_dno" in used
        ), used

    def test_recursive_cte_uses_catalog_indexes(self, session, org):
        closure = session.closure_for("works_for")
        closure.cte_queries()
        details = session.database.query_plan(closure._cte.descend_text)
        used = " | ".join(details)
        assert "USING INDEX idx_empl_nam" in used, used
        assert "SCAN v1" not in used or "USING INDEX" in used


# -- dialects --------------------------------------------------------------------------


class TestDialectSupport:
    def test_sql_dialect_renders_recursive_queries(self):
        query = closure_cte(edge_query(), frontier=1, result=0)
        text = SqlDialect().render(query, oneline=True)
        assert text.startswith("WITH RECURSIVE")

    def test_quel_renders_the_frontier_step_queries(self, session):
        # QUEL has no recursion, but the frontier loop's per-level step
        # queries are plain retrievals it CAN express.
        closure = session.closure_for("works_for")
        descend, _ascend = closure.step_queries()
        text = QuelDialect().render(descend)
        assert text.startswith("RANGE OF")
        assert "RETRIEVE" in text

    def test_quel_rejects_recursive_queries_explicitly(self):
        query = closure_cte(edge_query(), frontier=1, result=0)
        with pytest.raises(UnsupportedDialectError, match="recursive"):
            QuelDialect().render(query)

    def test_quel_rejects_unions_explicitly(self):
        from repro.sql.ast import UnionQuery

        edge = edge_query()
        with pytest.raises(UnsupportedDialectError, match="UNION"):
            QuelDialect().render(UnionQuery(branches=(edge, edge)))

    def test_quel_rejects_batch_memberships_explicitly(self):
        query = closure_cte(edge_query(), frontier=1, result=0, batch_size=2)
        with pytest.raises(UnsupportedDialectError):
            QuelDialect().render(query.base)

    def test_quel_rejects_unknown_trees_explicitly(self):
        with pytest.raises(UnsupportedDialectError):
            QuelDialect().render(object())


# -- per-phase compile timings ---------------------------------------------------------


class TestCompilePhaseStats:
    def test_cold_compile_populates_every_phase(self, session, org):
        name = org.employees[0].nam
        keys = (
            "classify_seconds",
            "metaevaluate_seconds",
            "optimize_seconds",
            "translate_seconds",
            "print_seconds",
        )
        # Each shape's first ask is its one compile: the parameterized
        # compile stamps every phase, metaevaluation included.
        before = session.stats()["compile_phases"]
        for goal in (f"works_dir_for(X, {name})", f"same_manager(X, {name})"):
            session.ask(goal)
            phases = session.stats()["compile_phases"]
            for key in keys:
                assert phases[key] > before[key], (goal, key)
            before = phases
        assert phases["cold_compilations"] == 2
        assert session.plans.stats.compiled == 2
        assert all(
            entry.material == () and plan.open_params
            for entry in session.plans._entries.values()
            for plan in entry.variants.values()
        )

    def test_warm_asks_do_not_accumulate_compile_time(self, session, org):
        names = [e.nam for e in org.employees[:4]]
        for name in names:
            session.ask(f"works_dir_for(X, {name})")
        before = session.stats()["compile_phases"]
        for name in names:
            session.ask(f"works_dir_for(X, {name})")
        after = session.stats()["compile_phases"]
        assert after == before


# -- ask_many over recursive shapes ----------------------------------------------------


@pytest.mark.smoke
class TestRecursiveAskMany:
    def _manager_names(self, org, count):
        managers = {d.mgr for d in org.departments}
        return sorted(
            {e.nam for e in org.employees if e.eno in managers}
        )[:count]

    def test_batched_answers_identical_to_serial(self, session, org):
        goals = [
            f"works_for(X, {name})" for name in self._manager_names(org, 6)
        ]
        serial = [session.ask(goal) for goal in goals]  # also warms the shape
        before = session.plans.stats.snapshot()
        batched = session.ask_many(goals)
        after = session.plans.stats.snapshot()
        assert after["recursive_batches"] == before["recursive_batches"] + 1
        assert after["batched_asks"] >= before["batched_asks"] + len(goals)
        for expected, got in zip(serial, batched):
            assert expected == got  # including per-goal answer order

    def test_duplicate_seeds_share_one_execution(self, session, org):
        # A second parent for one employee: the interval labels demote,
        # so the group takes the batch-seeded CTE.
        victim = next(e for e in org.employees if e.dno == org.departments[3].dno)
        session.database.insert_rows("dept", [(95, "shadow", org.departments[1].mgr)])
        session.database.insert_rows(
            "empl", [(victim.eno + 64000, victim.nam, victim.sal, 95)]
        )
        boss = org.root_manager_name()
        goals = [f"works_for(X, {boss})"] * 4
        session.ask(goals[0])
        assert session.stats()["recursion_plans"]["last_strategy"] == "cte"
        before = session.database.stats.snapshot()["prepared_executions"]
        batched = session.ask_many(goals)
        after = session.database.stats.snapshot()["prepared_executions"]
        assert after == before + 1  # one CTE run served all four
        assert all(answers == batched[0] for answers in batched)

    def test_maintained_views_keep_the_closure_path(self, session, org):
        session.materialize.view("works_for(X, Y)")
        goals = [
            f"works_for(X, {name})" for name in self._manager_names(org, 4)
        ]
        serial = [session.ask(goal) for goal in goals]
        before = session.plans.stats.snapshot()["recursive_batches"]
        batched = session.ask_many(goals)
        assert session.plans.stats.snapshot()["recursive_batches"] == before
        for expected, got in zip(serial, batched):
            assert answer_set(expected) == answer_set(got)

    def test_mixed_recursive_and_flat_groups(self, session, org):
        boss = org.root_manager_name()
        names = [e.nam for e in org.employees[:3]]
        goals = [f"works_dir_for(X, {n})" for n in names] + [
            f"works_for(X, {boss})",
            f"works_for(X, {boss})",
        ]
        serial = [session.ask(goal) for goal in goals]
        batched = session.ask_many(goals)
        for expected, got in zip(serial, batched):
            assert answer_set(expected) == answer_set(got)


@pytest.mark.smoke
class TestRecursiveAskConstants:
    """A bound side is any constant ``goal_shape`` accepts — an employee
    number or a quoted string, not only an atom: ``ask`` ≡ the CTE run ≡
    the maintained view ≡ the ``ask_many`` members."""

    REPORTS = """
    reports_dir(E, M) :- empl(E, _, _, D), dept(D, _, M).
    reports(E, M) :- reports_dir(E, M).
    reports(E, M) :- reports_dir(E, X), reports(X, M).
    """

    def _agree(self, session, view, side, values, *spells):
        """Every spelling of the seeds answers as the CTE over the values."""
        variable = "Y" if side == "low" else "X"
        expected = []
        for value in values:
            run = session.solve_recursive(view, strategy="cte", **{side: value})
            column = 1 if side == "low" else 0
            expected.append({pair[column] for pair in run.pairs})
        assert any(expected), "the probe set reaches something"
        spelled = [
            [
                f"{view}({spell(v)}, Y)" if side == "low" else f"{view}(X, {spell(v)})"
                for v in values
            ]
            for spell in spells
        ]
        asked = []
        for goals in spelled:
            answers = [session.ask(goal) for goal in goals]
            assert [{a[variable] for a in each} for each in answers] == expected
            before = session.plans.stats.snapshot()["recursive_batches"]
            assert session.ask_many(goals) == answers
            assert session.plans.stats.snapshot()["recursive_batches"] == before + 1
            asked.append(answers)
        session.materialize.view(f"{view}(A, B)")
        for goals, answers in zip(spelled, asked):
            maintained = [session.ask(goal) for goal in goals]
            assert [answer_set(a) for a in maintained] == [answer_set(a) for a in answers]
        assert session.materialize.stats.maintained_asks == len(values) * len(spells)

    @pytest.mark.parametrize("side", ["low", "high"])
    def test_integer_nodes(self, session, org, side):
        # Bare and quoted: a quoted employee number reaches that
        # employee, as the flat ask's column affinity makes it do.
        session.consult(self.REPORTS)
        if side == "high":
            values = sorted({d.mgr for d in org.departments})[:4]
        else:
            values = sorted(e.eno for e in org.employees)[5:25:6]
        self._agree(session, "reports", side, values, str, lambda v: f'"{v}"')
        for value in values:
            for strategy in ("interval", "cte", "memory", "auto"):
                run = session.solve_recursive(
                    "reports", strategy=strategy, **{side: str(value)}
                )
                assert run.pairs == session.solve_recursive(
                    "reports", strategy="cte", **{side: value}
                ).pairs, (strategy, value)

    @pytest.mark.parametrize("side", ["low", "high"])
    def test_quoted_string_nodes(self, session, org, side):
        if side == "high":
            managers = {d.mgr for d in org.departments}
            values = sorted(e.nam for e in org.employees if e.eno in managers)[:4]
        else:
            values = sorted(e.nam for e in org.employees)[5:25:6]
        self._agree(session, "works_for", side, values, lambda v: f'"{v}"')


class TestNonBinaryRecursiveView:
    """A recursive view the closure executors cannot answer (arity != 2)
    must fail with a typed error, never a bare unpacking ``ValueError``."""

    SOURCE = """
    anc3(X, Y, Z) :- works_dir_for(X, Y), works_dir_for(Y, Z).
    anc3(X, Y, Z) :- works_dir_for(X, M), anc3(M, Y, Z).
    """

    def test_ask_raises_coupling_error(self, session):
        from repro.errors import CouplingError

        session.consult(self.SOURCE)
        with pytest.raises(CouplingError, match="binary"):
            session.ask("anc3(X, Y, Z)")

    def test_warm_skips_the_goal_and_survives(self, session, org):
        session.consult(self.SOURCE)
        good = f"works_dir_for(X, {org.root_manager_name()})"
        assert session.warm(["anc3(X, Y, Z)", good]) == 1
