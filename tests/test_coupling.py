"""Integration tests for the coupling layer (paper sections 2, 4, 7)."""

import pytest

from repro.coupling import (
    BatchExecutor,
    CachePolicy,
    PrologDbSession,
    ResultCache,
    classify_conjuncts,
    plan_goal,
)
from repro.dbms import generate_org
from repro.errors import CouplingError
from repro.metaevaluate import Metaevaluator
from repro.prolog import KnowledgeBase, parse_goal, var
from repro.schema import (
    ALL_VIEWS_SOURCE,
    SAME_MANAGER_SOURCE,
    WORKS_DIR_FOR_SOURCE,
    WORKS_FOR_TOP_DOWN_SOURCE,
    empdep_constraints,
    empdep_schema,
)


@pytest.fixture
def org():
    return generate_org(depth=3, branching=2, staff_per_dept=4, seed=11)


@pytest.fixture
def session(org):
    session = PrologDbSession()
    session.load_org(org)
    session.consult(WORKS_DIR_FOR_SOURCE)
    session.consult(SAME_MANAGER_SOURCE)
    return session


class TestClassification:
    @pytest.fixture
    def kb(self):
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        kb.consult("specialist(jones, guns). specialist(x, driving).")
        kb.consult(
            "partnerish(X) :- works_dir_for(X, M), specialist(M, guns)."
        )
        return kb

    def test_database_relation_external(self, kb):
        schema = empdep_schema()
        classified = classify_conjuncts(kb, schema, parse_goal("empl(E, N, S, D)"))
        assert classified[0][1] == "external"

    def test_view_external(self, kb):
        schema = empdep_schema()
        classified = classify_conjuncts(
            kb, schema, parse_goal("works_dir_for(X, smiley)")
        )
        assert classified[0][1] == "external"

    def test_facts_internal(self, kb):
        schema = empdep_schema()
        classified = classify_conjuncts(
            kb, schema, parse_goal("specialist(X, guns)")
        )
        assert classified[0][1] == "internal"

    def test_comparison(self, kb):
        schema = empdep_schema()
        classified = classify_conjuncts(kb, schema, parse_goal("less(S, 3)"))
        assert classified[0][1] == "comparison"

    def test_mixed_view(self, kb):
        schema = empdep_schema()
        classified = classify_conjuncts(kb, schema, parse_goal("partnerish(X)"))
        assert classified[0][1] == "mixed"

    def test_plan_splits_goal(self, kb):
        schema = empdep_schema()
        plan = plan_goal(
            kb,
            schema,
            parse_goal("works_dir_for(X, smiley), specialist(X, guns)"),
        )
        assert len(plan.external) == 1
        assert len(plan.internal) == 1
        assert var("X") in plan.interface_variables

    def test_plan_comparison_placement(self, kb):
        schema = empdep_schema()
        plan = plan_goal(
            kb,
            schema,
            parse_goal("empl(E, N, S, D), less(S, 40000)"),
        )
        # The comparison's variable comes from the external block.
        assert len(plan.external) == 2
        assert plan.internal == []

    def test_plan_rejects_mixed(self, kb):
        schema = empdep_schema()
        with pytest.raises(CouplingError):
            plan_goal(kb, schema, parse_goal("partnerish(X)"))


class TestResultCache:
    def test_hit_and_miss(self):
        schema = empdep_schema()
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        predicate = evaluator.metaevaluate(
            "works_dir_for(X, smiley)", targets=[var("X")]
        )
        cache = ResultCache(generation=lambda relation: 0)
        assert cache.lookup(predicate) is None
        cache.store(predicate, [("a",)], stamp=cache.stamp(predicate))
        assert cache.lookup(predicate) == [("a",)]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_renamed_query_hits(self):
        schema = empdep_schema()
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        first = evaluator.metaevaluate(
            "works_dir_for(X, smiley)", targets=[var("X")]
        )
        second = evaluator.metaevaluate(
            "works_dir_for(X, smiley)", targets=[var("X")]
        )
        cache = ResultCache(generation=lambda relation: 0)
        cache.store(first, [("a",)], stamp=cache.stamp(first))
        assert cache.lookup(second) == [("a",)]

    def test_policy_rejects_large_results(self):
        schema = empdep_schema()
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        predicate = evaluator.metaevaluate(
            "works_dir_for(X, smiley)", targets=[var("X")]
        )
        cache = ResultCache(CachePolicy(max_rows=2), generation=lambda relation: 0)
        assert not cache.store(
            predicate, [(1,), (2,), (3,)], stamp=cache.stamp(predicate)
        )
        assert cache.stats.rejected == 1

    @pytest.mark.parametrize("cache_on", [True, False])
    def test_backend_write_past_the_session_is_seen(self, cache_on):
        # insert_rows / delete_row on the backend never reach the
        # session's invalidation: the entry's generation stamp catches them.
        org = generate_org(depth=2, branching=2, staff_per_dept=3, seed=1)
        dno = org.departments[0].dno
        ghost = (777001, "ghost", 20000, dno)
        session = PrologDbSession(cache_policy=CachePolicy(enabled=cache_on))
        session.load_org(org)
        goal = f"empl(E, N, S, {dno})"
        try:
            assert len(session.ask(goal)) == 3
            session.database.insert_rows("empl", [ghost])
            assert len(session.ask(goal)) == 4
            assert len(session.ask(goal)) == 4
            session.database.delete_row("empl", ghost)
            assert len(session.ask(goal)) == 3
            stats = session.stats()["result_cache"]
            assert stats["hits"] == (1 if cache_on else 0)
        finally:
            session.close()


class TestSessionAsk:
    def test_pure_external_query(self, session, org):
        boss = org.root_manager_name()
        answers = session.ask(f"works_dir_for(X, {boss})")
        expected = {l for l, h in org.works_dir_for_pairs() if h == boss}
        assert {a["X"] for a in answers} == expected

    def test_two_variable_query(self, session, org):
        answers = session.ask("works_dir_for(X, Y)")
        assert {(a["X"], a["Y"]) for a in answers} == org.works_dir_for_pairs()

    def test_query_with_comparison(self, session, org):
        answers = session.ask("empl(E, N, S, D), less(S, 50000)")
        expected = {e.nam for e in org.employees if e.sal < 50000}
        assert {a["N"] for a in answers} == expected

    def test_pure_internal_query(self, session):
        session.assert_fact("specialist", "jones", "guns")
        answers = session.ask("specialist(X, guns)")
        assert answers == [{"X": "jones"}]

    def test_mixed_query(self, session, org):
        boss = org.root_manager_name()
        subordinate = sorted(
            l for l, h in org.works_dir_for_pairs() if h == boss
        )[0]
        session.assert_fact("specialist", subordinate, "driving")
        session.assert_fact("specialist", "outsider", "driving")
        answers = session.ask(
            f"works_dir_for(X, {boss}), specialist(X, driving)"
        )
        assert {a["X"] for a in answers} == {subordinate}
        # Answer variables only the external block binds are kept too.
        vips = org.employees[:3]
        for employee in vips:
            session.assert_fact("vip", employee.nam)
        answers = session.ask("empl(E, N, S, D), vip(N)")
        assert sorted(answers, key=lambda a: a["E"]) == [
            {"E": e.eno, "N": e.nam, "S": e.sal, "D": e.dno} for e in vips
        ]

    def test_negation_over_database_rejected(self, session, org):
        """``not/1`` over a view must not run as negation-as-failure
        against a knowledge base that holds none of the tuples."""
        boss = org.root_manager_name()
        for goal in (
            f"empl(E, N, S, D), not(works_dir_for(N, {boss}))",
            f"empl(E, N, S, D), \\+ works_dir_for(N, {boss})",
        ):
            with pytest.raises(CouplingError, match="ask_with_negation"):
                session.ask(goal)
        under_boss = {l for l, h in org.works_dir_for_pairs() if h == boss}
        answers = session.ask_with_negation(
            f"empl(E, N, S, D), not(works_dir_for(N, {boss}))"
        )
        assert {a["N"] for a in answers} == (
            {e.nam for e in org.employees} - under_boss
        )

    def test_negation_over_internal_facts_resolves_in_engine(self, session, org):
        named = org.employees[0].nam
        session.assert_fact("specialist", named, "guns")
        assert session.ask(f"not(specialist({named}, knives))") == [{}]
        assert session.ask(f"not(specialist({named}, guns))") == []
        answers = session.ask("empl(E, N, S, D), not(specialist(N, guns))")
        assert {a["N"] for a in answers} == (
            {e.nam for e in org.employees} - {named}
        )

    def test_empty_result_via_contradiction(self, session):
        sent = session.database.stats.queries_executed
        answers = session.ask("empl(E, N, S, D), less(S, 2000)")
        assert answers == []
        # The contradiction was detected locally: no query was sent.
        assert session.database.stats.queries_executed == sent

    def test_same_manager_roundtrip(self, session, org):
        employee = org.employees[0].nam
        answers = session.ask(f"same_manager(X, {employee})")
        boss = org.manager_name_of(org.employees[0])
        expected = {
            l
            for l, h in org.works_dir_for_pairs()
            if h == boss and l != employee
        }
        assert {a["X"] for a in answers} == expected

    def test_cache_reuse(self, session, org):
        boss = org.root_manager_name()
        session.database.stats.reset()
        session.ask(f"works_dir_for(X, {boss})")
        first = session.database.stats.queries_executed
        session.ask(f"works_dir_for(X, {boss})")
        assert session.database.stats.queries_executed == first

    def test_explain_trace(self, session):
        trace = session.explain("same_manager(X, jones)")
        assert len(trace.dbcl.rows) == 6
        assert len(trace.simplification.predicate.rows) == 2
        assert "SELECT" in trace.sql_text
        assert "dbcl(" in trace.dbcl_text


class TestMetaevaluateBuiltin:
    def test_paper_partner_scenario(self, session, org):
        """Example 4-1: the partner rule mixing DB data and specialist facts."""
        boss = org.root_manager_name()
        pairs = org.works_dir_for_pairs()
        team = sorted(l for l, h in pairs if h == boss)
        helper, asker = team[0], team[1]
        session.assert_fact("specialist", helper, "driving")
        session.consult(
            """
            partner(W, X, Skill) :-
                metaevaluate(pr5, [same_manager(X, W)], no_optim, DBCL), !,
                same_manager(X, W), specialist(X, Skill).
            """
        )
        answers = session.ask(f"partner({asker}, X, driving)")
        assert {a["X"] for a in answers} == {helper}

    def test_metaevaluate_binds_dbcl_term(self, session):
        answers = session.ask(
            "metaevaluate(pr5, [same_manager(X, jones)], no_optim, DBCL)"
        )
        # DBCL is bound to the dbcl/4 term (inspectable from Prolog).
        assert answers  # succeeded
        # direct engine check on the bound term shape
        from repro.prolog import Struct

        solutions = session.engine.solve_all(
            "metaevaluate(pr5, [same_manager(X, jones)], no_optim, DBCL)",
            limit=1,
        )
        dbcl_term = solutions[0][var("DBCL")]
        assert isinstance(dbcl_term, Struct)
        assert dbcl_term.functor == "dbcl"
        assert dbcl_term.arity == 4


class TestRecursion:
    @pytest.fixture
    def rec_session(self, org):
        session = PrologDbSession()
        session.load_org(org)
        session.consult(ALL_VIEWS_SOURCE)
        return session

    def test_ask_recursive_people_of_boss(self, rec_session, org):
        boss = org.root_manager_name()
        answers = rec_session.ask(f"works_for(People, {boss})")
        expected = {l for l, h in org.works_for_pairs() if h == boss}
        assert {a["People"] for a in answers} == expected

    def test_ask_recursive_superiors(self, rec_session, org):
        leaf = org.leaf_employee_name()
        answers = rec_session.ask(f"works_for({leaf}, Superior)")
        expected = {h for l, h in org.works_for_pairs() if l == leaf}
        assert {a["Superior"] for a in answers} == expected

    def test_all_strategies_agree(self, rec_session, org):
        leaf = org.leaf_employee_name()
        expected = {
            (l, h) for l, h in org.works_for_pairs() if l == leaf
        }
        for strategy in ["auto", "topdown", "bottomup", "naive"]:
            run = rec_session.solve_recursive(
                "works_for", low=leaf, strategy=strategy
            )
            assert run.pairs == expected, strategy

    def test_strategies_agree_bound_high(self, rec_session, org):
        boss = org.root_manager_name()
        expected = {(l, h) for l, h in org.works_for_pairs() if h == boss}
        for strategy in ["auto", "topdown", "bottomup", "naive"]:
            run = rec_session.solve_recursive(
                "works_for", high=boss, strategy=strategy
            )
            assert run.pairs == expected, strategy

    def test_direction_asymmetry_example_7_1(self, rec_session, org):
        """Misaligned direction inflates intermediate results (paper §7)."""
        leaf = org.leaf_employee_name()
        good = rec_session.solve_recursive(
            "works_for", low=leaf, strategy="bottomup"
        )
        bad = rec_session.solve_recursive(
            "works_for", low=leaf, strategy="topdown"
        )
        assert good.pairs == bad.pairs
        # The paper's claim: the first intermediate relation of the bad
        # direction holds *all* employee names.
        assert bad.stats.frontier_sizes[0] == org.employee_count
        assert (
            bad.stats.total_intermediate_tuples
            > good.stats.total_intermediate_tuples
        )

    def test_naive_issues_query_per_level(self, rec_session, org):
        boss = org.root_manager_name()
        naive = rec_session.solve_recursive("works_for", high=boss, strategy="naive")
        setrel = rec_session.solve_recursive(
            "works_for", high=boss, strategy="topdown"
        )
        assert naive.queries_issued if hasattr(naive, "queries_issued") else True
        # Naive joins grow with the level; setrel's stay fixed per level.
        joins = naive.stats.sql_join_terms_per_level
        assert joins == sorted(joins)
        assert joins[-1] > joins[0]

    def test_auto_picks_bound_side(self, rec_session, org):
        leaf = org.leaf_employee_name()
        run = rec_session.solve_recursive("works_for", low=leaf, strategy="auto")
        assert run.stats.strategy == "setrel-bottomup"
        boss = org.root_manager_name()
        run = rec_session.solve_recursive("works_for", high=boss, strategy="auto")
        assert run.stats.strategy == "setrel-topdown"

    def test_both_bound_rejected(self, rec_session):
        with pytest.raises(CouplingError):
            rec_session.solve_recursive("works_for", low="a", high="b")

    def test_fixed_shape_step_query_matches_paper(self, rec_session):
        """The setrel step query of paper section 7, joins included."""
        from repro.sql import print_sql

        descend, _ascend = rec_session.closure_for("works_for").step_queries()
        text = print_sql(descend, oneline=True)
        assert "FROM empl v1, dept v2, empl v3, intermediate v4" in text
        for condition in [
            "(v1.dno = v2.dno)",
            "(v2.mgr = v3.eno)",
            "(v3.nam = v4.nam)",
        ]:
            assert condition in text, text
        # SELECT returns the (low, high) pair for frontier bookkeeping.
        assert text.startswith("SELECT DISTINCT v1.nam, v3.nam")


class TestSegmentMergeInAsk:
    def test_internal_base_facts_visible_to_external_queries(self, session, org):
        """The merge procedure: internally asserted empl tuples join in."""
        boss = org.root_manager_name()
        boss_row = next(e for e in org.employees if e.nam == boss)
        before = {a["X"] for a in session.ask(f"works_dir_for(X, {boss})")}
        # Hire someone into the boss's department, internally only.
        session.assert_fact("empl", 9999, "newhire", 30000, boss_row.dno)
        after = {a["X"] for a in session.ask(f"works_dir_for(X, {boss})")}
        assert "newhire" not in before
        assert after == before | {"newhire"}
        # The fact migrated to the external segment and left the internal one.
        assert session.kb.fact_count(("empl", 4)) == 0
        assert session.database.row_count("empl") == org.employee_count + 1

    def test_cache_invalidated_by_base_fact(self, session, org):
        boss = org.root_manager_name()
        session.ask(f"works_dir_for(X, {boss})")
        assert len(session.cache) > 0
        session.assert_fact("empl", 9998, "another", 30000, 1)
        assert len(session.cache) == 0

    def test_non_base_facts_leave_cache_alone(self, session, org):
        boss = org.root_manager_name()
        session.ask(f"works_dir_for(X, {boss})")
        cached = len(session.cache)
        session.assert_fact("specialist", "someone", "thinking")
        assert len(session.cache) == cached


class TestBatchExecutor:
    def test_duplicate_queries_shared(self, session, org):
        boss = org.root_manager_name()
        evaluator = session.metaevaluator
        predicates = [
            evaluator.metaevaluate(
                f"works_dir_for(X, {boss})", targets=[var("X")]
            )
            for _ in range(3)
        ]
        executor = BatchExecutor(session.database, session.constraints)
        answers, report = executor.execute(predicates)
        assert report.batch_size == 3
        assert report.queries_issued == 1
        assert report.duplicates_shared == 2
        assert answers[0] == answers[1] == answers[2]

    def test_common_core_shared(self, session, org):
        evaluator = session.metaevaluator
        thresholds = [30000, 50000, 70000]
        predicates = [
            evaluator.metaevaluate(
                f"empl(E, N, S, D), less(S, {t})", targets=[var("N")]
            )
            for t in thresholds
        ]
        executor = BatchExecutor(session.database, session.constraints)
        answers, report = executor.execute(predicates)
        assert report.queries_issued == 1
        assert report.cores_shared == 2
        for threshold, result in zip(thresholds, answers):
            expected = {e.nam for e in org.employees if e.sal < threshold}
            assert {r[0] for r in result} == expected

    def test_share_disabled_baseline(self, session, org):
        evaluator = session.metaevaluator
        predicates = [
            evaluator.metaevaluate(
                f"empl(E, N, S, D), less(S, {t})", targets=[var("N")]
            )
            for t in (30000, 50000)
        ]
        executor = BatchExecutor(
            session.database, session.constraints, share=False
        )
        answers, report = executor.execute(predicates)
        assert report.queries_issued == 2
        assert report.queries_saved == 0

    def test_shared_and_unshared_agree(self, session, org):
        evaluator = session.metaevaluator
        predicates = [
            evaluator.metaevaluate(
                f"empl(E, N, S, D), less(S, {t})", targets=[var("N")]
            )
            for t in (30000, 50000, 70000)
        ]
        shared_executor = BatchExecutor(session.database, session.constraints)
        unshared_executor = BatchExecutor(
            session.database, session.constraints, share=False
        )
        shared_answers, _ = shared_executor.execute(predicates)
        unshared_answers, _ = unshared_executor.execute(predicates)
        for a, b in zip(shared_answers, unshared_answers):
            assert set(a) == set(b)


class TestDecodeRows:
    """Rows → answer dicts against the per-row loop the decoder replaced."""

    @staticmethod
    def row_loop(columns, rows):
        answers, seen = [], set()
        for row in rows:
            key = tuple(row[column] for column, _ in columns)
            if key not in seen:
                seen.add(key)
                answers.append({name: row[column] for column, name in columns})
        return answers

    def test_matches_the_row_loop_in_order(self):
        import random

        from repro.coupling.executor import decode_rows

        rng = random.Random(7)
        values = [1, 2, 1.0, "a", "b", None, 30000]
        for _ in range(500):
            width = rng.randint(1, 4)
            rows = [
                tuple(rng.choice(values) for _ in range(width))
                for _ in range(rng.randint(0, 12))
            ]
            picked = rng.sample(range(width), rng.randint(0, width))
            columns = [(c, f"V{i}") for i, c in enumerate(picked)]
            decoded = decode_rows(columns, iter(rows))
            expected = self.row_loop(columns, rows)
            assert decoded == expected
            assert [list(map(type, a.values())) for a in decoded] == [
                list(map(type, a.values())) for a in expected
            ]

    def test_zero_columns_is_one_empty_answer_when_any_row(self):
        from repro.coupling.executor import decode_rows

        assert decode_rows([], [(1,), (2,)]) == [{}]
        assert decode_rows([], []) == []
