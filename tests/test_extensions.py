"""Tests for the section 7 extensions: disjunction, negation, stepwise."""

import pytest

from repro.coupling import PrologDbSession
from repro.dbms import generate_org
from repro.errors import UnsupportedFeatureError
from repro.extensions import (
    StepwiseEvaluator,
    split_negation,
    translate_disjunctive,
    translate_with_negation,
)
from repro.prolog import parse_goal, var
from repro.schema import WORKS_DIR_FOR_SOURCE
from repro.sql import print_sql, print_union


@pytest.fixture
def org():
    return generate_org(depth=2, branching=2, staff_per_dept=4, seed=23)


@pytest.fixture
def session(org):
    session = PrologDbSession()
    session.load_org(org)
    session.consult(WORKS_DIR_FOR_SOURCE)
    return session


class TestDisjunction:
    @pytest.fixture
    def disj_session(self, session):
        # A disjunctive view: well-paid people and department managers.
        session.consult(
            """
            notable(X) :- empl(_, X, S, _), geq(S, 70000).
            notable(X) :- dept(_, _, M), empl(M, X, _, _).
            """
        )
        return session

    def test_branches_translate_to_union(self, disj_session, org):
        translation = translate_disjunctive(
            disj_session.metaevaluator,
            "notable(X)",
            disj_session.constraints,
            targets=[var("X")],
        )
        assert len(translation.branches) == 2
        assert translation.live_branch_count == 2
        text = print_union(translation.union)
        assert "UNION" in text

    def test_union_answers_match_semantics(self, disj_session, org):
        answers = disj_session.ask_disjunctive("notable(X)")
        managers = {
            next(e.nam for e in org.employees if e.eno == d.mgr)
            for d in org.departments
        }
        wellpaid = {e.nam for e in org.employees if e.sal >= 70000}
        assert {a["X"] for a in answers} == managers | wellpaid

    def test_contradictory_branch_pruned(self, disj_session):
        disj_session.consult(
            """
            oddity(X) :- empl(_, X, S, _), less(S, 2000).
            oddity(X) :- dept(_, _, M), empl(M, X, _, _).
            """
        )
        translation = translate_disjunctive(
            disj_session.metaevaluator,
            "oddity(X)",
            disj_session.constraints,
            targets=[var("X")],
        )
        assert translation.pruned_branch_count == 1
        assert translation.live_branch_count == 1

    def test_explicit_semicolon_goal(self, disj_session, org):
        answers = disj_session.ask_disjunctive(
            "empl(_, X, S, _), geq(S, 70000) ; dept(_, _, M), empl(M, X, _, _)"
        )
        assert answers  # both branches contribute


class TestNegation:
    def test_split(self):
        positive, negated = split_negation(
            "empl(E, N, S, D), not(works_dir_for(N, smiley))"
        )
        assert len(positive) == 1
        assert len(negated) == 1

    def test_non_managers(self, session, org):
        """Employees who work directly for nobody... i.e. not under boss X."""
        boss = org.root_manager_name()
        answers = session.ask_with_negation(
            f"empl(E, N, S, D), not(works_dir_for(N, {boss}))"
        )
        under_boss = {l for l, h in org.works_dir_for_pairs() if h == boss}
        all_names = {e.nam for e in org.employees}
        assert {a["N"] for a in answers} == all_names - under_boss

    def test_not_in_rendering(self, session):
        from repro.extensions import translate_with_negation

        translation = translate_with_negation(
            session.metaevaluator,
            "empl(E, N, S, D), not(works_dir_for(N, smiley))",
            session.constraints,
            targets=[var("N")],
        )
        text = print_sql(translation.query)
        assert "NOT IN" in text

    def test_unsafe_negation_rejected(self, session):
        with pytest.raises(UnsupportedFeatureError):
            translate_with_negation(
                session.metaevaluator,
                "empl(E, N, S, D), not(works_dir_for(Z, smiley))",
                session.constraints,
            )

    def test_bare_negation_rejected(self, session):
        with pytest.raises(UnsupportedFeatureError):
            translate_with_negation(
                session.metaevaluator,
                "not(works_dir_for(N, smiley))",
                session.constraints,
            )

    def test_two_negations_rejected(self, session):
        with pytest.raises(UnsupportedFeatureError):
            translate_with_negation(
                session.metaevaluator,
                "empl(E, N, S, D), not(dept(D, F, M)), not(works_dir_for(N, x))",
                session.constraints,
            )

    def test_negation_with_fresh_inner_variables_rejected(self, session):
        # Fresh variables inside not(...) make the complement ambiguous.
        with pytest.raises(UnsupportedFeatureError):
            session.ask_with_negation(
                "empl(E, N, S, D), not((empl(E2, N, S2, D2), less(S2, 2000)))"
            )

    def test_negation_against_empty_side(self, session, org):
        # A contradictory negated view excludes nothing.
        session.consult("lowpaid(N) :- empl(_, N, S, _), less(S, 2000).")
        answers = session.ask_with_negation(
            "empl(E, N, S, D), not(lowpaid(N))"
        )
        assert {a["N"] for a in answers} == {e.nam for e in org.employees}


class TestPendingSegments:
    """The section-7 entry points read the union of both segments."""

    def test_negation_sees_pending_base_fact(self, session, org):
        boss = org.root_manager_name()
        elsewhere = next(
            d.dno
            for d in org.departments
            if next(e.nam for e in org.employees if e.eno == d.mgr) != boss
        )
        # Pending in the internal segment (the lazy path), both sides.
        session.kb.assert_fact("empl", 9901, "ghost", 30000, elsewhere)
        answers = session.ask_with_negation(
            f"empl(E, N, S, D), not(works_dir_for(N, {boss}))"
        )
        assert "ghost" in {a["N"] for a in answers}
        assert session.kb.fact_count(("empl", 4)) == 0
        boss_dept = next(e.dno for e in org.employees if e.nam == boss)
        session.kb.assert_fact("empl", 9902, "minion", 30000, boss_dept)
        answers = session.ask_with_negation(
            f"empl(E, N, S, D), not(works_dir_for(N, {boss}))"
        )
        assert "minion" not in {a["N"] for a in answers}

    def test_disjunction_sees_pending_base_fact(self, session, org):
        session.consult(
            """
            notable(X) :- empl(_, X, S, _), geq(S, 70000).
            notable(X) :- dept(_, _, M), empl(M, X, _, _).
            """
        )
        session.kb.assert_fact("empl", 9903, "magnate", 90000, 1)
        answers = session.ask_disjunctive("notable(X)")
        assert "magnate" in {a["X"] for a in answers}
        assert session.kb.fact_count(("empl", 4)) == 0


class TestStepwise:
    def test_matches_direct_evaluation(self, session, org):
        boss = org.root_manager_name()
        direct = session.ask(f"works_dir_for(X, {boss}), empl(_, X, S, _), less(S, 60000)")
        answers, stats = session.ask_stepwise(
            f"works_dir_for(X, {boss}), empl(_, X, S, _), less(S, 60000)"
        )
        assert {a["X"] for a in answers} == {a["X"] for a in direct}
        assert stats.queries_issued >= 1

    def test_mixed_internal_external(self, session, org):
        boss = org.root_manager_name()
        team = sorted(l for l, h in org.works_dir_for_pairs() if h == boss)
        session.assert_fact("specialist", team[0], "driving")
        answers, stats = session.ask_stepwise(
            f"works_dir_for(X, {boss}), specialist(X, driving)"
        )
        assert {a["X"] for a in answers} == {team[0]}
        assert stats.engine_calls >= 1

    def test_tuple_substitution_bounds_memory(self, session, org):
        # Live tuples never exceed the largest single partial result.
        answers, stats = session.ask_stepwise("empl(E, N, S, D), dept(D, F, M)")
        assert stats.max_live_tuples <= org.employee_count
        assert len(answers) == org.employee_count

    def test_cache_collapses_repeated_parameterisations(self, session, org):
        # Many employees share a department: the dept lookup per tuple
        # should hit the cache after the first occurrence.
        answers, stats = session.ask_stepwise("empl(E, N, S, D), dept(D, F, M)")
        assert stats.cache_hits > 0

    def test_ground_membership_check(self, session, org):
        employee = org.employees[0]
        answers, stats = session.ask_stepwise(
            f"empl({employee.eno}, {employee.nam}, S, D), "
            f"dept(D, F, M)"
        )
        assert len(answers) == 1

    def test_cache_never_fresh_over_rows_read_before_a_write(self, session, org):
        # A backend write landing between the stepwise read and its
        # cache store leaves the entry stale: the stamp predates the read.
        evaluator = StepwiseEvaluator(
            session.metaevaluator,
            session.engine,
            session.database,
            session.constraints,
        )
        dno = org.departments[0].dno
        goal = f"empl(E, N, S, {dno})"
        database = session.database
        read = database.execute
        ghost = (777001, "ghost", 20000, dno)

        def read_then_write(query):
            rows = read(query)
            database.execute = read
            database.insert_rows("empl", [ghost])
            return rows

        database.execute = read_then_write
        try:
            before, _ = evaluator.evaluate(goal)
            after, stats = evaluator.evaluate(goal)
        finally:
            database.execute = read
        assert len(after) == len(before) + 1
        assert stats.cache_hits == 0
        database.delete_row("empl", ghost)
        again, stats = evaluator.evaluate(goal)
        assert len(again) == len(before)
        assert stats.cache_hits == 0
