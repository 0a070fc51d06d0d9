"""Plan-cache correctness: parameterized plans, invalidation, differentials.

The compile-once ask path must be *observationally identical* to fresh
compilation: for every goal shape and constant choice, a warm (plan-cache
hit) ask returns the same answer set as a cold session that compiles from
scratch.  These tests exercise the cache's hit/miss accounting, its
invalidation on program changes, the per-relation result-cache
invalidation, the stable interface-predicate naming, and a randomized
warm-vs-cold differential across shapes and constants.
"""

import random

import pytest

from repro.coupling import PlanCache, PrologDbSession, goal_shape
from repro.coupling.global_opt import CachePolicy, marker_for
from repro.dbms import generate_org
from repro.metaevaluate import Metaevaluator
from repro.prolog import KnowledgeBase, parse_goal, var
from repro.schema import (
    ALL_VIEWS_SOURCE,
    SAME_MANAGER_SOURCE,
    WORKS_DIR_FOR_SOURCE,
    empdep_schema,
)

pytestmark = pytest.mark.smoke


def answer_set(answers):
    return {frozenset(a.items()) for a in answers}


@pytest.fixture
def org():
    return generate_org(depth=3, branching=2, staff_per_dept=4, seed=23)


@pytest.fixture
def session(org):
    session = PrologDbSession()
    session.load_org(org)
    session.consult(WORKS_DIR_FOR_SOURCE)
    session.consult(SAME_MANAGER_SOURCE)
    return session


def fresh_session(org, **kwargs):
    session = PrologDbSession(plan_cache=False, **kwargs)
    session.load_org(org)
    session.consult(WORKS_DIR_FOR_SOURCE)
    session.consult(SAME_MANAGER_SOURCE)
    return session


class TestGoalShape:
    def test_constants_abstracted(self):
        first = goal_shape(parse_goal("works_dir_for(X, 'emp00001')"))
        second = goal_shape(parse_goal("works_dir_for(X, 'emp00042')"))
        assert first.key == second.key
        assert first.constants != second.constants

    def test_variable_names_matter(self):
        first = goal_shape(parse_goal("works_dir_for(X, boss)"))
        second = goal_shape(parse_goal("works_dir_for(Y, boss)"))
        assert first.key != second.key

    def test_numbers_and_atoms_recorded(self):
        shape = goal_shape(parse_goal("empl(E, N, S, D), less(S, 40000)"))
        assert shape.constants == (40000,)

    def test_nested_structures_unshapeable(self):
        assert goal_shape(parse_goal("p(f(X))")) is None


class TestPlanReuse:
    def test_shape_hit_across_constants(self, session, org):
        names = [e.nam for e in org.employees[:6]]
        for name in names:
            session.ask(f"works_dir_for(X, {name})")
        # The first sight of the shape compiles the one plan it keeps;
        # everything after is a hit.
        assert session.plans.stats.compiled == 1
        assert session.plans.stats.misses == 1
        assert session.plans.stats.hits == len(names) - 1

    def test_parameterized_sql_has_placeholder(self, session, org):
        session.ask(f"works_dir_for(X, {org.employees[0].nam})")
        entry = next(iter(session.plans._entries.values()))
        plan = next(iter(entry.variants.values()))
        assert entry.material == ()
        assert "?" in plan.sql_text
        assert plan.bind_order and plan.open_params == (0,)

    def test_first_sight_parameterizes(self, session, org):
        """First sight parameterizes: the first ask runs the plan it stores."""
        boss = org.root_manager_name()
        cold = fresh_session(org).ask(f"works_dir_for(X, {boss})")
        assert answer_set(session.ask(f"works_dir_for(X, {boss})")) == answer_set(cold)
        entry = next(iter(session.plans._entries.values()))
        plan = next(iter(entry.variants.values()))
        assert entry.material == plan.material == ()
        assert plan.open_params == (0,)  # the constant is a bind parameter
        # one chain run: printed once, executed prepared with the constant
        assert session.database.stats.sql_prints == 1
        assert session.database.stats.prepared_executions == 1
        # Repeats of the same constants and new constants alike are hits.
        before = session.plans.stats.hits
        session.ask(f"works_dir_for(X, {boss})")
        session.ask(f"works_dir_for(X, {org.employees[3].nam})")
        assert session.plans.stats.hits == before + 2
        assert session.plans.stats.compiled == 1

    def test_warm_uses_prepared_statements(self, session, org):
        names = [e.nam for e in org.employees[:5]]
        session.ask(f"works_dir_for(X, {names[0]})")  # prime the shape
        session.database.stats.reset()
        for name in names[1:]:
            session.ask(f"works_dir_for(X, {name})")
        # Warm asks never re-print SQL; they execute the prepared text.
        assert session.database.stats.sql_prints == 0
        assert session.database.stats.prepared_executions == len(names) - 1

    def test_comparison_constants_fall_back_to_variants(self, session, org):
        """Constants consulted by Algorithm 2 pin exact-constant plans."""
        for threshold in (30000, 50000, 30000):
            session.ask(f"empl(E, N, S, D), less(S, {threshold})")
        entry = session.plans._entries[
            goal_shape(parse_goal("empl(E, N, S, D), less(S, 30000)")).key
        ]
        assert entry.material == (0,)
        assert len(entry.variants) == 2  # one per distinct threshold
        assert session.plans.stats.hits >= 1  # the repeated 30000

    def test_anonymous_variables_keep_one_shape(self, session):
        """Each parse numbers its own '_': one goal text is one shape."""
        goal = "empl(_, N, S, D), greater(S, 50000)"
        first = session.ask(goal)
        before = session.stats()["plan_cache"]
        second, third = session.ask(goal), session.ask(goal)
        after = session.stats()["plan_cache"]
        assert after["hits"] == before["hits"] + 2
        assert after["misses"] == before["misses"]
        assert after["entries"] == before["entries"] == 1
        assert first and answer_set(second) == answer_set(third) == answer_set(first)

    def test_marker_never_leaks_into_answers(self, session, org):
        boss = org.root_manager_name()
        session.ask(f"works_dir_for(X, {boss})")
        answers = session.ask(f"works_dir_for(X, {boss})")
        marker = str(marker_for(0))
        assert all(marker not in str(a) for a in answers)


class TestInvalidation:
    def test_consult_clears_plans(self, session, org):
        boss = org.root_manager_name()
        session.ask(f"works_dir_for(X, {boss})")
        assert len(session.plans) > 0
        session.consult("extra_rule(X) :- specialist(X, anything).")
        session.plans.sync(session.kb)
        assert len(session.plans) == 0

    def test_assert_fact_clears_plans_via_generation(self, session, org):
        boss = org.root_manager_name()
        session.ask(f"works_dir_for(X, {boss})")
        assert len(session.plans) > 0
        session.assert_fact("specialist", "jones", "guns")
        session.plans.sync(session.kb)
        assert len(session.plans) == 0

    def test_retract_all_clears_plans(self, session, org):
        boss = org.root_manager_name()
        session.ask(f"works_dir_for(X, {boss})")
        session.kb.retract_all(("works_dir_for", 2))
        session.plans.sync(session.kb)
        assert len(session.plans) == 0

    def test_answers_correct_after_reconsult(self, session, org):
        """A recompiled plan sees the new program, not the cached one."""
        boss = org.root_manager_name()
        before = answer_set(session.ask(f"works_dir_for(X, {boss})"))
        session.kb.retract_all(("works_dir_for", 2))
        session.consult(
            "works_dir_for(Decider, Boss) :- "
            "empl(E1, Decider, S1, D1), dept(D1, F, M), empl(M, Boss, S2, D2), "
            "less(S1, 45000)."
        )
        after = answer_set(session.ask(f"works_dir_for(X, {boss})"))
        assert after <= before
        fresh = fresh_session(org)
        fresh.kb.retract_all(("works_dir_for", 2))
        fresh.consult(
            "works_dir_for(Decider, Boss) :- "
            "empl(E1, Decider, S1, D1), dept(D1, F, M), empl(M, Boss, S2, D2), "
            "less(S1, 45000)."
        )
        assert after == answer_set(fresh.ask(f"works_dir_for(X, {boss})"))

    def test_result_cache_per_relation(self, session, org):
        boss = org.root_manager_name()
        session.ask(f"works_dir_for(X, {boss})")  # reads empl+dept
        assert len(session.cache) == 1
        # A fact on an unrelated (non-base) predicate leaves it alone.
        session.assert_fact("specialist", "someone", "thinking")
        assert len(session.cache) == 1
        # A base-relation fact invalidates entries reading that relation.
        session.assert_fact("empl", 9999, "newhire", 30000, 1)
        assert len(session.cache) == 0

    def test_result_cache_keeps_unrelated_relations(self, session, org):
        schema = empdep_schema()
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        empl_only = evaluator.metaevaluate(
            "empl(E, N, S, D)", targets=[var("N")]
        )
        dept_only = evaluator.metaevaluate(
            "dept(D, F, M)", targets=[var("F")]
        )
        cache = session.cache.__class__(
            generation=session.database.data_generation
        )
        cache.store(empl_only, [("a",)], stamp=cache.stamp(empl_only))
        cache.store(dept_only, [("x",)], stamp=cache.stamp(dept_only))
        cache.invalidate_relation("empl")
        assert cache.lookup(empl_only) is None
        assert cache.lookup(dept_only) == [("x",)]

    def test_plan_cache_generation_isolated_from_interface_facts(
        self, session, org
    ):
        """Mixed asks stage interface facts without invalidating plans."""
        boss = org.root_manager_name()
        session.assert_fact("specialist", org.employees[0].nam, "driving")
        goal = f"works_dir_for(X, {boss}), specialist(X, driving)"
        session.ask(goal)  # first miss: exact plan
        session.ask(goal)  # exact hit (same constants)
        compiled = session.plans.stats.compiled
        session.ask(goal)
        session.ask(goal)
        assert session.plans.stats.compiled == compiled  # no recompiles
        assert session.plans.stats.hits >= 3


class TestInterfaceName:
    def test_stable_digest_name(self, session, org):
        schema = empdep_schema()
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        predicate = evaluator.metaevaluate(
            "works_dir_for(X, smiley)", targets=[var("X")]
        )
        name = PrologDbSession._interface_name(predicate)
        assert name.startswith("$ext_") and len(name) == len("$ext_") + 12
        # Deterministic: derived from the canonical key, not Python hash().
        assert name == PrologDbSession._interface_name(predicate)

    def test_distinct_predicates_distinct_names(self, session, org):
        schema = empdep_schema()
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        first = evaluator.metaevaluate(
            "works_dir_for(X, smiley)", targets=[var("X")]
        )
        second = evaluator.metaevaluate(
            "works_dir_for(X, grumpy)", targets=[var("X")]
        )
        assert PrologDbSession._interface_name(
            first
        ) != PrologDbSession._interface_name(second)

    def test_mixed_ask_uses_digest_interface(self, session, org):
        boss = org.root_manager_name()
        session.assert_fact("specialist", org.employees[0].nam, "driving")
        session.ask(f"works_dir_for(X, {boss}), specialist(X, driving)")
        interface = [
            indicator
            for indicator in session.kb.indicators()
            if indicator[0].startswith("$ext_")
        ]
        assert interface, "interface predicate was asserted"
        assert all(len(name) == len("$ext_") + 12 for name, _ in interface)


class TestDifferential:
    """Randomized warm-vs-cold equivalence across shapes and constants."""

    def test_repeated_shapes_match_fresh_compile(self, org):
        rng = random.Random(7)
        warm = PrologDbSession()
        warm.load_org(org)
        warm.consult(WORKS_DIR_FOR_SOURCE)
        warm.consult(SAME_MANAGER_SOURCE)

        names = [e.nam for e in org.employees]
        salaries = [25000, 40000, 55000, 70000, 90000]
        shapes = [
            lambda n=None, s=None: f"works_dir_for(X, {n})",
            lambda n=None, s=None: f"works_dir_for({n}, Y)",
            lambda n=None, s=None: "works_dir_for(X, Y)",
            lambda n=None, s=None: f"same_manager(X, {n})",
            lambda n=None, s=None: f"empl(E, N, S, D), less(S, {s})",
            lambda n=None, s=None: f"empl(E, {n}, S, D)",
            lambda n=None, s=None: f"empl(E, N, S, D), less(S, {s}), greater(S, 20000)",
        ]
        goals = [
            shape(n=rng.choice(names), s=rng.choice(salaries))
            for _ in range(40)
            for shape in [rng.choice(shapes)]
        ]
        # Ask twice warm (second pass is all plan-cache hits), once fresh.
        for goal in goals:
            warm.ask(goal)
        for goal in goals:
            got = answer_set(warm.ask(goal))
            fresh = fresh_session(org)
            expected = answer_set(fresh.ask(goal))
            assert got == expected, goal
            fresh.close()
        assert warm.plans.stats.hits > 0

    def test_recursive_and_engine_shapes(self, org):
        warm = PrologDbSession()
        warm.load_org(org)
        warm.consult(ALL_VIEWS_SOURCE)
        warm.assert_fact("specialist", org.employees[0].nam, "driving")
        boss = org.root_manager_name()
        leaf = org.leaf_employee_name()
        goals = [
            f"works_for(People, {boss})",
            f"works_for({leaf}, Superior)",
            "specialist(X, driving)",
        ]
        for _ in range(2):
            results = [answer_set(warm.ask(g)) for g in goals]
        fresh = PrologDbSession(plan_cache=False)
        fresh.load_org(org)
        fresh.consult(ALL_VIEWS_SOURCE)
        fresh.assert_fact("specialist", org.employees[0].nam, "driving")
        for goal, got in zip(goals, results):
            assert got == answer_set(fresh.ask(goal)), goal

    def test_constant_discriminating_heads_not_parameterized(self, org):
        """Clause heads that pattern-match constants defeat markers.

        ``works_dir_for_boss/1`` only applies when the second argument
        unifies with the root manager's name; a marker would fail that
        unification for every constant, so the shape must fall back to
        exact-constant plans — and stay answer-identical either way.
        """
        boss = org.root_manager_name()
        warm = PrologDbSession()
        warm.load_org(org)
        warm.consult(WORKS_DIR_FOR_SOURCE)
        warm.consult(
            f"boss_view(X, {boss}) :- works_dir_for(X, {boss})."
        )
        other = org.employees[0].nam
        goals = [f"boss_view(X, {boss})", f"boss_view(X, {other})"]
        for goal in goals:  # compile
            warm.ask(goal)
        for goal in goals:  # warm
            got = answer_set(warm.ask(goal))
            fresh = fresh_session(org)
            fresh.consult(f"boss_view(X, {boss}) :- works_dir_for(X, {boss}).")
            assert got == answer_set(fresh.ask(goal)), goal
            fresh.close()
        entry = warm.plans._entries[
            goal_shape(parse_goal(goals[0])).key
        ]
        assert entry.material == (0,)  # per-constant variants, not markers

    def test_two_parameter_shape_stays_correct(self, session, org):
        """Both arguments constant: the view's ``neq`` becomes ground.

        A ground comparison between two parameters is value-dependent
        (equal constants make the goal empty), so the shape must pin
        *both* positions material — and remain answer-identical.
        """
        pairs = [
            (e.nam, f.nam) for e, f in zip(org.employees[:3], org.employees[3:6])
        ]
        for low, high in pairs:
            got = answer_set(session.ask(f"same_manager({low}, {high})"))
            fresh = fresh_session(org)
            expected = answer_set(fresh.ask(f"same_manager({low}, {high})"))
            fresh.close()
            assert got == expected, (low, high)
        low, high = pairs[0]
        entry = session.plans._entries[
            goal_shape(parse_goal(f"same_manager({low}, {high})")).key
        ]
        assert entry.material == (0, 1)
        # Repeating an exact pair is still a hit on its variant.
        before = session.plans.stats.hits
        session.ask(f"same_manager({low}, {high})")
        assert session.plans.stats.hits == before + 1

    def test_out_of_bound_constant_empty_warm_and_cold(self, session, org):
        """Bind-time valuebound checks reproduce fresh empties."""
        goal_template = "empl(E, N, S, {dno})"
        session.ask(goal_template.format(dno=1))
        # dno 99999 violates the declared department-number bounds; the
        # warm path must prove it empty without querying, like a fresh one.
        warm = session.ask(goal_template.format(dno=99999))
        fresh = fresh_session(org)
        cold = fresh.ask(goal_template.format(dno=99999))
        assert warm == cold == []


class TestUnsimplifiedEmptyQueries:
    """A false ground comparison surviving into translation answers []."""

    def test_optimize_off_ground_contradiction(self, org):
        session = PrologDbSession(optimize=False)
        session.load_org(org)
        session.consult(WORKS_DIR_FOR_SOURCE)
        for _ in range(3):  # cold, lazy-compiled, warm
            assert session.ask("empl(E, X, S, D), 5 > 7") == []

    def test_no_optim_metaevaluate_ground_contradiction(self, session, org):
        session.consult("v(X) :- empl(E, X, S, D), greater(5, 7).")
        results = []
        for _ in range(3):  # cold, lazy-compiled, warm — must not crash
            results.append(
                session.ask("metaevaluate(prog, [v(X)], no_optim, Q)")
            )
        # The fetch proves the view empty (X unbound) but still reports
        # the DBCL trace, identically on every path.
        assert results[0] == results[1] == results[2]
        assert results[0][0]["X"] is None
        assert "dbcl(" in results[0][0]["Q"]


class TestUncacheableShapes:
    def test_lookup_short_circuits_and_marking_is_idempotent(self):
        from repro.coupling.global_opt import UNCACHEABLE

        cache = PlanCache()
        shape = goal_shape(parse_goal("works_dir_for(X, smiley)"))
        assert cache.lookup(shape) is None
        cache.mark_uncacheable(shape)
        cache.mark_uncacheable(shape)
        cache.mark_uncacheable(shape)
        assert cache.stats.uncacheable == 1  # per shape, not per ask
        assert cache.lookup(shape) is UNCACHEABLE
        # The sentinel is not a miss: callers skip recompilation entirely.
        assert cache.stats.misses == 1


class TestFetchViewPlans:
    def test_partner_scenario_reuses_fetch_plan(self, session, org):
        """metaevaluate/4 fetches compile once despite engine renaming.

        The goal inside the partner rule reaches ``_fetch_view`` with
        renamed-apart variables (fresh ordinals per resolution); the shape
        key must abstract the ordinals or the plan would never be reused.
        """
        boss = org.root_manager_name()
        team = sorted(l for l, h in org.works_dir_for_pairs() if h == boss)
        helper, asker = team[0], team[1]
        session.assert_fact("specialist", helper, "driving")
        session.consult(
            """
            partner(W, X, Skill) :-
                metaevaluate(pr5, [same_manager(X, W)], no_optim, DBCL), !,
                same_manager(X, W), specialist(X, Skill).
            """
        )
        for _ in range(4):
            answers = session.ask(f"partner({asker}, X, driving)")
        assert {a["X"] for a in answers} == {helper}
        # One engine plan for the partner shape + one fetch plan for the
        # inner view; repeats are hits, not compiles.
        assert session.plans.stats.compiled <= 3
        assert session.plans.stats.hits >= 4

    def test_warm_fetch_survives_its_own_answer_asserts(self, session, org):
        """Rotating constants through a fetch view keeps its plan warm.

        Each fetch asserts new answer facts (a generation bump); the
        executed shape's plan must be retained across its own bump, as
        the cold path retains it by compiling after the assert.
        """
        from repro.prolog.reader import parse_goal as pg

        names = [e.nam for e in org.employees[:5]]
        for name in names:
            session._fetch_view(pg(f"same_manager(X, {name})"))
        # Call one compiled the shape's plan; the remaining four were
        # plan-cache hits even though every call asserted fresh answer
        # facts.
        assert session.plans.stats.compiled == 1
        assert session.plans.stats.hits == len(names) - 1


class TestCompileOnce:
    """One compile per shape, in every mode — pinned in exact counters.

    Three asks of one constant-insensitive shape with three constants:
    the first compiles (and prints) the parameterized plan and runs it,
    the other two are hits; every compile phase is paid on the first ask
    only.
    """

    PHASES = ("classify", "metaevaluate", "optimize", "translate", "print")

    @staticmethod
    def counters(session):
        stats = session.stats()
        return (
            stats["plan_cache"]["misses"],
            stats["plan_cache"]["hits"],
            stats["plan_cache"]["compiled"],
            stats["database"]["sql_prints"],
        )

    def three_asks(self, session, ask, goals, phases=PHASES):
        start = self.counters(session)
        seconds = []
        for goal in goals:
            ask(goal)
            seconds.append(session.stats()["compile_phases"])
        moved = tuple(b - a for a, b in zip(start, self.counters(session)))
        assert moved == (1, 2, 1, 1)
        for phase in phases:
            key = f"{phase}_seconds"
            assert seconds[0][key] > 0, phase
            assert seconds[0][key] == seconds[1][key] == seconds[2][key], phase

    @pytest.mark.parametrize(
        "template",
        [
            "works_dir_for(X, {})",
            "same_manager(X, {})",
            "works_dir_for({}, Y)",
            "empl(E, {}, S, D)",
            "works_dir_for(X, {}), specialist(X, driving)",
        ],
    )
    def test_three_constants_one_compile(self, session, org, template):
        session.assert_fact("specialist", org.employees[0].nam, "driving")
        names = [e.nam for e in org.employees[3:6]]
        self.three_asks(session, session.ask, [template.format(n) for n in names])
        cold = fresh_session(org)
        cold.assert_fact("specialist", org.employees[0].nam, "driving")
        for name in names:
            goal = template.format(name)
            assert answer_set(session.ask(goal)) == answer_set(cold.ask(goal))

    def test_fetch_three_constants_one_compile(self, session, org):
        names = [e.nam for e in org.employees[3:6]]
        goals = [parse_goal(f"same_manager(X, {name})") for name in names]
        # (a fetch classifies nothing: its goal is one view by contract)
        self.three_asks(session, session._fetch_view, goals, self.PHASES[1:])

    def test_consistent_mode_three_constants_one_compile(self, session, org):
        session.database.insert_rows("empl", [(org.employees[0].eno, "dup", 1, 1)])
        names = [e.nam for e in org.employees[3:6]]
        goals = [f"empl(E, {name}, S, D)" for name in names]
        self.three_asks(session, session.ask_consistent, goals)
        assert session.stats()["cqa"]["rewritten_asks"] == 3

    def test_constant_sensitive_shape_keeps_exact_variants(self, session, org):
        goals = [
            f"empl(E, N, S, D), less(S, {high}), greater(S, {low})"
            for high, low in ((40000, 20000), (50000, 30000), (60000, 10000))
        ]
        start = self.counters(session)
        answers = [session.ask(goal) for goal in goals]
        moved = tuple(b - a for a, b in zip(start, self.counters(session)))
        assert moved[:3] == (3, 0, 3)
        cold = fresh_session(org)
        for goal, warm in zip(goals, answers):
            assert answer_set(warm) == answer_set(cold.ask(goal))
            assert answer_set(session.ask(goal)) == answer_set(warm)  # a hit
        assert session.plans.stats.hits == 3

    def test_failed_marker_analysis_never_fails_the_ask(
        self, session, org, monkeypatch
    ):
        compiler = session._compiler
        original = compiler._parameterize
        analyses = []

        def failing(*args):
            analyses.append(args)
            if len(analyses) == 1:
                raise RuntimeError("marker analysis broke")
            return original(*args)

        monkeypatch.setattr(compiler, "_parameterize", failing)
        names = [e.nam for e in org.employees[3:6]]
        cold = fresh_session(org)
        for name in names:
            goal = f"works_dir_for(X, {name})"
            assert answer_set(session.ask(goal)) == answer_set(cold.ask(goal))
        # The shape is remembered as exact: one variant per constant, and
        # the analysis that failed at first sight is never run again.
        assert len(analyses) == 1
        entry = next(iter(session.plans._entries.values()))
        assert entry.material == (0,) and not entry.uncacheable
        assert len(entry.variants) == 3
        assert all(plan.open_params == () for plan in entry.variants.values())
        assert session.plans.stats.compiled == 3
        assert session.plans.stats.uncacheable == 0

    def test_warm_makes_a_new_constant_a_hit(self, session, org):
        names = [e.nam for e in org.employees[3:6]]
        shapes = ["works_dir_for(X, {})", "same_manager(X, {})", "works_dir_for({}, Y)"]
        assert session.warm(t.format(names[0]) for t in shapes) == len(shapes)
        assert session.plans.stats.compiled == len(shapes)
        before = session.plans.stats.snapshot()
        for template in shapes:
            session.ask(template.format(names[1]))
        after = session.plans.stats.snapshot()
        assert after["hits"] == before["hits"] + len(shapes)
        assert after["misses"] == before["misses"]
        assert after["compiled"] == before["compiled"]


class TestRecursionPreparedPath:
    def test_setrel_levels_do_not_reprint_sql(self, org):
        session = PrologDbSession()
        session.load_org(org)
        session.consult(ALL_VIEWS_SOURCE)
        leaf = org.leaf_employee_name()
        closure = session.closure_for("works_for")
        closure.step_queries()  # force preparation (prints exactly twice)
        session.database.stats.reset()
        run = session.solve_recursive("works_for", low=leaf, strategy="bottomup")
        assert run.stats.levels >= 2
        assert session.database.stats.sql_prints == 0
        assert session.database.stats.prepared_executions == run.stats.levels

    def test_level_swap_commits_once(self, org):
        session = PrologDbSession()
        session.load_org(org)
        session.consult(ALL_VIEWS_SOURCE)
        leaf = org.leaf_employee_name()
        closure = session.closure_for("works_for")
        closure.step_queries()
        session.database.stats.reset()
        run = session.solve_recursive("works_for", low=leaf, strategy="bottomup")
        # One commit per frontier level (swap + step inside a transaction),
        # not two per swap as before.
        assert session.database.stats.commits <= run.stats.levels + 1


class TestDisabledResultCache:
    def test_warm_ask_skips_the_cache_work_but_keeps_the_counters(
        self, org, monkeypatch
    ):
        """With the result cache off a warm ask must not pay for it.

        Nothing can ever be stored, so the predicate's canonical key (the
        cache key) and the transitive dependency set are dead work — yet
        ``stats()["result_cache"]`` keeps ticking one miss and one
        rejected store per executed ask, as it always has.
        """
        from repro.dbcl.predicate import DbclPredicate

        session = PrologDbSession(cache_policy=CachePolicy(enabled=False))
        session.load_org(org)
        session.consult(WORKS_DIR_FOR_SOURCE)
        names = [e.nam for e in org.employees[:4]]
        session.ask(f"works_dir_for(X, {names[0]})")  # compile the shape
        calls = []
        original = DbclPredicate.canonical_key
        monkeypatch.setattr(
            DbclPredicate,
            "canonical_key",
            lambda self: calls.append(self) or original(self),
        )
        import networkx

        dependency_walks = []
        walk = networkx.descendants
        monkeypatch.setattr(
            networkx,
            "descendants",
            lambda graph, node: dependency_walks.append(node) or walk(graph, node),
        )
        before = session.stats()
        expected = answer_set(fresh_session(org).ask(f"works_dir_for(X, {names[2]})"))
        calls.clear()
        dependency_walks.clear()
        assert answer_set(session.ask(f"works_dir_for(X, {names[2]})")) == expected
        session.ask(f"works_dir_for(X, {names[3]})")
        after = session.stats()
        assert calls == [] and dependency_walks == []
        assert after["plan_cache"]["hits"] == before["plan_cache"]["hits"] + 2
        delta = {
            key: after["result_cache"][key] - before["result_cache"][key]
            for key in ("hits", "misses", "stored", "rejected", "entries")
        }
        assert delta == {
            "hits": 0, "misses": 2, "stored": 0, "rejected": 2, "entries": 0,
        }

    def test_warm_asks_build_no_bound_predicate(self, org, monkeypatch):
        """A warm pure-external plan runs from its bind values alone.

        Answer columns and row tags come from the plan's template, so
        neither ``ask`` nor ``ask_many`` renames it into a bound predicate.
        """
        from repro.dbcl.predicate import DbclPredicate

        session = PrologDbSession(cache_policy=CachePolicy(enabled=False))
        session.load_org(org)
        session.consult(WORKS_DIR_FOR_SOURCE)
        goals = [f"works_dir_for(X, {e.nam})" for e in org.employees[:6]]
        session.ask(goals[0])  # compile the shape
        expected = [answer_set(fresh_session(org).ask(goal)) for goal in goals]

        def refuse(self, mapping):
            raise AssertionError("a warm ask built a bound predicate")

        monkeypatch.setattr(DbclPredicate, "rename", refuse)
        assert [answer_set(session.ask(goal)) for goal in goals] == expected
        assert [answer_set(a) for a in session.ask_many(goals)] == expected
        stats = session.stats()["plan_cache"]
        assert stats["batched_asks"] == len(goals) and stats["batch_executions"] == 1
