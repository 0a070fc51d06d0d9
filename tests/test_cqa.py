"""Tests for consistent query answering over inconsistent stores (E19).

Covers primary-key derivation from the declared FDs, the cached
GROUP-BY/HAVING violation detector, the Koutris–Wijsen attack-graph
peeling test, the SQL certainty-condition rewriting (differential
against brute-force repair enumeration), the block-wise enumeration
fallback and its budget, the clean-store fast-path identity (byte-equal
answers, zero extra statements), the plan-cache integration of
consistent-mode shapes, ``ask_many(consistent=True)``, the
``integrity_report`` diagnostic, the rewriting→enumeration degradation
rung, and seeded fault injection on the new ``cqa_probe`` /
``cqa_rewrite`` statement classes.
"""

import pytest

from repro.coupling import PrologDbSession
from repro.cqa import split_blocks
from repro.cqa.repairs import MAX_REPAIRS, repair_instances
from repro.cqa.rewrite import peel_order
from repro.dbms.sqlite_backend import ExternalDatabase
from repro.errors import CqaError, ExecutionError, RepairSpaceExceeded
from repro.prolog.reader import parse_goal
from repro.prolog.terms import variables_of
from repro.resilience.faults import (
    CQA_FAULT_KINDS,
    FaultEvent,
    FaultInjectingBackend,
    FaultSchedule,
)
from repro.schema.empdep import empdep_constraints, empdep_schema


def answer_set(answers):
    return {frozenset(a.items()) for a in answers}


DEPT_ROWS = [(10, "sales", 1), (20, "eng", 3)]

#: empl(eno, nam, sal, dno); eno=2 is a key-violating block.
DIRTY_EMPL = [
    (1, "ann", 50000, 10),
    (2, "bob", 40000, 10),
    (2, "bob2", 45000, 20),
    (3, "cal", 30000, 20),
]

CLEAN_EMPL = [
    (1, "ann", 50000, 10),
    (2, "bob", 40000, 10),
    (3, "cal", 30000, 20),
]


def make_session(empl_rows, dept_rows=DEPT_ROWS, database=None, **kwargs):
    schema = empdep_schema()
    constraints = empdep_constraints(schema)
    if database is None:
        database = ExternalDatabase(schema, constraints=constraints)
    database.insert_rows("empl", empl_rows)
    database.insert_rows("dept", dept_rows)
    return PrologDbSession(
        schema=schema, constraints=constraints, database=database, **kwargs
    )


def brute_force_certain(goal, empl_rows, dept_rows=DEPT_ROWS):
    """Intersection of plain ``ask`` over every explicitly-built repair.

    Each repair becomes its own store and session, so the reference
    evaluation shares nothing with the rewriting or the enumerator.
    """
    schema = empdep_schema()
    constraints = empdep_constraints(schema)
    fixed, blocks = {}, {}
    for name, rows in (("empl", empl_rows), ("dept", dept_rows)):
        key = constraints.primary_key(name)
        attributes = tuple(schema.relation(name).attributes)
        positions = [attributes.index(a) for a in key]
        fixed[name], blocks[name] = split_blocks(rows, positions)
    certain = None
    for instance in repair_instances(fixed, blocks):
        database = ExternalDatabase(schema, constraints=constraints)
        for name, rows in instance.items():
            database.insert_rows(name, rows)
        with PrologDbSession(
            schema=schema, constraints=constraints, database=database
        ) as repair_session:
            found = answer_set(repair_session.ask(goal))
        certain = found if certain is None else certain & found
        if not certain:
            break
    return certain or set()


# -- primary keys and the violation detector ----------------------------------------


@pytest.mark.smoke
class TestPrimaryKey:
    def test_empdep_keys(self):
        constraints = empdep_constraints(empdep_schema())
        assert constraints.primary_key("empl") == ("eno",)
        assert constraints.primary_key("dept") == ("dno",)

    def test_no_funcdeps_means_whole_tuple(self):
        schema = empdep_schema()
        constraints = empdep_constraints(schema)
        bare = type(constraints)(schema)
        assert bare.primary_key("empl") == ("eno", "nam", "sal", "dno")


@pytest.mark.smoke
class TestViolationDetector:
    def test_clean_relation(self):
        session = make_session(CLEAN_EMPL)
        snapshot = session.cqa_detector.violations("empl")
        assert snapshot.is_clean
        assert snapshot.block_count == 0

    def test_violating_blocks_found(self):
        session = make_session(DIRTY_EMPL)
        snapshot = session.cqa_detector.violations("empl")
        assert snapshot.key == ("eno",)
        assert snapshot.block_count == 1
        assert snapshot.key_values == ((2,),)
        assert set(snapshot.blocks[0]) == {
            (2, "bob", 40000, 10),
            (2, "bob2", 45000, 20),
        }

    def test_bag_duplicates_are_not_violations(self):
        session = make_session(CLEAN_EMPL + [CLEAN_EMPL[0]])
        assert session.cqa_detector.violations("empl").is_clean

    def test_probe_cached_per_generation(self):
        session = make_session(DIRTY_EMPL)
        session.cqa_detector.violations("empl")
        probes = session.cqa_stats.snapshot()["probes"]
        session.cqa_detector.violations("empl")
        after = session.cqa_stats.snapshot()
        assert after["probes"] == probes
        assert after["probe_cache_hits"] >= 1
        # A mutation advances the data generation and re-probes.
        session.database.insert_rows("empl", [(9, "zoe", 20000, 10)])
        session.cqa_detector.violations("empl")
        assert session.cqa_stats.snapshot()["probes"] == probes + 1


# -- the attack-graph peeling test ---------------------------------------------------


class TestPeelOrder:
    def _predicate(self, session, goal_text, target_names):
        goal = parse_goal(goal_text)
        targets = list(
            dict.fromkeys(
                v
                for v in variables_of(goal)
                if not v.is_anonymous and v.name in target_names
            )
        )
        return session.metaevaluator.metaevaluate(goal, targets=targets)

    def test_acyclic_join_peels(self):
        session = make_session(CLEAN_EMPL)
        predicate = self._predicate(
            session, "empl(E, N, S, D), dept(D, F, M)", set()
        )
        keys = {"empl": ("eno",), "dept": ("dno",)}
        order = peel_order(predicate, keys)
        assert order is not None
        assert [atom.tag for atom in order] == ["empl", "dept"]

    def test_attack_cycle_rejected(self):
        # empl(E,_,_,D), dept(D,_,E): each atom attacks the other through
        # the variable outside the attacker's closure — the classic cycle.
        session = make_session(CLEAN_EMPL)
        predicate = self._predicate(
            session, "empl(E, N, S, D), dept(D, F, E)", set()
        )
        assert peel_order(predicate, {"empl": ("eno",), "dept": ("dno",)}) is None

    def test_free_variables_break_the_cycle(self):
        # The same shape with every variable free (a target) is trivially
        # rewritable: attacks are computed relative to the bound set.
        session = make_session(CLEAN_EMPL)
        predicate = self._predicate(
            session, "empl(E, N, S, D), dept(D, F, E)", {"E", "N", "S", "D", "F"}
        )
        order = peel_order(predicate, {"empl": ("eno",), "dept": ("dno",)})
        assert order is not None

    def test_self_join_rejected(self):
        session = make_session(CLEAN_EMPL)
        predicate = self._predicate(
            session, "empl(E, N, S, D), empl(M, N2, S2, D)", set()
        )
        assert peel_order(predicate, {"empl": ("eno",)}) is None


# -- clean-store fast path -----------------------------------------------------------


@pytest.mark.smoke
class TestCleanFastPath:
    def test_identical_answers_and_statement_counts(self):
        session = make_session(CLEAN_EMPL)
        goal = "empl(E, N, S, 10)"
        # Warm both the plain plan and the probe cache.
        session.ask(goal)
        session.ask_consistent(goal)
        plain = session.ask(goal)
        statements_plain = session.traces()[-1]["statements"]
        consistent = session.ask_consistent(goal)
        trace = session.traces()[-1]
        assert consistent == plain  # byte-identical, order included
        assert trace["cqa"]["mode"] == "clean_fast_path"
        # Zero extra statements once the violation probe is cached.
        assert trace["statements"] == statements_plain

    def test_fast_path_counted(self):
        session = make_session(CLEAN_EMPL)
        session.ask_consistent("empl(E, N, S, D)")
        stats = session.stats()["cqa"]
        assert stats["clean_fast_paths"] == 1
        assert stats["rewritten_asks"] == 0
        assert stats["fallback_asks"] == 0


# -- certain answers: rewriting and enumeration --------------------------------------


@pytest.mark.smoke
class TestRewrittenCertainAnswers:
    def test_open_goal_matches_brute_force(self):
        session = make_session(DIRTY_EMPL)
        goal = "empl(E, N, S, D)"
        certain = answer_set(session.ask_consistent(goal))
        assert certain == brute_force_certain(goal, DIRTY_EMPL)
        assert session.traces()[-1]["cqa"]["mode"] == "rewritten"

    def test_join_matches_brute_force(self):
        dirty_dept = DEPT_ROWS + [(20, "ops", 1)]
        session = make_session(DIRTY_EMPL, dirty_dept)
        goal = "empl(E, N, S, D), dept(D, F, M)"
        certain = answer_set(session.ask_consistent(goal))
        assert certain == brute_force_certain(goal, DIRTY_EMPL, dirty_dept)
        trace = session.traces()[-1]
        assert trace["cqa"]["mode"] == "rewritten"
        assert set(trace["cqa"]["dirty_relations"]) == {"empl", "dept"}

    def test_constant_goal_matches_brute_force(self):
        session = make_session(DIRTY_EMPL)
        for goal in ("empl(2, N, S, D)", "empl(1, N, S, D)", "empl(E, N, S, 10)"):
            assert answer_set(session.ask_consistent(goal)) == (
                brute_force_certain(goal, DIRTY_EMPL)
            )

    def test_target_comparison_matches_brute_force(self):
        session = make_session(DIRTY_EMPL)
        goal = "empl(E, N, S, 10), S > 35000"
        assert answer_set(session.ask_consistent(goal)) == (
            brute_force_certain(goal, DIRTY_EMPL)
        )

    def test_warm_consistent_ask_hits_plan_cache(self):
        session = make_session(DIRTY_EMPL)
        first = session.ask_consistent("empl(2, N, S, D)")
        # Same shape, rotating constant: the parameterized rewriting binds.
        second = session.ask_consistent("empl(1, N, S, D)")
        third = session.ask_consistent("empl(3, N, S, D)")
        stats = session.stats()["cqa"]
        assert stats["rewrite_compiles"] == 1
        assert stats["rewrite_cache_hits"] == 2
        assert first == []
        assert answer_set(second) == brute_force_certain(
            "empl(1, N, S, D)", DIRTY_EMPL
        )
        assert answer_set(third) == brute_force_certain(
            "empl(3, N, S, D)", DIRTY_EMPL
        )

    def test_warm_rewritten_ask_builds_no_bound_predicate(self, monkeypatch):
        """A rewritten plan runs from its bind values alone."""
        from repro.coupling.global_opt import CachePolicy
        from repro.dbcl.predicate import DbclPredicate

        session = make_session(DIRTY_EMPL, cache_policy=CachePolicy(enabled=False))
        session.ask_consistent("empl(2, N, S, D)")  # compile the rewriting
        goals = ("empl(1, N, S, D)", "empl(3, N, S, D)")
        expected = [brute_force_certain(goal, DIRTY_EMPL) for goal in goals]

        def refuse(self, mapping):
            raise AssertionError("a warm ask built a bound predicate")

        monkeypatch.setattr(DbclPredicate, "rename", refuse)
        assert [answer_set(session.ask_consistent(g)) for g in goals] == expected
        assert session.traces()[-1]["cqa"]["mode"] == "rewritten"
        assert session.stats()["cqa"]["rewrite_cache_hits"] == 2

    def test_consistent_and_plain_plans_do_not_collide(self):
        session = make_session(DIRTY_EMPL)
        goal = "empl(2, N, S, D)"
        plain_first = session.ask(goal)
        certain = session.ask_consistent(goal)
        plain_again = session.ask(goal)
        assert plain_first == plain_again  # cqa shape never shadows plain
        assert len(plain_again) == 2
        assert certain == []

    def test_max_solutions_truncates(self):
        session = make_session(DIRTY_EMPL)
        answers = session.ask_consistent("empl(E, N, S, D)", max_solutions=1)
        assert len(answers) == 1


class TestEnumeratedCertainAnswers:
    def test_self_join_matches_brute_force(self):
        session = make_session(DIRTY_EMPL)
        goal = "empl(E, N, S, D), empl(M, N2, S2, D2), dept(D, F, M)"
        certain = answer_set(session.ask_consistent(goal))
        assert certain == brute_force_certain(goal, DIRTY_EMPL)
        trace = session.traces()[-1]
        assert trace["cqa"]["mode"] == "enumerated"
        assert trace["cqa"]["rewritable"] is False
        assert session.stats()["cqa"]["repairs_enumerated"] >= 2

    def test_enumeration_memoized_per_generation(self):
        session = make_session(DIRTY_EMPL)
        goal = "empl(E, N, S, D), empl(M, N2, S2, D2), dept(D, F, M)"
        first = session.ask_consistent(goal)
        second = session.ask_consistent(goal)
        assert first == second
        stats = session.stats()["cqa"]
        assert stats["memo_hits"] == 1
        # A store mutation invalidates the memo through the generation key.
        session.database.insert_rows("empl", [(7, "gus", 25000, 10)])
        session.ask_consistent(goal)
        assert session.stats()["cqa"]["memo_hits"] == 1

    def test_repair_space_budget_fails_closed(self):
        # 13 violating blocks of 2 rows: 2^13 = 8192 > MAX_REPAIRS.
        rows = []
        for eno in range(13):
            rows.append((eno, f"a{eno}", 20000 + eno, 10))
            rows.append((eno, f"b{eno}", 30000 + eno, 20))
        session = make_session(rows)
        goal = "empl(E, N, S, D), empl(M, N2, S2, D2), dept(D, F, M)"
        with pytest.raises(RepairSpaceExceeded):
            session.ask_consistent(goal)
        assert 2 ** 13 > MAX_REPAIRS

    def test_view_over_self_join_enumerates(self):
        session = make_session(DIRTY_EMPL)
        session.consult(
            "works_dir_for(E, M) :- "
            "empl(E, _, _, D), dept(D, _, M), empl(M, _, _, _)."
        )
        goal = "works_dir_for(E, M)"
        certain = answer_set(session.ask_consistent(goal))
        reference = brute_force_certain(goal, DIRTY_EMPL)
        # Brute force needs the same view in each repair session; rebuild.
        schema = empdep_schema()
        constraints = empdep_constraints(schema)
        fixed, blocks = {}, {}
        for name, rows in (("empl", DIRTY_EMPL), ("dept", DEPT_ROWS)):
            key = constraints.primary_key(name)
            attributes = tuple(schema.relation(name).attributes)
            positions = [attributes.index(a) for a in key]
            fixed[name], blocks[name] = split_blocks(rows, positions)
        reference = None
        for instance in repair_instances(fixed, blocks):
            database = ExternalDatabase(schema, constraints=constraints)
            for name, rows in instance.items():
                database.insert_rows(name, rows)
            with PrologDbSession(
                schema=schema, constraints=constraints, database=database
            ) as repair_session:
                repair_session.consult(
                    "works_dir_for(E, M) :- "
                    "empl(E, _, _, D), dept(D, _, M), empl(M, _, _, _)."
                )
                found = answer_set(repair_session.ask(goal))
            reference = found if reference is None else reference & found
        assert certain == (reference or set())


# -- scope errors --------------------------------------------------------------------


class TestCqaScope:
    def test_mixed_goal_raises(self):
        session = make_session(DIRTY_EMPL)
        session.consult("local(1).\nboth(N) :- empl(_, N, S, _), local(S).")
        with pytest.raises(CqaError):
            session.ask_consistent("both(N)")

    def test_recursive_goal_raises(self):
        session = make_session(DIRTY_EMPL)
        session.consult(
            "above(X, Y) :- boss(X, Y).\n"
            "above(X, Y) :- boss(X, Z), above(Z, Y).\n"
            "boss(E, M) :- empl(E, _, _, D), dept(D, _, M)."
        )
        with pytest.raises(CqaError):
            session.ask_consistent("above(X, Y)")

    def test_pure_internal_goal_takes_fast_path(self):
        session = make_session(DIRTY_EMPL)
        session.consult("color(red).\ncolor(blue).")
        answers = session.ask_consistent("color(C)")
        assert answer_set(answers) == answer_set(session.ask("color(C)"))


# -- integrity report ----------------------------------------------------------------


@pytest.mark.smoke
class TestIntegrityReport:
    def test_clean_store(self):
        session = make_session(CLEAN_EMPL)
        report = session.integrity_report()
        assert set(report) == {"empl", "dept"}
        assert report["empl"]["key"] == ["eno"]
        assert report["empl"]["key_violations"] == 0
        assert report["empl"]["sample_blocks"] == []
        assert all(
            fd["violations"] == 0 for fd in report["empl"]["funcdeps"]
        )

    def test_dirty_store_counts_and_samples(self):
        session = make_session(DIRTY_EMPL)
        entry = session.integrity_report()["empl"]
        assert entry["key_violations"] == 1
        assert entry["violating_rows"] == 2
        assert entry["sample_blocks"][0]["key"] == [2]
        assert len(entry["sample_blocks"][0]["rows"]) == 2
        by_fd = {
            (tuple(fd["lhs"]), tuple(fd["rhs"])): fd["violations"]
            for fd in entry["funcdeps"]
        }
        # eno -> nam,sal,dno is violated by the eno=2 block; nam -> eno is
        # not (the two conflicting tuples have distinct names).
        assert by_fd[(("eno",), ("nam", "sal", "dno"))] == 1
        assert by_fd[(("nam",), ("eno",))] == 0


# -- batch serving -------------------------------------------------------------------


class TestAskManyConsistent:
    GOALS = ["empl(1, N, S, D)", "empl(2, N, S, D)", "empl(3, N, S, D)"]

    def test_clean_store_batches_like_plain(self):
        session = make_session(CLEAN_EMPL)
        for goal in self.GOALS:  # warm the shapes
            session.ask(goal)
            session.ask(goal)
        plain = session.ask_many(self.GOALS)
        consistent = session.ask_many(self.GOALS, consistent=True)
        assert [answer_set(a) for a in consistent] == [
            answer_set(a) for a in plain
        ]
        assert session.stats()["cqa"]["clean_fast_paths"] >= len(self.GOALS)

    def test_dirty_store_serializes_to_certain_answers(self):
        session = make_session(DIRTY_EMPL)
        batched = session.ask_many(self.GOALS, consistent=True)
        for goal, answers in zip(self.GOALS, batched):
            assert answer_set(answers) == brute_force_certain(goal, DIRTY_EMPL)
        assert session.stats()["cqa"]["rewritten_asks"] == len(self.GOALS)

    def test_default_stays_inconsistent(self):
        session = make_session(DIRTY_EMPL)
        plain = session.ask_many(["empl(2, N, S, D)"])
        assert len(plain[0]) == 2  # both conflicting tuples, no certainty


# -- degradation and fault injection -------------------------------------------------


class TestDegradationRung:
    def test_rewriting_failure_degrades_to_enumeration(self):
        session = make_session(DIRTY_EMPL)
        goal = "empl(E, N, S, D)"
        reference = brute_force_certain(goal, DIRTY_EMPL)
        original = session.database.execute_prepared

        def failing(text, parameters=()):
            if "c1v" in text:  # the certainty condition's member alias
                raise ExecutionError("synthetic permanent rewriting failure")
            return original(text, parameters)

        session.database.execute_prepared = failing
        try:
            answers = session.ask_consistent(goal)
        finally:
            session.database.execute_prepared = original
        assert answer_set(answers) == reference
        trace = session.traces()[-1]
        assert trace["cqa"]["mode"] == "enumerated"
        assert trace["cqa"]["degraded"] is True
        stats = session.stats()["cqa"]
        assert stats["degraded"] == 1
        assert stats["fallback_asks"] == 1
        assert session.stats()["resilience"]["degraded_answers"] >= 1


class TestCqaFaultInjection:
    def _session(self, schedule):
        schema = empdep_schema()
        constraints = empdep_constraints(schema)
        database = FaultInjectingBackend(
            schema, constraints=constraints, schedule=schedule
        )
        return make_session(DIRTY_EMPL, database=database)

    def test_cqa_kinds_registered(self):
        from repro.resilience.faults import FAULT_KINDS, KIND_CLASSES

        assert CQA_FAULT_KINDS == ("cqa_probe", "cqa_rewrite")
        for kind in CQA_FAULT_KINDS:
            assert KIND_CLASSES[kind] == kind
            assert kind not in FAULT_KINDS  # historical sequences intact

    def test_transient_probe_and_rewrite_faults_ride_out(self):
        schedule = FaultSchedule(
            [
                FaultEvent(at=0, kind="cqa_probe"),
                FaultEvent(at=0, kind="cqa_rewrite"),
            ]
        )
        session = self._session(schedule)
        goal = "empl(E, N, S, D)"
        answers = session.ask_consistent(goal)
        assert answer_set(answers) == brute_force_certain(goal, DIRTY_EMPL)
        assert schedule.exhausted
        assert schedule.injected_by_kind == {"cqa_probe": 1, "cqa_rewrite": 1}

    def test_rewrite_burst_outlasting_backend_retries(self):
        # Burst of 8 > the backend's max_attempts: the statement-level
        # retry budget exhausts, the ask-level retry loop re-runs the
        # whole consistent ask, and the eventual answers are correct.
        schedule = FaultSchedule(
            [FaultEvent(at=0, kind="cqa_rewrite", burst=8)]
        )
        session = self._session(schedule)
        goal = "empl(E, N, S, D)"
        answers = session.ask_consistent(goal)
        assert answer_set(answers) == brute_force_certain(goal, DIRTY_EMPL)
        assert schedule.exhausted
        assert session.stats()["resilience"]["ask_retries"] >= 1

    def test_seeded_random_schedule_with_cqa_kinds(self):
        schedule = FaultSchedule.random(
            seed=23, events=6, horizon=12, kinds=CQA_FAULT_KINDS
        )
        session = self._session(schedule)
        goals = ["empl(1, N, S, D)", "empl(2, N, S, D)", "empl(E, N, S, D)"]
        for _ in range(6):
            for goal in goals:
                assert answer_set(session.ask_consistent(goal)) == (
                    brute_force_certain(goal, DIRTY_EMPL)
                )
            session.cqa_detector.invalidate()  # force fresh probes
        assert schedule.exhausted
