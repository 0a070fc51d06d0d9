"""Tests for the DBMS substrate: sqlite backend, workload, bridge."""

import pytest

from repro.dbms import (
    ExternalDatabase,
    assert_answers,
    generate_org,
    load_org,
    make_loaded_database,
    term_to_value,
    value_to_term,
)
from repro.errors import CouplingError, ExecutionError, SchemaError
from repro.metaevaluate import Metaevaluator
from repro.optimize import simplify
from repro.prolog import Atom, KnowledgeBase, Number, parse_goal, var
from repro.schema import (
    WORKS_DIR_FOR_SOURCE,
    empdep_constraints,
    empdep_schema,
)
from repro.sql import translate


@pytest.fixture
def schema():
    return empdep_schema()


@pytest.fixture
def database(schema):
    db = ExternalDatabase(schema)
    db.insert_rows(
        "empl",
        [
            (1, "smiley", 80000, 1),
            (2, "jones", 40000, 1),
            (3, "miller", 35000, 1),
            (4, "marple", 60000, 2),
        ],
    )
    db.insert_rows("dept", [(1, "research", 1), (2, "sales", 2)])
    return db


class TestExternalDatabase:
    def test_row_counts(self, database):
        assert database.row_count("empl") == 4
        assert database.row_count("dept") == 2

    def test_arity_mismatch_rejected(self, database):
        with pytest.raises(ExecutionError):
            database.insert_rows("empl", [(1, "x", 10000)])

    def test_execute_raw_sql(self, database):
        rows = database.execute("SELECT nam FROM empl WHERE sal > 50000")
        assert {r[0] for r in rows} == {"smiley", "marple"}

    def test_execute_generated_query(self, database, schema):
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        predicate = evaluator.metaevaluate(
            "works_dir_for(X, smiley)", targets=[var("X")]
        )
        rows = database.execute(translate(predicate))
        # Employees of dept 1 (managed by smiley): smiley, jones, miller.
        assert {r[0] for r in rows} == {"smiley", "jones", "miller"}

    def test_optimized_query_same_answers(self, database, schema):
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        predicate = evaluator.metaevaluate(
            "works_dir_for(X, smiley)", targets=[var("X")]
        )
        constraints = empdep_constraints(schema)
        simplified = simplify(predicate, constraints)
        direct = set(database.execute(translate(predicate)))
        optimized = set(database.execute(translate(simplified.predicate)))
        assert direct == optimized

    def test_empty_marker_query_skips_dbms(self, database):
        from repro.sql import empty_query

        before = database.stats.queries_executed
        assert database.execute(empty_query()) == []
        assert database.stats.queries_executed == before

    def test_execution_error_on_bad_sql(self, database):
        with pytest.raises(ExecutionError):
            database.execute("SELECT nonsense FROM nowhere")

    def test_stats_accumulate(self, database):
        database.stats.reset()
        database.execute("SELECT * FROM empl")
        database.execute("SELECT * FROM dept")
        assert database.stats.queries_executed == 2
        assert database.stats.rows_fetched == 6

    def test_intermediate_relation_lifecycle(self, database):
        database.create_intermediate("intermediate", ["nam"])
        count = database.set_intermediate_rows("intermediate", [("smiley",)])
        assert count == 1
        rows = database.execute("SELECT nam FROM intermediate")
        assert rows == [("smiley",)]
        database.set_intermediate_rows("intermediate", [("a",), ("b",)])
        assert database.execute("SELECT COUNT(*) FROM intermediate")[0][0] == 2
        database.drop_intermediate("intermediate")
        with pytest.raises(ExecutionError):
            database.execute("SELECT * FROM intermediate")

    def test_intermediate_name_clash_rejected(self, database):
        with pytest.raises(SchemaError):
            database.create_intermediate("empl", ["nam"])

    def test_fetch_relation(self, database):
        rows = database.fetch_relation("dept")
        assert (1, "research", 1) in rows


class TestWorkloadGenerator:
    def test_deterministic_by_seed(self):
        a = generate_org(depth=3, branching=2, staff_per_dept=4, seed=7)
        b = generate_org(depth=3, branching=2, staff_per_dept=4, seed=7)
        assert a.employees == b.employees
        assert a.departments == b.departments

    def test_different_seeds_differ(self):
        a = generate_org(depth=3, branching=2, staff_per_dept=4, seed=1)
        b = generate_org(depth=3, branching=2, staff_per_dept=4, seed=2)
        assert a.employees != b.employees or a.departments != b.departments

    def test_shape(self):
        org = generate_org(depth=2, branching=2, staff_per_dept=4, seed=0)
        assert org.department_count == 1 + 2 + 4
        assert org.employee_count == org.department_count * 4
        assert org.max_depth == 2

    def test_integrity_constraints_hold(self):
        org = generate_org(depth=3, branching=2, staff_per_dept=4, seed=3)
        enos = [e.eno for e in org.employees]
        nams = [e.nam for e in org.employees]
        assert len(set(enos)) == len(enos)  # eno key
        assert len(set(nams)) == len(nams)  # nam key
        assert all(10000 <= e.sal <= 90000 for e in org.employees)
        dnos = {d.dno for d in org.departments}
        assert all(e.dno in dnos for e in org.employees)  # refint empl->dept
        eno_set = set(enos)
        mgrs = [d.mgr for d in org.departments]
        assert all(m in eno_set for m in mgrs)  # refint dept->empl
        assert len(set(mgrs)) == len(mgrs)  # mgr key of dept

    def test_managers_in_parent_department(self):
        org = generate_org(depth=3, branching=2, staff_per_dept=4, seed=5)
        by_eno = {e.eno: e for e in org.employees}
        for department in org.departments:
            manager = by_eno[department.mgr]
            assert manager.dno == org.parent_dept[department.dno]

    def test_too_few_staff_rejected(self):
        with pytest.raises(ValueError):
            generate_org(depth=2, branching=3, staff_per_dept=2, seed=0)

    def test_oracles_consistent(self):
        org = generate_org(depth=2, branching=2, staff_per_dept=3, seed=0)
        direct = org.works_dir_for_pairs()
        closure = org.works_for_pairs()
        assert direct - {(a, b) for a, b in direct if a == b} <= closure
        # Transitivity: low->mid and mid->high implies low->high.
        for low, mid in direct:
            for mid2, high in direct:
                if mid == mid2 and low != high:
                    assert (low, high) in closure

    def test_loaded_database_matches_oracle(self, schema):
        database, org = make_loaded_database(depth=2, branching=2, staff_per_dept=3)
        assert database.row_count("empl") == org.employee_count
        assert database.row_count("dept") == org.department_count
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        predicate = evaluator.metaevaluate(
            "works_dir_for(X, Y)", targets=[var("X"), var("Y")]
        )
        rows = set(database.execute(translate(predicate, distinct=True)))
        assert rows == org.works_dir_for_pairs()


class TestValueConversion:
    def test_roundtrip(self):
        for value in [42, 3.5, "smiley"]:
            assert term_to_value(value_to_term(value)) == value

    def test_atom_and_number(self):
        assert value_to_term("x") == Atom("x")
        assert value_to_term(3) == Number(3)

    def test_unconvertible_term(self):
        with pytest.raises(CouplingError):
            term_to_value(var("X"))


class TestAssertAnswers:
    def test_answers_become_facts(self, schema, database):
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        goal = parse_goal("works_dir_for(X, smiley)")
        predicate = evaluator.metaevaluate(goal, targets=[var("X")])
        rows = database.execute(translate(predicate, distinct=True))
        added = assert_answers(kb, goal, predicate, [var("X")], rows)
        assert added == 3
        from repro.prolog import Engine

        engine = Engine(kb)
        names = {
            a[var("W")].name for a in engine.solve_all("works_dir_for(W, smiley)")
        }
        assert names == {"smiley", "jones", "miller"}

    def test_dedupe_on_reassert(self, schema, database):
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        goal = parse_goal("works_dir_for(X, smiley)")
        predicate = evaluator.metaevaluate(goal, targets=[var("X")])
        rows = database.execute(translate(predicate, distinct=True))
        first = assert_answers(kb, goal, predicate, [var("X")], rows)
        second = assert_answers(kb, goal, predicate, [var("X")], rows)
        assert first == 3
        assert second == 0

    def test_conjunction_rejected(self, schema, database):
        kb = KnowledgeBase()
        kb.consult(WORKS_DIR_FOR_SOURCE)
        evaluator = Metaevaluator(schema, kb)
        goal = parse_goal("works_dir_for(X, smiley), empl(_, X, S, _)")
        predicate = evaluator.metaevaluate(goal, targets=[var("X")])
        with pytest.raises(CouplingError):
            assert_answers(kb, goal, predicate, [var("X")], [])
