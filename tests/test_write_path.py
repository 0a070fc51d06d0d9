"""The write-then-ask contract, in exact counters (ROADMAP E35).

A write to a base relation is a store write: it costs one commit, drops
no compiled plan, and leaves nothing for the read path to do.  That holds
on every route a ground tuple can take — ``session.assert_fact`` /
``retract_fact``, ``kb.assert_fact``, the engine's ``assertz`` /
``retract``, a consult — so the knowledge base never holds one; only
non-ground base clauses stay there, and they are data, not program, to
its clock.
"""

import pytest

from repro.coupling import CachePolicy, PrologDbSession
from repro.dbms import generate_org
from repro.errors import PrologError
from repro.prolog import Clause, KnowledgeBase, parse_term
from repro.schema import WORKS_DIR_FOR_SOURCE, WORKS_FOR_TOP_DOWN_SOURCE


@pytest.fixture
def org():
    return generate_org(depth=3, branching=2, staff_per_dept=4, seed=11)


def make_session(org):
    session = PrologDbSession(cache_policy=CachePolicy(enabled=False))
    session.load_org(org)
    session.consult(WORKS_DIR_FOR_SOURCE)
    return session


class Managed:
    """A manager's name and the department they manage."""

    def __init__(self, nam, dno):
        self.nam, self.dno = nam, dno


def managers_of(org):
    by_eno = {e.eno: e.nam for e in org.employees}
    return [Managed(by_eno[d.mgr], d.dno) for d in org.departments]


def counters(session):
    stats = session.stats()
    return {
        "invalidations": stats["plan_cache"]["invalidations"],
        "compiled": stats["plan_cache"]["compiled"],
        "commits": stats["database"]["commits"],
        "rows_fetched": stats["database"]["rows_fetched"],
    }


def moved(session, before):
    after = counters(session)
    return {name: after[name] - before[name] for name in before}


def names(answers, variable="X"):
    return {answer[variable] for answer in answers}


class TestWriteThenAsk:
    def test_a_base_write_is_one_commit_and_no_cold_read(self, org):
        session = make_session(org)
        old, new = managers_of(org)[:3], managers_of(org)[3:5]
        for manager in old:  # two shapes over empl / dept, parameterized
            session.ask(f"works_dir_for(X, {manager.nam})")
            session.ask(f"empl(E, N, S, {manager.dno})")
        row = (9100, "hired", 30000, new[0].dno)

        before = counters(session)
        session.assert_fact("empl", *row)
        delta = moved(session, before)
        assert (delta["invalidations"], delta["compiled"]) == (0, 0)
        assert delta["commits"] == 1

        def asks_are_warm(present):
            before = counters(session)
            for manager in old + new:
                session.ask(f"works_dir_for(X, {manager.nam})")
                session.ask(f"empl(E, N, S, {manager.dno})")
            seen = "hired" in names(
                session.ask(f"works_dir_for(X, {new[0].nam})")
            ) and "hired" in names(
                session.ask(f"empl(E, N, S, {new[0].dno})"), "N"
            )
            delta = moved(session, before)
            assert seen is present
            assert (delta["invalidations"], delta["compiled"]) == (0, 0)
            assert delta["commits"] == 0

        asks_are_warm(present=True)

        before = counters(session)
        assert session.retract_fact("empl", *row)
        delta = moved(session, before)
        assert (delta["invalidations"], delta["compiled"]) == (0, 0)
        assert delta["commits"] == 1
        asks_are_warm(present=False)
        assert session.kb.fact_count(("empl", 4)) == 0

    def test_the_lazy_segment_is_also_plan_neutral(self, org):
        """Engine-level assertz: one commit (the store write), plans kept."""
        session = make_session(org)
        manager = managers_of(org)[1]
        for other in managers_of(org)[:3]:
            session.ask(f"works_dir_for(X, {other.nam})")
        before = counters(session)
        session.ask(f"assertz(empl(9101, lazy, 30000, {manager.dno}))")
        assert moved(session, before)["commits"] == 1
        assert session.kb.fact_count(("empl", 4)) == 0
        assert "lazy" in names(session.ask(f"works_dir_for(X, {manager.nam})"))
        session.ask(f"works_dir_for(X, {manager.nam})")
        delta = moved(session, before)
        assert (delta["invalidations"], delta["compiled"]) == (0, 0)
        assert delta["commits"] == 1

    def test_a_consult_is_one_write_unit(self, org):
        session = make_session(org)
        dno = managers_of(org)[0].dno
        kb = session.kb

        def bulk(facts):
            with kb.bulk_update():
                for fact in facts:
                    kb.assert_fact("empl", *fact)

        # Three facts per route, each route one write unit.
        routes = [
            lambda facts: session.consult(" ".join(f"empl{fact}." for fact in facts)),
            lambda facts: kb.consult(" ".join(f"empl{fact}." for fact in facts)),
            bulk,
        ]
        for offset, route in enumerate(routes):
            facts = [(9500 + 10 * offset + i, f"c{offset}_{i}", 30000, dno) for i in range(3)]
            size = session.database.row_count("empl")
            before = counters(session)
            route(facts)
            assert moved(session, before)["commits"] == 1, offset
            assert session.kb.fact_count(("empl", 4)) == 0
            assert session.database.row_count("empl") == size + 3
        size = session.database.row_count("empl")
        before = counters(session)
        session.consult("vip(X) :- empl(_, X, _, _).")
        assert moved(session, before)["commits"] == 0
        before = counters(session)
        session.consult(f"boss(X) :- vip(X). empl(9503, c3, 30000, {dno}).")
        assert moved(session, before)["commits"] == 1
        assert session.database.row_count("empl") == size + 1

    @pytest.mark.parametrize("route", ["bulk_update", "kb.consult"])
    def test_a_raising_bracket_leaves_store_and_views_in_step(self, org, route):
        """The store rolls a raising bracket back; the maintained view,
        the tour and a repeated insert follow the store, not the rows
        the bracket wrote."""
        session = make_session(org)
        session.consult(WORKS_FOR_TOP_DOWN_SOURCE)
        session.materialize.view("works_dir_for(X, Y)")
        manager = managers_of(org)[0]
        flat, cone = f"works_dir_for(X, {manager.nam})", f"works_for(X, {manager.nam})"
        expected = (names(session.ask(flat)), names(session.ask(cone)))
        size = session.database.row_count("empl")
        row = (9600, "ghost", 30000, manager.dno)
        generation = session.database.data_generation("empl")
        with pytest.raises((RuntimeError, PrologError)):
            if route == "kb.consult":
                session.kb.consult(f"empl{row}. ?- true.")
            with session.kb.bulk_update():
                session.kb.assert_fact("empl", *row)
                assert "ghost" in names(session.ask(flat)) & names(session.ask(cone))
                generation = session.database.data_generation("empl")
                raise RuntimeError("abort the bracket")
        assert session.database.row_count("empl") == size
        assert session.database.data_generation("empl") > generation
        assert (names(session.ask(flat)), names(session.ask(cone))) == expected
        session.assert_fact("empl", *row)  # no duplicate of a rolled-back row
        assert session.database.row_count("empl") == size + 1
        assert "ghost" in names(session.ask(flat)) & names(session.ask(cone))

    def test_a_fetch_of_a_base_relation_writes_nothing(self, org):
        """metaevaluate/4 asserts fetched answers; a base relation's are
        its store rows already, so none is written back."""
        session = make_session(org)
        dno = managers_of(org)[0].dno
        before = counters(session)
        assert session.ask(f"metaevaluate(p, [empl(E, N, S, {dno})], yes, D)")
        assert moved(session, before)["commits"] == 0
        assert session.kb.fact_count(("empl", 4)) == 0

    def test_an_engine_retract_deletes_what_an_engine_assert_stored(self, org):
        """Engine retract of a ground tuple deletes the store row, with or
        without an ask in between; a non-ground pattern stays internal."""
        session = make_session(org)
        manager = managers_of(org)[1]
        fact = f"empl(9101, lazy, 30000, {manager.dno})"
        goal = f"works_dir_for(X, {manager.nam})"
        size = session.database.row_count("empl")
        for ask_between in (True, False):
            session.ask(f"assertz({fact})")
            assert session.database.row_count("empl") == size + 1
            if ask_between:
                assert "lazy" in names(session.ask(goal))
            assert session.ask(f"retract({fact})") == [{}]
            assert session.database.row_count("empl") == size
            assert "lazy" not in names(session.ask(goal))
        assert session.ask(f"retract({fact})") == []
        session.ask("assertz(empl(9102, lazy, 30000, D))")
        assert session.kb.fact_count(("empl", 4)) == 1
        session.ask(goal)
        assert session.ask("retract(empl(9102, lazy, 30000, D))") == [{"D": None}]
        assert session.kb.fact_count(("empl", 4)) == 0
        assert session.database.row_count("empl") == size

    def test_a_merge_moves_only_what_is_pending(self, org):
        """A knowledge-base write stores its own rows at once, one commit
        each; the next ask has nothing left to move."""
        session = make_session(org)
        asked, elsewhere = managers_of(org)[0], managers_of(org)[-1]
        goal = f"works_dir_for(X, {asked.nam})"
        session.ask(goal)
        before = counters(session)
        session.ask(goal)
        warm_rows = moved(session, before)["rows_fetched"]

        written = 5
        size = session.database.row_count("empl")
        before = counters(session)
        for i in range(written):
            session.kb.assert_fact(
                "empl", 9200 + i, f"pending{i}", 30000, elsewhere.dno
            )
        assert moved(session, before)["commits"] == written
        assert session.kb.fact_count(("empl", 4)) == 0
        assert session.database.row_count("empl") == size + written
        before = counters(session)
        session.ask(goal)
        delta = moved(session, before)
        assert delta["rows_fetched"] == warm_rows
        assert delta["commits"] == 0


def literal(row):
    return "empl({})".format(", ".join(map(str, row)))


def write(session, route, row):
    """Assert one ``empl`` tuple by a route other than ``assert_fact``."""
    if route == "kb.assert_fact":
        session.kb.assert_fact("empl", *row)
    elif route == "assertz":
        session.ask(f"assertz({literal(row)})")
    else:
        session.consult(f"{literal(row)}.")


def stored(session):
    return sorted(session.database.fetch_relation("empl"), key=repr)


class TestEagerEqualsLazy:
    @pytest.mark.parametrize("maintained", [False, True])
    def test_same_writes_same_state(self, org, maintained):
        for route in ("kb.assert_fact", "assertz", "consult"):
            self.same_writes_same_state(org, maintained, route)

    @staticmethod
    def same_writes_same_state(org, maintained, route):
        """The eager twin writes by ``assert_fact`` / ``retract_fact``, the
        lazy one by ``route`` and the engine's ``retract``."""
        eager, lazy = make_session(org), make_session(org)
        manager = managers_of(org)[2]
        goal = f"works_dir_for(X, {manager.nam})"
        staff = f"empl(E, N, S, {manager.dno})"  # never maintained: reads the store
        existing = next(e for e in org.employees if e.dno == manager.dno)
        for session in (eager, lazy):
            # a NULL-bearing tuple already in the store
            session.database.insert_rows(
                "empl", [(9300, "nullsal", None, manager.dno)]
            )
            if maintained:
                session.materialize.view("works_dir_for(X, Y)")
            session.ask(goal)
            session.ask(staff)
        writes = [
            (9301, "fresh", 30000, manager.dno),
            (9301, "fresh", 30000, manager.dno),  # twice in one sequence
            (existing.eno, existing.nam, existing.sal, existing.dno),
            (9300, "nullsal", 25000, manager.dno),  # differs in the NULL cell
        ]
        deltas = eager.materialize.stats.deltas_applied
        for row in writes:
            eager.assert_fact("empl", *row)
            write(lazy, route, row)
            assert lazy.kb.fact_count(("empl", 4)) == 0
            assert stored(lazy) == stored(eager)

        def same_state(expected):
            assert stored(lazy) == stored(eager)
            for session in (eager, lazy):
                before = counters(session)
                assert names(session.ask(staff), "N") == expected
                assert names(session.ask(goal)) == expected
                assert moved(session, before)["commits"] == 0
                assert session.kb.fact_count(("empl", 4)) == 0

        expected = {
            low for low, high in org.works_dir_for_pairs() if high == manager.nam
        } | {"fresh", "nullsal"}
        same_state(expected)
        for session in (eager, lazy):
            assert session.database.row_count("empl") == org.employee_count + 3
        fresh = writes[0]
        assert eager.retract_fact("empl", *fresh)
        assert lazy.ask(f"retract({literal(fresh)})") == [{}]
        assert lazy.kb.fact_count(("empl", 4)) == 0
        same_state(expected - {"fresh"})
        if maintained:
            for session in (eager, lazy):
                stats = session.materialize.stats
                # two new tuples and one deletion, one delta each; the
                # duplicates none
                assert stats.deltas_applied - deltas == 3
                assert (stats.refreshes, stats.fallbacks) == (0, 0)
                assert not session.materialize.views()[0].stale

    def test_a_reasserted_tuple_changes_nothing(self, org):
        session = make_session(org)
        session.materialize.view("works_dir_for(X, Y)")
        employee = org.employees[0]
        row = (employee.eno, employee.nam, employee.sal, employee.dno)
        before = session.materialize.stats_dict()
        session.assert_fact("empl", *row)
        assert session.database.row_count("empl") == org.employee_count
        assert session.materialize.stats_dict() == before

    def test_a_non_ground_fact_stays_internal(self, org):
        session = make_session(org)
        session.ask("works_dir_for(X, b)")  # warm: compiling may commit
        clause = Clause(parse_term("empl(E, anybody, 0, 1)"))
        session.kb.assertz(clause)
        assert session.kb.fact_count(("empl", 4)) == 1
        assert session.database.row_count("empl") == org.employee_count
        before = counters(session)
        session.ask("works_dir_for(X, c)")
        assert session.kb.all_clauses(("empl", 4)) == [clause]
        assert moved(session, before)["commits"] == 0


class TestProgramClock:
    DATA, PROGRAM = ("empl", 4), ("vip", 1)

    @pytest.fixture
    def kb(self):
        kb = KnowledgeBase()
        kb.data_indicators = frozenset({self.DATA})
        kb.assert_fact("vip", "seed")
        return kb

    @staticmethod
    def fact(indicator, key):
        name, arity = indicator
        return name, (key,) * arity

    def mutations(self, kb, indicator):
        name, values = self.fact(indicator, "a")
        pattern = KnowledgeBase.fact_clause(name, values)
        yield "assertz", lambda: kb.assert_fact(name, *values)
        yield "asserta", lambda: kb.asserta(pattern)
        yield "retract", lambda: kb.retract(pattern)
        yield "retract_all", lambda: kb.retract_all(indicator)

        def bulk():
            with kb.bulk_update():
                kb.assert_fact(name, *values)
                kb.assert_fact(name, *self.fact(indicator, "b")[1])

        yield "bulk_update", bulk

    def test_data_leaves_the_clock_alone(self, kb):
        generation = kb.generation
        for label, mutate in self.mutations(kb, self.DATA):
            mutate()
            assert kb.generation == generation, label

    def test_program_moves_it(self, kb):
        for label, mutate in self.mutations(kb, self.PROGRAM):
            generation = kb.generation
            mutate()
            assert kb.generation > generation, label

    def test_snapshot_carries_the_line(self, kb):
        snapshot = kb.snapshot()
        assert snapshot.data_indicators == kb.data_indicators
        generation = snapshot.generation
        name, values = self.fact(self.DATA, "a")
        snapshot.assert_fact(name, *values)
        assert snapshot.generation == generation

    def test_the_session_draws_it_from_its_schema(self, org):
        session = make_session(org)
        assert session.kb.data_indicators == {("empl", 4), ("dept", 3)}
        generation = session.stats()["kb"]["generation"]
        session.assert_fact("empl", 9400, "clocked", 30000, 1)
        session.kb.assert_fact("empl", 9401, "lazy", 30000, 1)
        session.retract_fact("empl", 9400, "clocked", 30000, 1)
        assert session.stats()["kb"]["generation"] == generation
        session.assert_fact("vip", "clocked")
        assert session.stats()["kb"]["generation"] > generation
