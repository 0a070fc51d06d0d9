"""A warm recursive ask is a read.

* **One read for both sides** — on a forest a bound subordinate's chain
  (``works_for(c, Y)``) and a bound boss's cone (``works_for(X, c)``)
  both answer from the in-memory interval labels, with no statement;
  ``ask_many`` batches follow the same rule, and non-tree data sends
  both to the recursive CTE.
* **Decided by the tour's freshness alone** — the tour is built on the
  first recursive ask and rebuilt only after the edge relations' data
  moved, by the next descendant ask or ``ask_many`` group, once; every
  recursive ask runs on the read lock (no ``acquire_write``, a warm one
  gets the same plan object back), counting one plan-cache hit and one
  planned ask.  Every planned strategy is a read, on a tiny org too,
  and re-planning after a write reads no relation statistics.
* **Lazy asserts are store writes** — facts asserted straight into the
  knowledge base (``kb.assert_fact``, the paper's hypothetical tuples)
  are in the store at once, so the next recursive ask sees them on every
  route: the interval labels on a tiny org and on larger ones, serial or
  batched.
* **Threaded differential** — readers asking both sides while a writer
  hires and departs see exactly the ``strategy="cte"`` answer of the
  data state their ask ran against.
"""

import threading

import pytest

from repro.coupling import PrologDbSession
from repro.dbms import generate_org
from repro.schema import ALL_VIEWS_SOURCE

TINY = dict(depth=2, branching=2, staff_per_dept=3, seed=1)  # 7 edge rows
SMALL = dict(depth=4, branching=2, staff_per_dept=4, seed=7)
BENCH = dict(depth=5, branching=3, staff_per_dept=8, seed=5)  # bench_e2e's org


def make_session(org):
    session = PrologDbSession()
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    return session


@pytest.fixture(scope="module")
def org():
    return generate_org(**SMALL)


@pytest.fixture()
def session(org):
    session = make_session(org)
    yield session
    session.close()


def managed_dept(org, name):
    """The department ``name`` manages."""
    eno = org.employee_by_name(name).eno
    return next(d.dno for d in org.departments if d.mgr == eno)


def middle_manager(org):
    """A manager strictly between the root and the leaves."""
    leaf = org.employee_by_name(org.leaf_employee_name())
    return org.manager_name_of(leaf)


def spy(session):
    """Count write-lock acquisitions and tour builds on ``session`` from now
    on; returns a function that reads ``{"write": …, "builds": …}``."""
    writes = [0]
    lock = session.kb.lock
    acquire_write = lock.acquire_write

    def counting_write():
        writes[0] += 1
        acquire_write()

    lock.acquire_write = counting_write
    stats = session.closure_for("works_for").interval_index().stats
    start = stats.snapshot()["builds"]
    return lambda: {"write": writes[0], "builds": stats.snapshot()["builds"] - start}


def last_strategy(session):
    return session.stats()["recursion_plans"]["last_strategy"]


def cte_nodes(session, side, seed):
    """The closure probe's answer nodes through the explicit CTE strategy."""
    run = session.solve_recursive("works_for", strategy="cte", **{side: seed})
    column = 1 if side == "low" else 0
    return sorted({pair[column] for pair in run.pairs})


def asked_nodes(session, side, seed):
    goal = f"works_for('{seed}', Y)" if side == "low" else f"works_for(X, '{seed}')"
    return [answer["Y" if side == "low" else "X"] for answer in session.ask(goal)]


class TestPerSideRouting:
    def test_both_sides_plan_interval_on_a_forest(self, session, org):
        closure = session.closure_for("works_for")
        plan = closure.plan()
        assert plan.strategy == "interval" and "labeled forest" in plan.reason
        assert closure.plan("high") is plan and closure.plan("low") is plan
        leaf, boss = org.leaf_employee_name(), org.root_manager_name()
        session.database.stats.reset()
        assert asked_nodes(session, "low", leaf) and asked_nodes(session, "high", boss)
        assert session.database.stats.prepared_executions == 0
        assert closure.plan("high") is plan

    def test_asks_count_one_strategy_per_side(self, session, org):
        session.ask(f"works_for({org.leaf_employee_name()}, Y)")
        session.ask(f"works_for(X, {org.root_manager_name()})")
        stats = session.stats()["recursion_plans"]
        assert (stats["planned_asks"], stats["cte"], stats["interval"]) == (2, 0, 2)
        assert stats["last_strategy"] == "interval"

    def test_batches_follow_the_serial_rule(self, session, org):
        # A forest: both sides' batches answer from the tour, no
        # statement; non-tree data: both take the batch-seeded CTE.
        leaf, boss = org.leaf_employee_name(), org.root_manager_name()
        goals = [f"works_for({leaf}, Y)", f"works_for(X, {boss})"]
        for goal in goals:
            session.ask(goal)
        session.database.stats.reset()
        batched = session.ask_many([goals[0]] * 2 + [goals[1]] * 2)
        assert session.database.stats.prepared_executions == 0
        assert batched == [session.ask(goal) for goal in goals for _ in range(2)]
        victim = next(e for e in org.employees if e.dno == org.departments[3].dno)
        session.assert_fact("dept", 94, "shadow", org.departments[1].mgr)
        session.assert_fact("empl", victim.eno + 65000, victim.nam, victim.sal, 94)
        for goal in goals:
            session.ask(goal)
        assert last_strategy(session) == "cte"
        session.database.stats.reset()
        batched = session.ask_many([goals[0]] * 2 + [goals[1]] * 2)
        assert session.database.stats.prepared_executions == 2  # one per side
        assert batched == [session.ask(goal) for goal in goals for _ in range(2)]

    def test_demoted_labeling_sends_descendants_to_the_cte(self, session, org):
        session.ask(f"works_for(X, {org.root_manager_name()})")
        victim = next(e for e in org.employees if e.dno == org.departments[3].dno)
        session.assert_fact("dept", 96, "shadow", org.departments[1].mgr)
        session.assert_fact("empl", victim.eno + 63000, victim.nam, victim.sal, 96)
        boss = org.root_manager_name()
        assert asked_nodes(session, "high", boss) == cte_nodes(session, "high", boss)
        assert last_strategy(session) == "cte"


class TestDecidedOncePerGeneration:
    def test_warm_asks_take_no_write_lock_and_no_plan(self, session, org):
        by_eno = {e.eno: e.nam for e in org.employees}
        bosses = [by_eno[eno] for eno in sorted({d.mgr for d in org.departments})][:4]
        staff = sorted(e.nam for e in org.employees)[::9][:4]
        session.ask(f"works_for(X, {bosses[0]})")  # compile + plan, per side
        session.ask(f"works_for({staff[0]}, Y)")
        counts = spy(session)
        before = session.stats()
        for boss, name in zip(bosses, staff):
            assert asked_nodes(session, "high", boss) == cte_nodes(session, "high", boss)
            assert asked_nodes(session, "low", name) == cte_nodes(session, "low", name)
        after = session.stats()
        assert counts() == {"write": 0, "builds": 0}  # cte_nodes reads too
        asks = 2 * len(bosses)
        assert after["plan_cache"]["hits"] - before["plan_cache"]["hits"] == asks
        assert after["plan_cache"]["misses"] == before["plan_cache"]["misses"]
        planned = after["recursion_plans"]["planned_asks"]
        assert planned - before["recursion_plans"]["planned_asks"] == asks

    def test_warm_ask_alone_never_acquires_the_write_lock(self, session, org):
        boss, leaf = org.root_manager_name(), org.leaf_employee_name()
        session.ask(f"works_for(X, {boss})")
        session.ask(f"works_for({leaf}, Y)")
        counts = spy(session)
        session.database.stats.reset()
        for _ in range(3):
            assert session.ask(f"works_for(X, {boss})")
            assert session.ask(f"works_for({leaf}, Y)")
        assert counts() == {"write": 0, "builds": 0}
        stats = session.database.stats
        assert (stats.commits, stats.sql_prints, stats.prepared_executions) == (0, 0, 0)

    def test_a_hire_makes_the_next_ask_re_decide_once(self, session, org):
        # The next descendant ask rebuilds the tour once, on the read
        # lock; so does an ask_many group, and the serial ask after it
        # reuses that tour.
        boss = middle_manager(org)
        goal = f"works_for(X, {boss})"
        session.ask(goal)
        counts = spy(session)
        dno = managed_dept(org, boss)
        session.assert_fact("empl", 47001, "rehire", 20000, dno)
        assert counts() == {"write": 1, "builds": 0}  # the store write itself
        assert "rehire" in asked_nodes(session, "high", boss)
        assert counts() == {"write": 1, "builds": 1}
        assert "rehire" in asked_nodes(session, "high", boss)
        assert asked_nodes(session, "high", boss) == cte_nodes(session, "high", boss)
        assert counts() == {"write": 1, "builds": 1}  # one per data generation
        session.assert_fact("empl", 47003, "rehire2", 20000, dno)
        batches = session.plans.stats.snapshot()["recursive_batches"]
        batched = session.ask_many([goal] * 2)
        assert session.plans.stats.snapshot()["recursive_batches"] == batches + 1
        assert counts() == {"write": 2, "builds": 2}
        assert "rehire2" in asked_nodes(session, "high", boss)
        assert counts() == {"write": 2, "builds": 2}
        assert batched == [session.ask(goal)] * 2

    def test_tiny_warm_asks_are_reads(self):
        # A 7-edge view plans the same reads as a large one, so its warm
        # asks never leave the read lock.
        tiny = generate_org(**TINY)
        session = make_session(tiny)
        try:
            boss, leaf = tiny.root_manager_name(), tiny.leaf_employee_name()
            below = asked_nodes(session, "high", boss)
            above = asked_nodes(session, "low", leaf)
            counts = spy(session)
            for side, seed, nodes in (("high", boss, below), ("low", leaf, above)):
                session.database.stats.reset()
                assert asked_nodes(session, side, seed) == nodes
                stats = session.database.stats
                assert (stats.commits, stats.prepared_executions) == (0, 0)
            assert counts() == {"write": 0, "builds": 0}
            assert below == cte_nodes(session, "high", boss)
            assert above == cte_nodes(session, "low", leaf)
        finally:
            session.close()

    def test_first_ancestor_ask_after_a_write_reads_no_statistics(
        self, session, org
    ):
        # ... nor rebuilds the tour: one CTE probe under the read lock;
        # the next descendant ask rebuilds it once, on the read lock too.
        leaf, boss = org.leaf_employee_name(), middle_manager(org)
        session.ask(f"works_for({leaf}, Y)")
        session.ask(f"works_for(X, {leaf})")  # compiles the descendant shape
        index = session.closure_for("works_for").interval_index()
        session.assert_fact("empl", 47002, "newhire", 20000, managed_dept(org, boss))
        counts = spy(session)
        session.database.stats.reset()
        for _ in range(2):
            assert asked_nodes(session, "low", "newhire") == cte_nodes(
                session, "low", "newhire"
            )
        assert boss in asked_nodes(session, "low", "newhire")
        stats = session.database.stats.snapshot()
        assert (stats["commits"], stats["stats_refreshes"]) == (0, 0)
        assert last_strategy(session) == "cte"
        assert counts() == {"write": 0, "builds": 0}
        assert "newhire" in asked_nodes(session, "high", boss)
        assert counts() == {"write": 0, "builds": 1}
        assert index.stats.snapshot()["builds"] == 2
        session.database.stats.reset()
        assert boss in asked_nodes(session, "low", "newhire")
        assert session.database.stats.prepared_executions == 0
        assert last_strategy(session) == "interval"


class TestLazyAssertsMergeFirst:
    """``works_for`` equals the closure of ``works_dir_for`` after each
    fact asserted straight into the knowledge base."""

    @staticmethod
    def closure_of_direct(session):
        edges = {(a["X"], a["Y"]) for a in session.ask("works_dir_for(X, Y)")}
        above: dict = {}
        for low, high in edges:
            above.setdefault(low, set()).add(high)
        closure = set()
        for start in above:
            frontier, seen = set(above[start]), set()
            while frontier:
                seen |= frontier
                frontier = {h for f in frontier for h in above.get(f, ())} - seen
            closure |= {(start, node) for node in seen}
        return closure

    @pytest.mark.parametrize(
        "shape, routes",
        [(TINY, {"interval"}), (SMALL, {"interval"}), (BENCH, {"interval"})],
        ids=["tiny", "interval-cte", "bench-org"],
    )
    def test_every_lazy_assert_is_visible(self, shape, routes):
        org = generate_org(**shape)
        session = make_session(org)
        try:
            boss = org.root_manager_name()
            dno = managed_dept(org, boss)
            seen = set()
            for offset, name in enumerate(("zed", "zoe")):
                session.kb.assert_fact("empl", 888001 + offset, name, 20000, dno)
                below = asked_nodes(session, "high", boss)
                seen.add(last_strategy(session))
                chain = asked_nodes(session, "low", name)
                seen.add(last_strategy(session))
                pairs = self.closure_of_direct(session)
                assert name in below
                assert below == sorted(low for low, high in pairs if high == boss)
                assert chain == sorted(high for low, high in pairs if low == name)
            assert seen == routes
        finally:
            session.close()

    def test_a_lazy_assert_reaches_the_next_batch(self, session, org):
        boss = org.root_manager_name()
        goals = [f"works_for(X, {boss})", f"works_for(X, {middle_manager(org)})"]
        session.ask_many(goals)
        session.kb.assert_fact("empl", 888010, "zara", 20000, managed_dept(org, boss))
        assert session.kb.fact_count(("empl", 4)) == 0
        before = session.plans.stats.snapshot()["recursive_batches"]
        batched = session.ask_many(goals)
        assert session.plans.stats.snapshot()["recursive_batches"] == before + 1
        assert "zara" in {a["X"] for a in batched[0]}
        assert batched == [session.ask(goal) for goal in goals]


class TestMaxSolutions:
    """A recursive ask keeps its first ``max_solutions`` answers, as a
    flat ask does, on every path."""

    def test_plain_maintained_and_serial_asks_cap(self):
        tiny = generate_org(**TINY)
        plain = make_session(tiny)
        maintained = make_session(tiny)
        maintained.materialize.view("works_for(X, Y)")
        try:
            goal = "works_for(X, emp00001)"
            everything = {a["X"] for a in plain.ask(goal)}
            assert len(everything) > 2
            for session in (plain, maintained):
                capped = session.ask(goal, max_solutions=2)
                assert len(capped) == 2
                assert {a["X"] for a in capped} <= everything
                serial = session.ask_many([goal] * 2, max_solutions=2)
                assert [len(answers) for answers in serial] == [2, 2]
        finally:
            plain.close()
            maintained.close()

    def test_batched_members_cap(self, session, org):
        goals = [
            f"works_for(X, {org.root_manager_name()})",
            f"works_for(X, {middle_manager(org)})",
            f"works_for({org.leaf_employee_name()}, Y)",
            f"works_for({org.root_manager_name()}, Y)",
        ]
        serial = [session.ask(goal, max_solutions=2) for goal in goals]
        before = session.plans.stats.snapshot()["recursive_batches"]
        batched = session.ask_many(goals * 2, max_solutions=2)
        assert session.plans.stats.snapshot()["recursive_batches"] > before
        assert batched == serial * 2
        assert all(len(answers) <= 2 for answers in batched)


class TestThreadedDifferential:
    READERS = 4
    WRITES = 24

    def test_readers_see_the_cte_answer_of_their_data_state(self, org):
        boss = org.root_manager_name()
        middle = middle_manager(org)
        dno = managed_dept(org, middle)
        hires = [(48000 + i, f"thr{i}", 20000, dno) for i in range(self.WRITES // 2)]
        writes = [row for hire in hires for row in (hire, hire)]  # hire, depart
        probes = [("high", boss), ("high", middle), ("low", org.leaf_employee_name())]
        probes += [("low", hire[1]) for hire in hires[:3]]

        # The reference: the explicit CTE after each prefix of the writes.
        reference = make_session(org)
        expected = []
        try:
            for version in range(len(writes) + 1):
                if version:
                    row = writes[version - 1]
                    if version % 2:
                        reference.assert_fact("empl", *row)
                    else:
                        reference.retract_fact("empl", *row)
                expected.append(
                    {probe: cte_nodes(reference, *probe) for probe in probes}
                )
        finally:
            reference.close()

        session = make_session(org)
        version = [0]
        done = threading.Event()
        mismatches, errors, checked = [], [], [0]

        def writer():
            try:
                for index, row in enumerate(writes):
                    with session.kb.lock.write():
                        if index % 2 == 0:
                            session.assert_fact("empl", *row)
                        else:
                            session.retract_fact("empl", *row)
                        version[0] += 1
                    done.wait(0.003)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                done.set()

        def reader(offset):
            try:
                position = offset
                while not done.is_set():
                    probe = probes[position % len(probes)]
                    position += 1
                    seen = version[0]
                    got = asked_nodes(session, *probe)
                    if version[0] != seen:
                        continue  # a write landed mid-ask: state unknown
                    checked[0] += 1
                    if got != expected[seen][probe]:
                        mismatches.append((seen, probe, got))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        try:
            for probe in probes:  # warm both sides' plans and decisions
                asked_nodes(session, *probe)
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(i,))
                for i in range(self.READERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert mismatches == []
            assert checked[0] >= len(probes)
            assert version[0] == len(writes)
            final = {probe: asked_nodes(session, *probe) for probe in probes}
            assert final == expected[-1]
        finally:
            session.close()
