"""The in-memory interval labels (E17).

Covers the accelerator end to end:

* the tour — one depth-first visit order per data generation; the cone
  below a seed is a slice of it, the chain above the parent walk, and
  neither side (nor an ``ask_many`` batch) runs a statement;
* one labeler for every node domain (text, integer, slash-bearing
  names), answers identical to every CTE/frontier strategy (self-loop
  boss included);
* churn — each write moves the edge relations' data generations, and
  the next ask rebuilds the tour from one edge fetch, with no commit;
* demotion on non-tree data (multi-parent, cycles) back to the CTE
  tier, cached per data generation;
* the planner integration: ``RecursionPlan.strategy == "interval"``
  for both bound sides at every size, ``session.stats()["recursion_plans"]``
  observability, and the degradation ladder stepping interval → cte on
  operational probe failures.
"""

import pytest

from repro.coupling import PrologDbSession
from repro.dbms import generate_org
from repro.errors import IntervalUnavailable
from repro.schema import ALL_VIEWS_SOURCE


@pytest.fixture(scope="module")
def org():
    return generate_org(depth=4, branching=2, staff_per_dept=4, seed=7)


@pytest.fixture()
def session(org):
    session = PrologDbSession()
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    yield session
    session.close()


def warm_descendants(session, org):
    """Ask for the root's cone: the planner freshens the labels."""
    return session.ask(f"works_for(X, {org.root_manager_name()})")


def warm_index(session, org):
    """Ask once so the planner builds the tour; return the index."""
    warm_descendants(session, org)
    return session.closure_for("works_for").interval_index()


def hire(session, eno, name, dept):
    session.assert_fact("empl", eno, name, 20000, dept)
    session.ask(f"empl({eno}, N, S, D)")  # read the hire back


def cte_nodes(session, bound, seed):
    run = session.solve_recursive("works_for", strategy="cte", **{bound: seed})
    return run.nodes(bound)


# -- the tour --------------------------------------------------------------------------


class TestTour:
    def test_each_cone_is_one_slice_of_the_tour(self, session, org):
        index = warm_index(session, org)
        tour = index.current()
        assert sorted(tour.order, key=str) == sorted(tour.first, key=str)
        for node, at in tour.first.items():
            assert tour.order[at] == node
            below = set(tour.order[at + 1:tour.last[at]])
            assert below | ({node} & tour.selfloops) == set(
                cte_nodes(session, "high", node)
            ), node

    def test_probes_and_batches_run_no_statement(self, session, org):
        warm_index(session, org)
        boss, leaf = org.root_manager_name(), org.leaf_employee_name()
        goals = [f"works_for(X, {boss})", f"works_for({leaf}, Y)"]
        serial = [session.ask(goal) for goal in goals]
        session.database.stats.reset()
        assert [session.ask(goal) for goal in goals] == serial
        before = session.plans.stats.snapshot()["recursive_batches"]
        assert session.ask_many(goals * 2) == serial * 2
        # one group per shape, each answered from the tour
        assert session.plans.stats.snapshot()["recursive_batches"] == before + 2
        stats = session.database.stats
        assert (stats.prepared_executions, stats.commits, stats.sql_prints) == (0, 0, 0)


# -- equivalence -----------------------------------------------------------------------


class TestProbeEquivalence:
    def test_descend_matches_cte_for_every_seed(self, session, org):
        warm_index(session, org)
        managers = sorted({d.mgr for d in org.departments})
        by_eno = {e.eno: e for e in org.employees}
        for mgr in managers:
            if mgr not in by_eno:
                continue
            name = by_eno[mgr].nam
            cte = session.solve_recursive("works_for", high=name, strategy="cte")
            ivl = session.solve_recursive("works_for", high=name, strategy="interval")
            assert set(cte.pairs) == set(ivl.pairs), name

    def test_ascend_matches_cte_for_sample_seeds(self, session, org):
        warm_index(session, org)
        names = sorted(e.nam for e in org.employees)[::7]
        for name in names:
            cte = session.solve_recursive("works_for", low=name, strategy="cte")
            ivl = session.solve_recursive("works_for", low=name, strategy="interval")
            assert set(cte.pairs) == set(ivl.pairs), name

    def test_cyclic_boss_probe_includes_the_reflexive_pair(self, session, org):
        # The default org's root department manages itself: the boss
        # works for the boss.  The tour keeps that edge as a self-loop
        # and folds the seed back into its own answer, on both sides.
        warm_index(session, org)
        boss = org.root_manager_name()
        run = session.solve_recursive("works_for", high=boss, strategy="interval")
        assert (boss, boss) in run.pairs
        assert set(run.pairs) == {
            (l, h) for (l, h) in org.works_for_pairs() if h == boss
        }
        run = session.solve_recursive("works_for", low=boss, strategy="interval")
        assert set(run.pairs) == {(boss, boss)}

    def test_integer_nodes_label_and_probe_like_the_cte(self, session, org):
        # Employee numbers as nodes: eno -> the eno managing its department.
        session.consult(
            """
            reports_dir(E, M) :- empl(E, _, _, D), dept(D, _, M).
            reports(E, M) :- reports_dir(E, M).
            reports(E, M) :- reports_dir(E, X), reports(X, M).
            """
        )
        managers = sorted({d.mgr for d in org.departments})
        for mgr in managers:
            cte = session.solve_recursive("reports", high=mgr, strategy="cte")
            ivl = session.solve_recursive("reports", high=mgr, strategy="interval")
            assert cte.pairs and set(cte.pairs) == set(ivl.pairs), mgr
        for eno in sorted(e.eno for e in org.employees)[::7]:
            cte = session.solve_recursive("reports", low=eno, strategy="cte")
            ivl = session.solve_recursive("reports", low=eno, strategy="interval")
            assert set(cte.pairs) == set(ivl.pairs), eno
        index = session.closure_for("reports").interval_index()
        assert index.stats.snapshot()["builds"] == 1
        assert {type(node) for node in index.current().order} == {int}


# -- churn maintenance -----------------------------------------------------------------


class TestChurn:
    def test_a_leaf_hire_rebuilds_the_tour_without_a_commit(self, session, org):
        index = warm_index(session, org)
        hire(session, 41001, "ivlhire1", org.departments[2].dno)
        session.database.stats.reset()
        assert session.ask("works_for(ivlhire1, Y)")  # new leaf, its chain
        assert "ivlhire1" in {a["X"] for a in warm_descendants(session, org)}
        assert session.database.stats.commits == 0
        assert index.stats.snapshot()["builds"] == 2  # one per data generation
        assert session.stats()["recursion_plans"]["last_strategy"] == "interval"

    def test_a_leaf_departure_leaves_the_tour(self, session, org):
        index = warm_index(session, org)
        hire(session, 41002, "ivlhire2", org.departments[2].dno)
        assert "ivlhire2" in {a["X"] for a in warm_descendants(session, org)}
        session.retract_fact("empl", 41002, "ivlhire2", 20000,
                             org.departments[2].dno)
        assert session.ask("works_for(ivlhire2, Y)") == []
        assert "ivlhire2" not in {
            a["X"] for a in warm_descendants(session, org)
        }
        assert "ivlhire2" not in index.current().first

    def test_a_wave_of_hires_needs_one_build_per_ask(self, session, org):
        # No gaps to run dry: thirty hires into one department, each
        # followed by a descendant ask, cost one rebuild each and no
        # commit at all.
        index = warm_index(session, org)
        dept = org.departments[-1].dno
        commits = 0
        for i in range(30):
            hire(session, 42000 + i, f"ivlwave{i}", dept)
            before = session.database.stats.commits
            warm_descendants(session, org)
            commits += session.database.stats.commits - before
        assert commits == 0
        assert index.stats.snapshot()["builds"] == 31
        boss = org.root_manager_name()
        cte = session.solve_recursive("works_for", high=boss, strategy="cte")
        ivl = session.solve_recursive("works_for", high=boss, strategy="interval")
        assert set(cte.pairs) == set(ivl.pairs)

    def test_slash_bearing_names_survive_rebuilds(self, session, org):
        # Names a path-string encoding would conflate ("a/b" under "a")
        # go through the same labeler, first build and every rebuild.
        dept = org.departments[-1].dno
        session.database.insert_rows("empl", [(43000, "ivl/seed", 20000, dept)])
        warm_index(session, org)
        for i in range(5):
            hire(session, 43001 + i, f"ivl/wave/{i}", dept)
            warm_descendants(session, org)
        boss = org.root_manager_name()
        cte = session.solve_recursive("works_for", high=boss, strategy="cte")
        ivl = session.solve_recursive("works_for", high=boss, strategy="interval")
        assert set(cte.pairs) == set(ivl.pairs)
        assert {"ivl/seed", "ivl/wave/0", "ivl/wave/4"} <= {l for l, _ in ivl.pairs}
        for name in ("ivl/seed", "ivl/wave/4"):
            cte = session.solve_recursive("works_for", low=name, strategy="cte")
            ivl = session.solve_recursive("works_for", low=name, strategy="interval")
            assert cte.pairs and set(cte.pairs) == set(ivl.pairs), name


# -- demotion --------------------------------------------------------------------------


class TestDemotion:
    def test_multi_parent_demotes_to_cte(self, session, org):
        warm_index(session, org)
        # A second department managed by a different chain whose staff
        # includes an existing employee name: works_dir_for now gives
        # that employee two managers — no longer a tree.
        victim = next(
            e for e in org.employees if e.dno == org.departments[3].dno
        )
        session.database.insert_rows("dept", [(99, "shadow", org.departments[1].mgr)])
        session.database.insert_rows(
            "empl", [(victim.eno + 60000, victim.nam, victim.sal, 99)]
        )
        boss = org.root_manager_name()
        answers = session.ask(f"works_for(X, {boss})")
        stats = session.stats()["recursion_plans"]
        assert stats["last_strategy"] == "cte"
        assert "interval unavailable" in stats["last_reason"]
        cte = session.solve_recursive("works_for", high=boss, strategy="cte")
        assert {(low, boss) for low, _ in cte.pairs} == {
            (a["X"], boss) for a in answers
        }

    def test_explicit_interval_raises_cleanly(self, session, org):
        warm_index(session, org)
        session.database.insert_rows("dept", [(98, "shadow", org.departments[1].mgr)])
        clone = next(
            e for e in org.employees if e.dno == org.departments[3].dno
        )
        session.database.insert_rows(
            "empl", [(clone.eno + 61000, clone.nam, clone.sal, 98)]
        )
        with pytest.raises(IntervalUnavailable, match="multiple parents"):
            session.solve_recursive(
                "works_for", high=org.root_manager_name(), strategy="interval"
            )

    def test_demotion_is_cached_per_generation(self, session, org):
        index = warm_index(session, org)
        session.database.insert_rows("dept", [(97, "shadow", org.departments[1].mgr)])
        clone = next(
            e for e in org.employees if e.dno == org.departments[3].dno
        )
        session.database.insert_rows(
            "empl", [(clone.eno + 62000, clone.nam, clone.sal, 97)]
        )
        closure = session.closure_for("works_for")
        closure.plan()
        closure.plan()
        # The second plan reuses the cached verdict: one demotion, not two.
        assert index.stats.snapshot()["demotions"] == 1
        # Un-churn: removing the shadow rows restores the tree and the
        # planner promotes back to the interval labels.
        session.database.delete_row(
            "empl", (clone.eno + 62000, clone.nam, clone.sal, 97)
        )
        session.database.delete_row("dept", (97, "shadow", org.departments[1].mgr))
        plan = closure.plan()
        assert plan.strategy == "interval"


# -- planner and session observability -------------------------------------------------


class TestPlannerIntegration:
    def test_recursion_plan_stats_count_strategies(self, session, org):
        boss = org.root_manager_name()
        session.ask(f"works_for(X, {boss})")
        session.ask(f"works_for(X, {org.manager_name_of(org.employees[-1])})")
        stats = session.stats()["recursion_plans"]
        assert stats["planned_asks"] == 2
        assert stats["interval"] == 2
        assert stats["cte"] == 0
        assert stats["last_strategy"] == "interval"
        assert "labeled forest" in stats["last_reason"]

    def test_tiny_hierarchies_count_probe_strategies(self):
        tiny = generate_org(depth=2, branching=1, staff_per_dept=2, seed=3)
        session = PrologDbSession()
        session.load_org(tiny)
        session.consult(ALL_VIEWS_SOURCE)
        session.ask(f"works_for(X, {tiny.root_manager_name()})")
        session.ask(f"works_for({tiny.leaf_employee_name()}, Y)")
        stats = session.stats()["recursion_plans"]
        assert stats["planned_asks"] == 2
        assert stats["interval"] == 2
        assert stats["cte"] == 0
        assert stats["memory"] == 0
        session.close()

    def test_degraded_ladder_steps_interval_down_to_cte(
        self, session, org, monkeypatch
    ):
        index = warm_index(session, org)
        resilience_before = session.database.resilience.snapshot()[
            "degraded_answers"
        ]
        # Sabotage the probe *after* planning selects interval: the
        # execution failure is operational, so the ladder answers from
        # the CTE rung rather than surfacing the error.
        def broken(bound, seed):
            raise RuntimeError("labels unreadable")

        monkeypatch.setattr(index, "nodes", broken)
        boss = org.root_manager_name()
        answers = session.ask(f"works_for(X, {boss})")
        assert {a["X"] for a in answers} == {
            low for (low, high) in org.works_for_pairs() if high == boss
        }
        after = session.database.resilience.snapshot()["degraded_answers"]
        assert after == resilience_before + 1
        assert session.stats()["recursion_plans"]["last_strategy"] == "interval"

    def test_batched_recursive_asks_flow_through_the_probe(self, session, org):
        warm_index(session, org)
        names = sorted(e.nam for e in org.employees)[:6]
        goals = [f"works_for({name}, Y)" for name in names]
        batch = session.ask_many(goals)
        serial = [session.ask(goal) for goal in goals]
        for got, want in zip(batch, serial):
            assert sorted(str(a["Y"]) for a in got) == sorted(
                str(a["Y"]) for a in want
            )
