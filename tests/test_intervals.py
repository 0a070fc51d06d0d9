"""The interval-labeled hierarchy accelerator (E17).

Covers the PR 7 engine end to end:

* the ``interval_probe`` SQL builder;
* the ``IntervalIndex`` labeling — one labeler for every node domain
  (text, integer, slash-bearing names), probes answer-identical to every
  CTE/frontier strategy (self-loop boss included);
* incremental maintenance under churn: local gap absorption for leaf
  hires, tombstones for leaf departures, bulk relabel on gap
  exhaustion — with the counters that prove which path ran;
* demotion on non-tree data (multi-parent, cycles) back to the CTE
  tier, cached per data generation;
* the planner integration: ``RecursionPlan.strategy == "interval"``
  for descendant probes at every size, ``session.stats()["recursion_plans"]``
  observability, and the degradation ladder stepping interval → cte on
  operational probe failures.
"""

import pytest

from repro.coupling import PrologDbSession
from repro.dbms import generate_org
from repro.errors import IntervalUnavailable, TranslationError
from repro.schema import ALL_VIEWS_SOURCE
from repro.sql.translate import interval_probe


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
    """Ask for the root's cone: the planner freshens the labeling."""
    return session.ask(f"works_for(X, {org.root_manager_name()})")


def warm_index(session, org):
    """Ask once so the planner builds the labeling; return the index."""
    warm_descendants(session, org)
    return session.closure_for("works_for").interval_index()


def hire(session, eno, name, dept):
    session.assert_fact("empl", eno, name, 20000, dept)
    session.ask(f"empl({eno}, N, S, D)")  # read the hire back


# -- SQL builders ----------------------------------------------------------------------


class TestProbeBuilders:
    def test_single_seed_probe_shapes(self):
        descend = interval_probe("ivl_x", "high")
        ascend = interval_probe("ivl_x", "low")
        assert descend.count("?") == 2  # seed bound twice (cyc branch)
        assert ascend.count("?") == 2
        assert "s.pre > a.pre" in descend and "s.post < a.post" in descend
        assert "a.pre < s.pre" in ascend and "a.post > s.post" in ascend

    def test_batch_probe_binds_each_seed_once(self):
        text = interval_probe("ivl_x", "high", batch_size=4)
        assert text.lstrip().upper().startswith("WITH")  # pooled-reader routed
        assert text.count("?") == 4
        assert "VALUES (?), (?), (?), (?)" in text

    def test_bad_bound_rejected(self):
        with pytest.raises(TranslationError):
            interval_probe("ivl_x", "sideways")


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
        # works for the boss.  The tree labeling stores that edge as a
        # cyc marker and the probe's UNION branch restores the pair.
        warm_index(session, org)
        boss = org.root_manager_name()
        run = session.solve_recursive("works_for", high=boss, strategy="interval")
        assert (boss, boss) in run.pairs
        assert set(run.pairs) == {
            (l, h) for (l, h) in org.works_for_pairs() if h == boss
        }

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
        labeled = session.database.execute(f"SELECT node FROM {index.table}")
        assert {type(node) for (node,) in labeled} == {int}


# -- churn maintenance -----------------------------------------------------------------


class TestChurn:
    def test_leaf_hire_is_absorbed_locally(self, session, org):
        index = warm_index(session, org)
        hire(session, 41001, "ivlhire1", org.departments[2].dno)
        answers = session.ask("works_for(ivlhire1, Y)")
        assert answers  # new leaf reaches its manager chain
        # Ancestor asks take the CTE; a descendant ask re-plans on the
        # interval probe, which freshens the labeling first.
        assert "ivlhire1" in {a["X"] for a in warm_descendants(session, org)}
        snapshot = index.stats.snapshot()
        assert snapshot["local_absorbs"] == 1
        assert snapshot["builds"] == 1  # no relabel for one hire

    def test_leaf_departure_is_a_tombstone(self, session, org):
        index = warm_index(session, org)
        hire(session, 41002, "ivlhire2", org.departments[2].dno)
        assert "ivlhire2" in {a["X"] for a in warm_descendants(session, org)}
        session.retract_fact("empl", 41002, "ivlhire2", 20000,
                             org.departments[2].dno)
        assert session.ask("works_for(ivlhire2, Y)") == []
        assert "ivlhire2" not in {
            a["X"] for a in warm_descendants(session, org)
        }
        assert index.stats.snapshot()["tombstones"] == 1

    def test_gap_exhaustion_triggers_a_bulk_relabel(self, session, org):
        index = warm_index(session, org)
        dept = org.departments[-1].dno
        for i in range(30):
            hire(session, 42000 + i, f"ivlwave{i}", dept)
            warm_descendants(session, org)
        snapshot = index.stats.snapshot()
        assert snapshot["local_absorbs"] >= 10
        assert snapshot["gap_exhaustions"] >= 1
        assert snapshot["builds"] >= 2  # the exhaustion relabeled
        boss = org.root_manager_name()
        cte = session.solve_recursive("works_for", high=boss, strategy="cte")
        ivl = session.solve_recursive("works_for", high=boss, strategy="interval")
        assert set(cte.pairs) == set(ivl.pairs)

    def test_slash_bearing_names_survive_absorb_and_relabel(self, session, org):
        # Names a path-string encoding would conflate ("a/b" under "a")
        # go through the same labeler: first build, local absorbs, and
        # the bulk relabel a gap exhaustion forces.
        dept = org.departments[-1].dno
        session.database.insert_rows("empl", [(43000, "ivl/seed", 20000, dept)])
        index = warm_index(session, org)
        for i in range(30):
            hire(session, 43001 + i, f"ivl/wave/{i}", dept)
            warm_descendants(session, org)
        snapshot = index.stats.snapshot()
        assert snapshot["gap_exhaustions"] >= 1
        assert snapshot["builds"] >= 2
        boss = org.root_manager_name()
        cte = session.solve_recursive("works_for", high=boss, strategy="cte")
        ivl = session.solve_recursive("works_for", high=boss, strategy="interval")
        assert set(cte.pairs) == set(ivl.pairs)
        assert {"ivl/seed", "ivl/wave/0", "ivl/wave/29"} <= {l for l, _ in ivl.pairs}
        for name in ("ivl/seed", "ivl/wave/29"):
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
        closure.plan(low=None, high=org.root_manager_name())
        closure.plan(low=None, high=org.root_manager_name())
        # The second plan reuses the cached verdict: one demotion, not two.
        assert index.stats.snapshot()["demotions"] == 1
        # Un-churn: removing the shadow rows restores the tree and the
        # planner promotes back to the interval probe.
        session.database.delete_row(
            "empl", (clone.eno + 62000, clone.nam, clone.sal, 97)
        )
        session.database.delete_row("dept", (97, "shadow", org.departments[1].mgr))
        plan = closure.plan(low=None, high=org.root_manager_name())
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
        assert stats["interval"] == 1
        assert stats["cte"] == 1
        assert stats["memory"] == 0
        session.close()

    def test_degraded_ladder_steps_interval_down_to_cte(self, session, org):
        index = warm_index(session, org)
        resilience_before = session.database.resilience.snapshot()[
            "degraded_answers"
        ]
        # Sabotage the probe *after* planning selects interval: the
        # execution failure is operational, so the ladder answers from
        # the CTE rung rather than surfacing the error.
        index.descend_text = "SELECT node FROM no_such_table WHERE pre = ?"
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
