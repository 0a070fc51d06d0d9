"""Tests for the incremental materialized-view subsystem.

Covers the counting delta rules (self-joins, inserts, deletes), the
recursive closure maintenance (semi-naive inserts, DRed deletes), the
session-level write contract (one commit per maintained write), the
knowledge-base change capture (bulk updates, suspended relocations), the
transitive result-cache invalidation, and cache behaviour across
copy-on-write snapshots.
"""

import random
import sys

import pytest

from repro.coupling import PrologDbSession
from repro.coupling.recursion_exec import IncrementalClosure
from repro.dbms import generate_org
from repro.prolog.knowledge_base import KnowledgeBase
from repro.prolog.reader import parse_program
from repro.schema import ALL_VIEWS_SOURCE


def answer_set(answers):
    return {frozenset(a.items()) for a in answers}


def fresh_copy(session) -> PrologDbSession:
    """A brand-new session over a copy of ``session``'s external data."""
    other = PrologDbSession()
    other.database.insert_rows("empl", session.database.fetch_relation("empl"))
    other.database.insert_rows("dept", session.database.fetch_relation("dept"))
    other.consult(ALL_VIEWS_SOURCE)
    return other


@pytest.fixture()
def session():
    s = PrologDbSession()
    s.load_org(generate_org(depth=2, branching=2, staff_per_dept=3, seed=7))
    s.consult(ALL_VIEWS_SOURCE)
    yield s
    s.close()


@pytest.fixture()
def org3():
    return generate_org(depth=3, branching=2, staff_per_dept=3, seed=11)


# -- flat (non-recursive) maintenance ------------------------------------------


@pytest.mark.smoke
class TestFlatMaintenance:
    def test_maintained_answers_equal_cold_answers(self, session):
        cold = session.ask("works_dir_for(X, Y)")
        session.materialize.view("works_dir_for(X, Y)")
        warm = session.ask("works_dir_for(X, Y)")
        assert answer_set(cold) == answer_set(warm)
        assert session.materialize.stats.maintained_asks == 1

    def test_constant_asks_filter_maintained_rows(self, session):
        session.materialize.view("works_dir_for(X, Y)")
        maintained = session.ask("works_dir_for('emp00001', Y)")
        cold = fresh_copy(session).ask("works_dir_for('emp00001', Y)")
        assert maintained and answer_set(maintained) == answer_set(cold)
        # Repeated variables join on the maintained rows.
        assert session.ask("works_dir_for(Z, Z)") == fresh_copy(session).ask(
            "works_dir_for(Z, Z)"
        )

    def test_insert_maintains_instead_of_recomputing(self, session):
        view = session.materialize.view("works_dir_for(X, Y)")
        session.ask("works_dir_for(X, Y)")
        before_refreshes = view.stats.refreshes
        session.assert_fact("empl", 900, "emp00900", 20000, 1)
        maintained = session.ask("works_dir_for(X, Y)")
        assert view.stats.refreshes == before_refreshes  # no recompute
        assert "emp00900" in {a["X"] for a in maintained}
        assert answer_set(maintained) == answer_set(
            fresh_copy(session).ask("works_dir_for(X, Y)")
        )

    def test_delete_maintains_support_counts(self, session):
        session.materialize.view("works_dir_for(X, Y)")
        session.assert_fact("empl", 900, "emp00900", 20000, 1)
        assert session.retract_fact("empl", 900, "emp00900", 20000, 1)
        maintained = session.ask("works_dir_for(X, Y)")
        assert "emp00900" not in {a["X"] for a in maintained}
        assert answer_set(maintained) == answer_set(
            fresh_copy(session).ask("works_dir_for(X, Y)")
        )

    def test_self_join_view_counts_are_exact(self, session):
        """same_manager references works_dir_for's empl row twice."""
        view = session.materialize.view("same_manager(X, Y)")
        baseline = fresh_copy(session).ask("same_manager(X, Y)")
        assert answer_set(session.ask("same_manager(X, Y)")) == answer_set(baseline)
        # Insert a colleague into a populated department, then remove it:
        # counts must return exactly to the baseline support.
        counts_before = dict(view.counts)
        session.assert_fact("empl", 901, "emp00901", 30000, 1)
        assert answer_set(session.ask("same_manager(X, Y)")) == answer_set(
            fresh_copy(session).ask("same_manager(X, Y)")
        )
        session.retract_fact("empl", 901, "emp00901", 30000, 1)
        assert dict(view.counts) == counts_before

    def test_duplicate_assert_is_a_noop_delta(self, session):
        view = session.materialize.view("works_dir_for(X, Y)")
        row = session.database.fetch_relation("empl")[0]
        applied = view.stats.deltas_applied
        session.assert_fact("empl", *row)  # already visible externally
        assert view.stats.deltas_applied == applied

    def test_registration_rejects_constants(self, session):
        with pytest.raises(Exception):
            session.materialize.view("works_dir_for(X, 'emp00001')")

    def test_max_solutions_respected(self, session):
        session.materialize.view("works_dir_for(X, Y)")
        assert len(session.ask("works_dir_for(X, Y)", max_solutions=2)) == 2


# -- recursive maintenance -----------------------------------------------------


class TestRecursiveMaintenance:
    def test_maintained_closure_matches_batch_executor(self, org3):
        session = PrologDbSession()
        session.load_org(org3)
        session.consult(ALL_VIEWS_SOURCE)
        leaf = org3.leaf_employee_name()
        batch = session.ask(f"works_for('{leaf}', Y)")
        session.materialize.view("works_for(X, Y)")
        maintained = session.ask(f"works_for('{leaf}', Y)")
        assert answer_set(batch) == answer_set(maintained)
        session.close()

    def test_insert_propagates_semi_naively(self, org3):
        session = PrologDbSession()
        session.load_org(org3)
        session.consult(ALL_VIEWS_SOURCE)
        view = session.materialize.view("works_for(X, Y)")
        # A new hire in a deep department gains the whole management chain.
        deep_dept = max(org3.dept_depth, key=org3.dept_depth.get)
        session.assert_fact("empl", 902, "emp00902", 25000, deep_dept)
        maintained = session.ask("works_for('emp00902', Y)")
        fresh = fresh_copy(session)
        expected = fresh.ask("works_for('emp00902', Y)")
        assert answer_set(maintained) == answer_set(expected)
        assert len(maintained) == org3.dept_depth[deep_dept] + 1
        assert view.stats.refreshes == 0
        session.close()

    def test_retract_runs_dred_delete_rederive(self, org3):
        session = PrologDbSession()
        session.load_org(org3)
        session.consult(ALL_VIEWS_SOURCE)
        view = session.materialize.view("works_for(X, Y)")
        leaf = org3.leaf_employee_name()
        manager = org3.manager_name_of(org3.employee_by_name(leaf))
        employee = org3.employee_by_name(manager)
        assert session.retract_fact(
            "empl", employee.eno, employee.nam, employee.sal, employee.dno
        )
        maintained = session.ask(f"works_for('{leaf}', Y)")
        expected = fresh_copy(session).ask(f"works_for('{leaf}', Y)")
        assert answer_set(maintained) == answer_set(expected)
        assert view.stats.refreshes == 0  # delta path, not recompute
        session.close()

    def test_open_ask_served_from_closure(self, org3):
        session = PrologDbSession()
        session.load_org(org3)
        session.consult(ALL_VIEWS_SOURCE)
        view = session.materialize.view("works_for(X, Y)")
        answers = session.ask("works_for(X, Y)")
        assert len(answers) == len(view.closure)
        assert {(a["X"], a["Y"]) for a in answers} == view.closure.pairs
        session.close()

    def test_every_goal_pattern_equals_the_cte_under_churn(self, org3):
        """Bound sides read the closure's adjacency, the open goal walks
        the pairs: each pattern must render what the CTE strategy finds."""
        session = PrologDbSession()
        session.load_org(org3)
        session.consult(ALL_VIEWS_SOURCE)
        view = session.materialize.view("works_for(X, Y)")
        leaf = org3.leaf_employee_name()
        middle = org3.employee_by_name(
            org3.manager_name_of(org3.employee_by_name(leaf))
        )
        boss = org3.root_manager_name()
        deep_dept = max(org3.dept_depth, key=org3.dept_depth.get)

        def check():
            names = sorted(row[1] for row in session.database.fetch_relation("empl"))
            pairs = sorted(
                pair
                for name in names
                for pair in session.solve_recursive(
                    "works_for", high=name, strategy="cte"
                ).pairs
            )
            expected = {
                "works_for(X, Y)": [{"X": l, "Y": h} for l, h in pairs],
                "works_for(X, X)": [{"X": l} for l, h in pairs if l == h],
                "works_for(_, _)": [{}] if pairs else [],
            }
            for name in (leaf, middle.nam, boss, "emp00902", "nobody"):
                above = [h for l, h in pairs if l == name]
                below = [l for l, h in pairs if h == name]
                expected[f"works_for('{name}', Y)"] = [{"Y": h} for h in above]
                expected[f"works_for(X, '{name}')"] = [{"X": l} for l in below]
                expected[f"works_for('{name}', _)"] = [{}] if above else []
                expected[f"works_for(_, '{name}')"] = [{}] if below else []
                for other in (boss, leaf):
                    expected[f"works_for('{name}', '{other}')"] = (
                        [{}] if (name, other) in pairs else []
                    )
            asked = view.stats.maintained_asks
            for goal, answers in expected.items():
                assert session.ask(goal) == answers, goal  # order included
            assert view.stats.maintained_asks == asked + len(expected)

        check()
        session.assert_fact("empl", 902, "emp00902", 25000, deep_dept)
        check()
        assert session.retract_fact(
            "empl", middle.eno, middle.nam, middle.sal, middle.dno
        )
        check()
        assert session.retract_fact("empl", 902, "emp00902", 25000, deep_dept)
        check()
        assert view.stats.refreshes == 0  # maintained throughout, never rebuilt
        session.close()

    def test_bound_asks_never_materialize_the_pairs(self, org3, monkeypatch):
        session = PrologDbSession()
        session.load_org(org3)
        session.consult(ALL_VIEWS_SOURCE)
        view = session.materialize.view("works_for(X, Y)")
        leaf = org3.leaf_employee_name()
        boss = org3.root_manager_name()
        pairs = org3.works_for_pairs()

        def no_pairs(closure):
            raise AssertionError("a bound ask materialized the pair set")

        monkeypatch.setattr(IncrementalClosure, "pairs", property(no_pairs))
        above = sorted(h for l, h in pairs if l == leaf)
        expected = {
            f"works_for('{leaf}', Y)": [{"Y": h} for h in above],
            f"works_for(X, '{boss}')": [
                {"X": l} for l in sorted(l for l, h in pairs if h == boss)
            ],
            f"works_for('{leaf}', '{boss}')": [{}] if (leaf, boss) in pairs else [],
            f"works_for('{leaf}', _)": [{}] if above else [],
        }
        asked = view.stats.maintained_asks
        for goal, answers in expected.items():
            assert session.ask(goal) == answers, goal
        assert view.stats.maintained_asks == asked + len(expected)
        with pytest.raises(AssertionError):
            view.answers(view.goal)  # only the open pattern walks the pairs
        session.close()

    def test_view_rows_share_one_object_per_value(self, org3):
        session = PrologDbSession()
        session.load_org(org3)
        session.consult(ALL_VIEWS_SOURCE)
        views = [
            session.materialize.view(goal)
            for goal in ("works_dir_for(X, Y)", "same_manager(X, Y)", "works_for(X, Y)")
        ]
        middle = org3.employee_by_name(
            org3.manager_name_of(org3.employee_by_name(org3.leaf_employee_name()))
        )
        deep_dept = max(org3.dept_depth, key=org3.dept_depth.get)
        session.assert_fact("empl", 902, "emp00902", 25000, deep_dept)
        assert session.retract_fact(
            "empl", middle.eno, middle.nam, middle.sal, middle.dno
        )
        session.assert_fact("empl", middle.eno, middle.nam, middle.sal, middle.dno)
        for view in views:
            flat = view.edge_view if view.recursive else view
            cells = [c for row in flat.counts for c in row if type(c) is str]
            assert cells and all(c is sys.intern(c) for c in cells), view.name
            assert len({id(c) for c in cells}) == len(set(cells)), view.name
        assert views[0].stats.refreshes == 1  # churn went through deltas
        session.close()


class TestIncrementalClosure:
    def test_chain_insert_and_delete(self):
        closure = IncrementalClosure([("a", "b"), ("b", "c")])
        assert closure.pairs == {("a", "b"), ("b", "c"), ("a", "c")}
        added = closure.insert_edge("c", "d")
        assert added == {("c", "d"), ("b", "d"), ("a", "d")}
        removed = closure.delete_edge("b", "c")
        assert removed == {("b", "c"), ("a", "c"), ("b", "d"), ("a", "d")}
        assert closure.pairs == {("a", "b"), ("c", "d")}

    def test_rederivation_through_parallel_path(self):
        closure = IncrementalClosure([("a", "b"), ("b", "c"), ("a", "c")])
        assert closure.delete_edge("a", "c") == set()
        assert ("a", "c") in closure.pairs

    def test_cycles(self):
        closure = IncrementalClosure([("a", "b"), ("b", "a")])
        assert ("a", "a") in closure.pairs and ("b", "b") in closure.pairs
        closure.delete_edge("b", "a")
        assert closure.pairs == {("a", "b")}

    def test_shared_suffix_rederivation(self):
        closure = IncrementalClosure(
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "x"), ("x", "c")]
        )
        removed = closure.delete_edge("b", "c")
        # a still reaches c and d through x; only b's pairs die.
        assert removed == {("b", "c"), ("b", "d")}
        assert ("a", "c") in closure.pairs and ("a", "d") in closure.pairs

    @staticmethod
    def assert_one_exact_copy(closure):
        """The adjacency is the whole state, inverse-consistent and equal
        to a BFS closure of the edges."""
        assert set(vars(closure)) == {"_successors", "_reach", "_reached_by"}
        inverse: dict = {}
        for x, reach in closure._reach.items():
            for y in reach:
                inverse.setdefault(y, set()).add(x)
        assert inverse == closure._reached_by
        expected: dict = {}
        for start, successors in closure._successors.items():
            assert successors  # no empty buckets left behind
            seen: set = set()
            frontier = list(successors)
            while frontier:
                node = frontier.pop()
                if node not in seen:
                    seen.add(node)
                    frontier.extend(closure._successors.get(node, ()))
            expected[start] = seen
        assert closure._reach == expected
        assert len(closure) == len(closure.pairs)

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_random_churn_keeps_one_exact_adjacency(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(8)]
        closure = IncrementalClosure()
        for _ in range(300):
            low, high = rng.choice(nodes), rng.choice(nodes)  # cycles too
            before = closure.pairs
            if rng.random() < 0.6:
                assert closure.insert_edge(low, high) == closure.pairs - before
            else:
                assert closure.delete_edge(low, high) == before - closure.pairs
            self.assert_one_exact_copy(closure)
            assert all(
                closure.above(x) == {y for l, y in closure.pairs if l == x}
                and closure.below(x) == {l for l, y in closure.pairs if y == x}
                for x in nodes
            )


# -- session-level write contract -----------------------------------------------


class TestWriteContract:
    def test_one_commit_per_write_over_three_views(self, session):
        """Support counts live in memory only: a maintained write is the
        base row's one commit, however many views it feeds."""
        for goal in ("works_dir_for(X, Y)", "same_manager(X, Y)", "works_for(X, Y)"):
            session.materialize.view(goal)

        def commits():
            return session.stats()["database"]["commits"]

        before = commits()
        session.assert_fact("empl", 903, "emp00903", 21000, 1)
        assert commits() == before + 1
        assert session.retract_fact("empl", 903, "emp00903", 21000, 1)
        assert commits() == before + 2
        assert session.materialize.stats.deltas_applied == 6  # 2 writes x 3 views
        assert session.materialize.stats.refreshes == 0


# -- change capture at the knowledge base --------------------------------------


@pytest.mark.smoke
class TestChangeCapture:
    def test_bulk_update_coalesces_generation(self):
        kb = KnowledgeBase()
        with kb.bulk_update():
            for clause in parse_program("f(1). f(2). f(3)."):
                kb.assertz(clause)
            inside = kb.generation
        assert inside == 0  # not yet advanced inside the batch
        first = kb.generation
        assert first != 0
        with kb.bulk_update():
            pass
        assert kb.generation == first  # empty batch: no bump

    def test_consult_is_one_generation_bump(self):
        kb = KnowledgeBase()
        kb.consult("g(1). g(2). g(3). g(4).")
        first = kb.generation
        kb.consult("h(1). h(2).")
        second = kb.generation
        assert first != 0 and second != first
        # two consults -> exactly two distinct generations observed

    def test_snapshot_branches_get_distinct_generations(self):
        kb = KnowledgeBase()
        kb.consult("f(1).")
        snap = kb.snapshot()
        assert snap.generation == kb.generation
        kb.consult("f(2).")
        snap.consult("f(3).")
        # Pre-fix both branches would reach the same counter value while
        # holding different content; stamps are now globally unique.
        assert kb.generation != snap.generation

    def test_stale_view_recomputes_on_the_next_ask(self, session, org3):
        """A wholesale load cannot be patched: the view goes stale and the
        next ask — not the load — pays one recompute."""
        view = session.materialize.view("works_dir_for(X, Y)")
        session.ask("works_dir_for(X, Y)")
        session.load_org(org3)
        assert view.stale
        assert view.stats.refreshes == 1  # registration only, so far
        answers = session.ask("works_dir_for(X, Y)")
        assert not view.stale
        assert view.stats.refreshes == 2
        expected = fresh_copy(session).ask("works_dir_for(X, Y)")
        assert answer_set(answers) == answer_set(expected)
        session.assert_fact("empl", 904, "emp00904", 22000, 1)
        assert view.stats.refreshes == 2  # fresh again: maintained by delta
        assert "emp00904" in {a["X"] for a in session.ask("works_dir_for(X, Y)")}


# -- result-cache freshness across views and write routes ----------------------


class TestTransitiveResultCache:
    def test_consulted_base_facts_invalidate_cached_view_results(self, session):
        before = session.ask("works_dir_for(X, Y)")
        assert session.cache.stats.stored >= 1
        # New empl facts arrive as *consulted program clauses* — no
        # session.assert_fact involved.  Pre-fix, consult never touched
        # the result cache and the next ask returned the stale rows.
        session.consult("empl(906, emp00906, 24000, 1).")
        after = session.ask("works_dir_for(X, Y)")
        assert "emp00906" in {a["X"] for a in after}
        assert answer_set(after) != answer_set(before)

    def test_view_over_view_invalidates_on_indirect_change(self, session):
        goal = "same_manager(X, 'emp00002')"
        before = session.ask(goal)
        assert len(session.cache) >= 1
        # same_manager's compiled tableau only mentions empl/dept; a new
        # definition of the intermediate works_dir_for view must still
        # reach its answers.
        restricted = (
            "works_dir_for(X, Y) :- "
            "empl(_, X, S, D), dept(D, _, M), empl(M, Y, _, _), less(S, 45000)."
        )
        session.kb.retract_all(("works_dir_for", 2))
        session.consult(restricted)
        after = session.ask(goal)
        expected = fresh_copy(session)
        expected.kb.retract_all(("works_dir_for", 2))
        expected.consult(restricted)
        assert answer_set(after) == answer_set(expected.ask(goal))
        assert answer_set(after) != answer_set(before)

    def test_engine_level_assert_invalidates_results(self, session):
        session.ask("works_dir_for(X, Y)")
        assert len(session.cache) >= 1
        # A Prolog program asserting a base-relation fact (engine builtin,
        # not session.assert_fact) must invalidate dependent results too.
        list(session.engine.solve("assertz(empl(907, emp00907, 25000, 1))"))
        answers = session.ask("works_dir_for(X, Y)")
        assert "emp00907" in {a["X"] for a in answers}


# -- caches across copy-on-write snapshots (satellite) -------------------------


class TestSnapshotCacheInteraction:
    def test_plan_cache_survives_snapshot_with_identical_content(self, session):
        session.ask("works_dir_for(X, 'emp00002')")
        session.ask("works_dir_for(X, 'emp00003')")
        snap = session.kb.snapshot()
        entry_count = len(session.plans)
        session.plans.sync(snap)  # same generation == same content
        assert len(session.plans) == entry_count

    def test_plan_cache_drops_for_mutated_snapshot(self, session):
        session.ask("works_dir_for(X, 'emp00002')")
        session.ask("works_dir_for(X, 'emp00003')")
        snap = session.kb.snapshot()
        snap.consult("extra(1).")
        assert len(session.plans) > 0
        session.plans.sync(snap)
        assert len(session.plans) == 0

    def test_divergent_branches_cannot_alias_plans(self, session):
        """The PR 1 snapshot + PR 2 plan cache interaction.

        Mutating both the original and the snapshot must leave them on
        different generations, so a plan compiled against one branch can
        never be replayed against the other.  With the old per-instance
        ``generation += 1`` counter both branches landed on the same
        number and the stale plans would have been replayed.
        """
        snap = session.kb.snapshot()
        session.kb.consult("branch_a(1).")
        snap.consult("branch_b(1).")
        assert session.kb.generation != snap.generation
        # Compile plans against branch A...
        session.ask("works_dir_for(X, 'emp00002')")
        session.ask("works_dir_for(X, 'emp00003')")
        session.plans.sync(session.kb)
        assert len(session.plans) > 0
        # ...then hand the cache branch B: everything must drop.
        session.plans.sync(snap)
        assert len(session.plans) == 0

    def test_result_cache_correct_after_snapshot_restore_asks(self, session):
        """Asks answered against a restored snapshot see current data."""
        session.ask("works_dir_for(X, Y)")
        snapshot = session.kb.snapshot()
        session.assert_fact("empl", 908, "emp00908", 26000, 1)
        with_new = session.ask("works_dir_for(X, Y)")
        assert "emp00908" in {a["X"] for a in with_new}
        # The write went to the store, not the knowledge base, so the
        # snapshot (copy-on-write isolation) holds no base tuple either.
        assert snapshot.fact_count(("empl", 4)) == 0


# -- unified session stats (satellite) -----------------------------------------


@pytest.mark.smoke
class TestSessionStats:
    def test_stats_snapshot_shape(self, session):
        session.materialize.view("works_dir_for(X, Y)")
        session.ask("works_dir_for(X, 'emp00002')")
        session.assert_fact("empl", 909, "emp00909", 27000, 1)
        session.ask("works_dir_for(X, Y)")
        stats = session.stats()
        assert set(stats) == {
            "kb",
            "plan_cache",
            "result_cache",
            "database",
            "compile_phases",
            "recursion_plans",
            "materialize",
            "resilience",
            "observe",
            "cqa",
        }
        # Maintained views answered every ask here: no cold compiles.
        assert stats["compile_phases"]["cold_compilations"] == 0
        assert stats["kb"]["generation"] == session.kb.generation
        assert stats["materialize"]["views"] == 1
        assert stats["materialize"]["deltas_applied"] >= 1
        assert stats["materialize"]["maintained_asks"] >= 1
        assert stats["database"]["prepared_executions"] > 0
        assert stats["materialize"]["per_view"]["works_dir_for"][
            "delta_executions"
        ] >= 1

    def test_retract_fact_of_missing_row_returns_false(self, session):
        """A never-existed tuple is a no-op even on a maintained relation."""
        session.materialize.view("works_dir_for(X, Y)")
        assert not session.retract_fact("empl", 999, "nobody", 20000, 1)

    def test_reregistration_replaces_the_old_view(self, session):
        first = session.materialize.view("works_dir_for(X, Y)")
        second = session.materialize.view("works_dir_for(X, Y)")
        assert session.materialize.views() == [second]
        session.assert_fact("empl", 910, "emp00910", 28000, 1)
        # Only the live registration is maintained — no double application.
        assert first.stats.deltas_applied == 0
        assert second.stats.deltas_applied == 1

    def test_retract_fact_without_maintenance(self, session):
        row = session.database.fetch_relation("empl")[-1]
        assert session.retract_fact("empl", *row)
        assert row not in session.database.fetch_relation("empl")
        assert not session.retract_fact("empl", *row)  # already gone
