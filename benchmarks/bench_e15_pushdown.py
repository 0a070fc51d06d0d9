"""E15 — backend pushdown: recursive CTEs + per-side read planning.

Claims gated by :func:`run` (recorded in ``BENCH_pushdown.json`` by
``benchmarks/run_all.py``):

* on the E7-shaped 300-chain closure workload the single prepared
  ``WITH RECURSIVE`` statement answers **>= 3x** faster than the prepared
  setrel frontier loop (which issues one round-trip + one commit per
  level — ~300 of each on this chain);
* the CTE path issues **zero** commits: the fixpoint is one SELECT-shaped
  statement on a pooled read connection, no intermediate-relation swaps;
* a randomized differential over bound-low and bound-high probes, with
  employee churn between rounds, is **identical** across the CTE
  pushdown, both frontier directions, and the maintained
  ``IncrementalClosure`` (PR 3's path, untouched);
* ``ask_many`` batches warm recursive shapes (no serial fallback) —
  from the interval labels on tree-shaped data, through the
  batch-seeded CTE otherwise — with answers identical to serial
  ``ask()``;
* the planner picks the pushdown tier (CTE — or, on tree-shaped data,
  the interval labels) on this workload and records why.
"""

import random
import time

from repro.coupling import PrologDbSession
from repro.dbms import generate_org
from repro.schema import ALL_VIEWS_SOURCE

#: (chain depth, staff per dept, timing iterations, max levels, min speedup)
FULL_SIZES = (300, 2, 3, 400, 3.0)
QUICK_SIZES = (120, 2, 2, 200, 2.0)

#: (org depth, branching, staff, probes, churn rounds)
FULL_DIFF = (4, 3, 5, 24, 3)
QUICK_DIFF = (3, 2, 4, 10, 2)

#: (org depth, branching, staff, goals in the batch)
FULL_BATCH = (4, 3, 5, 24)
QUICK_BATCH = (3, 2, 4, 8)


def make_chain_org(depth: int, staff: int):
    """A single chain of ``depth`` departments: recursion depth == depth."""
    return generate_org(
        depth=depth, branching=1, staff_per_dept=staff, seed=5
    )


def make_session(org) -> PrologDbSession:
    session = PrologDbSession()
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    return session


def answer_set(answers) -> set:
    return {frozenset(a.items()) for a in answers}


def bench_chain_closure(org, iterations: int, max_levels: int) -> dict:
    """CTE pushdown vs the prepared frontier loop on the deep chain."""
    session = make_session(org)
    leaf = org.leaf_employee_name()
    closure = session.closure_for("works_for")
    # Preparation (metaevaluate + print) happens before timing on both
    # sides: the comparison is pure execution mechanics.
    closure.step_queries()
    closure.cte_queries()
    plan = closure.plan()

    started = time.perf_counter()
    for _ in range(iterations):
        frontier = session.solve_recursive(
            "works_for", low=leaf, strategy="bottomup", max_levels=max_levels
        )
    frontier_seconds = time.perf_counter() - started

    session.database.stats.reset()
    started = time.perf_counter()
    for _ in range(iterations):
        cte = session.solve_recursive(
            "works_for", low=leaf, strategy="cte", max_levels=max_levels
        )
    cte_seconds = time.perf_counter() - started
    db_stats = session.database.stats.snapshot()

    assert cte.pairs == frontier.pairs
    record = {
        "chain_depth": org.max_depth,
        "employees": org.employee_count,
        "iterations": iterations,
        "answers": len(cte.pairs),
        "frontier_levels": frontier.stats.levels,
        "frontier_seconds": round(frontier_seconds, 4),
        "cte_seconds": round(cte_seconds, 4),
        "speedup": round(frontier_seconds / cte_seconds, 2),
        "cte_commits": db_stats["commits"],
        "cte_sql_prints": db_stats["sql_prints"],
        "cte_statements_per_solve": db_stats["prepared_executions"]
        // iterations,
        "planner_strategy": plan.strategy,
        "identical": cte.pairs == frontier.pairs,
    }
    session.close()
    return record


def differential_check(
    depth: int,
    branching: int,
    staff: int,
    probes: int,
    churn_rounds: int,
    seed: int,
) -> dict:
    """CTE vs both frontier directions vs the maintained closure.

    Probes alternate bound-low / bound-high over randomly chosen
    employees; between rounds random employees are hired and fired on
    *both* sessions (the maintained one applies IncrementalClosure
    deltas — semi-naive inserts, DRed deletes — while the plain one
    invalidates and its statistics service refreshes lazily).
    """
    rng = random.Random(seed)
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )
    plain = make_session(org)
    maintained = make_session(org)
    maintained.materialize.view("works_for(X, Y)")
    closure = plain.closure_for("works_for")
    depts = [d.dno for d in org.departments]
    names = [e.nam for e in org.employees]

    checked = 0
    mismatches = []
    hired: list[tuple] = []
    for round_index in range(churn_rounds):
        for _ in range(probes // churn_rounds or 1):
            name = rng.choice(names)
            bound_high = rng.random() < 0.5
            low, high = (None, name) if bound_high else (name, None)
            cte = closure.solve(low=low, high=high, strategy="cte").pairs
            bottomup = closure.solve(
                low=low, high=high, strategy="bottomup"
            ).pairs
            topdown = closure.solve(
                low=low, high=high, strategy="topdown"
            ).pairs
            if bound_high:
                goal = f"works_for(X, '{name}')"
                incremental = {
                    (a["X"], name) for a in maintained.ask(goal)
                }
            else:
                goal = f"works_for('{name}', Y)"
                incremental = {
                    (name, a["Y"]) for a in maintained.ask(goal)
                }
            checked += 1
            if not (cte == bottomup == topdown == incremental):
                mismatches.append(goal)
        # Churn: hire two employees into random departments, fire one.
        for _ in range(2):
            eno = 40_000 + round_index * 10 + len(hired)
            row = (eno, f"emp{eno}", 30_000, rng.choice(depts))
            hired.append(row)
            plain.assert_fact("empl", *row)
            maintained.assert_fact("empl", *row)
        if hired:
            victim = hired.pop(rng.randrange(len(hired)))
            plain.retract_fact("empl", *victim)
            maintained.retract_fact("empl", *victim)

    record = {
        "probes": checked,
        "churn_rounds": churn_rounds,
        "identical": not mismatches,
        "mismatches": mismatches[:5],
    }
    plain.close()
    maintained.close()
    return record


def bench_recursive_ask_many(
    depth: int, branching: int, staff: int, total: int
) -> dict:
    """Warm recursive shapes batch (the interval labels on this forest)."""
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )
    session = make_session(org)
    managers = {d.mgr for d in org.departments}
    names = sorted({e.nam for e in org.employees if e.eno in managers})
    goals = [f"works_for(X, {names[i % len(names)]})" for i in range(total)]

    serial_started = time.perf_counter()
    serial = [session.ask(goal) for goal in goals]  # also warms the shape
    serial_seconds = time.perf_counter() - serial_started

    before = session.plans.stats.snapshot()
    batched_started = time.perf_counter()
    batched = session.ask_many(goals)
    batched_seconds = time.perf_counter() - batched_started
    after = session.plans.stats.snapshot()

    identical = all(
        expected == got for expected, got in zip(serial, batched)
    )
    record = {
        "goals": total,
        "distinct_seeds": len(set(names[:total])) if total < len(names) else len(names),
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(serial_seconds / batched_seconds, 2)
        if batched_seconds
        else float("inf"),
        "recursive_batches": after["recursive_batches"]
        - before["recursive_batches"],
        "batched_goals": after["batched_asks"] - before["batched_asks"],
        "identical": identical,
    }
    session.close()
    return record


def run(quick: bool, seed: int) -> dict:
    """The E15 record and its gates; ``seed`` drives the differential."""
    chain_depth, staff, iterations, max_levels, gate = (
        QUICK_SIZES if quick else FULL_SIZES
    )
    diff_depth, diff_branching, diff_staff, probes, rounds = (
        QUICK_DIFF if quick else FULL_DIFF
    )
    b_depth, b_branching, b_staff, total = QUICK_BATCH if quick else FULL_BATCH
    chain = bench_chain_closure(
        make_chain_org(chain_depth, staff), iterations, max_levels
    )
    differential = differential_check(
        diff_depth, diff_branching, diff_staff, probes, rounds, seed=seed
    )
    batching = bench_recursive_ask_many(b_depth, b_branching, b_staff, total)
    return {
        "benchmark": "E15 backend pushdown "
        "(WITH RECURSIVE CTE + per-side read planning)",
        "baseline": "prepared setrel frontier loop: one round-trip and one "
        "commit per recursion level",
        "workloads": {
            "chain_closure": chain,
            "strategy_differential": differential,
            "recursive_ask_many": batching,
        },
        "gates": [
            ("cte_min_speedup", chain["speedup"], ">=", gate),
            ("cte_max_commits", chain["cte_commits"], "==", 0),
            ("cte_max_reprints", chain["cte_sql_prints"], "==", 0),
            # The interval labels are the pushdown tier too, and the
            # planner prefers them on a tree-shaped chain.
            (
                "planner_picks_pushdown_tier",
                chain["planner_strategy"],
                "in",
                ("cte", "interval"),
            ),
            ("chain_identical", chain["identical"], "==", True),
            ("differential_identical", differential["identical"], "==", True),
            ("ask_many_recursive_batched", batching["recursive_batches"], ">=", 1),
            (
                "ask_many_min_batched_goals",
                batching["batched_goals"],
                ">=",
                total - 2,
            ),
            ("ask_many_identical", batching["identical"], "==", True),
        ],
    }


def test_e15_quick_gates():
    from run_all import failed

    assert not failed(run(quick=True, seed=5)["gates"])
