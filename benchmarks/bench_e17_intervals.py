"""E17 — in-memory interval labels: reachability with no statement at all.

Claims gated by :func:`run` (recorded in ``BENCH_intervals.json``
by ``benchmarks/run_all.py``):

* on a deep/wide org hierarchy the interval labels (descend from the
  boss: a slice of the tour; ascend from the deepest leaf: the parent
  walk) answer **>= 3x** faster than the prepared ``WITH RECURSIVE``
  CTE probes, both read through ``TransitiveClosure.probe``;
* the planner picks the interval strategy on this workload and records
  why;
* a randomized churn differential — interleaved hires/departures, and a
  burst of hires into one department — stays **identical** across the
  interval labels, the CTE pushdown, both frontier directions, and the
  maintained ``IncrementalClosure``;
* ``ask_many`` batches warm recursive shapes from the tour with answers
  identical to serial ``ask()``.
"""

import random
import time

from repro.coupling import PrologDbSession
from repro.dbms import generate_org
from repro.schema import ALL_VIEWS_SOURCE

#: (org depth, branching, staff per dept, timed probe rounds, min speedup)
FULL_PROBE = (10, 2, 3, 50, 3.0)
QUICK_PROBE = (6, 2, 3, 30, 2.0)

#: (org depth, branching, staff, probes, churn rounds)
FULL_CHURN = (5, 3, 5, 24, 4)
QUICK_CHURN = (4, 2, 4, 10, 2)

#: (org depth, branching, staff, goals in the batch)
FULL_BATCH = (5, 3, 5, 24)
QUICK_BATCH = (4, 2, 4, 8)


def make_session(org) -> PrologDbSession:
    session = PrologDbSession()
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    return session


def bench_probe_latency(
    depth: int, branching: int, staff: int, rounds: int
) -> dict:
    """Interval labels vs prepared CTE probes, same seeds, same reader.

    Each timed round runs one descend from the boss (the whole tree
    back) and one ascend from the deepest leaf (the management chain),
    through ``TransitiveClosure.probe``.  Statement preparation and the
    one-time tour build happen before timing on both sides: the
    comparison is pure probe mechanics.
    """
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )
    session = make_session(org)
    closure = session.closure_for("works_for")
    closure.cte_queries()

    build_started = time.perf_counter()
    tour = closure.interval_index().ensure_fresh()
    build_seconds = time.perf_counter() - build_started
    plan = closure.plan()

    boss = org.root_manager_name()
    leaf = org.leaf_employee_name()
    probes = [("high", boss), ("low", leaf)]

    def answers(strategy):
        return [closure.probe(strategy, bound, seed) for bound, seed in probes]

    cte_answers, interval_answers = answers("cte"), answers("interval")  # warm

    started = time.perf_counter()
    for _ in range(rounds):
        answers("cte")
    cte_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(rounds):
        answers("interval")
    interval_seconds = time.perf_counter() - started

    # End-to-end for context: the full solve_recursive round trip.
    run_started = time.perf_counter()
    for _ in range(rounds):
        session.solve_recursive("works_for", high=boss, strategy="cte")
    cte_solve_seconds = time.perf_counter() - run_started
    run_started = time.perf_counter()
    for _ in range(rounds):
        session.solve_recursive("works_for", high=boss, strategy="interval")
    interval_solve_seconds = time.perf_counter() - run_started

    record = {
        "employees": org.employee_count,
        "departments": org.department_count,
        "tree_depth": org.max_depth,
        "probe_rounds": rounds,
        "descend_answers": len(interval_answers[0]),
        "ascend_answers": len(interval_answers[1]),
        "labeling": tour.shape,
        "labeling_build_seconds": round(build_seconds, 4),
        "cte_seconds": round(cte_seconds, 4),
        "interval_seconds": round(interval_seconds, 4),
        "speedup": round(cte_seconds / interval_seconds, 2),
        "cte_solve_seconds": round(cte_solve_seconds, 4),
        "interval_solve_seconds": round(interval_solve_seconds, 4),
        "solve_speedup": round(cte_solve_seconds / interval_solve_seconds, 2),
        "planner_strategy": plan.strategy,
        "planner_reason": plan.reason,
        "identical": cte_answers == interval_answers,
    }
    session.close()
    return record


def churn_differential(
    depth: int,
    branching: int,
    staff: int,
    probes: int,
    churn_rounds: int,
    seed: int,
) -> dict:
    """Interval vs CTE vs both frontiers vs the maintained closure.

    Probes alternate bound-low / bound-high over randomly chosen
    employees; between rounds random employees are hired and fired on
    both sessions, so every strategy — and the separately-maintained
    session — sees the same facts.  Each round's writes move the data
    generations, so the next interval solve rebuilds the tour; a burst
    of hires lands in one department every round.
    """
    rng = random.Random(seed)
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )
    plain = make_session(org)
    maintained = make_session(org)
    maintained.materialize.view("works_for(X, Y)")
    closure = plain.closure_for("works_for")
    index = closure.interval_index()
    depts = [d.dno for d in org.departments]
    names = [e.nam for e in org.employees]
    burst_dept = depts[-1]

    def hire(row):
        for session in (plain, maintained):
            session.assert_fact("empl", *row)
            session.ask(f"empl({row[0]}, N, S, D)")  # merge to the backend

    def fire(row):
        for session in (plain, maintained):
            session.retract_fact("empl", *row)

    checked = 0
    mismatches = []
    hired: list[tuple] = []
    next_eno = 40_000
    for round_index in range(churn_rounds):
        for _ in range(probes // churn_rounds or 1):
            name = rng.choice(names)
            bound_high = rng.random() < 0.5
            low, high = (None, name) if bound_high else (name, None)
            interval = closure.solve(
                low=low, high=high, strategy="interval"
            ).pairs
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
            if not (interval == cte == bottomup == topdown == incremental):
                mismatches.append(goal)
        # Churn: two random hires, one departure, plus a burst of hires
        # into one fixed department.
        for _ in range(2):
            row = (next_eno, f"emp{next_eno}", 30_000, rng.choice(depts))
            next_eno += 1
            hired.append(row)
            hire(row)
        for _ in range(3):
            row = (next_eno, f"emp{next_eno}", 30_000, burst_dept)
            next_eno += 1
            hired.append(row)
            hire(row)
        if hired:
            victim = hired.pop(rng.randrange(len(hired)))
            fire(victim)

    interval_stats = index.stats.snapshot()
    record = {
        "probes": checked,
        "churn_rounds": churn_rounds,
        "hires": next_eno - 40_000,
        "identical": not mismatches,
        "mismatches": mismatches[:5],
        "builds": interval_stats["builds"],
        "demotions": interval_stats["demotions"],
    }
    plain.close()
    maintained.close()
    return record


def bench_interval_ask_many(
    depth: int, branching: int, staff: int, total: int
) -> dict:
    """Warm recursive shapes batch, answered from the tour."""
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

    plan_stats = session.stats()["recursion_plans"]
    identical = all(
        expected == got for expected, got in zip(serial, batched)
    )
    record = {
        "goals": total,
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(serial_seconds / batched_seconds, 2)
        if batched_seconds
        else float("inf"),
        "recursive_batches": after["recursive_batches"]
        - before["recursive_batches"],
        "batched_goals": after["batched_asks"] - before["batched_asks"],
        "planner_strategy": plan_stats["last_strategy"],
        "identical": identical,
    }
    session.close()
    return record


def run(quick: bool, seed: int) -> dict:
    """The E17 record and its gates; ``seed`` drives the churn."""
    depth, branching, staff, rounds, gate = QUICK_PROBE if quick else FULL_PROBE
    c_depth, c_branching, c_staff, probes, churn_rounds = (
        QUICK_CHURN if quick else FULL_CHURN
    )
    b_depth, b_branching, b_staff, total = QUICK_BATCH if quick else FULL_BATCH
    probe = bench_probe_latency(depth, branching, staff, rounds)
    churn = churn_differential(
        c_depth, c_branching, c_staff, probes, churn_rounds, seed=seed
    )
    batching = bench_interval_ask_many(b_depth, b_branching, b_staff, total)
    return {
        "benchmark": "E17 interval labels in memory "
        "(one tour per data generation: a slice below, a parent walk above)",
        "baseline": "prepared WITH RECURSIVE CTE probes (E15's pushdown tier)",
        "workloads": {
            "probe_latency": probe,
            "churn_differential": churn,
            "interval_ask_many": batching,
        },
        "gates": [
            ("interval_min_speedup", probe["speedup"], ">=", gate),
            ("planner_picks_interval", probe["planner_strategy"], "==", "interval"),
            ("probe_identical", probe["identical"], "==", True),
            ("differential_identical", churn["identical"], "==", True),
            ("max_demotions", churn["demotions"], "==", 0),
            ("ask_many_recursive_batched", batching["recursive_batches"], ">=", 1),
            (
                "ask_many_min_batched_goals",
                batching["batched_goals"],
                ">=",
                total - 2,
            ),
            (
                "ask_many_planner_picks_interval",
                batching["planner_strategy"],
                "==",
                "interval",
            ),
            ("ask_many_identical", batching["identical"], "==", True),
        ],
    }


def test_e17_quick_gates():
    from run_all import failed

    assert not failed(run(quick=True, seed=5)["gates"])
