"""E12 — compile-once ask path: plan cache + prepared statements.

Claims gated by :func:`run` (recorded in ``BENCH_coupling.json`` by
``benchmarks/run_all.py``):

* on a repeated-shape workload (one goal shape, rotating constants) the
  warm ask path — shape lookup, parameter bind, prepared-statement
  execution — sustains **>= 5x** the throughput of the cold path that
  reclassifies, metaevaluates, simplifies, translates, and prints SQL on
  every ask (result caching disabled on both sides, so both execute the
  SQL every time: the difference is pure compilation);
* warm answers are **identical** to fresh compilation for every goal in
  the workload (differential check);
* the setrel recursion loop issues **zero** per-level SQL re-prints: the
  two fixed-shape step queries are rendered once at preparation and
  re-executed as prepared statements, with one commit per frontier level
  (swap + step inside a single transaction).

Quick sizes relax the bounds so a CI timeslice stays loud on
order-of-magnitude regressions; full sizes hold the committed claims.
"""

import time

from repro.coupling import PrologDbSession
from repro.coupling.global_opt import CachePolicy
from repro.dbms import generate_org
from repro.schema import ALL_VIEWS_SOURCE

#: (org depth, branching, staff, warm iters, cold iters, min speedup)
FULL_SIZES = (3, 3, 6, 400, 60, 5.0)
QUICK_SIZES = (3, 2, 4, 120, 20, 3.0)


def make_session(org, plan_cache: bool) -> PrologDbSession:
    """A session with result caching off: every ask really executes SQL.

    With rows cached, a second ask of the same constants would skip the
    DBMS entirely and the measurement would conflate the plan cache with
    the result cache; disabling storage isolates compilation cost.
    """
    session = PrologDbSession(
        plan_cache=plan_cache, cache_policy=CachePolicy(enabled=False)
    )
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    return session


def repeated_shape_goals(org, count: int) -> list[str]:
    """The workload: two view shapes, constants rotating per ask."""
    names = [e.nam for e in org.employees]
    goals = []
    for i in range(count):
        name = names[i % len(names)]
        if i % 2:
            goals.append(f"same_manager(X, {name})")
        else:
            goals.append(f"works_dir_for(X, {name})")
    return goals


def answer_set(answers) -> set:
    return {frozenset(a.items()) for a in answers}


def bench_warm_vs_cold(org, warm_iters: int, cold_iters: int) -> dict:
    """Asks/sec with the plan cache on (warm) vs off (cold compile)."""
    warm = make_session(org, plan_cache=True)
    cold = make_session(org, plan_cache=False)

    warm_goals = repeated_shape_goals(org, warm_iters)
    cold_goals = repeated_shape_goals(org, cold_iters)

    # Prime: ask each distinct shape twice (with different constants) so
    # the lazy compiler parameterizes it and the measured warm loop is
    # pure hit path (the cold loop has no plan to prime).
    for goal in warm_goals[:4]:
        warm.ask(goal)

    started = time.perf_counter()
    for goal in warm_goals:
        warm.ask(goal)
    warm_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for goal in cold_goals:
        cold.ask(goal)
    cold_seconds = time.perf_counter() - started

    warm_rate = warm_iters / warm_seconds
    cold_rate = cold_iters / cold_seconds
    record = {
        "warm_asks": warm_iters,
        "cold_asks": cold_iters,
        "warm_seconds": round(warm_seconds, 4),
        "cold_seconds": round(cold_seconds, 4),
        "warm_asks_per_second": round(warm_rate, 1),
        "cold_asks_per_second": round(cold_rate, 1),
        "speedup": round(warm_rate / cold_rate, 2),
        "plan_cache_hits": warm.plans.stats.hits,
        "plan_cache_compiled": warm.plans.stats.compiled,
    }
    warm.close()
    cold.close()
    return record


def differential_check(org, sample: int = 24) -> dict:
    """Warm answers must equal fresh-compile answers, goal by goal."""
    warm = make_session(org, plan_cache=True)
    goals = repeated_shape_goals(org, sample)
    for goal in goals:  # populate + exercise the plan cache
        warm.ask(goal)
    mismatches = []
    for goal in goals:
        warm_answers = answer_set(warm.ask(goal))
        fresh = make_session(org, plan_cache=False)
        fresh_answers = answer_set(fresh.ask(goal))
        fresh.close()
        if warm_answers != fresh_answers:
            mismatches.append(goal)
    hits = warm.plans.stats.hits
    warm.close()
    return {
        "goals_checked": len(goals),
        "mismatches": mismatches,
        "identical": not mismatches,
        "plan_cache_hits": hits,
    }


def bench_setrel(org) -> dict:
    """Levels/sec of the prepared setrel loop; gates zero re-prints."""
    session = make_session(org, plan_cache=True)
    leaf = org.leaf_employee_name()
    closure = session.closure_for("works_for")
    closure.step_queries()  # preparation: the only two SQL prints
    session.database.stats.reset()
    started = time.perf_counter()
    run = session.solve_recursive("works_for", low=leaf, strategy="bottomup")
    elapsed = time.perf_counter() - started
    stats = session.database.stats
    record = {
        "levels": run.stats.levels,
        "seconds": round(elapsed, 4),
        "levels_per_second": round(run.stats.levels / elapsed, 1),
        "sql_prints_during_levels": stats.sql_prints,
        "prepared_executions": stats.prepared_executions,
        "commits": stats.commits,
        "answers": len(run.pairs),
    }
    session.close()
    return record


def run(quick: bool, seed: int) -> dict:
    """The E12 record and its gates (no randomized part: ``seed`` unused)."""
    depth, branching, staff, warm_iters, cold_iters, gate = (
        QUICK_SIZES if quick else FULL_SIZES
    )
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )
    asks = bench_warm_vs_cold(org, warm_iters, cold_iters)
    differential = differential_check(org)
    setrel = bench_setrel(org)
    return {
        "benchmark": "E12 compile-once ask path (plan cache + prepared statements)",
        "baseline": "cold path: classify+metaevaluate+simplify+translate+print per ask",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {
            "repeated_shape_asks": asks,
            "setrel_prepared_loop": setrel,
            "warm_cold_differential": differential,
        },
        "gates": [
            ("warm_min_speedup", asks["speedup"], ">=", gate),
            ("warm_min_plan_hits", asks["plan_cache_hits"], ">=", warm_iters),
            ("setrel_max_reprints", setrel["sql_prints_during_levels"], "==", 0),
            (
                "setrel_executions_over_levels",
                setrel["prepared_executions"] - setrel["levels"],
                "==",
                0,
            ),
            (
                "setrel_commits_over_levels",
                setrel["commits"] - setrel["levels"],
                "<=",
                1,
            ),
            ("differential_identical", differential["identical"], "==", True),
            ("differential_min_plan_hits", differential["plan_cache_hits"], ">", 0),
        ],
    }


def test_e12_quick_gates():
    from run_all import failed

    assert not failed(run(quick=True, seed=5)["gates"])
