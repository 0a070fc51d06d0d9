"""E16 — the fault-tolerant execution layer.

Claims gated by :func:`run` (recorded in ``BENCH_resilience.json``
by ``benchmarks/run_all.py``):

* **fault-free overhead** — the resilience machinery (fault-point probe,
  circuit-breaker admission, retry-ladder bookkeeping) costs at most a
  fixed number of microseconds per warm ask and per batched
  ``ask_many`` goal, measured as ``(enabled − disabled) / asks`` against
  the same workload under ``FaultPolicy.disabled()`` (the pinned
  pre-resilience behaviour).  The gate is in µs, not percent: the
  ladder's work per ask is fixed, so a percentage rises whenever the
  ask itself gets cheaper;
* **fault transparency** — a *seeded random fault schedule* (locked
  bursts, I/O errors, latency spikes, poisoned pooled connections,
  mid-transaction maintenance failures) injected under a fixed serving
  workload produces answers **identical** to a fault-free run, raises
  zero unhandled exceptions from ``ask()``/``ask_many``, drains the
  whole schedule (every scheduled fault really fired), and leaves every
  quarantined materialized view healed by the end.

The seed in effect is recorded in ``BENCH_resilience.json`` so a failing
differential is reproducible bit-for-bit.
"""

import time

from repro.coupling import PrologDbSession
from repro.coupling.global_opt import CachePolicy
from repro.dbms import generate_org
from repro.dbms.sqlite_backend import ExternalDatabase
from repro.prolog.reader import parse_goal
from repro.resilience import FaultPolicy
from repro.resilience.faults import FaultInjectingBackend, FaultSchedule
from repro.schema import ALL_VIEWS_SOURCE, empdep_constraints, empdep_schema

#: (org depth, branching, staff, warm asks, batch size,
#:  max ladder µs per warm ask, max ladder µs per batched goal)
FULL_SIZES = (4, 3, 6, 600, 64, 10.0, 1.0)
QUICK_SIZES = (3, 2, 4, 200, 32, 10.0, 2.0)

#: (scheduled fault events, read-class horizon, drain step limit)
FULL_DIFF = (10, 40, 120)
QUICK_DIFF = (6, 25, 80)

#: timing repeats per side; the minimum is reported (noise rejection)
REPEATS = 5


def make_resilient_session(policy=None, schedule=None, result_cache=True):
    """A loaded empdep session over an injectable backend."""
    schema = empdep_schema()
    constraints = empdep_constraints(schema)
    if schedule is None:
        database = ExternalDatabase(schema, constraints=constraints, policy=policy)
    else:
        database = FaultInjectingBackend(
            schema, constraints=constraints, policy=policy, schedule=schedule
        )
    session = PrologDbSession(
        schema=schema,
        constraints=constraints,
        database=database,
        cache_policy=CachePolicy(enabled=result_cache),
    )
    return session


def load_org_into(session, org):
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    return session


def rotating_goals(org, count):
    """Warm-shape goals with rotating constants, pre-parsed (no parser cost)."""
    names = [e.nam for e in org.employees]
    return [
        parse_goal(f"works_dir_for(X, {names[(i * 13) % len(names)]})")
        for i in range(count)
    ]


def _best_rate(callable_once, count):
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        callable_once()
        best = min(best, time.perf_counter() - started)
    return round(count / best, 1), best


def bench_overhead(org, asks, batch_size):
    """Warm-ask and batched throughput: default policy vs disabled.

    Result caching is off so every goal really executes — the comparison
    isolates the execution layer, where the resilience probes live.
    """
    goals = rotating_goals(org, asks)
    sessions = {}
    for label, policy in (
        ("enabled", None),  # None -> the default (enabled) FaultPolicy
        ("disabled", FaultPolicy.disabled()),
    ):
        session = load_org_into(
            make_resilient_session(policy=policy, result_cache=False), org
        )
        for goal in goals[: min(8, len(goals))]:
            session.ask(goal)  # warm the plan cache
        sessions[label] = session
    try:
        result = {"warm_asks": asks, "batch_size": batch_size}
        best = {}
        for label, session in sessions.items():

            def serial(session=session):
                for goal in goals:
                    session.ask(goal)

            rate, best[label, "warm"] = _best_rate(serial, asks)
            result[f"{label}_warm_asks_per_second"] = rate
            result[f"{label}_warm_seconds"] = round(best[label, "warm"], 4)
        for label, session in sessions.items():

            def batched(session=session):
                for start in range(0, len(goals), batch_size):
                    session.ask_many(goals[start : start + batch_size])

            rate, best[label, "batched"] = _best_rate(batched, asks)
            result[f"{label}_batched_asks_per_second"] = rate
            result[f"{label}_batched_seconds"] = round(best[label, "batched"], 4)
        for mode in ("warm", "batched"):
            enabled, disabled = best["enabled", mode], best["disabled", mode]
            result[f"{mode}_overhead_pct"] = round(
                (enabled / disabled - 1.0) * 100.0, 2
            )
            result[f"{mode}_overhead_us"] = round(
                (enabled - disabled) / asks * 1e6, 3
            )
        return result
    finally:
        for session in sessions.values():
            session.close()


def _run_workload(session, org):
    """The fixed differential workload: every serving surface, in order."""

    def answer_set(answers):
        return {frozenset(a.items()) for a in answers}

    names = [e.nam for e in org.employees]
    root = names[0]
    out = []
    session.materialize.view("works_dir_for(X, Y)")
    out.append(answer_set(session.ask("works_dir_for(X, Y)")))
    out.append(answer_set(session.ask(f"works_dir_for(X, {root})")))
    session.assert_fact("empl", 9001, "emp99001", 20000, 1)
    out.append(answer_set(session.ask("works_dir_for(X, Y)")))
    for answers in session.ask_many(
        [f"works_dir_for(X, {names[i % len(names)]})" for i in range(8)]
    ):
        out.append(answer_set(answers))
    out.append(answer_set(session.ask(f"works_for(X, {root})")))
    session.retract_fact("empl", 9001, "emp99001", 20000, 1)
    out.append(answer_set(session.ask("works_dir_for(X, Y)")))
    return out


def _drain_schedule(session, schedule, root, limit):
    """Advance every fault class's ordinal until the schedule is dry."""
    step = 0
    while not schedule.exhausted and step < limit:
        eno = 9500 + step
        session.assert_fact("empl", eno, f"emp{eno:05d}", 20000 + step, 1)
        session.ask(f"works_dir_for(X, {root})")
        session.database.insert_rows("empl", [(eno + 400, f"tmp{eno}", 20000, 1)])
        session.database.delete_row("empl", (eno + 400, f"tmp{eno}", 20000, 1))
        step += 1
    return step


def fault_differential(org, seed, events, horizon, drain_limit):
    """Seeded fault schedule vs fault-free run: answers must be identical."""
    baseline = load_org_into(make_resilient_session(), org)
    try:
        expected = _run_workload(baseline, org)
    finally:
        baseline.close()

    schedule = FaultSchedule.random(seed=seed, events=events, horizon=horizon)
    session = load_org_into(make_resilient_session(schedule=schedule), org)
    root = org.employees[0].nam
    error = None
    observed = None
    drain_steps = 0
    remaining_quarantined = -1
    try:
        try:
            observed = _run_workload(session, org)
            drain_steps = _drain_schedule(session, schedule, root, drain_limit)
            remaining_quarantined = session.heal_materialized()
        except Exception as caught:  # noqa: BLE001 - the gate is "none"
            error = f"{type(caught).__name__}: {caught}"
        resilience = session.stats()["resilience"]
    finally:
        session.close()
    return {
        "seed": seed,
        "events_scheduled": events,
        "identical": error is None and observed == expected,
        "unhandled_error": error,
        "workload_checkpoints": len(expected),
        "faults_injected": schedule.injected,
        "injected_by_kind": dict(schedule.injected_by_kind),
        "schedule_exhausted": schedule.exhausted,
        "drain_steps": drain_steps,
        "quarantined_after_heal": remaining_quarantined,
        "retries": resilience["retries"],
        "ask_retries": resilience["ask_retries"],
        "degraded_answers": resilience["degraded_answers"],
        "quarantines": resilience["quarantines"],
        "heals": resilience["heals"],
        "poisoned_retired": resilience["poisoned_retired"],
    }


def run(quick: bool, seed: int) -> dict:
    """The E16 record and its gates; ``seed`` draws the fault schedule."""
    depth, branching, staff, asks, batch_size, warm_us, batched_us = (
        QUICK_SIZES if quick else FULL_SIZES
    )
    events, horizon, drain_limit = QUICK_DIFF if quick else FULL_DIFF
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )
    overhead = bench_overhead(org, asks, batch_size)
    differential = fault_differential(
        org, seed=seed, events=events, horizon=horizon, drain_limit=drain_limit
    )
    return {
        "benchmark": "E16 fault-tolerant execution "
        "(fault injection + retry/backoff + degradation ladder + "
        "self-healing views)",
        "baseline": "FaultPolicy.disabled(): the pre-resilience execution "
        "path (bounded lock patience, no probes, no retries)",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {
            "fault_free_overhead": overhead,
            "seeded_fault_differential": differential,
        },
        "gates": [
            ("warm_max_overhead_us", overhead["warm_overhead_us"], "<=", warm_us),
            (
                "batched_max_overhead_us",
                overhead["batched_overhead_us"],
                "<=",
                batched_us,
            ),
            ("differential_identical", differential["identical"], "==", True),
            ("zero_unhandled_errors", differential["unhandled_error"], "==", None),
            ("schedule_exhausted", differential["schedule_exhausted"], "==", True),
            ("all_views_healed", differential["quarantined_after_heal"], "==", 0),
            ("min_faults_injected", differential["faults_injected"], ">=", 1),
        ],
    }


def test_e16_quick_gates():
    from run_all import failed

    assert not failed(run(quick=True, seed=7)["gates"])
