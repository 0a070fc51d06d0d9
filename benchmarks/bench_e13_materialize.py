"""E13 — incremental view maintenance: maintain, don't recompute.

Claims gated by :func:`run` (recorded in ``BENCH_materialize.json`` by
``benchmarks/run_all.py``):

* on an **interleaved update/ask workload** (single-fact asserts and
  retracts between repeated view asks over rotating constants),
  incremental maintenance sustains **>= 1.4x** the ask throughput of
  invalidate-and-re-execute — a plain session, where every write
  invalidates the cached rows that read the relation, so every
  subsequent ask re-executes its (still warm) prepared statement.  The
  gate was >= 5x while a base-relation write also advanced the KB
  generation and every ask after it recompiled; since PR 22 it does
  not, and the baseline is ~7x faster (full mode: 645 -> 4,500 asks/s);
* the maintained path is genuinely incremental: **zero** full refreshes
  and zero maintenance fallbacks during the measured workload — every
  update is absorbed by counting delta rules (flat views) or semi-naive /
  DRed closure propagation (the recursive view);
* a **randomized differential**: after every batch of random asserts and
  retracts, maintained answers are identical to a fresh session
  recomputing over the same data — for flat views, constant-filtered
  asks, and the recursive ``works_for`` view after retracts (DRed
  delete/re-derive).
"""

import random
import time

from repro.coupling import PrologDbSession
from repro.dbms import generate_org
from repro.schema import ALL_VIEWS_SOURCE

#: (org depth, branching, staff, update/ask cycles, asks per cycle, min speedup)
FULL_SIZES = (3, 3, 6, 80, 4, 1.4)
QUICK_SIZES = (3, 2, 4, 30, 4, 1.3)

#: (ops in the random trace, ops per differential checkpoint)
FULL_DIFF = (60, 10)
QUICK_DIFF = (24, 6)


def make_session(org, maintain: bool) -> PrologDbSession:
    session = PrologDbSession()
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    if maintain:
        session.materialize.view("works_dir_for(X, Y)")
        session.materialize.view("same_manager(X, Y)")
    return session


def fresh_replica(session: PrologDbSession) -> PrologDbSession:
    """A cold session over a copy of ``session``'s visible data."""
    replica = PrologDbSession()
    replica.database.insert_rows("empl", session.database.fetch_relation("empl"))
    replica.database.insert_rows("dept", session.database.fetch_relation("dept"))
    replica.consult(ALL_VIEWS_SOURCE)
    return replica


def answer_set(answers) -> set:
    return {frozenset(a.items()) for a in answers}


def interleaved_ops(org, cycles: int, asks_per_cycle: int):
    """The workload: one write per cycle, then rotating-constant asks."""
    names = [e.nam for e in org.employees]
    depts = [d.dno for d in org.departments]
    ops = []
    for cycle in range(cycles):
        eno = 10_000 + cycle
        row = (eno, f"emp{eno}", 20_000 + (cycle % 60) * 1000, depts[cycle % len(depts)])
        if cycle % 2 == 0:
            ops.append(("assert", row))
        else:
            previous = 10_000 + cycle - 1
            ops.append(
                (
                    "retract",
                    (previous, f"emp{previous}", 20_000 + ((cycle - 1) % 60) * 1000,
                     depts[(cycle - 1) % len(depts)]),
                )
            )
        for ask_index in range(asks_per_cycle):
            name = names[(cycle * asks_per_cycle + ask_index) % len(names)]
            if ask_index % 2:
                ops.append(("ask", f"same_manager(X, {name})"))
            else:
                ops.append(("ask", f"works_dir_for(X, {name})"))
    return ops


def run_ops(session: PrologDbSession, ops) -> float:
    started = time.perf_counter()
    for kind, payload in ops:
        if kind == "assert":
            session.assert_fact("empl", *payload)
        elif kind == "retract":
            session.retract_fact("empl", *payload)
        else:
            session.ask(payload)
    return time.perf_counter() - started


def bench_interleaved(org, cycles: int, asks_per_cycle: int) -> dict:
    """Asks/sec under interleaved updates: maintained vs invalidate."""
    ops = interleaved_ops(org, cycles, asks_per_cycle)
    ask_count = sum(1 for kind, _ in ops if kind == "ask")

    maintained = make_session(org, maintain=True)
    baseline = make_session(org, maintain=False)
    # Warm both sessions once so first-compilation costs are off-clock on
    # both sides.
    maintained.ask("works_dir_for(X, Y)")
    baseline.ask("works_dir_for(X, Y)")

    maintained_seconds = run_ops(maintained, ops)
    baseline_seconds = run_ops(baseline, ops)

    maintained_rate = ask_count / maintained_seconds
    baseline_rate = ask_count / baseline_seconds
    stats = maintained.materialize.stats
    record = {
        "cycles": cycles,
        "asks": ask_count,
        "writes": cycles,
        "maintained_seconds": round(maintained_seconds, 4),
        "baseline_seconds": round(baseline_seconds, 4),
        "maintained_asks_per_second": round(maintained_rate, 1),
        "baseline_asks_per_second": round(baseline_rate, 1),
        "speedup": round(maintained_rate / baseline_rate, 2),
        "deltas_applied": stats.deltas_applied,
        "maintained_refreshes": stats.refreshes,
        "maintenance_fallbacks": stats.fallbacks,
    }
    maintained.close()
    baseline.close()
    return record


def differential_check(org, ops: int, checkpoint_every: int, seed: int = 5) -> dict:
    """Random asserts/retracts; maintained answers vs fresh recompute."""
    rng = random.Random(seed)
    session = make_session(org, maintain=True)
    session.materialize.view("works_for(X, Y)")

    leaf = org.leaf_employee_name()
    boss = org.root_manager_name()
    names = [e.nam for e in org.employees]
    depts = [d.dno for d in org.departments]
    added: list[tuple] = []
    removed_originals: list[tuple] = []
    originals = [e.as_row() for e in org.employees]

    def random_op(op_index: int) -> None:
        choice = rng.random()
        if choice < 0.45 or not (added or removed_originals):
            eno = 20_000 + op_index
            row = (eno, f"emp{eno}", rng.randrange(10_000, 90_001, 500),
                   rng.choice(depts))
            session.assert_fact("empl", *row)
            added.append(row)
        elif choice < 0.75 and added:
            row = added.pop(rng.randrange(len(added)))
            session.retract_fact("empl", *row)
        elif choice < 0.9 and removed_originals:
            row = removed_originals.pop(rng.randrange(len(removed_originals)))
            session.assert_fact("empl", *row)
        else:
            row = originals.pop(rng.randrange(len(originals)))
            session.retract_fact("empl", *row)
            removed_originals.append(row)

    def checkpoint_goals():
        name = rng.choice(names)
        return [
            "works_dir_for(X, Y)",
            f"works_dir_for(X, {name})",
            f"same_manager(X, {name})",
            f"works_for('{leaf}', Y)",
            f"works_for(X, '{boss}')",
        ]

    mismatches = []
    checkpoints = 0
    for op_index in range(ops):
        random_op(op_index)
        if (op_index + 1) % checkpoint_every:
            continue
        checkpoints += 1
        replica = fresh_replica(session)
        for goal in checkpoint_goals():
            maintained_answers = answer_set(session.ask(goal))
            fresh_answers = answer_set(replica.ask(goal))
            if maintained_answers != fresh_answers:
                mismatches.append(goal)
        replica.close()
    stats = session.materialize.stats
    record = {
        "ops": ops,
        "checkpoints": checkpoints,
        "mismatches": mismatches,
        "identical": not mismatches,
        "deltas_applied": stats.deltas_applied,
        "maintained_refreshes": stats.refreshes,
        "maintenance_fallbacks": stats.fallbacks,
    }
    session.close()
    return record


def bench_recursive_maintained(org) -> dict:
    """Informational: maintained closure asks vs batch setrel re-runs."""
    maintained = make_session(org, maintain=True)
    maintained.materialize.view("works_for(X, Y)")
    baseline = make_session(org, maintain=False)
    leaf = org.leaf_employee_name()
    depts = [d.dno for d in org.departments]

    def workload(session: PrologDbSession) -> float:
        started = time.perf_counter()
        for i in range(10):
            row = (30_000 + i, f"emp{30_000 + i}", 25_000, depts[i % len(depts)])
            session.assert_fact("empl", *row)
            session.ask(f"works_for('{leaf}', Y)")
            session.retract_fact("empl", *row)
        return time.perf_counter() - started

    maintained_seconds = workload(maintained)
    baseline_seconds = workload(baseline)
    record = {
        "maintained_seconds": round(maintained_seconds, 4),
        "baseline_seconds": round(baseline_seconds, 4),
        "speedup": round(baseline_seconds / maintained_seconds, 2),
    }
    maintained.close()
    baseline.close()
    return record


def run(quick: bool, seed: int) -> dict:
    """The E13 record and its gates; ``seed`` drives the random trace."""
    depth, branching, staff, cycles, asks_per_cycle, gate = (
        QUICK_SIZES if quick else FULL_SIZES
    )
    diff_ops, checkpoint_every = QUICK_DIFF if quick else FULL_DIFF
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )
    interleaved = bench_interleaved(org, cycles, asks_per_cycle)
    differential = differential_check(org, diff_ops, checkpoint_every, seed=seed)
    recursive = bench_recursive_maintained(org)
    return {
        "benchmark": "E13 incremental view maintenance (maintain, don't recompute)",
        "baseline": "invalidate-and-re-execute: every write drops the cached "
        "rows that read the relation; every ask re-executes its warm plan",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {
            "interleaved_update_ask": interleaved,
            "randomized_differential": differential,
            "recursive_closure": recursive,
        },
        "gates": [
            ("interleaved_min_speedup", interleaved["speedup"], ">=", gate),
            ("max_refreshes", interleaved["maintained_refreshes"], "==", 0),
            ("max_fallbacks", interleaved["maintenance_fallbacks"], "==", 0),
            ("differential_identical", differential["identical"], "==", True),
            (
                "differential_max_refreshes",
                differential["maintained_refreshes"],
                "==",
                0,
            ),
            (
                "differential_max_fallbacks",
                differential["maintenance_fallbacks"],
                "==",
                0,
            ),
            ("differential_min_checkpoints", differential["checkpoints"], ">=", 3),
            ("recursive_min_speedup", recursive["speedup"], ">=", 1.0),
        ],
    }


def test_e13_quick_gates():
    from run_all import failed

    assert not failed(run(quick=True, seed=5)["gates"])
