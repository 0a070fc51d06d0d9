#!/usr/bin/env python
"""Benchmark driver: runs the engine hot-path benchmarks (E11), the
compile-once coupling benchmarks (E12), the incremental view-maintenance
benchmarks (E13), the concurrent batched serving benchmarks (E14),
the backend-pushdown benchmarks (E15), the fault-tolerance
benchmarks (E16), the interval-accelerator benchmarks (E17), the
scale-out serving benchmarks (E18), the consistent-query-answering
benchmarks (E19), and the
tracing-overhead benchmarks (E20); records ``BENCH_engine.json``,
``BENCH_coupling.json``, ``BENCH_materialize.json``,
``BENCH_serving.json``, ``BENCH_pushdown.json``,
``BENCH_resilience.json``, ``BENCH_intervals.json``,
``BENCH_scaleout.json``, ``BENCH_cqa.json``, and
``BENCH_observe.json`` (per-workload
wall-clock + the speedup over the pinned baselines), gating regressions.

Usage::

    python benchmarks/run_all.py            # full sizes, strict gates
    python benchmarks/run_all.py --quick    # CI: smoke tests + small sizes
    python benchmarks/run_all.py --seed 42  # reproduce a differential run
    python benchmarks/run_all.py --only E15 # one benchmark family only

Full mode gates the committed claims (>= 5x on the 10k-fact join proof,
>= 3x on the E7-shaped recursion proof, >= 5x warm-vs-cold ask throughput,
zero per-level SQL re-prints in the setrel loop, every ask_many goal
batched at one statement per shape per call, no multi-thread collapse
below 0.7x single-thread, and every differential identical) and
rewrites the ``BENCH_*.json`` records at the repository root.  ``--quick`` first runs the tier-1 ``smoke``
pytest marker, then the benchmarks at reduced sizes with relaxed gates —
small enough for a CI timeslice, still loud on an order-of-magnitude
regression; its records go to ``BENCH_*.quick.json`` so the committed
full-mode numbers are never clobbered (override with ``--output`` /
``--coupling-output`` / ``--materialize-output`` / ``--serving-output``).

``--seed`` threads one seed into every *randomized* differential (E13's
assert/retract trace, E14's batched and concurrent differentials) so a
bench failure is reproducible bit-for-bit; the seed in effect is
recorded in every ``BENCH_*.json``.  Exits nonzero if any gate (or the
smoke suite) fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(SRC))

from engine_workloads import (  # noqa: E402  (path setup must precede)
    JOIN_GOAL,
    RECURSION_GOAL,
    build_join_kb,
    build_recursion_kb,
    compare_engines,
)

import bench_e12_coupling as e12  # noqa: E402
import bench_e13_materialize as e13  # noqa: E402
import bench_e14_serving as e14  # noqa: E402
import bench_e15_pushdown as e15  # noqa: E402
import bench_e16_resilience as e16  # noqa: E402
import bench_e17_intervals as e17  # noqa: E402
import bench_e18_scaleout as e18  # noqa: E402
import bench_e19_cqa as e19  # noqa: E402
import bench_e20_observe as e20  # noqa: E402
from repro.dbms import generate_org  # noqa: E402

#: Benchmark selector names accepted by ``--only`` (case-insensitive).
BENCH_NAMES = (
    "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"
)

#: (join facts, join iterations, recursion chain, join gate, recursion gate)
FULL = (10_000, 5, 300, 5.0, 3.0)
QUICK = (2_000, 3, 120, 2.0, 2.0)


def run_smoke_tests() -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    print("== tier-1 smoke tests ==")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-m", "smoke"],
        cwd=REPO_ROOT,
        env=env,
    )
    return completed.returncode == 0


def run_engine_benchmarks(
    quick: bool, output: str, smoke_ok: bool, seed: int
) -> bool:
    facts, iterations, chain, join_gate, recursion_gate = (
        QUICK if quick else FULL
    )

    print(f"== E11 engine benchmarks ({'quick' if quick else 'full'}) ==")
    join = compare_engines(build_join_kb(facts), JOIN_GOAL, iterations=iterations)
    join["facts"] = facts
    print(
        f"join proof over {facts} facts: legacy={join['legacy_seconds']:.3f}s "
        f"optimized={join['optimized_seconds']:.4f}s speedup={join['speedup']:.0f}x"
    )
    recursion = compare_engines(build_recursion_kb(chain), RECURSION_GOAL)
    recursion["chain_length"] = chain
    print(
        f"recursion proof over a {chain}-long chain: "
        f"legacy={recursion['legacy_seconds']:.3f}s "
        f"optimized={recursion['optimized_seconds']:.4f}s "
        f"speedup={recursion['speedup']:.0f}x"
    )

    gates = {
        "join_min_speedup": join_gate,
        "recursion_min_speedup": recursion_gate,
    }
    gates_passed = (
        join["speedup"] >= join_gate and recursion["speedup"] >= recursion_gate
    )
    record = {
        "benchmark": "E11 resolution hot-path overhaul",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "baseline": "repro.prolog.legacy (pinned pre-overhaul engine)",
        "workloads": {"join_proof": join, "recursion_proof": recursion},
        "gates": gates,
        "passed": bool(gates_passed and smoke_ok),
    }
    Path(output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    if not gates_passed:
        print(
            f"FAIL: engine speedup gates not met "
            f"(join {join['speedup']}x < {join_gate}x or "
            f"recursion {recursion['speedup']}x < {recursion_gate}x)",
            file=sys.stderr,
        )
    return gates_passed


def run_coupling_benchmarks(
    quick: bool, output: str, smoke_ok: bool, seed: int
) -> bool:
    depth, branching, staff, warm_iters, cold_iters, gate = (
        e12.QUICK_SIZES if quick else e12.FULL_SIZES
    )
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )

    print(f"== E12 coupling benchmarks ({'quick' if quick else 'full'}) ==")
    asks = e12.bench_warm_vs_cold(org, warm_iters, cold_iters)
    print(
        f"repeated-shape asks: warm={asks['warm_asks_per_second']}/s "
        f"cold={asks['cold_asks_per_second']}/s speedup={asks['speedup']}x"
    )
    differential = e12.differential_check(org)
    print(
        f"differential: {differential['goals_checked']} goals, "
        f"identical={differential['identical']}"
    )
    setrel = e12.bench_setrel(org)
    print(
        f"setrel loop: {setrel['levels']} levels at "
        f"{setrel['levels_per_second']}/s, "
        f"{setrel['sql_prints_during_levels']} SQL re-prints, "
        f"{setrel['commits']} commits"
    )

    gates = {
        "warm_min_speedup": gate,
        "setrel_max_reprints": 0,
        "differential_identical": True,
    }
    gates_passed = (
        asks["speedup"] >= gate
        and setrel["sql_prints_during_levels"] == 0
        and differential["identical"]
    )
    record = {
        "benchmark": "E12 compile-once ask path (plan cache + prepared statements)",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "baseline": "cold path: classify+metaevaluate+simplify+translate+print per ask",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {
            "repeated_shape_asks": asks,
            "setrel_prepared_loop": setrel,
            "warm_cold_differential": differential,
        },
        "gates": gates,
        "passed": bool(gates_passed and smoke_ok),
    }
    Path(output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    if not gates_passed:
        print(
            f"FAIL: coupling gates not met (warm speedup {asks['speedup']}x "
            f"< {gate}x, re-prints {setrel['sql_prints_during_levels']}, "
            f"differential identical={differential['identical']})",
            file=sys.stderr,
        )
    return gates_passed


def run_materialize_benchmarks(
    quick: bool, output: str, smoke_ok: bool, seed: int
) -> bool:
    depth, branching, staff, cycles, asks_per_cycle, gate = (
        e13.QUICK_SIZES if quick else e13.FULL_SIZES
    )
    diff_ops, checkpoint_every = e13.QUICK_DIFF if quick else e13.FULL_DIFF
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )

    print(f"== E13 materialize benchmarks ({'quick' if quick else 'full'}) ==")
    interleaved = e13.bench_interleaved(org, cycles, asks_per_cycle)
    print(
        f"interleaved update/ask: maintained="
        f"{interleaved['maintained_asks_per_second']}/s baseline="
        f"{interleaved['baseline_asks_per_second']}/s "
        f"speedup={interleaved['speedup']}x "
        f"({interleaved['deltas_applied']} deltas, "
        f"{interleaved['maintained_refreshes']} refreshes)"
    )
    differential = e13.differential_check(org, diff_ops, checkpoint_every, seed=seed)
    print(
        f"randomized differential: {differential['ops']} ops, "
        f"{differential['checkpoints']} checkpoints, "
        f"identical={differential['identical']}"
    )
    recursive = e13.bench_recursive_maintained(org)
    print(
        f"recursive closure vs batch setrel: {recursive['speedup']}x"
    )

    gates = {
        "interleaved_min_speedup": gate,
        "max_refreshes": 0,
        "max_fallbacks": 0,
        "differential_identical": True,
    }
    gates_passed = (
        interleaved["speedup"] >= gate
        and interleaved["maintained_refreshes"] == 0
        and interleaved["maintenance_fallbacks"] == 0
        and differential["identical"]
        and differential["maintenance_fallbacks"] == 0
    )
    record = {
        "benchmark": "E13 incremental view maintenance (maintain, don't recompute)",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "baseline": "invalidate-and-re-execute: every write drops the cached "
        "rows that read the relation; every ask re-executes its warm plan",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {
            "interleaved_update_ask": interleaved,
            "randomized_differential": differential,
            "recursive_closure": recursive,
        },
        "gates": gates,
        "passed": bool(gates_passed and smoke_ok),
    }
    Path(output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    if not gates_passed:
        print(
            f"FAIL: materialize gates not met (speedup "
            f"{interleaved['speedup']}x < {gate}x, refreshes "
            f"{interleaved['maintained_refreshes']}, fallbacks "
            f"{interleaved['maintenance_fallbacks']}, differential "
            f"identical={differential['identical']})",
            file=sys.stderr,
        )
    return gates_passed


def run_serving_benchmarks(
    quick: bool, output: str, smoke_ok: bool, seed: int
) -> bool:
    depth, branching, staff, total, batch_size = (
        e14.QUICK_SIZES if quick else e14.FULL_SIZES
    )
    threads, per_thread = e14.QUICK_THREADS if quick else e14.FULL_THREADS
    diff_rounds, diff_goals = e14.QUICK_DIFF if quick else e14.FULL_DIFF
    readers, reader_asks, writes = e14.QUICK_CONC if quick else e14.FULL_CONC
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )

    print(f"== E14 serving benchmarks ({'quick' if quick else 'full'}) ==")
    batching = e14.bench_ask_many(org, total, batch_size)
    print(
        f"ask_many (batch={batch_size}): batched="
        f"{batching['batched_asks_per_second']}/s serial="
        f"{batching['serial_asks_per_second']}/s "
        f"speedup={batching['speedup']}x (reported, not gated); "
        f"{batching['batched_asks']}/{total} goals batched in "
        f"{batching['batch_executions']} statements"
    )
    batching_ok = e14.batching_gate(batching)
    threading_result = e14.bench_threads(org, threads, per_thread)
    thread_min, threads_ok = e14.thread_gate(threading_result)
    print(
        f"{threads}-thread warm asks: multi="
        f"{threading_result['multi_thread_asks_per_second']}/s single="
        f"{threading_result['single_thread_asks_per_second']}/s "
        f"speedup={threading_result['speedup']}x "
        f"(gate {thread_min} on {threading_result['cpu_count']} cpu(s), "
        f"{threading_result['pooled_read_connections']} pooled readers)"
    )
    differential = e14.differential_check(org, diff_rounds, diff_goals, seed=seed)
    print(
        f"batched differential: {differential['goals_checked']} goals over "
        f"{differential['rounds']} write rounds, "
        f"identical={differential['identical']}"
    )
    concurrent = e14.concurrent_differential(
        org, readers, reader_asks, writes, seed=seed
    )
    print(
        f"concurrent differential: {concurrent['answers_observed']} answers "
        f"vs {concurrent['checkpoint_states']} states, "
        f"stray={concurrent['stray_answers']}, "
        f"identical={concurrent['identical']}"
    )

    gates = {
        "ask_many_goals_batched": total,
        "ask_many_batch_executions": e14.ROTATING_SHAPES * -(-total // batch_size),
        "thread_min_speedup": thread_min,
        "batched_differential_identical": True,
        "concurrent_differential_identical": True,
    }
    gates_passed = (
        batching_ok
        and threads_ok
        and differential["identical"]
        and concurrent["identical"]
    )
    record = {
        "benchmark": "E14 concurrent batched serving "
        "(ask_many + thread-safe caches + pooled backend)",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "baseline": "serial warm ask() round trips on one thread",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {
            "batched_ask_many": batching,
            "multi_thread_warm_asks": threading_result,
            "batched_differential": differential,
            "concurrent_differential": concurrent,
        },
        "gates": gates,
        "passed": bool(gates_passed and smoke_ok),
    }
    Path(output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    if not gates_passed:
        print(
            f"FAIL: serving gates not met (ask_many batched "
            f"{batching['batched_asks']}/{total} goals in "
            f"{batching['batch_executions']} statements, threads "
            f"{threading_result['speedup']}x vs gate "
            f"{thread_min}, batched identical={differential['identical']}, "
            f"concurrent identical={concurrent['identical']})",
            file=sys.stderr,
        )
    return gates_passed


def run_pushdown_benchmarks(
    quick: bool, output: str, smoke_ok: bool, seed: int
) -> bool:
    chain_depth, staff, iterations, max_levels, gate = (
        e15.QUICK_SIZES if quick else e15.FULL_SIZES
    )
    diff_depth, diff_branching, diff_staff, probes, rounds = (
        e15.QUICK_DIFF if quick else e15.FULL_DIFF
    )
    b_depth, b_branching, b_staff, total = (
        e15.QUICK_BATCH if quick else e15.FULL_BATCH
    )

    print(f"== E15 pushdown benchmarks ({'quick' if quick else 'full'}) ==")
    chain_org = e15.make_chain_org(chain_depth, staff)
    chain = e15.bench_chain_closure(chain_org, iterations, max_levels)
    print(
        f"{chain['chain_depth']}-chain closure: cte={chain['cte_seconds']}s "
        f"frontier={chain['frontier_seconds']}s ({chain['frontier_levels']} "
        f"levels) speedup={chain['speedup']}x commits={chain['cte_commits']} "
        f"(planner: {chain['planner_strategy']})"
    )
    differential = e15.differential_check(
        diff_depth, diff_branching, diff_staff, probes, rounds, seed=seed
    )
    print(
        f"strategy differential: {differential['probes']} probes over "
        f"{differential['churn_rounds']} churn rounds, "
        f"identical={differential['identical']}"
    )
    batching = e15.bench_recursive_ask_many(b_depth, b_branching, b_staff, total)
    print(
        f"recursive ask_many: {batching['goals']} goals in "
        f"{batching['recursive_batches']} batch statement(s), "
        f"identical={batching['identical']}"
    )

    gates = {
        "cte_min_speedup": gate,
        "cte_max_commits": 0,
        "cte_max_reprints": 0,
        "planner_picks_pushdown_tier": True,
        "differential_identical": True,
        "ask_many_recursive_batched": True,
    }
    gates_passed = (
        chain["speedup"] >= gate
        and chain["cte_commits"] == 0
        and chain["cte_sql_prints"] == 0
        # PR 7: the planner may now prefer the interval probe over the
        # CTE on tree-shaped chains — both are the pushdown tier.
        and chain["planner_strategy"] in ("cte", "interval")
        and chain["identical"]
        and differential["identical"]
        and batching["recursive_batches"] >= 1
        and batching["identical"]
    )
    record = {
        "benchmark": "E15 backend pushdown "
        "(WITH RECURSIVE CTE + statistics-driven cost-based planning)",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "baseline": "prepared setrel frontier loop: one round-trip and one "
        "commit per recursion level",
        "workloads": {
            "chain_closure": chain,
            "strategy_differential": differential,
            "recursive_ask_many": batching,
        },
        "gates": gates,
        "passed": bool(gates_passed and smoke_ok),
    }
    Path(output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    if not gates_passed:
        print(
            f"FAIL: pushdown gates not met (cte {chain['speedup']}x < {gate}x, "
            f"commits {chain['cte_commits']}, planner "
            f"{chain['planner_strategy']}, differential "
            f"identical={differential['identical']}, recursive batches "
            f"{batching['recursive_batches']})",
            file=sys.stderr,
        )
    return gates_passed


def run_resilience_benchmarks(
    quick: bool, output: str, smoke_ok: bool, seed: int
) -> bool:
    depth, branching, staff, asks, batch_size, warm_us, batched_us = (
        e16.QUICK_SIZES if quick else e16.FULL_SIZES
    )
    events, horizon, drain_limit = e16.QUICK_DIFF if quick else e16.FULL_DIFF
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )

    print(f"== E16 resilience benchmarks ({'quick' if quick else 'full'}) ==")
    overhead = e16.bench_overhead(org, asks, batch_size)
    print(
        f"fault-free overhead: warm enabled="
        f"{overhead['enabled_warm_asks_per_second']}/s disabled="
        f"{overhead['disabled_warm_asks_per_second']}/s "
        f"({overhead['warm_overhead_us']:+.2f} µs/ask, "
        f"{overhead['warm_overhead_pct']:+.2f}%), batched enabled="
        f"{overhead['enabled_batched_asks_per_second']}/s disabled="
        f"{overhead['disabled_batched_asks_per_second']}/s "
        f"({overhead['batched_overhead_us']:+.2f} µs/goal, "
        f"{overhead['batched_overhead_pct']:+.2f}%)"
    )
    differential = e16.fault_differential(
        org, seed=seed, events=events, horizon=horizon, drain_limit=drain_limit
    )
    print(
        f"fault differential (seed {seed}): "
        f"{differential['faults_injected']} faults injected "
        f"{differential['injected_by_kind']}, "
        f"identical={differential['identical']}, "
        f"exhausted={differential['schedule_exhausted']}, "
        f"quarantined after heal={differential['quarantined_after_heal']}, "
        f"error={differential['unhandled_error']}"
    )

    gates = {
        "warm_max_overhead_us": warm_us,
        "batched_max_overhead_us": batched_us,
        "differential_identical": True,
        "zero_unhandled_errors": True,
        "schedule_exhausted": True,
        "all_views_healed": True,
        "min_faults_injected": 1,
    }
    gates_passed = (
        overhead["warm_overhead_us"] <= warm_us
        and overhead["batched_overhead_us"] <= batched_us
        and differential["identical"]
        and differential["unhandled_error"] is None
        and differential["schedule_exhausted"]
        and differential["quarantined_after_heal"] == 0
        and differential["faults_injected"] >= 1
    )
    record = {
        "benchmark": "E16 fault-tolerant execution "
        "(fault injection + retry/backoff + degradation ladder + "
        "self-healing views)",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "baseline": "FaultPolicy.disabled(): the pre-resilience execution "
        "path (bounded lock patience, no probes, no retries)",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {
            "fault_free_overhead": overhead,
            "seeded_fault_differential": differential,
        },
        "gates": gates,
        "passed": bool(gates_passed and smoke_ok),
    }
    Path(output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    if not gates_passed:
        print(
            f"FAIL: resilience gates not met (warm overhead "
            f"{overhead['warm_overhead_us']} vs {warm_us} µs/ask, batched "
            f"{overhead['batched_overhead_us']} vs {batched_us} µs/goal, "
            f"identical={differential['identical']}, "
            f"error={differential['unhandled_error']}, "
            f"exhausted={differential['schedule_exhausted']}, "
            f"quarantined={differential['quarantined_after_heal']}, "
            f"injected={differential['faults_injected']})",
            file=sys.stderr,
        )
    return gates_passed


def run_interval_benchmarks(
    quick: bool, output: str, smoke_ok: bool, seed: int
) -> bool:
    depth, branching, staff, rounds, gate = (
        e17.QUICK_PROBE if quick else e17.FULL_PROBE
    )
    c_depth, c_branching, c_staff, probes, churn_rounds = (
        e17.QUICK_CHURN if quick else e17.FULL_CHURN
    )
    b_depth, b_branching, b_staff, total = (
        e17.QUICK_BATCH if quick else e17.FULL_BATCH
    )

    print(f"== E17 interval benchmarks ({'quick' if quick else 'full'}) ==")
    probe = e17.bench_probe_latency(depth, branching, staff, rounds)
    print(
        f"{probe['employees']}-employee hierarchy (depth "
        f"{probe['tree_depth']}): interval={probe['interval_seconds']}s "
        f"cte={probe['cte_seconds']}s speedup={probe['speedup']}x "
        f"(end-to-end {probe['solve_speedup']}x, build "
        f"{probe['labeling_build_seconds']}s, planner: "
        f"{probe['planner_strategy']})"
    )
    churn = e17.churn_differential(
        c_depth, c_branching, c_staff, probes, churn_rounds, seed=seed
    )
    print(
        f"churn differential: {churn['probes']} probes over "
        f"{churn['churn_rounds']} rounds ({churn['hires']} hires), "
        f"absorbs={churn['local_absorbs']} tombstones={churn['tombstones']} "
        f"exhaustions={churn['gap_exhaustions']} relabels={churn['relabels']}, "
        f"identical={churn['identical']}"
    )
    batching = e17.bench_interval_ask_many(b_depth, b_branching, b_staff, total)
    print(
        f"interval ask_many: {batching['goals']} goals in "
        f"{batching['recursive_batches']} batch statement(s), "
        f"identical={batching['identical']}"
    )

    gates = {
        "interval_min_speedup": gate,
        "interval_max_commits": 0,
        "interval_max_reprints": 0,
        "planner_picks_interval": True,
        "differential_identical": True,
        "min_local_absorbs": 1,
        "max_demotions": 0,
        "ask_many_recursive_batched": True,
    }
    gates_passed = (
        probe["speedup"] >= gate
        and probe["interval_commits"] == 0
        and probe["interval_sql_prints"] == 0
        and probe["planner_strategy"] == "interval"
        and probe["identical"]
        and churn["identical"]
        and churn["local_absorbs"] >= 1
        and churn["demotions"] == 0
        and batching["recursive_batches"] >= 1
        and batching["identical"]
    )
    record = {
        "benchmark": "E17 interval-labeled hierarchy accelerator "
        "(nested-set labeling + covering-index range probes)",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "baseline": "prepared WITH RECURSIVE CTE probes (the PR 5 "
        "pushdown tier)",
        "workloads": {
            "probe_latency": probe,
            "churn_differential": churn,
            "interval_ask_many": batching,
        },
        "gates": gates,
        "passed": bool(gates_passed and smoke_ok),
    }
    Path(output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    if not gates_passed:
        print(
            f"FAIL: interval gates not met (speedup {probe['speedup']}x "
            f"< {gate}x, commits {probe['interval_commits']}, planner "
            f"{probe['planner_strategy']}, differential "
            f"identical={churn['identical']}, absorbs "
            f"{churn['local_absorbs']}, demotions {churn['demotions']}, "
            f"recursive batches {batching['recursive_batches']})",
            file=sys.stderr,
        )
    return gates_passed


def run_scaleout_benchmarks(
    quick: bool, output: str, smoke_ok: bool, seed: int
) -> bool:
    depth, branching, staff = e18.QUICK_SIZES if quick else e18.FULL_SIZES
    workers, drivers, total = e18.QUICK_FLEET if quick else e18.FULL_FLEET
    clients, client_asks, writes = e18.QUICK_COAL if quick else e18.FULL_COAL
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )

    print(f"== E18 scale-out benchmarks ({'quick' if quick else 'full'}) ==")
    fleet = e18.bench_fleet(org, workers, drivers, total)
    floor = (
        e18.QUICK_SINGLE_CORE_FLOOR if quick else e18.SINGLE_CORE_FLOOR
    )
    fleet_min, fleet_ok = e18.worker_gate(fleet, floor)
    print(
        f"{workers}-worker fleet: multi="
        f"{fleet['multi_worker_asks_per_second']}/s single="
        f"{fleet['single_worker_asks_per_second']}/s "
        f"speedup={fleet['speedup']}x "
        f"(gate {fleet_min} on {fleet['cpu_count']} cpu(s))"
    )
    coalesced = e18.coalesced_differential(
        org, clients, client_asks, writes, seed=seed
    )
    print(
        f"coalesced differential: {coalesced['answers_observed']} answers "
        f"vs {coalesced['checkpoint_states']} states, "
        f"stray={coalesced['stray_answers']}, "
        f"{coalesced['coalesced_batches']} batches "
        f"({coalesced['batched_goals']} goals coalesced), "
        f"identical={coalesced['identical']}"
    )

    gates = {
        "fleet_min_speedup": fleet_min,
        "coalesced_differential_identical": True,
        "min_coalesced_batches": 1,
    }
    gates_passed = (
        fleet_ok
        and coalesced["identical"]
        and coalesced["coalesced_batches"] >= 1
    )
    record = {
        "benchmark": "E18 scale-out serving tier "
        "(multi-process workers + snapshot shipping + coalescing front door)",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "baseline": "one worker process behind the same tier and driver load",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {
            "fleet_throughput": fleet,
            "coalesced_differential": coalesced,
        },
        "gates": gates,
        "passed": bool(gates_passed and smoke_ok),
    }
    Path(output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    if not gates_passed:
        print(
            f"FAIL: scale-out gates not met (fleet {fleet['speedup']}x vs "
            f"gate {fleet_min}, coalesced identical="
            f"{coalesced['identical']}, batches "
            f"{coalesced['coalesced_batches']})",
            file=sys.stderr,
        )
    return gates_passed


def run_observe_benchmarks(
    quick: bool, output: str, smoke_ok: bool, seed: int
) -> bool:
    depth, branching, staff, asks, batch_size, warm_us, batched_us = (
        e20.QUICK_SIZES if quick else e20.FULL_SIZES
    )
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )

    print(f"== E20 observability benchmarks ({'quick' if quick else 'full'}) ==")
    overhead = e20.bench_overhead(org, asks, batch_size)
    print(
        f"tracing overhead: warm enabled="
        f"{overhead['enabled_warm_asks_per_second']}/s disabled="
        f"{overhead['disabled_warm_asks_per_second']}/s "
        f"({overhead['warm_overhead_us']:+.2f} µs/ask, "
        f"{overhead['warm_overhead_pct']:+.2f}%), batched enabled="
        f"{overhead['enabled_batched_asks_per_second']}/s disabled="
        f"{overhead['disabled_batched_asks_per_second']}/s "
        f"({overhead['batched_overhead_us']:+.2f} µs/goal, "
        f"{overhead['batched_overhead_pct']:+.2f}%)"
    )
    print(
        f"trace completeness: {overhead['spans_committed']}/"
        f"{overhead['spans_expected']} spans committed "
        f"(complete={overhead['trace_complete']}), "
        f"{overhead['resident_records']} resident records, "
        f"disabled-side spans={overhead['disabled_spans']}"
    )

    gates = {
        "warm_max_overhead_us": warm_us,
        "batched_max_overhead_us": batched_us,
        "trace_complete": True,
        "disabled_spans_zero": True,
        "traces_json_serializable": True,
    }
    gates_passed = (
        overhead["warm_overhead_us"] <= warm_us
        and overhead["batched_overhead_us"] <= batched_us
        and overhead["trace_complete"]
        and overhead["disabled_spans"] == 0
        and overhead["traces_json_serializable"]
    )
    record = {
        "benchmark": "E20 query tracing & metrics layer "
        "(per-ask spans + phase timings + slow-query log + "
        "structured export)",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "baseline": "tracing=False: the kill-switch path (no span "
        "allocation, no execute observer, no clock reads)",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {"tracing_overhead": overhead},
        "gates": gates,
        "passed": bool(gates_passed and smoke_ok),
    }
    Path(output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    if not gates_passed:
        print(
            f"FAIL: observability gates not met (warm overhead "
            f"{overhead['warm_overhead_us']} vs {warm_us} µs/ask, batched "
            f"{overhead['batched_overhead_us']} vs {batched_us} µs/goal, "
            f"complete={overhead['trace_complete']}, disabled spans="
            f"{overhead['disabled_spans']})",
            file=sys.stderr,
        )
    return gates_passed


def run_cqa_benchmarks(
    quick: bool, output: str, smoke_ok: bool, seed: int
) -> bool:
    cases, warm_asks, min_speedup = (
        e19.QUICK_SIZES if quick else e19.FULL_SIZES
    )

    print(f"== E19 consistent-query-answering benchmarks "
          f"({'quick' if quick else 'full'}) ==")
    differential = e19.bench_differential(seed=seed, cases=cases)
    print(
        f"certain-answer differential: {differential['identical']}/"
        f"{differential['cases']} identical to repair brute force "
        f"(modes: {differential['modes']})"
    )
    identity = e19.bench_clean_identity()
    print(
        f"clean-store identity: {identity['identical']}/"
        f"{identity['goals']} byte-identical, "
        f"{identity['extra_statements']} extra statements, "
        f"{identity['probes']} probes for "
        f"{identity['clean_fast_paths']} fast-path asks"
    )
    speedup = e19.bench_warm_speedup(warm_asks)
    print(
        f"warm rewriting: {speedup['warm_asks_per_second']}/s warm vs "
        f"{speedup['cold_asks_per_second']}/s cold compile "
        f"({speedup['speedup']}x, gate >= {min_speedup}x)"
    )

    gates = {
        "differential_identical": True,
        "both_paths_exercised": True,
        "clean_identity": True,
        "clean_extra_statements_zero": True,
        "min_warm_speedup": min_speedup,
    }
    gates_passed = (
        differential["all_identical"]
        and differential["both_paths_exercised"]
        and identity["all_identical"]
        and identity["extra_statements"] == 0
        and speedup["speedup"] >= min_speedup
    )
    record = {
        "benchmark": "E19 consistent query answering "
        "(violation probes + Koutris-Wijsen certainty rewriting + "
        "block-wise repair enumeration)",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "baseline": "plain ask() intersected over every explicitly "
        "materialized repair (one fresh store + session per repair)",
        "workloads": {
            "differential": differential,
            "clean_identity": identity,
            "warm_speedup": speedup,
        },
        "gates": gates,
        "passed": bool(gates_passed and smoke_ok),
    }
    Path(output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {output}")
    if not gates_passed:
        print(
            f"FAIL: cqa gates not met (identical="
            f"{differential['identical']}/{differential['cases']}, "
            f"modes={differential['modes']}, clean identical="
            f"{identity['identical']}/{identity['goals']}, extra "
            f"statements={identity['extra_statements']}, speedup="
            f"{speedup['speedup']}x vs {min_speedup}x)",
            file=sys.stderr,
        )
    return gates_passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: run the pytest smoke marker plus reduced-size benches",
    )
    parser.add_argument(
        "--skip-tests",
        action="store_true",
        help="with --quick: skip the smoke pytest run",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the engine benchmark record (default: repo-root "
        "BENCH_engine.json in full mode, BENCH_engine.quick.json in --quick "
        "mode so the committed record survives CI runs)",
    )
    parser.add_argument(
        "--coupling-output",
        default=None,
        help="where to write the coupling benchmark record (default: "
        "repo-root BENCH_coupling.json / BENCH_coupling.quick.json)",
    )
    parser.add_argument(
        "--materialize-output",
        default=None,
        help="where to write the materialize benchmark record (default: "
        "repo-root BENCH_materialize.json / BENCH_materialize.quick.json)",
    )
    parser.add_argument(
        "--serving-output",
        default=None,
        help="where to write the serving benchmark record (default: "
        "repo-root BENCH_serving.json / BENCH_serving.quick.json)",
    )
    parser.add_argument(
        "--pushdown-output",
        default=None,
        help="where to write the pushdown benchmark record (default: "
        "repo-root BENCH_pushdown.json / BENCH_pushdown.quick.json)",
    )
    parser.add_argument(
        "--resilience-output",
        default=None,
        help="where to write the resilience benchmark record (default: "
        "repo-root BENCH_resilience.json / BENCH_resilience.quick.json)",
    )
    parser.add_argument(
        "--intervals-output",
        default=None,
        help="where to write the interval-accelerator benchmark record "
        "(default: repo-root BENCH_intervals.json / "
        "BENCH_intervals.quick.json)",
    )
    parser.add_argument(
        "--scaleout-output",
        default=None,
        help="where to write the scale-out serving benchmark record "
        "(default: repo-root BENCH_scaleout.json / "
        "BENCH_scaleout.quick.json)",
    )
    parser.add_argument(
        "--cqa-output",
        default=None,
        help="where to write the consistent-query-answering benchmark "
        "record (default: repo-root BENCH_cqa.json / "
        "BENCH_cqa.quick.json)",
    )
    parser.add_argument(
        "--observe-output",
        default=None,
        help="where to write the observability benchmark record (default: "
        "repo-root BENCH_observe.json / BENCH_observe.quick.json)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated benchmark selector (e.g. 'E15' or 'E11,E12'); "
        f"default runs all of {','.join(BENCH_NAMES)}",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=5,
        help="seed threaded into every randomized differential (E13 trace, "
        "E14 batched + concurrent); recorded in each BENCH_*.json so a "
        "failing run is reproducible",
    )
    arguments = parser.parse_args()
    if arguments.output is None:
        name = "BENCH_engine.quick.json" if arguments.quick else "BENCH_engine.json"
        arguments.output = str(REPO_ROOT / name)
    if arguments.coupling_output is None:
        name = (
            "BENCH_coupling.quick.json"
            if arguments.quick
            else "BENCH_coupling.json"
        )
        arguments.coupling_output = str(REPO_ROOT / name)
    if arguments.materialize_output is None:
        name = (
            "BENCH_materialize.quick.json"
            if arguments.quick
            else "BENCH_materialize.json"
        )
        arguments.materialize_output = str(REPO_ROOT / name)
    if arguments.serving_output is None:
        name = (
            "BENCH_serving.quick.json"
            if arguments.quick
            else "BENCH_serving.json"
        )
        arguments.serving_output = str(REPO_ROOT / name)
    if arguments.pushdown_output is None:
        name = (
            "BENCH_pushdown.quick.json"
            if arguments.quick
            else "BENCH_pushdown.json"
        )
        arguments.pushdown_output = str(REPO_ROOT / name)

    if arguments.resilience_output is None:
        name = (
            "BENCH_resilience.quick.json"
            if arguments.quick
            else "BENCH_resilience.json"
        )
        arguments.resilience_output = str(REPO_ROOT / name)

    if arguments.intervals_output is None:
        name = (
            "BENCH_intervals.quick.json"
            if arguments.quick
            else "BENCH_intervals.json"
        )
        arguments.intervals_output = str(REPO_ROOT / name)
    if arguments.scaleout_output is None:
        name = (
            "BENCH_scaleout.quick.json"
            if arguments.quick
            else "BENCH_scaleout.json"
        )
        arguments.scaleout_output = str(REPO_ROOT / name)
    if arguments.cqa_output is None:
        name = (
            "BENCH_cqa.quick.json" if arguments.quick else "BENCH_cqa.json"
        )
        arguments.cqa_output = str(REPO_ROOT / name)
    if arguments.observe_output is None:
        name = (
            "BENCH_observe.quick.json"
            if arguments.quick
            else "BENCH_observe.json"
        )
        arguments.observe_output = str(REPO_ROOT / name)

    if arguments.only is None:
        selected = set(BENCH_NAMES)
    else:
        selected = {part.strip().upper() for part in arguments.only.split(",")}
        unknown = selected - set(BENCH_NAMES)
        if unknown:
            print(
                f"unknown --only selector(s) {sorted(unknown)}; "
                f"expected a subset of {','.join(BENCH_NAMES)}",
                file=sys.stderr,
            )
            return 2

    smoke_ok = True
    if arguments.quick and not arguments.skip_tests:
        smoke_ok = run_smoke_tests()

    seed = arguments.seed
    runners = {
        "E11": lambda: run_engine_benchmarks(
            arguments.quick, arguments.output, smoke_ok, seed
        ),
        "E12": lambda: run_coupling_benchmarks(
            arguments.quick, arguments.coupling_output, smoke_ok, seed
        ),
        "E13": lambda: run_materialize_benchmarks(
            arguments.quick, arguments.materialize_output, smoke_ok, seed
        ),
        "E14": lambda: run_serving_benchmarks(
            arguments.quick, arguments.serving_output, smoke_ok, seed
        ),
        "E15": lambda: run_pushdown_benchmarks(
            arguments.quick, arguments.pushdown_output, smoke_ok, seed
        ),
        "E16": lambda: run_resilience_benchmarks(
            arguments.quick, arguments.resilience_output, smoke_ok, seed
        ),
        "E17": lambda: run_interval_benchmarks(
            arguments.quick, arguments.intervals_output, smoke_ok, seed
        ),
        "E18": lambda: run_scaleout_benchmarks(
            arguments.quick, arguments.scaleout_output, smoke_ok, seed
        ),
        "E19": lambda: run_cqa_benchmarks(
            arguments.quick, arguments.cqa_output, smoke_ok, seed
        ),
        "E20": lambda: run_observe_benchmarks(
            arguments.quick, arguments.observe_output, smoke_ok, seed
        ),
    }
    results = {
        name: runner()
        for name, runner in runners.items()
        if name in selected
    }

    if not smoke_ok:
        print("FAIL: smoke tests failed", file=sys.stderr)
        return 1
    if not all(results.values()):
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
