"""E11 — resolution hot-path overhaul: measured speedups vs the baseline.

Claims gated by :func:`run` (recorded in ``BENCH_engine.json`` by
``benchmarks/run_all.py``):

* a three-way join proof over a 10k-fact relation runs **>= 5x** faster
  than the pinned pre-overhaul engine (measured ~3 orders of magnitude:
  resolved-goal index probes replace full scans + ``rename_apart`` of
  every fact per join step);
* the E7-shaped transitive-closure proof runs **>= 3x** faster;
* both engines perform the *same inference steps* and produce the same
  answers — the speedup is pure hot-path mechanics, not pruning;
* ``KnowledgeBase.snapshot`` is copy-on-write: snapshotting a 10k-fact
  store must not degrade with clause count the way re-asserting does.
"""

import time

from engine_workloads import (
    JOIN_GOAL,
    RECURSION_GOAL,
    build_join_kb,
    build_recursion_kb,
    compare_engines,
    run_goal,
)
from repro.prolog.engine import Engine

#: (join facts, join iterations, recursion chain, join gate, recursion gate)
FULL = (10_000, 5, 300, 5.0, 3.0)
QUICK = (2_000, 3, 120, 2.0, 2.0)


def run(quick: bool, seed: int) -> dict:
    """The E11 record and its gates (no randomized part: ``seed`` unused)."""
    facts, iterations, chain, join_gate, recursion_gate = (
        QUICK if quick else FULL
    )
    join = compare_engines(build_join_kb(facts), JOIN_GOAL, iterations=iterations)
    join["facts"] = facts
    recursion = compare_engines(build_recursion_kb(chain), RECURSION_GOAL)
    recursion["chain_length"] = chain
    return {
        "benchmark": "E11 resolution hot-path overhaul",
        "baseline": "repro.prolog.legacy (pinned pre-overhaul engine)",
        "workloads": {"join_proof": join, "recursion_proof": recursion},
        "gates": [
            ("join_min_speedup", join["speedup"], ">=", join_gate),
            ("recursion_min_speedup", recursion["speedup"], ">=", recursion_gate),
            (
                "join_same_steps",
                join["optimized_steps"] == join["legacy_steps"],
                "==",
                True,
            ),
            (
                "recursion_same_steps",
                recursion["optimized_steps"] == recursion["legacy_steps"],
                "==",
                True,
            ),
        ],
    }


def test_e11_quick_gates():
    from run_all import failed

    assert not failed(run(quick=True, seed=5)["gates"])


def test_e11_join_proof_speedup(benchmark):
    kb = build_join_kb(10_000)
    result = compare_engines(kb, JOIN_GOAL, iterations=5)
    print(f"\n[E11] 10k-fact join proof: legacy={result['legacy_seconds']:.3f}s "
          f"optimized={result['optimized_seconds']:.4f}s "
          f"speedup={result['speedup']:.0f}x")
    assert result["legacy_steps"] == result["optimized_steps"]
    assert result["speedup"] >= 5.0
    benchmark(lambda: run_goal(Engine, kb, JOIN_GOAL, iterations=5))


def test_e11_recursion_proof_speedup(benchmark):
    kb = build_recursion_kb(300)
    result = compare_engines(kb, RECURSION_GOAL)
    print(f"\n[E11] E7-shaped recursion proof: "
          f"legacy={result['legacy_seconds']:.3f}s "
          f"optimized={result['optimized_seconds']:.4f}s "
          f"speedup={result['speedup']:.0f}x")
    assert result["legacy_steps"] == result["optimized_steps"]
    assert result["speedup"] >= 3.0
    benchmark(lambda: run_goal(Engine, kb, RECURSION_GOAL))


def test_e11_snapshot_is_copy_on_write(benchmark):
    kb = build_join_kb(10_000)
    started = time.perf_counter()
    snapshots = [kb.snapshot() for _ in range(100)]
    elapsed = time.perf_counter() - started
    print(f"\n[E11] 100 snapshots of a 10k-fact store: {elapsed * 1000:.2f}ms")
    # Shared until written: the copy aliases the original procedure.
    assert snapshots[0]._procedures[("edge", 2)] is kb._procedures[("edge", 2)]
    snapshots[0].assert_fact("edge", "x", "y")
    assert kb.fact_count(("edge", 2)) == 10_000
    # Re-asserting 10k clauses (the old implementation) takes ~100ms; a
    # hundred copy-on-write snapshots must come in far under one.
    assert elapsed < 1.0
    benchmark(lambda: kb.snapshot())


def test_e11_assert_answers_merge_linear(benchmark):
    """Re-merging a large answer batch must not rescan stored clauses."""
    from repro.dbms.internal_db import assert_answers
    from repro.prolog.knowledge_base import KnowledgeBase
    from repro.prolog.terms import struct, var

    class _Target:
        def __init__(self, name):
            self.name = name

    class _Stub:
        def target_symbols(self):
            return [_Target("X"), _Target("Y")]

    goal = struct("pair", var("X"), var("Y"))
    rows = [(i, i + 1) for i in range(10_000)]
    kb = KnowledgeBase()
    assert assert_answers(kb, goal, _Stub(), [var("X"), var("Y")], rows) == 10_000

    def remerge():
        assert assert_answers(kb, goal, _Stub(), [var("X"), var("Y")], rows) == 0

    benchmark(remerge)
