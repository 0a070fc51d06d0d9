"""E20 — the query tracing and metrics layer.

Claims regression-gated here (and recorded in ``BENCH_observe.json`` by
``benchmarks/run_all.py``):

* **tracing overhead** — a tracer *enabled* at the default ring size
  costs at most a fixed number of microseconds per warm ask (the E12
  workload: two view shapes asked as *strings*, constants rotating per
  ask) and per batched goal (the E14 workload: the same shapes
  pre-parsed, executed as ``ask_many`` parameter batches), measured as
  ``(enabled − disabled) / asks`` against an identical session
  constructed with ``tracing=False``.  The gate is in µs, not percent:
  what the tracer does per ask is fixed, so a percentage rises whenever
  the ask itself gets cheaper;
* **trace completeness** — under the same workload, the enabled session
  commits exactly one span per ask (batched groups expand to one record
  per member goal), each span names its plan-cache outcome, and the
  whole trace surface round-trips through ``json.dumps``.

The disabled side is the true kill-switch path: no span allocation, no
backend execute observer, no clock reads — the gate therefore measures
everything tracing adds.  The pytest entry points gate the relaxed
quick thresholds; ``run_all.py`` applies the strict full gates.
"""

import json
import time

import pytest

from repro.coupling import PrologDbSession
from repro.coupling.global_opt import CachePolicy
from repro.dbms import generate_org
from repro.prolog.reader import parse_goal
from repro.schema import ALL_VIEWS_SOURCE

#: (org depth, branching, staff, warm asks, batch size,
#:  max tracer µs per warm ask, max tracer µs per batched goal)
FULL_SIZES = (4, 3, 6, 512, 64, 8.0, 1.0)
QUICK_SIZES = (3, 2, 4, 128, 32, 8.0, 1.5)

#: timing repeats per side; the minimum is reported (noise rejection).
#: A batched round is ~100x cheaper than a serial one, so the batched
#: mode affords (and, with only asks/batch_size ops to pair, needs)
#: proportionally more rounds for the same noise rejection.
REPEATS = 5
BATCHED_REPEATS = 20


def make_observed_session(tracing: bool) -> PrologDbSession:
    """A session differing from its twin only in the tracing switch."""
    return PrologDbSession(
        cache_policy=CachePolicy(enabled=False),
        tracing=tracing,
    )


def load_org_into(session, org):
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    return session


def warm_goal_strings(org, count):
    """The E12 warm-ask workload: two view shapes, constants rotating,
    asked as strings (parsing is part of the served path being gated)."""
    names = [e.nam for e in org.employees]
    goals = []
    for i in range(count):
        name = names[i % len(names)]
        if i % 2:
            goals.append(f"same_manager(X, {name})")
        else:
            goals.append(f"works_dir_for(X, {name})")
    return goals


def batched_goals(org, count):
    """The E14 batched workload: the same two shapes, pre-parsed."""
    names = [e.nam for e in org.employees]
    goals = []
    for i in range(count):
        name = names[(i * 13) % len(names)]
        if i % 2:
            goals.append(parse_goal(f"same_manager(X, {name})"))
        else:
            goals.append(parse_goal(f"works_dir_for(X, {name})"))
    return goals


def _paired_best_seconds(ops_by_side, repeats=REPEATS):
    """Per-operation paired timing: sum of per-op minima per side.

    The tracing overhead being measured is a few µs per ask, while the
    host's clock speed drifts by double-digit percentages on a seconds
    timescale — timing whole sides (or even whole rounds) one after the
    other buries the signal in drift.  Instead each operation (one ask,
    or one ``ask_many`` batch) is timed for *both* sides back to back,
    so a pair shares the same host-speed regime; the per-op minimum
    over ``REPEATS`` rounds then rejects residual jitter.  The same
    estimator applies to both sides, so the overhead ratio is unbiased.
    """
    labels = list(ops_by_side)
    count = len(ops_by_side[labels[0]])
    best = {label: [float("inf")] * count for label in labels}
    for label in labels:
        for op in ops_by_side[label]:
            op()  # untimed warm pass per side
    clock = time.perf_counter
    for rep in range(repeats):
        order = labels if rep % 2 == 0 else labels[::-1]
        for index in range(count):
            for label in order:
                op = ops_by_side[label][index]
                started = clock()
                op()
                elapsed = clock() - started
                if elapsed < best[label][index]:
                    best[label][index] = elapsed
    return {label: sum(minima) for label, minima in best.items()}


def bench_overhead(org, asks, batch_size):
    """Warm-ask and batched throughput: tracing enabled vs disabled.

    Result caching is off so every goal really executes — the comparison
    isolates the serving path, where every span touchpoint lives.
    """
    warm_goals = warm_goal_strings(org, asks)
    batch_terms = batched_goals(org, asks)
    sessions = {}
    for label, tracing in (("enabled", True), ("disabled", False)):
        session = load_org_into(make_observed_session(tracing), org)
        for goal in warm_goals[: min(8, len(warm_goals))]:
            session.ask(goal)  # warm both shapes' plans
        sessions[label] = session
    try:
        result = {"warm_asks": asks, "batch_size": batch_size}

        def ask_ops(session):
            return [
                lambda goal=goal, session=session: session.ask(goal)
                for goal in warm_goals
            ]

        def batch_ops(session):
            return [
                lambda chunk=batch_terms[start : start + batch_size],
                session=session: session.ask_many(chunk)
                for start in range(0, len(batch_terms), batch_size)
            ]

        for mode, make_ops, repeats in (
            ("warm", ask_ops, REPEATS),
            ("batched", batch_ops, BATCHED_REPEATS),
        ):
            timed = _paired_best_seconds(
                {label: make_ops(session)
                 for label, session in sessions.items()},
                repeats=repeats,
            )
            for label, seconds in timed.items():
                result[f"{label}_{mode}_asks_per_second"] = round(
                    asks / seconds, 1
                )
                result[f"{label}_{mode}_seconds"] = round(seconds, 4)
            result[f"{mode}_overhead_us"] = round(
                (timed["enabled"] - timed["disabled"]) / asks * 1e6, 3
            )
        for mode in ("warm", "batched"):
            enabled = result[f"enabled_{mode}_seconds"]
            disabled = result[f"disabled_{mode}_seconds"]
            result[f"{mode}_overhead_pct"] = round(
                (enabled / disabled - 1.0) * 100.0, 2
            )
        # completeness, measured on the session that did all the work:
        # 8 plan warm-ups, then per mode one warm-up round plus that
        # mode's timed rounds of ``asks`` goals each.
        enabled_session = sessions["enabled"]
        expected = 8 + (REPEATS + 1) * asks + (BATCHED_REPEATS + 1) * asks
        observe = enabled_session.stats()["observe"]
        traces = enabled_session.traces()
        result["spans_committed"] = observe["spans"]
        result["spans_expected"] = expected
        result["trace_complete"] = observe["spans"] == expected
        result["resident_records"] = len(traces)
        result["traces_json_serializable"] = bool(json.dumps(traces))
        result["disabled_spans"] = sessions["disabled"].stats()["observe"][
            "spans"
        ]
        return result
    finally:
        for session in sessions.values():
            session.close()


# -- pytest entry points (quick thresholds; run_all.py applies full gates) -----


@pytest.fixture(scope="module")
def org():
    depth, branching, staff = QUICK_SIZES[:3]
    return generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )


def test_e20_tracing_overhead(org):
    _d, _b, _s, asks, batch_size, warm_us, batched_us = QUICK_SIZES
    result = bench_overhead(org, asks, batch_size)
    assert result["warm_overhead_us"] <= warm_us
    assert result["batched_overhead_us"] <= batched_us
    assert result["trace_complete"]
    assert result["disabled_spans"] == 0
