"""E19 — consistent query answering over inconsistent stores.

Claims gated by :func:`run` (recorded in ``BENCH_cqa.json`` by
``benchmarks/run_all.py``):

* **certain-answer differential** — over seeded randomized inconsistent
  stores, ``ask_consistent`` returns exactly the intersection of plain
  ``ask`` over every explicitly materialized repair, and the generated
  case pool exercises **both** regimes: the FO-rewriting path
  (self-join-free goals, attack graph acyclic) and the block-wise
  repair-enumeration fallback (self-joins);
* **clean-store identity** — on a store with no key violations,
  ``ask_consistent`` returns byte-identical answers to ``ask`` and,
  once the violation probe is cached, executes **zero extra SQL
  statements** (the consistency guarantee is free when the store is
  consistent);
* **warm rewriting speedup** — a warm FO-rewritten consistent ask (plan
  served from the consistent-mode shape cache, constants bound into the
  prepared rewriting) sustains **>= 5x** the throughput of the cold
  path that recompiles the certainty rewriting every ask.
"""

import random
import time

from repro.coupling import PrologDbSession
from repro.prolog.reader import parse_goal
from repro.cqa import repair_instances, split_blocks
from repro.dbms.sqlite_backend import ExternalDatabase
from repro.schema.empdep import empdep_constraints, empdep_schema

#: (differential cases, warm asks, min warm/cold speedup)
FULL_SIZES = (40, 400, 5.0)
QUICK_SIZES = (10, 80, 2.0)

#: timing repeats per side; the minimum is reported (noise rejection).
REPEATS = 5

DEPT_ROWS = ((10, "sales", 1), (20, "eng", 2))

#: Goal pool spanning both regimes: the first four are self-join-free
#: (FO-rewritable); the last self-joins ``empl`` and forces enumeration.
GOALS = (
    ("rewritten", "empl(E, N, S, D)"),
    ("rewritten", "empl(1, N, S, D)"),
    ("rewritten", "empl(E, N, S, 10)"),
    ("rewritten", "empl(E, N, S, D), dept(D, F, M)"),
    ("enumerated", "empl(E, N, S, D), empl(M, N2, S2, D2), dept(D, F, M)"),
)


def _session(empl_rows, dept_rows=DEPT_ROWS):
    schema = empdep_schema()
    constraints = empdep_constraints(schema)
    database = ExternalDatabase(schema, constraints=constraints)
    database.insert_rows("empl", empl_rows)
    database.insert_rows("dept", dept_rows)
    return PrologDbSession(
        schema=schema, constraints=constraints, database=database
    )


def _random_store(rng):
    """A small employee store with deliberate key collisions.

    Keys draw from three values over up to six rows, so violating
    blocks are near-certain but the repair space stays tiny; salaries
    respect the declared valuebound [10000, 90000].
    """
    rows = []
    for _ in range(rng.randint(2, 6)):
        rows.append(
            (
                rng.randint(1, 3),
                rng.choice(("ann", "bob", "cal", "dee")),
                rng.choice((20000, 30000, 40000)),
                rng.choice((10, 20)),
            )
        )
    return rows


def _brute_force(goal, empl_rows, dept_rows=DEPT_ROWS):
    """Intersection of plain ``ask`` over every materialized repair."""
    schema = empdep_schema()
    constraints = empdep_constraints(schema)
    fixed, blocks = {}, {}
    for name, rows in (("empl", empl_rows), ("dept", dept_rows)):
        key = constraints.primary_key(name)
        attributes = tuple(schema.relation(name).attributes)
        positions = [attributes.index(a) for a in key]
        fixed[name], blocks[name] = split_blocks(list(rows), positions)
    certain = None
    for instance in repair_instances(fixed, blocks):
        database = ExternalDatabase(schema, constraints=constraints)
        for name, rows in instance.items():
            database.insert_rows(name, rows)
        with PrologDbSession(
            schema=schema, constraints=constraints, database=database
        ) as repair_session:
            found = {
                frozenset(a.items()) for a in repair_session.ask(goal)
            }
        certain = found if certain is None else certain & found
        if not certain:
            break
    return certain or set()


def bench_differential(seed, cases):
    """Seeded randomized stores: ``ask_consistent`` vs repair brute force.

    Each case draws a fresh inconsistent store and one goal from the
    pool; the result records how many cases ran under each CQA mode so
    the gate can insist both paths were genuinely exercised.
    """
    rng = random.Random(seed)
    modes = {"rewritten": 0, "enumerated": 0, "clean_fast_path": 0}
    identical = 0
    for index in range(cases):
        rows = _random_store(rng)
        _expected_mode, goal = GOALS[index % len(GOALS)]
        with _session(rows) as session:
            certain = {
                frozenset(a.items())
                for a in session.ask_consistent(goal)
            }
            mode = session.traces()[-1]["cqa"]["mode"]
        modes[mode] = modes.get(mode, 0) + 1
        if certain == _brute_force(goal, rows):
            identical += 1
    return {
        "cases": cases,
        "seed": seed,
        "identical": identical,
        "all_identical": identical == cases,
        "modes": modes,
        "both_paths_exercised": (
            modes["rewritten"] > 0 and modes["enumerated"] > 0
        ),
    }


def bench_clean_identity():
    """Clean store: byte-identical answers, zero extra statements."""
    clean_rows = [
        (eno, f"emp{eno:02d}", 20000 + 1000 * eno, 10 + 10 * (eno % 2))
        for eno in range(1, 9)
    ]
    goals = ("empl(E, N, S, 10)", "empl(3, N, S, D)", "empl(E, N, S, D)")
    with _session(clean_rows) as session:
        for goal in goals:  # warm plans and the violation probes
            session.ask(goal)
            session.ask_consistent(goal)
        identical = 0
        extra_statements = 0
        for goal in goals:
            plain = session.ask(goal)
            plain_statements = session.traces()[-1]["statements"]
            consistent = session.ask_consistent(goal)
            trace = session.traces()[-1]
            if consistent == plain:  # order included: byte-identical
                identical += 1
            extra_statements += max(
                0, trace["statements"] - plain_statements
            )
        stats = session.stats()["cqa"]
    return {
        "goals": len(goals),
        "identical": identical,
        "all_identical": identical == len(goals),
        "extra_statements": extra_statements,
        "clean_fast_paths": stats["clean_fast_paths"],
        "probes": stats["probes"],
    }


def bench_warm_speedup(warm_asks):
    """Warm FO-rewritten asks vs recompiling the rewriting every ask.

    Both sides serve the same self-join-free view shape over the same
    dirty store, constants rotating, goals pre-parsed (the E14 serving
    convention: parsing is not the path being gated); the cold side
    invalidates the plan cache before every ask so each one pays view
    expansion, classification, metaevaluation, Algorithm 2, SQL
    printing, and the certainty-suffix compilation.
    """
    dirty_rows = [
        (1, "ann", 50000, 10),
        (2, "bob", 40000, 10),
        (2, "bob2", 45000, 20),
        (3, "cal", 30000, 20),
    ]
    goals = [
        parse_goal(f"dir_of({1 + i % 3}, M)") for i in range(warm_asks)
    ]
    result = {"warm_asks": warm_asks}
    with _session(dirty_rows) as session:
        session.consult(
            "dir_of(E, M) :- empl(E, N, S, D), dept(D, F, M).\n"
        )
        session.ask_consistent(goals[0])  # compile once, warm the probe
        best = {"warm": float("inf"), "cold": float("inf")}
        clock = time.perf_counter
        for _ in range(REPEATS):
            started = clock()
            for goal in goals:
                session.ask_consistent(goal)
            best["warm"] = min(best["warm"], clock() - started)
        cold_asks = max(8, warm_asks // 8)  # compiles are ~two orders slower
        for _ in range(REPEATS):
            started = clock()
            for goal in goals[:cold_asks]:
                session.plans.invalidate()
                session.ask_consistent(goal)
            best["cold"] = min(best["cold"], clock() - started)
        stats = session.stats()["cqa"]
    result["warm_asks_per_second"] = round(warm_asks / best["warm"], 1)
    result["cold_asks_per_second"] = round(cold_asks / best["cold"], 1)
    result["cold_asks"] = cold_asks
    result["speedup"] = round(
        result["warm_asks_per_second"] / result["cold_asks_per_second"], 2
    )
    result["rewrite_cache_hits"] = stats["rewrite_cache_hits"]
    result["rewrite_compiles"] = stats["rewrite_compiles"]
    return result


def run(quick: bool, seed: int) -> dict:
    """The E19 record and its gates; ``seed`` draws the differential stores."""
    cases, warm_asks, min_speedup = QUICK_SIZES if quick else FULL_SIZES
    differential = bench_differential(seed=seed, cases=cases)
    identity = bench_clean_identity()
    speedup = bench_warm_speedup(warm_asks)
    return {
        "benchmark": "E19 consistent query answering "
        "(violation probes + Koutris-Wijsen certainty rewriting + "
        "block-wise repair enumeration)",
        "baseline": "plain ask() intersected over every explicitly "
        "materialized repair (one fresh store + session per repair)",
        "workloads": {
            "differential": differential,
            "clean_identity": identity,
            "warm_speedup": speedup,
        },
        "gates": [
            ("differential_identical", differential["all_identical"], "==", True),
            (
                "both_paths_exercised",
                differential["both_paths_exercised"],
                "==",
                True,
            ),
            ("clean_identity", identity["all_identical"], "==", True),
            ("clean_extra_statements_zero", identity["extra_statements"], "==", 0),
            ("min_warm_speedup", speedup["speedup"], ">=", min_speedup),
            ("warm_rewrite_cache_hits", speedup["rewrite_cache_hits"], ">", 0),
        ],
    }


def test_e19_quick_gates():
    from run_all import failed

    assert not failed(run(quick=True, seed=5)["gates"])
