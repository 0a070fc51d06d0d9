"""E14 — the concurrent batched serving layer.

Claims gated by :func:`run` (recorded in ``BENCH_serving.json`` by
``benchmarks/run_all.py``):

* **set-oriented batching** — on a rotating-constant workload over warm
  shapes, ``session.ask_many`` answers every goal through one
  ``IN (VALUES …)`` parameter-batch execution per shape per call,
  demultiplexed back to per-goal answers (gated as counts; the speedup
  over serial warm ``ask()`` calls, both sides fully warm with result
  caching off, is recorded but not gated: both sides ask pre-parsed
  terms, so a cheaper serial ask moves the ratio with the batch path
  unchanged);
* **concurrent serving** — warm pure-external asks from N threads (each
  on its own pooled read connection, under the knowledge base's read
  lock) show "no serialization collapse" (>= 0.7x single-thread — the
  lock and pool overhead must stay small) on any host: the interpreter
  lock serializes the Python half of every ask, so more cores alone do
  not make N threads beat one;
* **correctness** — a randomized differential proves ``ask_many`` and
  concurrent answers identical to serial ``ask()``, *including under
  interleaved writes with maintained materialized views*: batched
  answers equal serial answers equal a fresh session's answers after
  every write round, and every answer observed by a concurrent reader
  equals some write-script checkpoint state (the serial-interleaving
  guarantee of the reader–writer lock).
"""

import os
import random
import threading
import time

from repro.coupling import PrologDbSession
from repro.coupling.global_opt import CachePolicy
from repro.dbms import generate_org
from repro.prolog.reader import parse_goal
from repro.schema import ALL_VIEWS_SOURCE

#: (org depth, branching, staff, serial asks, batch size)
FULL_SIZES = (4, 3, 6, 512, 64)
QUICK_SIZES = (3, 2, 4, 128, 32)

#: (threads, asks per thread)
FULL_THREADS = (4, 250)
QUICK_THREADS = (4, 80)

#: (write rounds, goals per round)
FULL_DIFF = (12, 48)
QUICK_DIFF = (6, 24)

#: (reader threads, asks per reader, scripted writes)
FULL_CONC = (4, 120, 30)
QUICK_CONC = (3, 50, 12)


def make_session(org, result_cache: bool = False) -> PrologDbSession:
    """A loaded session; result caching off isolates execution cost."""
    session = PrologDbSession(
        cache_policy=CachePolicy(enabled=result_cache)
    )
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    return session


#: Shapes :func:`rotating_goals` alternates between.
ROTATING_SHAPES = 2


def rotating_goals(org, count: int) -> list:
    """Two warm shapes, constants rotating per goal (pre-parsed terms).

    Goals are parsed once up front so both the serial and the batched
    measurement pay zero parser cost — the comparison isolates the
    serving layer (bind + execute + demux vs per-goal round trips).
    """
    names = [e.nam for e in org.employees]
    goals = []
    for i in range(count):
        name = names[(i * 13) % len(names)]
        if i % 2:
            goals.append(parse_goal(f"works_dir_for(X, {name})"))
        else:
            goals.append(parse_goal(f"same_manager(X, {name})"))
    return goals


def answer_set(answers) -> frozenset:
    return frozenset(frozenset(a.items()) for a in answers)


# -- workload 1: set-oriented ask_many --------------------------------------------


def bench_ask_many(org, total: int, batch_size: int) -> dict:
    """Serial warm asks/s vs batched ask_many asks/s on one session."""
    session = make_session(org)
    goals = rotating_goals(org, total)
    for goal in goals:  # warm every shape and prime the parameterized plans
        session.ask(goal)

    started = time.perf_counter()
    for goal in goals:
        session.ask(goal)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for i in range(0, len(goals), batch_size):
        session.ask_many(goals[i : i + batch_size])
    batched_seconds = time.perf_counter() - started

    stats = session.stats()["plan_cache"]
    serial_rate = total / serial_seconds
    batched_rate = total / batched_seconds
    record = {
        "goals": total,
        "batch_size": batch_size,
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "serial_asks_per_second": round(serial_rate, 1),
        "batched_asks_per_second": round(batched_rate, 1),
        "speedup": round(batched_rate / serial_rate, 2),
        "batched_asks": stats["batched_asks"],
        "batch_executions": stats["batch_executions"],
    }
    session.close()
    return record


# -- workload 2: multi-threaded warm serving --------------------------------------


def bench_threads(org, threads: int, per_thread: int) -> dict:
    """Warm pure-external ask throughput: 1 thread vs N threads.

    The gate is "the serving layer does not collapse": N threads must
    sustain more than ``NO_COLLAPSE_FLOOR`` of the single-thread rate.
    """
    session = make_session(org)
    names = [e.nam for e in org.employees]
    goals = [
        parse_goal(f"same_manager(X, {names[(i * 37) % len(names)]})")
        for i in range(per_thread * threads)
    ]
    for goal in goals[:8]:
        session.ask(goal)

    def run(work):
        for goal in work:
            session.ask(goal)

    def throughput(nthreads: int) -> float:
        chunk = per_thread
        work = [goals[t * chunk : (t + 1) * chunk] for t in range(nthreads)]
        pool = [threading.Thread(target=run, args=(w,)) for w in work]
        started = time.perf_counter()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        return (nthreads * chunk) / (time.perf_counter() - started)

    # Best of two runs each: one-shot thread timings are noisy.
    single = max(throughput(1), throughput(1))
    multi = max(throughput(threads), throughput(threads))
    record = {
        "threads": threads,
        "asks_per_thread": per_thread,
        "cpu_count": os.cpu_count() or 1,
        "single_thread_asks_per_second": round(single, 1),
        "multi_thread_asks_per_second": round(multi, 1),
        "speedup": round(multi / single, 3),
        "pooled_read_connections": session.database.pool_peak,
    }
    session.close()
    return record


#: N threads vs one, on any host: the interpreter lock serializes the
#: Python half of every ask (a 2-cpu host read 0.43–1.2x), so the gate is
#: that the locks and the pool cost little, not that threads scale.
NO_COLLAPSE_FLOOR = 0.7


# -- workload 3: randomized batched differential ----------------------------------


def differential_check(org, rounds: int, goals_per_round: int, seed: int) -> dict:
    """ask_many == serial ask == fresh session, under interleaved writes.

    One serving session keeps two maintained materialized views while a
    random script asserts and retracts ``empl`` facts between rounds;
    every round a mixed batch (maintained-view goals, batchable warm
    shapes, recursive closures) is answered three ways and must agree.
    """
    rng = random.Random(seed)
    session = make_session(org, result_cache=True)
    session.materialize.view("works_dir_for(X, Y)")
    session.materialize.view("works_for(X, Y)")
    names = [e.nam for e in org.employees]
    boss = org.root_manager_name()
    eno_counter = iter(range(max(e.eno for e in org.employees) + 1, 10**9))
    synthetic: list[tuple] = []
    mismatches: list[str] = []
    checked = 0

    def random_goal() -> str:
        kind = rng.randrange(4)
        name = rng.choice(names)
        if kind == 0:
            return f"works_dir_for(X, {name})"
        if kind == 1:
            return f"same_manager(X, {name})"
        if kind == 2:
            return f"works_dir_for(X, {boss})"
        return f"works_for(X, {boss})"

    for _ in range(rounds):
        # interleaved writes: grow or shrink the synthetic staff
        for _ in range(rng.randrange(1, 4)):
            if synthetic and rng.random() < 0.45:
                row = synthetic.pop(rng.randrange(len(synthetic)))
                session.retract_fact("empl", *row)
            else:
                eno = next(eno_counter)
                dno = rng.choice([d.dno for d in org.departments])
                row = (eno, f"syn{eno}", 30_000, dno)
                session.assert_fact("empl", *row)
                synthetic.append(row)

        batch = [random_goal() for _ in range(goals_per_round)]
        batched = session.ask_many(batch)
        serial = [session.ask(goal) for goal in batch]
        # A cold session over a copy of the visible data (maintained
        # relations are eagerly externalized, so the external store holds
        # the whole union).
        fresh = PrologDbSession()
        fresh.database.insert_rows(
            "empl", session.database.fetch_relation("empl")
        )
        fresh.database.insert_rows(
            "dept", session.database.fetch_relation("dept")
        )
        fresh.consult(ALL_VIEWS_SOURCE)
        for goal, batched_answers, serial_answers in zip(batch, batched, serial):
            checked += 1
            want = answer_set(fresh.ask(goal))
            if answer_set(batched_answers) != want:
                mismatches.append(f"batched {goal}")
            if answer_set(serial_answers) != want:
                mismatches.append(f"serial {goal}")
        fresh.close()

    stats = session.stats()
    record = {
        "rounds": rounds,
        "goals_checked": checked,
        "writes_applied": stats["materialize"]["deltas_applied"],
        "batch_executions": stats["plan_cache"]["batch_executions"],
        "mismatches": mismatches[:8],
        "identical": not mismatches,
    }
    session.close()
    return record


# -- workload 4: concurrent readers vs a scripted writer --------------------------


def concurrent_differential(
    org, readers: int, asks_per_reader: int, writes: int, seed: int
) -> dict:
    """Every concurrently-observed answer equals a serial checkpoint state.

    A twin session replays the write script serially and records the
    probe goal's answer set after every step; the serving session then
    runs the same script from a writer thread while reader threads ask
    the probe goal under the read lock.  The reader–writer lock's
    guarantee is exactly "each observed answer is one of those states".
    """
    rng = random.Random(seed)
    probe_dept = rng.choice([d.dno for d in org.departments])
    manager = next(
        e.nam
        for d in org.departments
        if d.dno == probe_dept
        for e in org.employees
        if e.eno == d.mgr
    )
    probe = f"works_dir_for(X, {manager})"
    next_eno = max(e.eno for e in org.employees) + 1
    script = []
    alive: list[tuple] = []
    for i in range(writes):
        if alive and rng.random() < 0.5:
            script.append(("retract", alive.pop(rng.randrange(len(alive)))))
        else:
            row = (next_eno + i, f"conc{next_eno + i}", 41_000, probe_dept)
            script.append(("assert", row))
            alive.append(row)

    # Serial replay: the set of valid checkpoint answer states.
    twin = make_session(org, result_cache=True)
    twin.materialize.view("works_dir_for(X, Y)")
    states = {answer_set(twin.ask(probe))}
    for action, row in script:
        if action == "assert":
            twin.assert_fact("empl", *row)
        else:
            twin.retract_fact("empl", *row)

        states.add(answer_set(twin.ask(probe)))
    twin.close()

    session = make_session(org, result_cache=True)
    session.materialize.view("works_dir_for(X, Y)")
    session.ask(probe)
    observed: list[frozenset] = []
    observed_lock = threading.Lock()
    errors: list[str] = []

    def reader():
        try:
            local = []
            for _ in range(asks_per_reader):
                local.append(answer_set(session.ask(probe)))
            with observed_lock:
                observed.extend(local)
        except Exception as error:  # pragma: no cover - the gate reports it
            errors.append(repr(error))

    def writer():
        try:
            for action, row in script:
                if action == "assert":
                    session.assert_fact("empl", *row)
                else:
                    session.retract_fact("empl", *row)
        except Exception as error:  # pragma: no cover
            errors.append(repr(error))

    pool = [threading.Thread(target=reader) for _ in range(readers)]
    pool.append(threading.Thread(target=writer))
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()

    stray = sum(1 for state in observed if state not in states)
    record = {
        "readers": readers,
        "asks_per_reader": asks_per_reader,
        "writes": writes,
        "checkpoint_states": len(states),
        "answers_observed": len(observed),
        "stray_answers": stray,
        "errors": errors[:4],
        "identical": stray == 0 and not errors,
    }
    session.close()
    return record


def run(quick: bool, seed: int) -> dict:
    """The E14 record and its gates; ``seed`` drives both differentials."""
    depth, branching, staff, total, batch_size = (
        QUICK_SIZES if quick else FULL_SIZES
    )
    threads, per_thread = QUICK_THREADS if quick else FULL_THREADS
    diff_rounds, diff_goals = QUICK_DIFF if quick else FULL_DIFF
    readers, reader_asks, writes = QUICK_CONC if quick else FULL_CONC
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )
    batching = bench_ask_many(org, total, batch_size)
    threading_result = bench_threads(org, threads, per_thread)
    differential = differential_check(org, diff_rounds, diff_goals, seed=seed)
    concurrent = concurrent_differential(
        org, readers, reader_asks, writes, seed=seed
    )
    return {
        "benchmark": "E14 concurrent batched serving "
        "(ask_many + thread-safe caches + pooled backend)",
        "baseline": "serial warm ask() round trips on one thread",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {
            "batched_ask_many": batching,
            "multi_thread_warm_asks": threading_result,
            "batched_differential": differential,
            "concurrent_differential": concurrent,
        },
        "gates": [
            ("ask_many_goals_batched", batching["batched_asks"], "==", total),
            (
                "ask_many_batch_executions",
                batching["batch_executions"],
                "==",
                ROTATING_SHAPES * -(-total // batch_size),
            ),
            (
                "thread_min_speedup",
                threading_result["speedup"],
                ">",
                NO_COLLAPSE_FLOOR,
            ),
            (
                "thread_min_pooled_readers",
                threading_result["pooled_read_connections"],
                ">",
                1,
            ),
            ("batched_differential_identical", differential["identical"], "==", True),
            (
                "batched_differential_min_batches",
                differential["batch_executions"],
                ">",
                0,
            ),
            ("concurrent_differential_identical", concurrent["identical"], "==", True),
        ],
    }


def test_e14_quick_gates():
    from run_all import failed

    assert not failed(run(quick=True, seed=5)["gates"])
