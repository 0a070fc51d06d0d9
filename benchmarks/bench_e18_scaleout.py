"""E18 — the scale-out serving tier (multi-process workers + front door).

Claims gated by :func:`run` (recorded in ``BENCH_scaleout.json`` by
``benchmarks/run_all.py``):

* **fleet throughput** — warm asks driven through the serving tier at
  4 workers sustain **>= 1.8x** the 1-worker aggregate rate on hosts
  with enough cores; on fewer cores the gate degrades to ">= 1.0x", and
  on a single-core host to the no-collapse floor (>= 0.7x — the queue
  hops, snapshot bookkeeping, and per-process sessions must stay cheap
  even when true parallelism is impossible).  The gate is chosen from
  the *runtime* cpu count, exactly like E14's thread gate;
* **coalesced correctness** — async clients asking through the front
  door while a scripted writer asserts/retracts through the tier
  observe only answers equal to some serial ``ask()`` checkpoint state
  (the generation-publish ordering guarantee), and the load really was
  coalesced (>= 1 multi-goal batch dispatched as one ``ask_many``).
"""

import asyncio
import os
import random
import tempfile
import threading
import time

from repro.coupling import PrologDbSession
from repro.coupling.global_opt import CachePolicy
from repro.dbms import ExternalDatabase, generate_org
from repro.schema import ALL_VIEWS_SOURCE, empdep_constraints, empdep_schema
from repro.serving import FrontDoor, ServingTier

#: (org depth, branching, staff per dept)
FULL_SIZES = (4, 3, 6)
QUICK_SIZES = (3, 2, 4)

#: (workers, driver threads, total asks per measurement)
FULL_FLEET = (4, 4, 320)
QUICK_FLEET = (4, 4, 120)

#: (async clients, asks per client, scripted writes)
FULL_COAL = (3, 14, 12)
QUICK_COAL = (3, 8, 8)


def make_owner(path: str, org) -> PrologDbSession:
    """A writable owner session over a file-backed WAL store."""
    schema = empdep_schema()
    constraints = empdep_constraints(schema)
    database = ExternalDatabase(schema, path=path, constraints=constraints)
    session = PrologDbSession(
        schema=schema,
        constraints=constraints,
        database=database,
        cache_policy=CachePolicy(enabled=False),
    )
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)
    return session


def rotating_goals(org, count: int) -> list:
    """Two warm shapes, constants rotating per goal (as source text)."""
    names = [e.nam for e in org.employees]
    goals = []
    for i in range(count):
        name = names[(i * 13) % len(names)]
        if i % 2:
            goals.append(f"works_dir_for(X, {name})")
        else:
            goals.append(f"same_manager(X, {name})")
    return goals


def answer_set(answers) -> frozenset:
    return frozenset(frozenset(a.items()) for a in answers)


# -- workload 1: fleet throughput, 1 worker vs N workers ---------------------------


def bench_fleet(org, workers: int, drivers: int, total: int) -> dict:
    """Aggregate warm asks/s through the tier at 1 worker vs N workers.

    The same driver-thread count front-ends both measurements, so the
    comparison isolates what the extra worker processes buy: with one
    worker every ask funnels through one queue and one session; with N
    the round-robin spreads the same load over N private plan-cache
    stacks and N read connections to the shared WAL file.
    """
    names = [e.nam for e in org.employees]
    warm = [
        f"works_dir_for(X, {names[0]})",
        f"same_manager(X, {names[1]})",
    ]
    goals = rotating_goals(org, total)
    chunk = total // drivers

    def throughput(n_workers: int, path: str) -> float:
        session = make_owner(path, org)
        tier = ServingTier(session, workers=n_workers, warm_goals=warm)
        try:
            tier.wait_ready()
            for goal in goals[:8]:  # settle queues before timing
                tier.ask(goal)

            def run(work):
                # Pipelined submission: keep every worker queue full so
                # the measurement reads aggregate throughput, not the
                # per-ask queue-hop round-trip latency.
                pending = [tier.submit(goal) for goal in work]
                for request in pending:
                    request.result(120)

            work = [
                goals[t * chunk : (t + 1) * chunk] for t in range(drivers)
            ]
            pool = [
                threading.Thread(target=run, args=(w,)) for w in work
            ]
            started = time.perf_counter()
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            return (drivers * chunk) / (time.perf_counter() - started)
        finally:
            tier.close()
            session.close()

    with tempfile.TemporaryDirectory(prefix="repro_e18_") as scratch:
        # Best of two runs each: one-shot fleet timings are noisy.
        single = max(
            throughput(1, os.path.join(scratch, "s1.db")),
            throughput(1, os.path.join(scratch, "s2.db")),
        )
        multi = max(
            throughput(workers, os.path.join(scratch, "m1.db")),
            throughput(workers, os.path.join(scratch, "m2.db")),
        )
    return {
        "workers": workers,
        "driver_threads": drivers,
        "asks_per_measurement": drivers * chunk,
        "cpu_count": os.cpu_count() or 1,
        "single_worker_asks_per_second": round(single, 1),
        "multi_worker_asks_per_second": round(multi, 1),
        "speedup": round(multi / single, 3),
    }


SINGLE_CORE_FLOOR = 0.7
#: Quick sizes are too small to amortize 4-process scheduling churn on
#: one core, so the CI smoke run uses a relaxed no-collapse floor (the
#: strict 0.7 floor is gated at full sizes in ``BENCH_scaleout.json``).
QUICK_SINGLE_CORE_FLOOR = 0.45


def fleet_bound(record: dict, single_core_floor: float) -> float:
    """The speedup the fleet must exceed on this host.

    Real scale-out (1.8x at 4 workers) is only demanded when the host
    has a core per worker; between that and single-core the fleet must
    still win (> 1x); on one core the shared-nothing design must at
    least not collapse under the IPC overhead.
    """
    cpus = record["cpu_count"]
    if cpus >= record["workers"]:
        return 1.8
    if cpus > 1:
        return 1.0
    return single_core_floor


# -- workload 2: coalesced answers vs serial checkpoints ---------------------------


def coalesced_differential(
    org, clients: int, asks_per_client: int, writes: int, seed: int
) -> dict:
    """Front-door answers under a scripted writer match serial checkpoints.

    A twin in-memory session replays the write script serially and
    records the probe's answer set after every step; async clients then
    hammer the probe through the coalescing front door while a writer
    thread applies the same script through the tier.  Every observed
    answer must equal one of the serial checkpoint states, and at least
    one multi-goal batch must actually have been dispatched.
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
            row = (next_eno + i, f"sc{next_eno + i}", 41_000, probe_dept)
            script.append(("assert", row))
            alive.append(row)

    # Serial replay: the set of valid checkpoint answer states.
    twin = PrologDbSession(cache_policy=CachePolicy(enabled=False))
    twin.load_org(org)
    twin.consult(ALL_VIEWS_SOURCE)
    states = {answer_set(twin.ask(probe))}
    for action, row in script:
        if action == "assert":
            twin.assert_fact("empl", *row)
        else:
            twin.retract_fact("empl", *row)
        states.add(answer_set(twin.ask(probe)))
    twin.close()

    observed: list[frozenset] = []
    errors: list[str] = []
    writer_done = threading.Event()

    with tempfile.TemporaryDirectory(prefix="repro_e18_") as scratch:
        session = make_owner(os.path.join(scratch, "coal.db"), org)
        tier = ServingTier(session, workers=2, warm_goals=[probe])
        tier.wait_ready()

        def writer():
            try:
                for action, row in script:
                    if action == "assert":
                        tier.assert_fact("empl", *row)
                    else:
                        tier.retract_fact("empl", *row)
                    time.sleep(0.01)
            except Exception as error:  # pragma: no cover - gate reports it
                errors.append(repr(error))
            finally:
                writer_done.set()

        async def client(door):
            local = []
            while not writer_done.is_set() or len(local) < asks_per_client:
                local.append(answer_set(await door.ask(probe)))
                if len(local) >= asks_per_client and writer_done.is_set():
                    break
            observed.extend(local)

        async def drive():
            door = FrontDoor(tier, window_seconds=0.005)
            thread = threading.Thread(target=writer)
            thread.start()
            await asyncio.gather(*[client(door) for _ in range(clients)])
            thread.join()
            return door

        try:
            door = asyncio.run(drive())
            serving = tier.stats()["serving"]
        finally:
            tier.close()
            session.close()

    stray = sum(1 for state in observed if state not in states)
    return {
        "clients": clients,
        "asks_per_client": asks_per_client,
        "writes": writes,
        "checkpoint_states": len(states),
        "answers_observed": len(observed),
        "stray_answers": stray,
        "coalesced_batches": door.stats["batches"],
        "batched_goals": door.stats["batched_goals"],
        "generations_published": serving["generations_published"],
        "errors": errors[:4],
        "identical": stray == 0 and not errors,
    }


def run(quick: bool, seed: int) -> dict:
    """The E18 record and its gates; ``seed`` draws the write script."""
    depth, branching, staff = QUICK_SIZES if quick else FULL_SIZES
    workers, drivers, total = QUICK_FLEET if quick else FULL_FLEET
    clients, client_asks, writes = QUICK_COAL if quick else FULL_COAL
    org = generate_org(
        depth=depth, branching=branching, staff_per_dept=staff, seed=5
    )
    fleet = bench_fleet(org, workers, drivers, total)
    floor = QUICK_SINGLE_CORE_FLOOR if quick else SINGLE_CORE_FLOOR
    coalesced = coalesced_differential(org, clients, client_asks, writes, seed=seed)
    return {
        "benchmark": "E18 scale-out serving tier "
        "(multi-process workers + snapshot shipping + coalescing front door)",
        "baseline": "one worker process behind the same tier and driver load",
        "org": {"depth": depth, "branching": branching, "staff_per_dept": staff},
        "workloads": {
            "fleet_throughput": fleet,
            "coalesced_differential": coalesced,
        },
        "gates": [
            ("fleet_min_speedup", fleet["speedup"], ">", fleet_bound(fleet, floor)),
            (
                "coalesced_differential_identical",
                coalesced["identical"],
                "==",
                True,
            ),
            ("min_coalesced_batches", coalesced["coalesced_batches"], ">=", 1),
        ],
    }


def test_e18_quick_gates():
    from run_all import failed

    assert not failed(run(quick=True, seed=5)["gates"])
