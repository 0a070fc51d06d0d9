"""Scale-out serving tier tests (ROADMAP E18).

Covers the multi-process serving stack end to end on a real file-backed
WAL store: fork-safe read pooling, deadline budgets across the process
boundary, generation-stamped snapshot coherence under writes, worker
death/restart/replay, cross-process observe merges, and the asyncio
front door's admission batching — each differential checked against the
owner session's serial answers.
"""

import asyncio
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import ExternalDatabase, FrontDoor, PrologDbSession, ServingTier
from repro.coupling.global_opt import CachePolicy
from repro.dbms import generate_org
from repro.errors import (
    DeadlineExceeded,
    ExecutionError,
    SingleProcessStoreError,
)
from repro.schema import ALL_VIEWS_SOURCE, empdep_constraints, empdep_schema

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def answer_set(answers):
    return frozenset(frozenset(answer.items()) for answer in answers)


def make_owner(path, org):
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


@pytest.fixture(scope="module")
def org():
    return generate_org(depth=3, branching=2, staff_per_dept=4, seed=5)


@pytest.fixture(scope="module")
def fleet(org, tmp_path_factory):
    """One shared two-worker tier for the read-mostly tests."""
    path = str(tmp_path_factory.mktemp("scaleout") / "fleet.db")
    session = make_owner(path, org)
    names = [employee.nam for employee in org.employees]
    tier = ServingTier(
        session,
        workers=2,
        warm_goals=[
            f"same_manager(X, {names[0]})",
            f"works_dir_for(X, {names[1]})",
        ],
    )
    tier.wait_ready()
    yield session, tier, org
    tier.close()
    session.close()


# -- satellite: fork/spawn-safe read pooling ----------------------------------------


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
def test_pool_pid_guard_reopens_in_child(tmp_path):
    database = ExternalDatabase(
        empdep_schema(), path=str(tmp_path / "guard.db")
    )
    database.insert_rows("empl", [(1, "a", 10000, 1)])
    assert database.execute("SELECT nam FROM empl") == [("a",)]
    assert database.pool_size == 1  # the parent's pooled reader is open

    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()

    def child():
        # The inherited backend object must not reuse (or close) the
        # parent's pooled handle: the PID guard rebuilds the pool empty
        # and the child lazily opens its own reader.
        rows = database.execute("SELECT nam FROM empl")
        results.put((rows, database.pool_size, database.pool_peak))

    process = ctx.Process(target=child)
    process.start()
    rows, child_size, child_peak = results.get(timeout=30)
    process.join(timeout=30)
    assert rows == [("a",)]
    assert (child_size, child_peak) == (1, 1)
    # the parent's pool and reader survive the child's lifetime untouched
    assert database.pool_size == 1
    assert database.execute("SELECT count(*) FROM empl") == [(1,)]
    database.close()


# -- fail fast on single-process stores ---------------------------------------------


def test_memory_store_fails_fast(org):
    session = PrologDbSession()  # default ':memory:' backend
    session.load_org(org)
    with pytest.raises(SingleProcessStoreError):
        ServingTier(session, workers=1)
    session.close()


# -- answers match the owner's serial answers ---------------------------------------


def test_tier_answers_match_serial(fleet):
    session, tier, org = fleet
    names = [employee.nam for employee in org.employees]
    goals = [
        f"same_manager(X, {names[(i * 7) % len(names)]})"
        if i % 2
        else f"works_dir_for(X, {names[(i * 5) % len(names)]})"
        for i in range(16)
    ]
    for goal in goals:
        assert answer_set(tier.ask(goal)) == answer_set(session.ask(goal))
    batched = tier.ask_many(goals)
    serial = [session.ask(goal) for goal in goals]
    assert [answer_set(a) for a in batched] == [answer_set(a) for a in serial]


def test_recursive_closure_through_workers(fleet):
    session, tier, org = fleet
    boss = org.root_manager_name()
    goal = f"works_for(X, {boss})"
    assert answer_set(tier.ask(goal)) == answer_set(session.ask(goal))


# -- satellite: deadline budgets across the process boundary ------------------------


def test_deadline_crosses_process_boundary(fleet):
    session, tier, org = fleet
    boss = org.root_manager_name()
    # A nearly-expired budget must still raise worker-side: the tier
    # serializes the *remaining* seconds (not an absolute monotonic
    # stamp, which is meaningless on another process's clock).
    with pytest.raises(DeadlineExceeded) as caught:
        tier.ask(f"works_for(X, {boss})", deadline=1e-7)
    assert caught.value.partial.get("worker", "").startswith("worker-")
    # A generous budget crosses the boundary and succeeds.
    answers = tier.ask(f"works_for(X, {boss})", deadline=30.0)
    assert answer_set(answers) == answer_set(session.ask(f"works_for(X, {boss})"))


# -- generation coherence under writes ----------------------------------------------


def test_writes_publish_generations_workers_see_them(fleet):
    session, tier, org = fleet
    manager = org.root_manager_name()
    root_dept = next(
        d.dno
        for d in org.departments
        for e in org.employees
        if e.eno == d.mgr and e.nam == manager
    )
    eno = max(e.eno for e in org.employees) + 901
    before = tier.generation
    tier.assert_fact("empl", eno, f"gen{eno}", 30000, root_dept)
    assert tier.generation > before
    # the new fact is externalized before the publish, so any worker
    # answering at the new generation must see it
    pending = tier.submit(f"works_dir_for(X, {manager})")
    answers = pending.result(30)
    assert pending.generation >= tier.generation
    assert any(f"gen{eno}" in str(v) for a in answers for v in a.values())
    assert answer_set(answers) == answer_set(
        session.ask(f"works_dir_for(X, {manager})")
    )
    tier.retract_fact("empl", eno, f"gen{eno}", 30000, root_dept)
    answers = tier.ask(f"works_dir_for(X, {manager})")
    assert not any(f"gen{eno}" in str(v) for a in answers for v in a.values())


def test_base_write_is_one_cheap_publish(fleet):
    """A base-relation write ships no program and drops no owner plan."""
    session, tier, org = fleet
    manager = org.root_manager_name()
    session.ask(f"works_dir_for(X, {manager})")
    row = (max(e.eno for e in org.employees) + 902, "cheap", 30000, 1)
    serving, plans = tier.stats()["serving"], session.stats()["plan_cache"]
    clock, commits = session.kb.generation, session.database.stats.commits
    tier.assert_fact("empl", *row)
    assert tier.retract_fact("empl", *row)
    after = tier.stats()["serving"]
    assert after["generation"] == serving["generation"] + 2 == tier.generation
    assert after["generations_published"] == serving["generations_published"] + 2
    assert after["refreshes_published"] == serving["refreshes_published"]
    assert session.kb.generation == clock
    assert session.database.stats.commits == commits + 2
    session.ask(f"works_dir_for(X, {manager})")
    now = session.stats()["plan_cache"]
    assert (now["invalidations"], now["compiled"]) == (
        plans["invalidations"], plans["compiled"],
    )


def test_non_base_fact_is_fleet_visible(fleet):
    session, tier, org = fleet
    # 'approves' is not a schema relation: the WAL file carries nothing
    # for it and program snapshots are the only transport, so the tier
    # must publish a full refresh — a bare generation advance would
    # leave live workers stamping answers they never received data for.
    before = tier.generation
    tier.assert_fact("approves", "root_office", "audit_plan")
    assert tier.generation > before
    want = answer_set(session.ask("approves(root_office, X)"))
    assert want
    for index in range(tier.workers):
        answers = tier.submit(
            "approves(root_office, X)", worker=index
        ).result(30)
        assert answer_set(answers) == want
    assert tier.retract_fact("approves", "root_office", "audit_plan")
    for index in range(tier.workers):
        assert (
            tier.submit("approves(root_office, X)", worker=index).result(30)
            == []
        )


def test_consult_refreshes_every_worker(fleet):
    session, tier, org = fleet
    names = [employee.nam for employee in org.employees]
    tier.consult(f"vip(X) :- same_manager(X, {names[0]}).")
    fleet_answers = [
        tier.submit("vip(X)", worker=index).result(30)
        for index in range(tier.workers)
    ]
    want = answer_set(session.ask("vip(X)"))
    for answers in fleet_answers:
        assert answer_set(answers) == want
    # A consulted base fact is a store write: every worker sees it with
    # no owner ask in between.
    row = (9500, "consulted", 30000, org.departments[0].dno)
    tier.consult("empl({}, {}, {}, {}).".format(*row))
    try:
        for index in range(tier.workers):
            answers = tier.submit("empl(9500, N, S, D)", worker=index).result(30)
            assert answers == [{"N": "consulted", "S": 30000, "D": row[3]}]
    finally:
        assert tier.retract_fact("empl", *row)


# -- satellite: observe merge + trace attribution -----------------------------------


def test_stats_merge_and_trace_attribution(fleet, tmp_path):
    session, tier, org = fleet
    names = [employee.nam for employee in org.employees]
    # spread load over both workers so each builds histogram state
    for index in range(tier.workers):
        for i in range(4):
            tier.submit(
                f"same_manager(X, {names[i % len(names)]})", worker=index
            ).result(30)
    stats = tier.stats()
    merged = stats["observe"]["histograms"]
    per_worker = stats["observe"]["workers"]
    assert len(per_worker) == tier.workers
    assert stats["observe"]["spans"] >= 8
    # the aggregate count per shape equals the sum across the fleet
    for name, entry in merged.items():
        fleet_count = sum(
            observe["histograms"].get(name, {}).get("count", 0)
            for observe in per_worker.values()
        ) + session.tracer.stats_snapshot()["histograms"].get(name, {}).get(
            "count", 0
        )
        assert entry["count"] == fleet_count
        assert entry["count"] > 0

    path = tmp_path / "fleet_trace.json"
    exported = tier.export_trace(path)
    assert exported > 0
    import json

    payload = json.loads(path.read_text())
    workers_seen = {
        record.get("worker") for record in payload["traces"]
    }
    assert {"worker-0", "worker-1"} <= workers_seen


# -- satellite: worker death is transient -------------------------------------------


def test_worker_kill_restart_replay(org, tmp_path):
    session = make_owner(str(tmp_path / "kill.db"), org)
    names = [employee.nam for employee in org.employees]
    boss = org.root_manager_name()
    tier = ServingTier(
        session, workers=1, warm_goals=[f"works_for(X, {boss})"]
    )
    tier.wait_ready()
    try:
        floor = tier.generation
        pending = [
            tier.submit(f"works_for(X, {boss})", worker=0)
            for _ in range(10)
        ]
        tier.kill_worker(0)
        want = answer_set(session.ask(f"works_for(X, {boss})"))
        for request in pending:
            # no request is lost: every one resolves with a correct
            # answer from a snapshot at least as new as its dispatch
            assert answer_set(request.result(60)) == want
            assert request.generation >= floor
        # a restarted worker keeps serving
        assert answer_set(
            tier.ask(f"same_manager(X, {names[0]})")
        ) == answer_set(session.ask(f"same_manager(X, {names[0]})"))
        stats = tier.stats()["serving"]
        assert stats["worker_deaths"] >= 1
        assert stats["restarts"] >= 1
    finally:
        tier.close()
        session.close()


def test_exhausted_worker_is_skipped_not_hung_on(org, tmp_path):
    """Dead slots must not receive dispatches once their budget is spent."""
    from repro.errors import WorkerUnavailableError

    session = make_owner(str(tmp_path / "dead.db"), org)
    boss = org.root_manager_name()
    goal = f"same_manager(X, {boss})"
    tier = ServingTier(session, workers=2, restart_limit=0)
    tier.wait_ready()
    try:
        want = answer_set(session.ask(goal))
        tier.kill_worker(0)
        give_up = time.monotonic() + 30
        while tier.worker_pids()[0] is not None:
            assert time.monotonic() < give_up, "monitor never retired slot 0"
            time.sleep(0.02)
        # round-robin skips the dead slot: every ask lands on worker 1
        # instead of every other one hanging on a consumer-less queue
        for _ in range(4):
            assert answer_set(tier.ask(goal, timeout=20)) == want
        # explicit dispatch to the dead slot fails fast and typed
        with pytest.raises(WorkerUnavailableError):
            tier.submit(goal, worker=0)
        tier.kill_worker(1)
        give_up = time.monotonic() + 30
        while tier.worker_pids()[1] is not None:
            assert time.monotonic() < give_up, "monitor never retired slot 1"
            time.sleep(0.02)
        # a fleet with no live worker surfaces the typed transient error
        # immediately — the retry layer's signal — not a 60s timeout
        started = time.monotonic()
        with pytest.raises(WorkerUnavailableError):
            tier.ask(goal)
        assert time.monotonic() - started < 5.0
        assert tier.stats()["serving"]["pending"] == 0
    finally:
        tier.close()
        session.close()


# -- an answer reaches its caller over one pipe round trip -------------------------


def test_a_tier_starts_no_collector_thread(org, tmp_path):
    """The waiting caller reads its worker's pipe: the monitor is the
    only thread a tier adds to the owner process."""
    session = make_owner(str(tmp_path / "threads.db"), org)
    before = set(threading.enumerate())
    tier = ServingTier(session, workers=2)
    try:
        started = set(threading.enumerate()) - before
        assert [thread.name for thread in started] == ["serving-monitor"]
    finally:
        tier.close()
        session.close()


class _Counting:
    """A connection wrapper that counts the messages through it."""

    def __init__(self, connection):
        self.connection = connection
        self.sent = self.received = 0

    def send(self, message):
        self.sent += 1
        self.connection.send(message)

    def recv(self):
        self.received += 1
        return self.connection.recv()

    def __getattr__(self, name):
        return getattr(self.connection, name)


def test_one_ask_is_one_request_and_one_response(fleet):
    session, tier, org = fleet
    goal = f"same_manager(X, {org.employees[3].nam})"
    handle = tier._workers[0]
    requests, responses = handle.requests, handle.responses
    handle.requests, handle.responses = _Counting(requests), _Counting(responses)
    try:
        answers = tier.submit(goal, worker=0).result(30)
        counted = (handle.requests.sent, handle.responses.received)
    finally:
        handle.requests, handle.responses = requests, responses
    assert counted == (1, 1)
    assert answer_set(answers) == answer_set(session.ask(goal))


def test_one_waiter_completes_every_unawaited_answer(fleet):
    session, tier, org = fleet
    goals = [f"same_manager(X, {e.nam})" for e in org.employees[:6]]
    futures = [tier.submit(goal, worker=0) for goal in goals]
    # The worker answers in order, so whoever reads the last answer has
    # read (and completed) every earlier one on the way.
    futures[-1].result(30)
    for future, goal in zip(futures, goals):
        assert answer_set(future.result(0)) == answer_set(session.ask(goal))
    # A timed-out future leaves nothing behind, before or after its
    # answer arrives.
    late = tier.submit(goals[0], worker=0)
    with pytest.raises(TimeoutError):
        late.result(0)
    assert late.req_id not in tier._pending
    tier.submit(goals[1], worker=0).result(30)  # reads the late answer first
    assert tier.stats()["serving"]["pending"] == 0


def test_full_pipes_stall_no_dispatch_and_no_close(org, tmp_path):
    """Answers nobody awaits fill the response pipe until the worker
    blocks on its send, then requests fill the request pipe; the
    monitor drains the answers, so neither the dispatch (under the
    tier's lock) nor the worker deadlocks, and close() stops the worker
    rather than killing it after the grace period."""
    session = make_owner(str(tmp_path / "full.db"), org)
    goals = [f"works_for(X, {employee.nam})" for employee in org.employees]
    want = [answer_set(answers) for answers in session.ask_many(goals)]
    tier = ServingTier(session, workers=1)
    tier.wait_ready()
    pid = tier.worker_pids()[0]
    futures, stalled = [], []

    def submit_unawaited():
        # About 1.5 kB per request and 2 kB per answer: 100 of each
        # overfill both 64 KiB pipes.
        submitter = threading.Thread(
            target=lambda: futures.extend(
                tier.submit_many(goals) for _ in range(100)
            ),
            daemon=True,
        )
        submitter.start()
        submitter.join(30)
        if submitter.is_alive():  # free the dispatch, or close() hangs
            stalled.append(True)
            os.kill(pid, signal.SIGKILL)
            submitter.join(30)

    try:
        submit_unawaited()
        assert not stalled
        assert [answer_set(a) for a in futures[-1].result(60)] == want
        assert all(
            [answer_set(a) for a in future.result(0)] == want
            for future in futures
        )
        futures.clear()
        submit_unawaited()
    finally:
        started = time.monotonic()
        tier.close()
        closing = time.monotonic() - started
        session.close()
    assert not stalled
    assert closing < 4.0
    for future in futures:
        try:
            assert [answer_set(a) for a in future.result(0)] == want
        except ExecutionError as error:
            assert "closed" in str(error)


def test_concurrent_asks_and_batches_match_serial(fleet):
    """Four threads over two workers, each waiter leading or following."""
    session, tier, org = fleet
    names = [employee.nam for employee in org.employees]
    goals = [
        f"same_manager(X, {name})" if i % 2 else f"works_dir_for(X, {name})"
        for i, name in enumerate(names[:12])
    ]
    want = {goal: answer_set(session.ask(goal)) for goal in goals}
    errors = []

    def hammer(offset):
        try:
            for round_ in range(12):
                picked = goals[offset + round_ % 4 :: 3][:4]
                if round_ % 2:
                    got = [answer_set(a) for a in tier.ask_many(picked)]
                    assert got == [want[goal] for goal in picked]
                else:
                    assert answer_set(tier.ask(picked[0])) == want[picked[0]]
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert errors == []
    assert tier.stats()["serving"]["pending"] == 0


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
def test_a_blocked_caller_receives_the_replayed_answer(org, tmp_path):
    session = make_owner(str(tmp_path / "replay.db"), org)
    boss = org.root_manager_name()
    goal = f"works_for(X, {boss})"
    tier = ServingTier(session, workers=1, warm_goals=[goal])
    tier.wait_ready()
    try:
        # A stopped worker cannot answer: the caller is certain to be
        # blocked inside result() when the worker dies.
        os.kill(tier.worker_pids()[0], signal.SIGSTOP)
        future = tier.submit(goal)
        got = []
        caller = threading.Thread(target=lambda: got.append(future.result(60)))
        caller.start()
        caller.join(0.2)
        assert caller.is_alive() and not got
        tier.kill_worker(0)
        caller.join(60)
        assert [answer_set(a) for a in got] == [answer_set(session.ask(goal))]
        assert future.replays == 1
        assert tier.stats()["serving"]["replayed_requests"] == 1
    finally:
        tier.close()
        session.close()


# -- the asyncio front door ---------------------------------------------------------


def test_front_door_coalesces_same_shape_goals(fleet):
    session, tier, org = fleet
    names = [employee.nam for employee in org.employees]
    goals = [
        f"same_manager(X, {names[i % len(names)]})" for i in range(24)
    ]

    async def drive():
        door = FrontDoor(tier, window_seconds=0.02)
        results = await asyncio.gather(*[door.ask(goal) for goal in goals])
        return door, results

    door, results = asyncio.run(drive())
    serial = [session.ask(goal) for goal in goals]
    assert [answer_set(a) for a in results] == [
        answer_set(a) for a in serial
    ]
    assert door.stats["batches"] >= 1
    assert door.stats["batched_goals"] >= len(goals) // 2


def test_front_door_stale_timer_does_not_cut_new_window(fleet):
    session, tier, org = fleet
    names = [employee.nam for employee in org.employees]
    goals = [f"same_manager(X, {names[i % len(names)]})" for i in range(4)]

    async def drive():
        door = FrontDoor(tier, window_seconds=0.5, max_batch=2)
        # Two goals hit max_batch and flush at once; the flushed
        # window's timer task stays pending for another 0.5s.
        first = [asyncio.ensure_future(door.ask(goal)) for goal in goals[:2]]
        await asyncio.sleep(0.4)
        # A new same-shape bucket opens at t≈0.4 (window closes t≈0.9).
        third = asyncio.ensure_future(door.ask(goals[2]))
        await asyncio.sleep(0.3)
        # The stale timer expired at t≈0.5 — between the third and
        # fourth arrivals.  It must not have flushed the new bucket,
        # so the fourth goal (t≈0.7) still joins it.
        fourth = asyncio.ensure_future(door.ask(goals[3]))
        results = await asyncio.gather(*first, third, fourth)
        return door, results

    door, results = asyncio.run(drive())
    serial = [session.ask(goal) for goal in goals]
    assert [answer_set(a) for a in results] == [
        answer_set(a) for a in serial
    ]
    assert door.stats["batches"] == 2
    assert door.stats["batched_goals"] == 4
    assert door.stats["solo_dispatches"] == 0


def test_front_door_deadline_bypasses_coalescing(fleet):
    session, tier, org = fleet
    boss = org.root_manager_name()

    async def drive():
        door = FrontDoor(tier, window_seconds=0.02)
        with pytest.raises(DeadlineExceeded):
            await door.ask(f"works_for(X, {boss})", deadline=1e-7)
        answers = await door.ask(f"works_for(X, {boss})", deadline=30.0)
        return door, answers

    door, answers = asyncio.run(drive())
    assert door.stats["solo_dispatches"] == 2
    assert answer_set(answers) == answer_set(
        session.ask(f"works_for(X, {boss})")
    )


def test_importing_the_package_loads_no_event_loop():
    """asyncio (and ssl with it) loads only where the front door runs."""
    import subprocess
    import sys

    probe = "import sys, repro; print('asyncio' in sys.modules, 'ssl' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.stdout.split() == ["False", "False"]


# -- satellite: multi-process coalesced differential under a scripted writer --------


def test_coalesced_answers_match_serial_checkpoints(org, tmp_path):
    import random

    rng = random.Random(5)
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
    alive = []
    for i in range(10):
        if alive and rng.random() < 0.5:
            script.append(("retract", alive.pop(rng.randrange(len(alive)))))
        else:
            row = (next_eno + i, f"mp{next_eno + i}", 41000, probe_dept)
            script.append(("assert", row))
            alive.append(row)

    # serial twin: the set of valid checkpoint answer states
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

    session = make_owner(str(tmp_path / "diff.db"), org)
    tier = ServingTier(session, workers=2, warm_goals=[probe])
    tier.wait_ready()
    observed = []
    errors = []
    writer_done = threading.Event()

    def writer():
        try:
            for action, row in script:
                if action == "assert":
                    tier.assert_fact("empl", *row)
                else:
                    tier.retract_fact("empl", *row)
                time.sleep(0.01)
        except Exception as error:  # pragma: no cover - the gate reports it
            errors.append(repr(error))
        finally:
            writer_done.set()

    async def client(door, asks):
        local = []
        while not writer_done.is_set() or len(local) < asks:
            local.append(answer_set(await door.ask(probe)))
            if len(local) >= asks and writer_done.is_set():
                break
        observed.extend(local)

    async def drive():
        door = FrontDoor(tier, window_seconds=0.005)
        thread = threading.Thread(target=writer)
        thread.start()
        await asyncio.gather(*[client(door, 12) for _ in range(3)])
        thread.join()
        return door

    try:
        door = asyncio.run(drive())
        stray = [state for state in observed if state not in states]
        assert not errors, errors
        assert not stray, f"{len(stray)} answers match no serial checkpoint"
        assert len(observed) >= 36
        assert door.stats["batches"] >= 1  # load really was coalesced
    finally:
        tier.close()
        session.close()
