"""The owner-side serving tier: workers, snapshot shipping, replay.

One :class:`ServingTier` wraps the writable owner session.  It spawns N
worker processes (fork where available, the platform default otherwise),
ships each a ``(generation, program)`` snapshot plus the warm-goal list,
and then load-balances ``ask``/``ask_many`` across them round-robin.

**Generation coherence.**  Every write goes through the tier to the
owner session, whose base-relation writes are store writes (the shared
WAL file holds the row before the call returns), and is then published
under the next *generation* — the tier's own publish sequence.  A
publish is a cheap ``("generation", g)`` advance unless the owner's
program clock (``KnowledgeBase.generation``) moved since the last
program the fleet was sent, in which case it is a full ``("refresh", g,
program)`` payload: consults, and writes to non-base predicates, whose
facts exist only in the snapshot.  Publishing and request dispatch
share one lock, and each worker's request pipe is FIFO, so a request
stamped with generation floor *g* can only be processed after the
worker has seen the advance to *g*: no answer is ever served from a
stale generation.

**Deadlines.**  A caller's ``deadline=`` budget is held owner-side as a
:class:`~repro.concurrency.Deadline` and serialized as the *remaining*
seconds at each dispatch (monotonic stamps do not cross process
boundaries); a replay after a worker death re-serializes whatever is
left, and a budget that ran out in the queue raises
``DeadlineExceeded`` worker-side.

**Answers.**  No thread sits between a worker and its callers: a
caller blocked in :meth:`PendingRequest.result` reads its worker's
response pipe itself, one leader per worker at a time, and completes
every request it reads.  The monitor drains answers nobody awaits, so
a full pipe never stalls a worker for long.

**Worker death.**  A monitor thread notices a dead worker process,
restarts it from the current snapshot (fresh pipes — requests buffered
in the old one are lost with the process), and replays the outstanding
requests.  Replays are idempotent (workers only read), and a request
completed twice resolves once: completion is a single ``dict.pop``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import select
import threading
import time

from ..concurrency import Deadline
from ..errors import (
    DeadlineExceeded,
    ExecutionError,
    ReproError,
    SingleProcessStoreError,
    WorkerUnavailableError,
)
from ..observe import merge_histogram_exports
from .worker import worker_main

#: How long ``close()`` waits for a worker to honor ``("stop",)``
#: before killing it outright.
_STOP_GRACE_SECONDS = 5.0

#: Seconds between the monitor's liveness (and drain) passes.
_MONITOR_INTERVAL_SECONDS = 0.05

#: How often a waiter not reading its worker's pipe tries to take it over.
_FOLLOW_SECONDS = 0.002


class PendingRequest:
    """One dispatched request: a thread-safe future its waiter resolves."""

    __slots__ = (
        "req_id",
        "kind",
        "payload",
        "max_solutions",
        "deadline",
        "worker_index",
        "replays",
        "generation",
        "status",
        "result_payload",
        "_event",
        "_await",
    )

    def __init__(self, req_id, kind, payload, max_solutions, deadline):
        self.req_id = req_id
        self.kind = kind
        self.payload = payload
        self.max_solutions = max_solutions
        self.deadline = deadline
        self.worker_index = -1
        self.replays = 0
        self.generation = -1
        self.status = None
        self.result_payload = None
        self._event = threading.Event()
        self._await = None

    def complete(self, status, payload, generation, worker_index) -> None:
        self.status = status
        self.result_payload = payload
        self.generation = generation
        self.worker_index = worker_index
        self._event.set()

    def result(self, timeout=None):
        """Block for the answer; re-raise typed errors from the worker."""
        if not self._event.is_set() and not self._await(self, timeout):
            raise TimeoutError(
                f"serving request {self.req_id} unanswered after {timeout}s"
            )
        if self.status == "ok":
            return self.result_payload
        name, message, detail = self.result_payload
        raise _rebuild_error(name, message, detail)


def _rebuild_error(name: str, message: str, detail) -> Exception:
    """Reconstruct a typed exception from its serialized triple."""
    if name == "DeadlineExceeded":
        return DeadlineExceeded(message, detail)
    from .. import errors as errors_module

    klass = getattr(errors_module, name, None)
    if isinstance(klass, type) and issubclass(klass, ReproError):
        try:
            return klass(message)
        except TypeError:
            pass  # multi-argument constructor: fall through to the generic
    return ExecutionError(f"{name}: {message}")


class _WorkerHandle:
    """Owner-side bookkeeping for one worker process."""

    __slots__ = ("index", "process", "requests", "responses", "receiving",
                 "ready", "restarts")

    def __init__(self, index):
        self.index = index
        self.process = None
        self.requests = None
        self.responses = None
        self.receiving = threading.Lock()
        self.ready = None
        self.restarts = 0


class ServingTier:
    """Multi-process serving over one writable owner session."""

    def __init__(
        self,
        session,
        workers: int = 2,
        warm_goals=(),
        restart_limit: int = 5,
        slow_query_seconds: float = 0.25,
    ):
        database = session.database
        if not getattr(database, "_file_backed", False):
            raise SingleProcessStoreError(
                "scale-out serving needs a file-backed store: a ':memory:' "
                "database lives inside one process, so worker processes "
                "would each see an empty copy — open the session over "
                "ExternalDatabase(schema, path='/some/file.db') instead"
            )
        if workers < 1:
            raise ValueError("a serving tier needs at least one worker")
        self._owner = session
        if session.tracer.worker_id is None:
            session.tracer.worker_id = "owner"
        self._target = database._target
        self._schema = session.schema
        self._constraints = session.constraints
        self._slow_query_seconds = slow_query_seconds
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        # Each worker has two single-writer pipes, so no cross-process
        # lock: requests (the owner writes them under self._lock) and
        # answers (a worker SIGKILLed mid-send leaves its pipe at EOF).
        self._lock = threading.RLock()
        self._pending: dict[int, PendingRequest] = {}
        self._req_ids = itertools.count(1)
        self._round_robin = itertools.count(0)
        self._warm_goals = [str(goal) for goal in warm_goals]
        self._restart_limit = restart_limit
        self._closed = False
        self._counters = {
            "requests": 0,
            "batched_requests": 0,
            "generations_published": 0,
            "refreshes_published": 0,
            "worker_deaths": 0,
            "restarts": 0,
            "replayed_requests": 0,
            "failed_requests": 0,
        }
        #: publish sequence; owner program clock of the snapshot last shipped
        self._generation = 0
        self._shipped, self._program = session.program_snapshot()
        self._workers = [_WorkerHandle(i) for i in range(workers)]
        for handle in self._workers:
            self._start_worker(handle)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="serving-monitor", daemon=True
        )
        self._monitor.start()

    # -- worker lifecycle ------------------------------------------------------

    def _start_worker(self, handle: _WorkerHandle) -> None:
        """Spawn (or respawn) one worker from the current snapshot."""
        requests, handle.requests = self._ctx.Pipe(duplex=False)
        handle.responses, responses = self._ctx.Pipe(duplex=False)
        handle.ready = self._ctx.Event()
        handle.process = self._ctx.Process(
            target=worker_main,
            name=f"repro-serving-{handle.index}",
            args=(
                handle.index,
                self._target,
                self._schema,
                self._constraints,
                self._program,
                self._generation,
                list(self._warm_goals),
                requests,
                responses,
                handle.ready,
                self._slow_query_seconds,
            ),
            daemon=True,
        )
        handle.process.start()
        requests.close()  # the worker holds the only read end now,
        responses.close()  # and the only write end of its answers

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every worker has warmed its plan cache."""
        give_up_at = time.monotonic() + timeout
        for handle in list(self._workers):
            remaining = give_up_at - time.monotonic()
            if remaining <= 0 or not handle.ready.wait(remaining):
                raise WorkerUnavailableError(
                    f"worker {handle.index} not ready within {timeout}s"
                )

    @property
    def workers(self) -> int:
        return len(self._workers)

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def worker_pids(self) -> list:
        """Per-slot pids; ``None`` marks a restart-budget-exhausted slot."""
        with self._lock:
            return [
                handle.process.pid if handle.process is not None else None
                for handle in self._workers
            ]

    def kill_worker(self, index: int) -> int:
        """Hard-kill one worker (test/chaos hook); returns its pid."""
        with self._lock:
            process = self._workers[index].process
        pid = process.pid
        process.kill()
        process.join(timeout=_STOP_GRACE_SECONDS)
        return pid

    def _monitor_loop(self) -> None:
        while not self._closed:
            time.sleep(_MONITOR_INTERVAL_SECONDS)
            for handle in list(self._workers):
                self._receive(handle)
                process = handle.process
                if process is not None and not process.is_alive():
                    self._restart_worker(handle)

    def _restart_worker(self, handle: _WorkerHandle) -> None:
        """Worker death is transient: restart from the snapshot, replay.

        The outstanding requests assigned to the dead worker are
        re-dispatched to its replacement with their deadline budgets
        re-serialized from the owner-side scope — a budget that died
        with the worker surfaces as ``DeadlineExceeded``, not as a
        hang.  Past ``restart_limit`` deaths the typed transient error
        surfaces instead (the caller's retry layer takes over).
        """
        # Only tried: a dispatch holding the lock may be waiting on a
        # full pipe that the monitor's next drain empties.
        if not self._lock.acquire(timeout=_MONITOR_INTERVAL_SECONDS):
            return
        try:
            process = handle.process
            if self._closed or process is None or process.is_alive():
                return  # raced with close() or another restart
            self._counters["worker_deaths"] += 1
            outstanding = [
                pending
                for pending in list(self._pending.values())
                if pending.worker_index == handle.index
                and not pending._event.is_set()
            ]
            process.join(timeout=0)
            handle.restarts += 1
            if handle.restarts > self._restart_limit:
                handle.process = None
                for pending in outstanding:
                    self._pending.pop(pending.req_id, None)
                    self._counters["failed_requests"] += 1
                    pending.complete(
                        "error",
                        (
                            "WorkerUnavailableError",
                            f"worker {handle.index} died "
                            f"{handle.restarts} times; restart budget "
                            f"exhausted",
                            None,
                        ),
                        self._generation,
                        handle.index,
                    )
                return
            self._start_worker(handle)
            self._counters["restarts"] += 1
            for pending in outstanding:
                self._counters["replayed_requests"] += 1
                pending.replays += 1
                self._dispatch_locked(pending, handle.index)
        finally:
            self._lock.release()

    # -- request dispatch ------------------------------------------------------

    def _pick_worker(self) -> int:
        """Next *live* worker round-robin; caller holds ``self._lock``.

        A handle whose restart budget is exhausted has ``process set to
        None`` and no reader on its pipe — dispatching there would
        strand the request until timeout.  Skip such handles; if the
        whole fleet is gone, surface the typed transient error so the
        caller's retry layer takes over immediately.
        """
        for _ in range(len(self._workers)):
            index = next(self._round_robin) % len(self._workers)
            if self._workers[index].process is not None:
                return index
        raise WorkerUnavailableError(
            "no live worker: every worker exhausted its restart budget"
        )

    def _dispatch_locked(self, pending: PendingRequest, index: int) -> None:
        """Send one request to one worker; caller holds ``self._lock``.

        The generation floor is read under the same lock every publish
        holds, and the pipe is FIFO, so the worker always advances to
        the floor before it sees the request.
        """
        remaining = None
        if pending.deadline is not None:
            remaining = pending.deadline.remaining()
        pending.worker_index = index
        self._send(
            self._workers[index],
            (
                pending.kind,
                pending.req_id,
                pending.payload,
                pending.max_solutions,
                remaining,
                self._generation,
            )
            if pending.kind in ("ask", "ask_many")
            else (pending.kind, pending.req_id),
        )

    @staticmethod
    def _send(handle: _WorkerHandle, message) -> None:
        """Write one message to a live worker; a dead one's restart resends."""
        try:
            handle.requests.send(message)
        except OSError:
            pass  # the worker died: the monitor restarts (and replays) it

    def _submit(
        self, kind, payload, max_solutions=None, deadline=None, worker=None
    ) -> PendingRequest:
        scope = Deadline(deadline) if deadline is not None else None
        pending = PendingRequest(
            next(self._req_ids), kind, payload, max_solutions, scope
        )
        pending._await = self._await
        with self._lock:
            # Checked under the lock: close() flips the flag and fails
            # the pendings under the same lock, so a racing submit can
            # never slip a request onto a worker being stopped.
            if self._closed:
                raise ExecutionError("serving tier is closed")
            index = worker if worker is not None else self._pick_worker()
            if self._workers[index].process is None:
                raise WorkerUnavailableError(
                    f"worker {index} exhausted its restart budget"
                )
            self._counters["requests"] += 1
            if kind == "ask_many":
                self._counters["batched_requests"] += 1
            self._pending[pending.req_id] = pending
            self._dispatch_locked(pending, index)
        return pending

    def submit(self, goal, max_solutions=None, deadline=None, worker=None):
        """Dispatch one goal; returns a :class:`PendingRequest` future."""
        return self._submit(
            "ask", _goal_text(goal), max_solutions, deadline, worker
        )

    def submit_many(self, goals, max_solutions=None, deadline=None,
                    worker=None):
        """Dispatch a goal batch to one worker (the batch fast path)."""
        return self._submit(
            "ask_many",
            [_goal_text(goal) for goal in goals],
            max_solutions,
            deadline,
            worker,
        )

    def ask(self, goal, max_solutions=None, deadline=None, timeout=60.0):
        """Answer one goal on some worker (blocking)."""
        return self.submit(goal, max_solutions, deadline).result(timeout)

    def ask_many(self, goals, max_solutions=None, deadline=None,
                 timeout=60.0):
        """Answer a batch on one worker as a single ``ask_many``."""
        return self.submit_many(goals, max_solutions, deadline).result(
            timeout
        )

    # -- answers: the waiting caller reads its worker's pipe -------------------

    def _await(self, pending: PendingRequest, timeout) -> bool:
        """Wait for ``pending``'s answer; False (and forgotten) on timeout.

        Leader/follower: the waiter holding a worker's receive lock reads
        its pipe, completing every request it reads; the others wait on
        their own answer briefly, then try to lead.  ``worker_index`` is
        re-read each round: a replay onto a restarted worker is followed.
        """
        give_up_at = None if timeout is None else time.monotonic() + timeout
        event = pending._event
        while not event.is_set():
            left = None if timeout is None else give_up_at - time.monotonic()
            if left is not None and left <= 0:
                self._pending.pop(pending.req_id, None)  # drop a late answer
                return event.is_set()
            handle = self._workers[pending.worker_index]
            if not self._receive(handle, pending, give_up_at):
                event.wait(min(left or _FOLLOW_SECONDS, _FOLLOW_SECONDS))
        return True

    def _receive(self, handle, pending=None, give_up_at=None) -> bool:
        """Lead one worker's pipe, unless another waiter does: False then.

        With a ``pending``, read until it is answered or ``give_up_at``
        passes; without (a drain), only what is in the pipe.  False too
        once the pipe is dead or replaced.  Completion is a lock-free
        ``dict.pop``: a dispatch blocked on a full pipe under
        ``self._lock`` cannot stop a reader emptying the worker's side.
        """
        if not handle.receiving.acquire(blocking=False):
            return False
        reader = handle.responses
        try:
            poller = select.poll()
            poller.register(reader, select.POLLIN)
            while pending is None or not pending._event.is_set():
                if handle.responses is not reader:
                    return False
                wait = 0 if pending is None else None  # milliseconds
                if pending is not None and give_up_at is not None:
                    wait = max(0.0, give_up_at - time.monotonic()) * 1000
                if not poller.poll(wait):
                    return True  # drained, or the caller's time ran out
                req_id, index, generation, status, payload = reader.recv()
                done = self._pending.pop(req_id, None)
                if done is not None:  # else answered already, or timed out
                    done.complete(status, payload, generation, index)
        except (EOFError, OSError):
            return False  # its worker died: the monitor restarts it
        finally:
            handle.receiving.release()
        return True

    # -- writes: funnel to the owner, publish the new generation ---------------

    def consult(self, source: str) -> None:
        """Program change: consult on the owner, refresh every worker."""
        self._owner.consult(source)
        self._publish()

    def assert_fact(self, functor: str, *values) -> None:
        """Write one fact through the owner and make it fleet-visible."""
        self._owner.assert_fact(functor, *values)
        self._publish()

    def retract_fact(self, functor: str, *values) -> bool:
        found = self._owner.retract_fact(functor, *values)
        self._publish()
        return found

    def _publish(self) -> None:
        """Advance the fleet one generation past a completed owner write.

        A base-relation write is in the shared file already; whatever
        moved the owner's program clock exists only in the program
        snapshot, so it ships as a full refresh — or live workers would
        stamp answers with a generation whose data they never received.
        """
        clock, program = self._owner.program_snapshot()
        with self._lock:
            self._generation += 1
            self._counters["generations_published"] += 1
            # Clock stamps are monotone, so a snapshot older than the one
            # shipped (a concurrent writer published first) is not sent.
            if clock > self._shipped:
                self._shipped, self._program = clock, program
                self._counters["refreshes_published"] += 1
                message = ("refresh", self._generation, program)
            else:
                message = ("generation", self._generation)
            for handle in self._workers:
                if handle.process is not None:
                    self._send(handle, message)

    def warm(self, goals) -> None:
        """Replace the fleet's warm-goal list and re-warm every worker."""
        texts = [_goal_text(goal) for goal in goals]
        with self._lock:
            self._warm_goals = texts
            for handle in self._workers:
                if handle.process is not None:
                    self._send(handle, ("warm", texts))

    # -- observability ---------------------------------------------------------

    def stats(self, timeout: float = 30.0) -> dict:
        """Fleet-wide counters with per-worker observe histograms merged.

        Each worker contributes its ``session.stats()`` snapshot; their
        raw log2-µs bucket counters (``Tracer.histogram_export``) are
        summed per shape and quantiled *after* the merge — the only
        correct order — alongside the owner's own histograms, so
        ``stats()["observe"]["histograms"]`` reads exactly like a
        single session's aggregate view.
        """
        futures = [
            self._submit("stats", None, worker=handle.index)
            for handle in self._workers
            if handle.process is not None
        ]
        per_worker = [future.result(timeout) for future in futures]
        exports = [snapshot["histograms_raw"] for snapshot in per_worker]
        exports.append(self._owner.tracer.histogram_export())
        merged = merge_histogram_exports(exports)
        observes = {
            snapshot["worker"]: snapshot["stats"]["observe"]
            for snapshot in per_worker
        }
        with self._lock:
            serving = dict(self._counters)
            serving["workers"] = len(self._workers)
            serving["generation"] = self._generation
            serving["pending"] = len(self._pending)
        spans = sum(observe["spans"] for observe in observes.values())
        return {
            "serving": serving,
            "observe": {
                "spans": spans,
                "histograms": merged,
                "workers": observes,
            },
            "owner": {
                "generation": self._owner.kb.generation,
                "observe": self._owner.tracer.stats_snapshot(),
            },
        }

    def traces(self, timeout: float = 30.0) -> list:
        """Every resident span across the fleet, each stamped ``worker``."""
        futures = [
            self._submit("traces", None, worker=handle.index)
            for handle in self._workers
            if handle.process is not None
        ]
        records = []
        for future in futures:
            records.extend(future.result(timeout))
        records.extend(self._owner.traces())
        records.sort(key=lambda record: record.get("started_at", 0.0))
        return records

    def export_trace(self, path, timeout: float = 30.0) -> int:
        """Write the fleet's merged traces + stats to ``path`` as JSON."""
        import json

        traces = self.traces(timeout)
        payload = {"observe": self.stats(timeout), "traces": traces}
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(payload, sink, indent=1)
            sink.write("\n")
        return len(traces)

    # -- shutdown --------------------------------------------------------------

    def close(self) -> None:
        """Stop the fleet; the owner session stays open (the caller's)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            for pending in list(self._pending.values()):
                pending.complete(
                    "error",
                    ("ExecutionError", "serving tier closed", None),
                    self._generation,
                    -1,
                )
            self._pending.clear()
        for handle in workers:
            if handle.process is not None:
                # Non-blocking: a full pipe drops the stop; the kill follows.
                os.set_blocking(handle.requests.fileno(), False)
                self._send(handle, ("stop",))
        give_up_at = time.monotonic() + _STOP_GRACE_SECONDS
        for handle in workers:
            if handle.process is None:
                continue
            # Drain answers nobody awaits, or a worker blocked writing
            # one would never read its stop.
            while handle.process.is_alive() and time.monotonic() < give_up_at:
                self._receive(handle)
                handle.process.join(timeout=_MONITOR_INTERVAL_SECONDS)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=_STOP_GRACE_SECONDS)
            handle.process.close()
            handle.process = None
        self._monitor.join(timeout=_STOP_GRACE_SECONDS)
        for handle in workers:
            with handle.receiving:  # a leader sees its worker's EOF, leaves
                handle.responses.close()
            handle.requests.close()

    def __enter__(self) -> "ServingTier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _goal_text(goal):
    """Goals ship as source text: terms do not need to cross processes."""
    if isinstance(goal, str):
        return goal
    from ..prolog.writer import term_to_string

    return term_to_string(goal)
