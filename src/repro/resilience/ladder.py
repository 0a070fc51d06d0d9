"""The statement-level fault ladder: deadlines, fault labels, breakers, retries.

One :class:`RetryLadder` lives on each backend.  Every statement the
backend runs at top level — a pooled read, one whole write unit — goes
through :meth:`RetryLadder.run`, which classifies each ``sqlite3``
failure, backs off, consults the connection class's circuit breaker and
honours the calling thread's deadline scope.  The thread-scoped state
the ladder reads (the active :class:`~repro.concurrency.Deadline`, the
fault-class relabel of :meth:`fault_context`) lives here with it.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager, suppress
from typing import Callable, Iterator, Optional

from ..concurrency import Deadline
from ..errors import (
    BackendPoisonedError,
    DeadlineExceeded,
    TransientBackendError,
    classify_sqlite_error,
)
from .policy import CircuitBreaker, FaultPolicy
from .stats import ResilienceStats


def interruptible_fetch(
    connection: sqlite3.Connection, scope: Deadline, text: str, parameters: tuple
) -> list:
    """Run one statement, interrupted from inside the VM once ``scope`` dies.

    SQLite's progress handler runs every N virtual-machine instructions
    on the querying thread; returning nonzero aborts the statement with
    SQLITE_INTERRUPT, which :meth:`RetryLadder.run` converts into
    :class:`~repro.errors.DeadlineExceeded`.
    """
    connection.set_progress_handler(lambda: 1 if scope.expired else 0, 4000)
    try:
        return connection.execute(text, parameters).fetchall()
    finally:
        # a poisoned connection has nothing to restore
        with suppress(sqlite3.Error):
            connection.set_progress_handler(None, 0)


class RetryLadder:
    """Retry/backoff, two circuit breakers and per-thread deadline scopes.

    ``work`` is the backend's execution counters (for
    ``DeadlineExceeded.partial``), ``retire_reader`` drops the calling
    thread's poisoned pooled reader, and ``fault_point`` is the hook
    consulted before each attempt — ``None`` on healthy backends, so the
    fault-free hot path pays one local test.
    """

    def __init__(
        self,
        policy: FaultPolicy,
        resilience: ResilienceStats,
        work,
        retire_reader: Callable[[], None],
        fault_point: Optional[Callable[[str, str], None]] = None,
    ):
        self.policy = policy
        self._resilience = resilience
        self._work = work
        self._retire_reader = retire_reader
        self._fault_point = fault_point
        # One breaker per connection class: a failing read substrate
        # stops being hammered while the owning write connection (a
        # different failure domain) proceeds, and vice versa.
        self._breakers = {
            klass: CircuitBreaker(
                policy.breaker_threshold,
                policy.breaker_cooldown,
                resilience,
                name=klass,
            )
            for klass in ("read", "write")
        }
        #: Per-thread scopes: ``deadline`` (the active budget) and
        #: ``fault_class`` (the :meth:`fault_context` relabel).
        self._thread = threading.local()

    @contextmanager
    def deadline(self, seconds: Optional[float]) -> Iterator[None]:
        """Bound every backend operation on this thread by a time budget.

        Scopes nest by shrinking: an inner scope can only tighten the
        budget, never extend it past the enclosing one.  Expiry raises a
        typed :class:`~repro.errors.DeadlineExceeded` carrying
        partial-work counters; running statements are interrupted via a
        progress handler (:func:`interruptible_fetch`).
        """
        if seconds is None:
            yield
            return
        local = self._thread
        outer = getattr(local, "deadline", None)
        scope = Deadline(seconds)
        if outer is not None and outer.until < scope.until:
            scope = outer
        local.deadline = scope
        try:
            yield
        finally:
            local.deadline = outer

    def current_deadline(self) -> Optional[Deadline]:
        return getattr(self._thread, "deadline", None)

    @contextmanager
    def fault_context(self, klass: str) -> Iterator[None]:
        """Relabel this thread's statements for the fault injector.

        Statements executed inside the scope present ``klass`` instead
        of their connection class (``read``/``write``) to the fault
        hook, making higher-level operations — CQA detector probes,
        certain-answer rewritings — independently addressable fault
        points in a :class:`~repro.resilience.faults.FaultSchedule`.
        On a healthy backend (no fault point) the override is never
        read on the statement path; the scope costs two attribute
        writes.
        """
        local = self._thread
        outer = getattr(local, "fault_class", None)
        local.fault_class = klass
        try:
            yield
        finally:
            local.fault_class = outer

    def breaker_states(self) -> dict:
        """Current circuit-breaker states (``session.stats()`` surfaces this)."""
        return {klass: breaker.state for klass, breaker in self._breakers.items()}

    def _expired(self, klass: str, label: str) -> DeadlineExceeded:
        """The typed expiry error, with work counters for ``.partial``."""
        self._resilience.incr("deadline_exceeded")
        execution = self._work.snapshot()
        resilience = self._resilience.snapshot()
        return DeadlineExceeded(
            f"deadline expired during {klass} {label[:80]!r}",
            {
                "queries_executed": execution["queries_executed"],
                "rows_fetched": execution["rows_fetched"],
                "retries": resilience["retries"],
                "backoff_seconds": resilience["backoff_seconds"],
            },
        )

    def run(self, klass: str, label: str, attempt_once: Callable[[], object]):
        """Run ``attempt_once`` under the fault ladder of class ``klass``.

        Classifies each ``sqlite3`` failure (transient / poisoned /
        permanent), applies jittered exponential backoff within the
        attempt budget, retires poisoned readers, honours the circuit
        breaker for this connection class, and converts expiry of the
        active deadline scope into ``DeadlineExceeded``.  Lock-type
        errors keep the pre-resilience patience window
        (``policy.lock_patience``) so shared-cache readers still ride
        out a slow writer's transaction.
        """
        policy = self.policy
        if not policy.enabled:
            # pre-resilience behaviour, kept as the overhead baseline:
            # bounded patience for shared-cache table locks, nothing else.
            give_up_at = time.monotonic() + policy.lock_patience
            while True:
                try:
                    return attempt_once()
                except sqlite3.OperationalError as error:
                    if "locked" not in str(error) or time.monotonic() > give_up_at:
                        raise
                    time.sleep(0.002)
        breaker = self._breakers[klass]
        stats = self._resilience
        scope = getattr(self._thread, "deadline", None)
        started = time.monotonic()
        attempts = 0
        last_error: Optional[BaseException] = None
        while True:
            if scope is not None and scope.expired:
                raise self._expired(klass, label) from last_error
            if not breaker.allow():
                pause = breaker.retry_after() or policy.backoff(attempts)
                if scope is not None:
                    pause = scope.clamp(pause)
                time.sleep(pause)
                attempts += 1
                if attempts >= policy.max_attempts * 2:
                    raise TransientBackendError(
                        f"{klass} breaker open; gave up on {label[:80]!r}"
                    ) from last_error
                continue
            fault = self._fault_point
            try:
                if fault is not None:
                    fault(
                        getattr(self._thread, "fault_class", None) or klass,
                        label,
                    )
                result = attempt_once()
            except sqlite3.Error as error:
                # (a typed DeadlineExceeded is not an sqlite3 error and
                # passes through unretried)
                category = classify_sqlite_error(error)
                if category == "permanent":
                    # the statement's fault, not the substrate's: the
                    # breaker saw a live backend answer
                    breaker.success()
                    raise
                if scope is not None and scope.expired:
                    raise self._expired(klass, label) from error
                breaker.failure()
                last_error = error
                attempts += 1
                if category == "poisoned":
                    if klass != "read":
                        raise BackendPoisonedError(
                            f"owning connection unusable: {error}"
                        ) from error
                    self._retire_reader()
                lockish = isinstance(error, sqlite3.OperationalError) and (
                    "locked" in str(error) or "busy" in str(error)
                )
                patient = (
                    lockish
                    and time.monotonic() - started < policy.lock_patience
                )
                if attempts >= policy.max_attempts and not patient:
                    raise TransientBackendError(
                        f"{klass} {label[:80]!r} failed after {attempts} "
                        f"attempts: {error}"
                    ) from error
                pause = policy.backoff(attempts - 1)
                if scope is not None:
                    pause = scope.clamp(pause)
                stats.incr("retries")
                stats.incr("backoff_seconds", pause)
                if pause > 0:
                    time.sleep(pause)
            else:
                breaker.success()
                return result

    def outwait_lock(self, error: sqlite3.OperationalError, again: Callable):
        """Re-run a statement a lock refused inside an open write unit
        (where :meth:`run` would replay the unit) until it runs or
        ``policy.lock_patience`` is spent.  SQLite refuses a statement
        whole, so running it again is safe; other errors propagate."""
        give_up_at = time.monotonic() + self.policy.lock_patience
        while "locked" in str(error) or "busy" in str(error):
            if time.monotonic() >= give_up_at:
                break
            time.sleep(0.002)
            try:
                return again()
            except sqlite3.OperationalError as refused:
                error = refused
        raise error
