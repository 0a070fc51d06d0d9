"""Counters for the fault-tolerant execution layer.

One :class:`ResilienceStats` instance lives on the backend and is shared
by every layer that participates in fault handling — the retry loop, the
circuit breakers, the session's degradation ladder, and the materialize
manager's quarantine/heal lifecycle — so ``session.stats()["resilience"]``
is a single consistent snapshot of how rough the run actually was.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from ..concurrency import LockedCounters

#: Bound on the per-process event journal used by the tracer.  Old events
#: fall off the left; a span only consumes events newer than its mark, so
#: the bound just needs to cover the events one ask can plausibly emit
#: times the number of concurrently active asks.
_EVENT_JOURNAL_SIZE = 4096


@dataclass
class ResilienceStats(LockedCounters):
    """Cumulative fault-handling counters (lock-guarded, snapshot-safe).

    Besides the cumulative counters, every ``incr`` is journalled as an
    ``(seq, thread, counter, amount)`` event so the tracer can attribute
    fault handling to the individual ask that suffered it: a span records
    ``event_seq`` when it opens and consumes :meth:`events_since` when it
    commits.  The unlocked ``event_seq`` read on the span-open fast path
    is deliberate — a stale read only means an event lands in the journal
    window the span re-filters by thread, never a torn value (ints are
    replaced atomically).
    """

    #: statement-level retries performed by the backend retry loop.
    retries: int = 0
    #: total seconds slept in exponential backoff (float).
    backoff_seconds: float = 0.0
    #: circuit-breaker transitions, per edge of the state machine.
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    #: answers produced by a lower rung of the degradation ladder than
    #: the planner's first choice (CTE → frontier → in-memory engine).
    degraded_answers: int = 0
    #: warm plans evicted after a permanent prepared-statement failure
    #: (each is followed by exactly one cold recompile).
    plan_invalidations: int = 0
    #: asks that ran out of deadline budget (typed ``DeadlineExceeded``).
    deadline_exceeded: int = 0
    #: poisoned pooled connections retired instead of recycled.
    poisoned_retired: int = 0
    #: maintained views quarantined after a failed maintenance delta.
    quarantines: int = 0
    #: quarantined views rebuilt back to serving condition.
    heals: int = 0
    #: whole-ask retries performed by the session after a transient error.
    ask_retries: int = 0
    #: faults actually delivered by a :class:`FaultInjectingBackend`.
    faults_injected: int = 0
    #: monotonically increasing id of the last journalled event.
    event_seq: int = 0
    _not_counters = ("event_seq",)
    _events: deque = field(
        default_factory=lambda: deque(maxlen=_EVENT_JOURNAL_SIZE),
        repr=False,
        compare=False,
    )

    def incr(self, counter: str, amount: int = 1) -> None:
        """Bump one counter and journal the event for span attribution."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)
            self.event_seq += 1
            self._events.append(
                (self.event_seq, threading.get_ident(), counter, amount)
            )

    def events_since(self, mark: int, thread_ident: int) -> dict:
        """Aggregated counter deltas this thread caused after ``mark``."""
        with self._lock:
            events = [
                event
                for event in self._events
                if event[0] > mark and event[1] == thread_ident
            ]
        consumed: dict = {}
        for _seq, _thread, counter, amount in events:
            consumed[counter] = consumed.get(counter, 0) + amount
        return consumed
