"""Seeded, scheduled fault injection for the execution layer.

Every failure mode the resilience machinery claims to survive must be
reproducible on demand, or the claim is untestable.  A
:class:`FaultSchedule` is a finite, seeded list of :class:`FaultEvent`
firings — locked-database bursts, I/O errors, latency spikes, poisoned
pooled connections, mid-delta maintenance failures — addressed by
*operation ordinal within a fault class* (the Nth read, the Nth delta),
so the same seed produces the same fault at the same point of the same
workload, run after run.

:class:`FaultInjectingBackend` is an :class:`ExternalDatabase` whose
fault point (consulted by the retry loop and by each maintained view's
delta application) draws from the schedule.  Because the schedule is
finite, every injected run *eventually heals*: once drained, the backend
is indistinguishable from a healthy one — which is exactly the property
the differential benchmark gates on.
"""

from __future__ import annotations

import random
import sqlite3
import threading
import time
from contextlib import suppress
from dataclasses import dataclass

from ..dbms.sqlite_backend import ExternalDatabase

#: Injectable fault kinds, mapped to the fault class whose operation
#: counter schedules them.  ``read`` covers the pooled-read retry loop,
#: ``write`` the owning-connection DML retry loop, ``delta`` one draw per
#: ``MaterializedView.apply_delta`` (after its reads, before its counts).
KIND_CLASSES = {
    "locked": "read",
    "io_error": "read",
    "latency": "read",
    "poison": "read",
    "write_locked": "write",
    "delta_fail": "delta",
}

#: Operational fault kinds — the default pool :meth:`FaultSchedule.random`
#: draws from.  Captured *before* the CQA kinds register so existing
#: seeded schedules keep their exact historical fault sequences.
FAULT_KINDS = tuple(KIND_CLASSES)

#: CQA statement classes (ROADMAP E19): the backend relabels detector
#: probes and certain-answer rewriting statements via
#: ``fault_context("cqa_probe"/"cqa_rewrite")``, giving each its own
#: ordinal counter.  Both inject as transient I/O errors.  Deliberately
#: outside :data:`FAULT_KINDS` — random schedules only target the CQA
#: paths when a caller passes these kinds explicitly.
CQA_FAULT_KINDS = ("cqa_probe", "cqa_rewrite")
KIND_CLASSES.update({kind: kind for kind in CQA_FAULT_KINDS})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire at the ``at``-th eligible operation.

    ``burst`` widens the event to that many *consecutive* eligible
    operations — a locked burst of 3 fails three successive read
    attempts, which is what distinguishes "retry rides it out" from
    "retry budget exhausted, ladder engages".
    """

    at: int
    kind: str
    burst: int = 1

    def __post_init__(self):
        if self.kind not in KIND_CLASSES:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0 or self.burst < 1:
            raise ValueError("fault events need at >= 0 and burst >= 1")


class FaultSchedule:
    """A finite, thread-safe program of faults over a workload.

    Per fault class (read/write/delta) the schedule keeps an operation
    counter and a queue of pending events sorted by ``at``; ``draw``
    advances the counter and returns the head event while its burst
    window covers the current ordinal.  Counters are per-class so a
    read-heavy workload cannot starve a scheduled delta failure.
    """

    def __init__(self, events, latency: float = 0.005):
        self.latency = latency
        self.events = tuple(
            sorted(events, key=lambda event: (event.at, event.kind))
        )
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._pending: dict[str, list[list]] = {}
        for event in self.events:
            klass = KIND_CLASSES[event.kind]
            # [event, firings-remaining] — mutable so bursts tick down
            self._pending.setdefault(klass, []).append([event, event.burst])
        self.injected = 0
        self.injected_by_kind: dict[str, int] = {}

    @classmethod
    def random(
        cls,
        seed: int,
        events: int = 8,
        horizon: int = 60,
        max_burst: int = 3,
        latency: float = 0.002,
        kinds=FAULT_KINDS,
    ) -> "FaultSchedule":
        """A seeded schedule of ``events`` faults inside ``horizon`` ops.

        ``horizon`` bounds the *read*-class ordinals; write and delta
        ordinals advance far more slowly than reads in any realistic
        workload (one maintenance delta per mutation vs. several reads
        per ask), so their events are drawn from proportionally shorter
        windows — otherwise a scheduled write fault could sit forever
        past the end of the write stream and the schedule would never
        drain.
        """
        rng = random.Random(seed)
        class_horizon = {
            "read": max(1, horizon),
            "write": max(2, horizon // 5),
            "delta": max(2, horizon // 4),
            # CQA ordinals advance once per consistent ask (rewrite) or
            # per relation generation (probe) — far slower than reads.
            "cqa_probe": max(1, horizon // 4),
            "cqa_rewrite": max(1, horizon // 2),
        }
        drawn = []
        for _ in range(events):
            kind = rng.choice(tuple(kinds))
            burst = rng.randint(1, max_burst) if kind == "locked" else 1
            drawn.append(
                FaultEvent(
                    at=rng.randrange(class_horizon[KIND_CLASSES[kind]]),
                    kind=kind,
                    burst=burst,
                )
            )
        return cls(drawn, latency=latency)

    def draw(self, klass: str):
        """The fault (if any) scheduled for this operation of ``klass``."""
        with self._lock:
            ordinal = self._counts.get(klass, 0)
            self._counts[klass] = ordinal + 1
            pending = self._pending.get(klass)
            if not pending:
                return None
            head = pending[0]
            event = head[0]
            if ordinal < event.at:
                return None
            head[1] -= 1
            if head[1] <= 0:
                pending.pop(0)
            self.injected += 1
            self.injected_by_kind[event.kind] = (
                self.injected_by_kind.get(event.kind, 0) + 1
            )
            return event

    @property
    def exhausted(self) -> bool:
        """Every scheduled firing delivered — the backend is healed."""
        with self._lock:
            return not any(self._pending.values())

    def remaining(self) -> int:
        with self._lock:
            return sum(
                head[1] for queue in self._pending.values() for head in queue
            )


class FaultInjectingBackend(ExternalDatabase):
    """An :class:`ExternalDatabase` that delivers a fault schedule.

    The base class consults ``self._fault_point`` (``None`` on healthy
    backends — one attribute test of hot-path overhead) at each
    instrumented operation; here it draws from the schedule and turns
    events into the real failure: synthetic ``sqlite3`` errors for
    locked/I/O faults, a genuinely closed pooled connection for poison
    (so retirement is exercised for real), a sleep for latency spikes.
    """

    def __init__(self, *args, schedule: FaultSchedule, **kwargs):
        self.schedule = schedule
        super().__init__(*args, **kwargs)

    def _fault_point(self, klass: str, detail: str = "") -> None:
        event = self.schedule.draw(klass)
        if event is None:
            return
        self.resilience.incr("faults_injected")
        if event.kind == "latency":
            time.sleep(self.schedule.latency)
            return
        if event.kind == "poison":
            # Close the calling thread's pooled reader in place.  It
            # stays registered in the pool — the *next* use fails with
            # "Cannot operate on a closed database", which is the
            # classification the retirement path keys on.  No-op when
            # the thread has no reader yet (nothing to poison).
            connection = self._pool.current()
            if connection is not None:
                with suppress(sqlite3.Error):
                    connection.close()
            return
        if event.kind in ("locked", "write_locked"):
            raise sqlite3.OperationalError("database is locked")
        # io_error / delta_fail / cqa_probe / cqa_rewrite: a transient
        # device hiccup on that statement class
        raise sqlite3.OperationalError("disk I/O error")
