"""Concurrency primitives for the serving layer.

The paper's system was a single 1984 session; serving "heavy traffic"
means many threads asking one session concurrently.  Three primitives
carry the whole design:

* :class:`StripedLock` — a fixed array of locks selected by key hash, so
  per-entry critical sections in the plan/result caches contend only when
  two threads touch the *same* shape, not on one global mutex;
* :class:`ReentrantRWLock` — many concurrent readers or one writer, with
  writer preference and same-thread reentrancy (a writer may re-enter the
  write side, and may read while writing — a base write inside a
  ``bulk_update`` block and nested ``bulk_update`` blocks need both);
* the locking *discipline* (documented here because the code enforcing it
  is spread across modules): the :class:`~repro.prolog.knowledge_base.
  KnowledgeBase` RW lock is the outermost lock; cache stripes, backend
  write mutex, and stats locks are leaves acquired inside it and never
  hold anything else while blocking.  Readers (warm external asks) take
  the read side; every mutation — assert/retract/consult, materialize
  delta application, plan compilation — runs under the write side.  No code path upgrades read→write while holding read; the
  session releases the read lock and restarts on the write side instead.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterator


class StripedLock:
    """A fixed set of reentrant locks addressed by key hash.

    ``for_key(k)`` always returns the same lock for equal keys, so
    compound read-modify-write sequences on one cache entry serialize,
    while operations on different entries proceed in parallel.  The
    caches pair their stripes with one dedicated *structure* lock for
    whole-dict operations (clear, evict, iterate), acquired stripe →
    structure and never the other way.  :meth:`all` — every stripe in
    index order — exists for callers without such a structure lock.
    """

    __slots__ = ("_locks",)

    def __init__(self, stripes: int = 16):
        self._locks = tuple(threading.RLock() for _ in range(stripes))

    def for_key(self, key: object) -> threading.RLock:
        return self._locks[hash(key) % len(self._locks)]

    @contextmanager
    def all(self) -> Iterator[None]:
        """Hold every stripe (in index order) for a structural operation."""
        for lock in self._locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._locks):
                lock.release()


@lru_cache(maxsize=None)
def counter_names(cls) -> tuple:
    return tuple(
        f.name
        for f in fields(cls)
        if not f.name.startswith("_") and f.name not in cls._not_counters
    )


@dataclass
class LockedCounters:
    """Base of the stats dataclasses: a lock, ``incr`` and ``snapshot``.

    A subclass declares its counters as dataclass fields and nothing
    else: the lock lives here, and an atomic :meth:`snapshot` copies
    every public field in declaration order.  A class with a public
    field that is not a counter names it once, in ``_not_counters``.
    """

    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    _not_counters = ()

    def incr(self, counter: str, amount: int = 1) -> None:
        """Atomically bump one counter by name."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def snapshot(self) -> dict:
        """One atomic copy of every counter, in declaration order."""
        with self._lock:
            return {
                name: getattr(self, name) for name in counter_names(type(self))
            }


class Deadline:
    """A monotonic-clock budget shared down a call chain.

    Created once at the top of an ask and consulted by every layer below
    it (retry sleeps clamp to :meth:`remaining`, the backend's progress
    handler interrupts the running statement once :attr:`expired`).
    Immutable after construction so it can be read without locking from
    the progress-handler callback, which runs on the querying thread but
    inside the SQLite VM.
    """

    __slots__ = ("until",)

    def __init__(self, seconds: float):
        self.until = time.monotonic() + max(0.0, seconds)

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.until - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.until

    def clamp(self, seconds: float) -> float:
        """Shrink a proposed sleep/wait to what the budget still allows."""
        return max(0.0, min(seconds, self.until - time.monotonic()))


class ReentrantRWLock:
    """Many readers / one writer, reentrant per thread, writer-preferring.

    * a thread may acquire the read side multiple times (nested asks);
    * a thread may acquire the write side multiple times (``consult``
      calling ``assertz``, an ask whose engine goal asserts);
    * a thread holding the write side may also take the read side (the
      cold ask path re-enters read-only helpers);
    * a waiting writer blocks *new* reader threads (no writer starvation
      under a steady ask stream) but never a thread that already holds
      the lock in either mode;
    * read→write upgrade is refused with ``RuntimeError`` unless the
      thread is the sole reader — two upgrading readers would deadlock,
      so the session's discipline is release-and-restart instead.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._writer: int | None = None
        self._write_count = 0
        self._write_waiters = 0
        self._readers: dict[int, int] = {}

    # -- read side ----------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            while True:
                if self._writer == me:
                    break  # write implies read
                if me in self._readers:
                    break  # reentrant read must not wait on a queued writer
                if self._writer is None and not self._write_waiters:
                    break
                self._cond.wait()
            self._readers[me] = self._readers.get(me, 0) + 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            count = self._readers.get(me)
            if not count:
                raise RuntimeError("release_read without acquire_read")
            if count == 1:
                del self._readers[me]
            else:
                self._readers[me] = count - 1
            self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- write side ---------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_count += 1
                return
            if me in self._readers and (
                len(self._readers) > 1 or self._writer is not None
            ):
                raise RuntimeError(
                    "read->write upgrade would deadlock; release the read "
                    "lock and retry on the write side"
                )
            self._write_waiters += 1
            try:
                while self._writer is not None or any(
                    thread != me for thread in self._readers
                ):
                    self._cond.wait()
            finally:
                self._write_waiters -= 1
            self._writer = me
            self._write_count = 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError("release_write by non-owner")
            self._write_count -= 1
            if self._write_count == 0:
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # -- introspection (tests) ----------------------------------------------

    def held_for_write(self) -> bool:
        """Does the *current thread* hold the write side?"""
        return self._writer == threading.get_ident()
