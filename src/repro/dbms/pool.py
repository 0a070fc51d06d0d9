"""Per-thread pooled read connections for one SQLite store.

Readers are per thread, so concurrent SELECTs never serialize on one
cursor; with WAL (file-backed stores) they also never block behind the
writer.  The pool owns everything about those connections and nothing
else: lazy creation, the PID stamp that keeps a ``fork()`` child off its
parent's handles, retirement (a collected thread's reader, a poisoned
reader) and the ``PRAGMA optimize`` a connection runs before it goes
away.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import weakref
from contextlib import suppress
from typing import Callable, Optional

from ..errors import ExecutionError


class ReaderPool:
    """The read connections of one :class:`ExternalDatabase`.

    ``connect`` opens one more connection to the backend's store;
    ``stats`` / ``resilience`` are the backend's counters
    (``pragma_optimizes``; ``poisoned_retired``).
    """

    def __init__(
        self, connect: Callable[[], sqlite3.Connection], stats, resilience
    ):
        self._connect = connect
        self._stats = stats
        self._resilience = resilience
        self._closed = False
        self._reset()

    def _reset(self) -> None:
        #: Pool ownership is per process: a ``fork()`` child inherits the
        #: parent's pooled reader *objects* but must never use (or close)
        #: them — two processes stepping on one SQLite handle corrupts
        #: both.  :meth:`connection` checks this stamp and rebuilds the
        #: pool empty in a child before handing out a connection.
        self._pid = os.getpid()
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._finalizers: list = []
        self._lock = threading.RLock()
        self._peak = 0

    @property
    def size(self) -> int:
        """How many pooled read connections are currently open."""
        with self._lock:
            return len(self._connections)

    @property
    def peak(self) -> int:
        """The most read connections ever open at once (dead threads'
        connections are retired, so ``size`` alone understates how far
        the pool fanned out)."""
        with self._lock:
            return self._peak

    def current(self) -> Optional[sqlite3.Connection]:
        """The calling thread's reader, if it has opened one."""
        return getattr(self._local, "connection", None)

    def connection(self) -> sqlite3.Connection:
        """The calling thread's pooled read connection (created lazily).

        A finalizer on the owning thread retires the connection when the
        thread is collected, so thread-per-request deployments do not
        accumulate open connections without bound.
        """
        if self._pid != os.getpid():
            self._forget_after_fork()
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection
        with self._lock:
            # registration and the closed check share the pool lock,
            # so close() cannot clear the pool between them
            if self._closed:
                raise ExecutionError("database is closed")
            connection = self._connect()
            try:
                connection.execute("PRAGMA busy_timeout=2000")
            except sqlite3.Error:
                connection.close()
                raise
            self._connections.append(connection)
            self._peak = max(self._peak, len(self._connections))
            # finalize handles reference this pool through the bound
            # method; close() detaches them so a closed backend (and its
            # connections) never stays pinned for the thread's lifetime.
            self._finalizers.append(
                weakref.finalize(
                    threading.current_thread(), self._retire, connection
                )
            )
        self._local.connection = connection
        return connection

    def _forget_after_fork(self) -> None:
        """Rebuild the pool empty in a forked/spawned child process.

        The inherited connection objects stay untouched — they wrap the
        parent's SQLite handles, and closing them here would run the
        parent's shutdown logic on duplicated file descriptors.  The
        child simply forgets them (detaching their finalizers so a
        child-side GC pass cannot reach back either) and lazily opens
        its own readers against the same file-backed store.  Locks are
        recreated too: a lock forked mid-acquisition would stay held
        forever in the child.
        """
        for finalizer in self._finalizers:
            finalizer.detach()
        self._reset()

    def _retire(self, connection: sqlite3.Connection) -> None:
        """Close a pooled reader whose owning thread has been collected."""
        with self._lock:
            # drop spent finalize handles too, or thread-per-request use
            # would grow the list (pinning closed connections) unboundedly
            self._finalizers = [
                finalizer for finalizer in self._finalizers if finalizer.alive
            ]
            try:
                self._connections.remove(connection)
            except ValueError:
                return  # close() already took it
        self.optimize(connection)
        with suppress(sqlite3.Error):
            connection.close()

    def retire_current(self) -> None:
        """Drop the calling thread's reader — poisoned, not recycled.

        Called by the retry ladder when a read fails with a
        connection-level error ("closed database", corruption): the
        connection leaves the pool, and the thread's next read lazily
        opens a fresh one.
        """
        connection = self.current()
        if connection is None:
            return
        self._local.connection = None
        with self._lock:
            with suppress(ValueError):
                self._connections.remove(connection)
        with suppress(sqlite3.Error):
            connection.close()
        self._resilience.incr("poisoned_retired")

    def optimize(self, connection: sqlite3.Connection) -> None:
        """``PRAGMA optimize`` before a connection goes away.

        SQLite's own guidance: run it when closing long-lived connections
        so index-usage observations flow into ``sqlite_stat1`` instead of
        dying with the connection.  Counted in ``stats.pragma_optimizes``.
        """
        try:
            connection.execute("PRAGMA optimize")
        except sqlite3.Error:
            return  # a connection mid-close loses nothing but the hint
        self._stats.incr("pragma_optimizes")

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for finalizer in self._finalizers:
                finalizer.detach()
            self._finalizers.clear()
            for connection in self._connections:
                self.optimize(connection)
                with suppress(sqlite3.Error):
                    connection.close()  # a reader mid-close loses the race harmlessly
            self._connections.clear()
