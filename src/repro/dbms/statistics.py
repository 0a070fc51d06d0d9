"""Backend counters and the planner's relation-statistics service.

:class:`ExecutionStats` counts what the backend did (statements, rows,
renders, commits); :class:`RelationStatistics` is one relation's
cardinality profile; :class:`StatisticsService` caches those profiles
keyed on a per-relation data generation and refreshes the substrate's
own ``sqlite_stat1`` (``ANALYZE``) alongside.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass, field

from ..concurrency import LockedCounters, counter_names


@dataclass
class ExecutionStats(LockedCounters):
    """Cumulative counters a session exposes for benchmarks.

    Counters are updated under an internal lock (several serving threads
    share one backend); :meth:`snapshot` returns one consistent copy —
    callers must not sum fields read at different times.
    """

    queries_executed: int = 0
    rows_fetched: int = 0
    #: how many times a query *tree* was rendered to SQL text — the
    #: compile-once benchmarks gate that this stays flat while
    #: ``prepared_executions`` grows.
    sql_prints: int = 0
    prepared_executions: int = 0
    commits: int = 0
    #: relation-statistics service: recomputations vs generation-fresh hits.
    stats_refreshes: int = 0
    stats_hits: int = 0
    #: ``PRAGMA optimize`` runs on retiring/closing connections.
    pragma_optimizes: int = 0

    def record(self, rows: int, prepared: bool = False) -> None:
        # One lock acquisition covers every counter an execution touches,
        # so a concurrent snapshot can never observe prepared_executions
        # ahead of queries_executed (and the warm hot path pays a single
        # mutex round trip).
        with self._lock:
            self.queries_executed += 1
            self.rows_fetched += rows
            if prepared:
                self.prepared_executions += 1

    def reset(self) -> None:
        with self._lock:
            for name in counter_names(type(self)):
                setattr(self, name, 0)


@dataclass(frozen=True)
class RelationStatistics:
    """Cardinality profile of one base relation (the planner's food).

    ``distinct`` maps each attribute of the relation to its distinct-value
    count; ``1 / distinct[attr]`` is the classic equality-restriction
    selectivity estimate, and joint independence across attributes is
    assumed (the System R simplification).  ``generation`` records the
    backend data generation the counts were taken at — a stale profile
    is recomputed lazily on the next request.
    """

    relation: str
    row_count: int
    distinct: dict
    generation: int

    def selectivity(self, attribute: str) -> float:
        """Estimated fraction of rows matching ``attribute = const``."""
        count = self.distinct.get(attribute, 0)
        if count <= 0:
            return 1.0
        return 1.0 / count


class StatisticsService:
    """Generation-keyed cache of :class:`RelationStatistics` for one backend.

    Written against the backend's ``read`` / ``transaction`` primitives,
    its ``schema`` and its ``stats`` counters only.
    """

    def __init__(self, database):
        self._database = database
        #: Per-relation monotone counters advanced by that relation's
        #: mutations; the cache keys freshness on them, so a churning
        #: relation never invalidates a stable one's profile.
        self._generations: dict[str, int] = {}
        self._cache: dict[str, RelationStatistics] = {}
        self._lock = threading.Lock()

    def note_mutation(self, relation_name: str) -> None:
        """Advance one relation's data generation (its statistics go stale)."""
        with self._lock:
            self._generations[relation_name] = (
                self._generations.get(relation_name, 0) + 1
            )

    def data_generation(self, relation_name: str) -> int:
        """The relation's mutation counter (statistics-freshness key).

        Lock-free: one ``dict.get`` is atomic, and only ``note_mutation``
        (under the mutex) moves a counter.
        """
        return self._generations.get(relation_name, 0)

    def relation_statistics(self, relation_name: str) -> RelationStatistics:
        """Row and distinct-value counts for one base relation, cached.

        The profile is recomputed only when *this relation's* data
        generation moved since it was taken — a steady ask stream pays
        one dictionary lookup, not a COUNT scan, per planning decision,
        and churn on one relation never invalidates another's profile.
        Each refresh also runs ``ANALYZE <relation>`` so the substrate's
        own planner (``sqlite_stat1``) sees the same freshness the
        coupling planner does.  Refreshes and generation-fresh hits are
        counted in ``stats.stats_refreshes`` / ``stats.stats_hits``.
        """
        database = self._database
        relation = database.schema.relation(relation_name)  # validates
        with self._lock:
            generation = self._generations.get(relation_name, 0)
            cached = self._cache.get(relation_name)
        if cached is not None and cached.generation == generation:
            database.stats.incr("stats_hits")
            return cached
        selects = ", ".join(
            ["COUNT(*)"]
            + [f"COUNT(DISTINCT {a})" for a in relation.attributes]
        )
        row = database.read(f"SELECT {selects} FROM {relation_name}")[0]
        profile = RelationStatistics(
            relation=relation_name,
            row_count=row[0],
            distinct={
                attribute: row[i + 1]
                for i, attribute in enumerate(relation.attributes)
            },
            generation=generation,
        )
        with database.transaction() as cursor:
            try:
                cursor.execute(f"ANALYZE {relation_name}")
            except sqlite3.Error:
                pass  # statistics stay usable even if ANALYZE is refused
        with self._lock:
            self._cache[relation_name] = profile
        database.stats.incr("stats_refreshes")
        return profile
