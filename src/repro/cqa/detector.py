"""Key-violation detection for consistent query answering (ROADMAP E19).

The detector is the gatekeeper of every ``ask_consistent``: it decides,
per base relation, whether the store actually violates the relation's
primary key — and therefore whether certain-answer machinery is needed
at all.  The decision comes from **one** GROUP-BY/HAVING probe per
relation::

    SELECT a1, ..., an
    FROM (SELECT DISTINCT a1, ..., an FROM R)
    WHERE (k1, ..., km) IN (
        SELECT k1, ..., km
        FROM (SELECT DISTINCT a1, ..., an FROM R)
        GROUP BY k1, ..., km HAVING COUNT(*) > 1)

which returns exactly the rows of the key-violating *blocks* (sets of
distinct tuples agreeing on the key).  The inner ``DISTINCT`` makes the
probe bag-tolerant: duplicate identical rows are storage noise, not an
integrity violation — a repair keeps the tuple either way.

Probe results are cached against the backend's per-relation
``data_generation`` counter, the same freshness key the planner's
``relation_statistics`` uses: a clean store pays one probe per relation
and then answers every subsequent cleanliness check with a dictionary
lookup until the relation actually mutates.  Probes run inside the
backend's ``fault_context("cqa_probe")`` so the fault-injection harness
can target them independently of ordinary reads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence

Row = tuple


@dataclass(frozen=True)
class RelationViolations:
    """One relation's key-violation snapshot at a data generation.

    ``blocks`` holds the violating blocks only — each a tuple of ≥ 2
    distinct rows (relation-column order) sharing the ``key`` value in
    the matching position of ``key_values``.  An empty ``blocks`` means
    the relation is consistent with respect to its primary key.
    """

    relation: str
    key: tuple[str, ...]
    generation: int
    key_values: tuple[Row, ...]
    blocks: tuple[tuple[Row, ...], ...]

    @property
    def is_clean(self) -> bool:
        return not self.blocks

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def violating_rows(self) -> int:
        return sum(len(block) for block in self.blocks)


class ViolationDetector:
    """Finds and caches key-violating blocks per base relation."""

    def __init__(self, database, constraints, stats=None):
        self.database = database
        self.constraints = constraints
        self.stats = stats
        self._keys: dict[str, tuple[str, ...]] = {}
        self._cache: dict[str, RelationViolations] = {}
        self._lock = threading.Lock()

    # -- key derivation --------------------------------------------------------

    def key_of(self, relation: str) -> tuple[str, ...]:
        """The relation's primary key (derived once, FDs are immutable)."""
        key = self._keys.get(relation)
        if key is None:
            key = self.constraints.primary_key(relation)
            self._keys[relation] = key
        return key

    # -- probing ---------------------------------------------------------------

    def violations(self, relation: str) -> RelationViolations:
        """Violating blocks of ``relation``, probe-once per generation."""
        generation = self.database.data_generation(relation)
        with self._lock:
            cached = self._cache.get(relation)
        if cached is not None and cached.generation == generation:
            if self.stats is not None:
                self.stats.incr("probe_cache_hits")
            return cached
        snapshot = self._probe(relation, generation)
        with self._lock:
            self._cache[relation] = snapshot
        return snapshot

    def _probe(self, relation: str, generation: int) -> RelationViolations:
        key = self.key_of(relation)
        attributes = tuple(self.database.schema.relation(relation).attributes)
        if len(key) == len(attributes):
            # The whole tuple is the key: every distinct row is its own
            # block, so no probe can ever find a violation.
            return RelationViolations(relation, key, generation, (), ())
        if self.stats is not None:
            self.stats.incr("probes")
        text = self._probe_sql(relation, key, attributes)
        with self.database.fault_context("cqa_probe"):
            rows = self.database.execute_prepared(text)
        key_positions = [attributes.index(a) for a in key]
        grouped: dict[Row, list[Row]] = {}
        for row in rows:
            block_key = tuple(row[i] for i in key_positions)
            grouped.setdefault(block_key, []).append(tuple(row))
        key_values = []
        blocks = []
        for block_key in sorted(grouped, key=repr):
            key_values.append(block_key)
            blocks.append(tuple(grouped[block_key]))
        return RelationViolations(
            relation, key, generation, tuple(key_values), tuple(blocks)
        )

    @staticmethod
    def _probe_sql(
        relation: str, key: Sequence[str], attributes: Sequence[str]
    ) -> str:
        columns = ", ".join(attributes)
        key_columns = ", ".join(key)
        key_tuple = key_columns if len(key) == 1 else f"({key_columns})"
        distinct = f"SELECT DISTINCT {columns} FROM {relation}"
        return (
            f"SELECT {columns} FROM ({distinct}) "
            f"WHERE {key_tuple} IN "
            f"(SELECT {key_columns} FROM ({distinct}) "
            f"GROUP BY {key_columns} HAVING COUNT(*) > 1)"
        )

    def invalidate(self, relation: Optional[str] = None) -> None:
        """Drop cached probe results (one relation, or all)."""
        with self._lock:
            if relation is None:
                self._cache.clear()
            else:
                self._cache.pop(relation, None)
