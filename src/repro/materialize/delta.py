"""Relation-level deltas and maintenance statistics.

A :class:`Delta` is one base-relation tuple entering or leaving the
store.  The manager produces them from the session's base writes; views
consume them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..concurrency import LockedCounters

INSERT = "insert"
DELETE = "delete"


@dataclass(frozen=True)
class Delta:
    """One tuple-level change to a base relation's stored rows."""

    relation: str
    kind: str  # INSERT or DELETE
    row: tuple


@dataclass
class ViewStats:
    """Per-view maintenance counters."""

    maintained_asks: int = 0
    deltas_applied: int = 0
    delta_executions: int = 0  # prepared delta-query executions
    rows_added: int = 0
    rows_removed: int = 0
    refreshes: int = 0


@dataclass
class MaintenanceStats(LockedCounters):
    """Aggregate counters the manager exposes (``session.materialize.stats``).

    Aggregate fields update through :meth:`incr` (locked: concurrent
    serving threads ask maintained views in parallel); per-view counters
    update under the knowledge base's write lock, except the best-effort
    ``maintained_asks`` tallies on the concurrent read path.
    """

    views: int = 0
    deltas_applied: int = 0
    maintained_asks: int = 0
    refreshes: int = 0
    fallbacks: int = 0  # maintenance errors answered by quarantine
    quarantines: int = 0  # views pulled from serving after a failed delta
    heals: int = 0  # quarantined views rebuilt back to serving condition
    per_view: dict = field(default_factory=dict)
    _not_counters = ("per_view",)

    def snapshot(self) -> dict:
        # aggregate fields come from the locked snapshot so a concurrent
        # incr never tears the group (per-view detail stays best-effort);
        # the result is a plain JSON-serializable dict, same contract as
        # every other stats section.
        data = super().snapshot()
        data["per_view"] = {
            name: asdict(stats) for name, stats in self.per_view.items()
        }
        return data
