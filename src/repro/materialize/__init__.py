"""Incremental materialized-view maintenance (maintain, don't recompute).

The paper's "global optimization" decides which intermediate results are
worth *storing*.  PR 2 built the compile-once half of that decision (the
plan cache) plus a result cache that merely *invalidates* per relation:
any update still forces affected views to recompute from scratch.  This
package closes the loop — derived relations are **maintained under
change**:

* :class:`~repro.materialize.manager.MaterializeManager` subscribes to
  :class:`~repro.prolog.knowledge_base.KnowledgeBase` mutation events and
  turns asserts/retracts of base-relation facts into per-relation
  insert/delete deltas;
* :class:`~repro.materialize.views.MaterializedView` maintains a
  non-recursive view with **counting-based delta rules** compiled through
  the existing metaevaluate → DBCL → SQL pipeline; the delta queries are
  parameterized prepared statements (the PR 2 ``Parameter`` machinery),
  rendered once per view and re-executed per update;
* :class:`~repro.materialize.recursive.RecursiveMaterializedView`
  maintains a recursive ``setrel`` view through
  :class:`~repro.coupling.recursion_exec.IncrementalClosure` — semi-naive
  delta propagation for inserts, DRed-style delete/re-derive for
  retracts;
* :class:`~repro.materialize.intervals.IntervalIndex` is a third
  materialized-view kind: interval labels of a recursive view's edge
  forest, held in memory as one depth-first tour per data generation,
  so the cone below a seed is a slice of the tour and the chain above
  it a parent walk — rebuilt from one edge fetch when the data moves,
  and demoted back to the CTE strategies on non-tree data.

Each derived relation has one home and one writer: a view's support
counts, a recursive view's closure and the interval labels live in this
process's memory, the ``setrel`` frontier in its ``intermediate``
relation — nothing is mirrored.  The paper's "should a
result be stored" decision is the explicit :meth:`MaterializeManager.view`
registration (and ``CachePolicy`` for plain answers).
"""

from .delta import Delta, MaintenanceStats
from .intervals import IntervalIndex, IntervalStats
from .manager import MaterializeManager
from .recursive import RecursiveMaterializedView
from .views import DeltaRule, MaterializedView

__all__ = [
    "Delta",
    "DeltaRule",
    "IntervalIndex",
    "IntervalStats",
    "MaintenanceStats",
    "MaterializeManager",
    "MaterializedView",
    "RecursiveMaterializedView",
]
