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
  materialized-view kind: a gap-scaled pre/post (nested-set) labeling of
  a recursive view's edge forest, stored as an indexed ``ivl_*`` backend
  table so a reachability probe is one indexed range predicate — with
  local absorption of leaf churn, bulk relabels by one DFS, and demotion
  back to the CTE strategies on non-tree data.

Each derived relation has one home and one writer: a view's support
counts (and a recursive view's closure) live in this process's memory,
interval labels in their ``ivl_*`` table, the ``setrel`` frontier in its
``intermediate`` relation — nothing is mirrored.  The paper's "should a
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
