"""Maintenance of recursive ``setrel`` views.

A linear recursive binary view (``works_for``) is maintained as the
transitive closure of its base clause's *edge view*:

* the edge view (the non-recursive body of the base clause, e.g.
  ``works_dir_for``'s join) is a counting
  :class:`~repro.materialize.views.MaterializedView` — base-relation
  deltas reach it through the same prepared delta rules as any other
  view;
* edge rows appearing or disappearing feed an
  :class:`~repro.coupling.recursion_exec.IncrementalClosure`: inserts
  propagate semi-naively (only the reach-cone of the new edge is
  probed), deletes run DRed-style over-delete/re-derive.

Where the batch executors re-run the whole setrel frontier loop per ask,
the maintained closure answers a bound ask with an index probe:
``view(low, High)`` reads the nodes above ``low``, ``view(Low, high)``
the nodes below ``high``, ``view(low, high)`` is one membership test —
and, beyond what the batch path supports, the fully open
``view(Low, High)`` walks every pair.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..coupling.recursion_exec import IncrementalClosure
from ..prolog.terms import Struct, Variable
from .delta import Delta, ViewStats
from .views import MaterializedView


class RecursiveMaterializedView:
    """A recursive binary view kept live as an incremental closure."""

    recursive = True

    def __init__(
        self,
        name: str,
        goal: Struct,
        args: Sequence[Variable],
        edge_view: MaterializedView,
    ):
        self.name = name
        self.goal = goal
        self.args = tuple(args)
        self.edge_view = edge_view
        self.closure = IncrementalClosure(edge_view.counts)
        # Each end's attribute: a bound constant is compared as the
        # backend compares it with that column ("2" reaches employee 2).
        schema = edge_view.database.schema
        self._ends = tuple(
            schema.attribute(edge_view.column_cells[column][0][1])
            for column in edge_view.position_column
        )
        self.stale = False
        self.quarantined = False
        self.stats = ViewStats()

    @property
    def relations(self) -> frozenset:
        return self.edge_view.relations

    def refresh(self) -> None:
        self.edge_view.refresh()
        self.closure = IncrementalClosure(self.edge_view.counts)
        self.stale = False
        self.quarantined = False
        self.stats.refreshes += 1

    def apply_delta(self, delta: Delta) -> tuple[set, set]:
        """Fold a base-relation delta through the edge view into the closure."""
        appeared, disappeared = self.edge_view.apply_delta(delta)
        added: set = set()
        removed: set = set()
        for low, high in appeared:
            added |= self.closure.insert_edge(low, high)
        for low, high in disappeared:
            removed |= self.closure.delete_edge(low, high)
        self.stats.deltas_applied += 1
        self.stats.delta_executions = self.edge_view.stats.delta_executions
        self.stats.rows_added += len(added)
        self.stats.rows_removed += len(removed)
        return added, removed

    def answers(self, goal: Struct) -> Optional[list[dict]]:
        """The matching closure pairs as answers: sorted, deduplicated,
        one dict entry per named variable argument.

        A bound side is a probe of the closure's adjacency (both bound:
        one membership test); only a goal with no bound side walks every
        pair, a pattern the batch executor rejects.
        """
        from ..coupling.global_opt import _constant_value

        low_arg, high_arg = goal.args
        low = None if isinstance(low_arg, Variable) else _constant_value(low_arg)
        high = None if isinstance(high_arg, Variable) else _constant_value(high_arg)
        if (low is None and not isinstance(low_arg, Variable)) or (
            high is None and not isinstance(high_arg, Variable)
        ):
            return None  # structured argument: not a closure probe
        if low is not None:
            low = self._ends[0].coerce(low)
        if high is not None:
            high = self._ends[1].coerce(high)
        answers: list[dict] = []
        seen: set[tuple] = set()
        closure = self.closure
        if low is not None and high is not None:
            candidates = [(low, high)] if (low, high) in closure else []
        elif low is not None:
            candidates = [(low, y) for y in sorted(closure.above(low))]
        elif high is not None:
            candidates = [(x, high) for x in sorted(closure.below(high))]
        else:
            candidates = sorted(closure.pairs)
            if not low_arg.is_anonymous and low_arg.name == high_arg.name:
                candidates = [(x, y) for x, y in candidates if x == y]
        for pair_low, pair_high in candidates:
            answer: dict = {}
            if isinstance(low_arg, Variable) and not low_arg.is_anonymous:
                answer[low_arg.name] = pair_low
            if isinstance(high_arg, Variable) and not high_arg.is_anonymous:
                answer[high_arg.name] = pair_high
            key = tuple(sorted(answer.items()))
            if key not in seen:
                seen.add(key)
                answers.append(answer)
        self.stats.maintained_asks += 1
        return answers
