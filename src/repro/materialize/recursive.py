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
the maintained closure answers ``view(low, High)`` / ``view(Low, high)``
by filtering live pairs — and, beyond what the batch path supports, can
answer the fully open ``view(Low, High)`` as well.
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
        self.closure = IncrementalClosure(edge_view.distinct_rows())
        self.stale = False
        self.quarantined = False
        self.stats = ViewStats()

    @property
    def relations(self) -> frozenset:
        return self.edge_view.relations

    def refresh(self) -> None:
        self.edge_view.refresh()
        self.closure = IncrementalClosure(self.edge_view.distinct_rows())
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
        """Closure pairs filtered by the goal's bound sides.

        Mirrors the session's ``_ask_recursive`` rendering (sorted pairs,
        one dict entry per variable argument); additionally serves the
        fully open and fully bound argument patterns the batch executor
        rejects.
        """
        from ..coupling.global_opt import _constant_value

        low_arg, high_arg = goal.args
        low = None if isinstance(low_arg, Variable) else _constant_value(low_arg)
        high = None if isinstance(high_arg, Variable) else _constant_value(high_arg)
        if (low is None and not isinstance(low_arg, Variable)) or (
            high is None and not isinstance(high_arg, Variable)
        ):
            return None  # structured argument: not a closure probe
        same_variable = (
            isinstance(low_arg, Variable)
            and isinstance(high_arg, Variable)
            and not low_arg.is_anonymous
            and low_arg.name == high_arg.name
        )
        answers: list[dict] = []
        seen: set[tuple] = set()
        for pair_low, pair_high in sorted(self.closure.pairs):
            if low is not None and pair_low != low:
                continue
            if high is not None and pair_high != high:
                continue
            if same_variable and pair_low != pair_high:
                continue
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
