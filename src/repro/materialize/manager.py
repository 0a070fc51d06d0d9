"""Orchestration of incremental view maintenance for one session.

The manager owns every registered materialized view and keeps three
invariants:

1. **One write path** — a write to a base relation that backs at least
   one registered view is a store write made *here*: the session's one
   base-write function (every route — ``assert_fact`` / ``retract_fact``,
   engine-level ``assertz`` / ``retract``, a consult — ends there) calls
   :meth:`insert` / :meth:`delete`.  Delta queries therefore always see
   the store.
2. **Set semantics of the relation** — a base write inserts a tuple
   unless the store holds it, so the manager tracks the rows per
   relation as a set; re-asserting an existing tuple or retracting a
   missing one is a no-op delta.
3. **Order of application** — insert deltas evaluate against the
   *post*-insert state, delete deltas against the *pre*-delete state;
   the inclusion–exclusion rules in :mod:`repro.materialize.views` are
   derived for exactly those states.

Anything the delta path cannot handle exactly (a maintenance error, a
wholesale ``load_org``) marks affected views *stale*; a stale view
recomputes once on its next ask — never worse than the
invalidate-and-recompute behaviour this subsystem replaces.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..errors import CouplingError
from ..optimize.pipeline import SimplifyOptions, simplify
from ..prolog.reader import parse_goal
from ..prolog.terms import Struct, Term, Variable, conjoin, conjuncts
from .delta import DELETE, INSERT, Delta, MaintenanceStats
from .recursive import RecursiveMaterializedView
from .views import MaterializedView

MaintainedView = Union[MaterializedView, RecursiveMaterializedView]


class MaterializeManager:
    """Registers, maintains, and serves materialized views."""

    def __init__(
        self,
        kb,
        schema,
        database,
        constraints,
        metaevaluator,
        plans,
        optimize: bool = True,
    ):
        self.kb = kb
        self.schema = schema
        self.database = database
        self.constraints = constraints
        self.metaevaluator = metaevaluator
        self.plans = plans
        self.optimize = optimize
        self.stats = MaintenanceStats()
        #: Shared resilience ledger (lives on the backend) — quarantine
        #: and heal events report to both stats objects.
        self.resilience = getattr(database, "resilience", None)
        self._views: dict[tuple[str, int], MaintainedView] = {}
        self._by_relation: dict[str, list[MaintainedView]] = {}
        self._union: dict[str, set[tuple]] = {}

    # -- registration -------------------------------------------------------

    def view(
        self, goal: Union[str, Term], name: Optional[str] = None
    ) -> MaintainedView:
        """Register a view goal for incremental maintenance.

        ``goal`` must be a single view call whose arguments are distinct
        variables (the "materialize the whole view" shape; constants in
        later *asks* restrict the maintained rows).  The view's support
        counts live in this process's memory and nowhere else.
        """
        if isinstance(goal, str):
            goal = parse_goal(goal)
        call = self._registrable_call(goal)
        indicator = call.indicator
        view_name = name if name is not None else indicator[0]
        args = list(call.args)

        # Re-registration replaces the old view wholesale: unsubscribe it
        # so writes are not maintained twice.
        self._unregister(indicator)

        if indicator in self.plans.recursive_indicators(self.kb, self.schema):
            view: MaintainedView = self._build_recursive(view_name, call, args)
        else:
            view = self._build_flat(view_name, call, args)

        self._views[indicator] = view
        for relation in view.relations:
            self._by_relation.setdefault(relation, []).append(view)
            if relation not in self._union:
                self._union[relation] = set(
                    self.database.fetch_relation(relation)
                )
        self.stats.views = len(self._views)
        self.stats.per_view[view_name] = view.stats
        return view

    def _unregister(self, indicator: tuple) -> None:
        old = self._views.pop(indicator, None)
        if old is None:
            return
        self.stats.per_view.pop(old.name, None)
        for relation in old.relations:
            dependents = self._by_relation.get(relation)
            if dependents is None:
                continue
            dependents[:] = [view for view in dependents if view is not old]
            if not dependents:
                del self._by_relation[relation]
                self._union.pop(relation, None)
        self.stats.views = len(self._views)

    def _registrable_call(self, goal: Term) -> Struct:
        parts = conjuncts(goal)
        if len(parts) != 1 or not isinstance(parts[0], Struct):
            raise CouplingError(
                "materialized views are registered per view call; "
                "conjunctions are answered by asking over maintained views"
            )
        call = parts[0]
        names = set()
        for argument in call.args:
            if not isinstance(argument, Variable) or argument.is_anonymous:
                raise CouplingError(
                    "register the open view shape (distinct variables); "
                    "constants belong in asks, which filter maintained rows"
                )
            if argument.name in names:
                raise CouplingError(
                    "registration arguments must be distinct variables"
                )
            names.add(argument.name)
        return call

    def _build_flat(
        self, view_name: str, call: Struct, args: Sequence[Variable]
    ) -> MaterializedView:
        options = SimplifyOptions() if self.optimize else SimplifyOptions.none()
        raw = self.metaevaluator.metaevaluate(call, targets=list(args))
        result = simplify(raw, self.constraints, options)
        if result.is_empty:
            raise CouplingError(
                f"view {view_name} is provably empty under the constraints; "
                "nothing to maintain"
            )
        view = MaterializedView(
            view_name,
            call,
            args,
            result.predicate,
            result.original,
            self.database,
            self.constraints,
        )
        view.refresh()
        return view

    def _build_recursive(
        self, view_name: str, call: Struct, args: Sequence[Variable]
    ) -> RecursiveMaterializedView:
        from ..coupling.recursion_exec import find_base_clause

        indicator = call.indicator
        if indicator[1] != 2:
            raise CouplingError(
                "recursive materialized views support binary views only"
            )
        head, body = find_base_clause(self.kb, indicator)
        low_var, high_var = head.args  # find_base_clause guarantees Variables
        edge_view = self._build_flat(
            f"{view_name}__edge", conjoin(body), [low_var, high_var]
        )
        if any(column is None for column in edge_view.position_column):
            raise CouplingError(
                f"view {view_name}: base clause does not project both edge ends"
            )
        return RecursiveMaterializedView(view_name, call, args, edge_view)

    # -- the write path -----------------------------------------------------

    def insert(self, relation: str, row: tuple) -> None:
        """Add a tuple to a maintained relation unless it is already there."""
        union = self._union[relation]
        if row in union:
            return  # merge semantics: duplicate of a stored tuple
        self.database.insert_rows(relation, [row])
        union.add(row)
        self._dispatch(Delta(relation, INSERT, row))
        self._heal_pass(relation)

    def delete(self, relation: str, row: tuple) -> bool:
        """Remove a tuple from a maintained relation; False when absent."""
        union = self._union[relation]
        if row not in union:
            return False
        # Delete deltas evaluate against the pre-delete state.
        self._dispatch(Delta(relation, DELETE, row))
        self.database.delete_row(relation, row)
        union.discard(row)
        self._heal_pass(relation)
        return True

    def _dispatch(self, delta: Delta) -> None:
        for view in self._by_relation.get(delta.relation, ()):
            if view.quarantined or view.stale:
                continue  # rebuilt wholesale (heal pass, next ask), not patched
            try:
                view.apply_delta(delta)
                self.stats.incr("deltas_applied")
            except Exception:
                self._quarantine(view)

    # -- quarantine and self-healing ----------------------------------------

    def _resilience_incr(self, counter: str) -> None:
        if self.resilience is not None:
            self.resilience.incr(counter)

    def _quarantine(self, view: MaintainedView) -> None:
        """A maintenance delta failed: stop trusting the view's counts.

        The view leaves serving: asks fall through to cold recompute
        until the next write-side opportunity rebuilds it.
        """
        view.quarantined = True
        view.stale = True
        self.stats.incr("quarantines")
        self.stats.incr("fallbacks")
        self._resilience_incr("quarantines")

    def _heal_pass(self, relation: str) -> None:
        """The write-side self-healing opportunity after a mutation."""
        for view in self._by_relation.get(relation, ()):
            if view.quarantined:
                self._try_heal(view)

    def _try_heal(self, view: MaintainedView) -> bool:
        """Rebuild one quarantined view; False when the rebuild failed too.

        A failed heal leaves the view quarantined — the next write-side
        opportunity (or explicit :meth:`heal_all`) retries, so on any
        eventually-healing fault schedule every view converges back to
        serving condition.
        """
        try:
            view.refresh()
        except Exception:
            return False
        self.stats.incr("refreshes")
        self.stats.incr("heals")
        self._resilience_incr("heals")
        return True

    def heal_all(self) -> int:
        """Attempt to heal every quarantined view; returns how many remain."""
        remaining = 0
        for view in self._views.values():
            if view.quarantined and not self._try_heal(view):
                remaining += 1
        return remaining

    def quarantined_views(self) -> list[MaintainedView]:
        return [view for view in self._views.values() if view.quarantined]

    # -- serving ------------------------------------------------------------

    def answer(
        self, goal: Term, max_solutions: Optional[int] = None
    ) -> Optional[list[dict]]:
        """Maintained answers for ``goal``, or None to fall to the cold path."""
        status, answers = self.try_answer(goal, max_solutions)
        if status == "hit":
            return answers
        if status != "stale":
            return None
        # A stale view needs mutating work; callers on the concurrent
        # read path never reach here — the session restarts them on the
        # write side first.
        view = self._views[conjuncts(goal)[0].indicator]
        if view.quarantined:
            if not self._try_heal(view):
                return None  # degraded: cold recompute serves this ask
        else:
            view.refresh()
            self.stats.incr("refreshes")
        return self.try_answer(goal, max_solutions)[1]

    def try_answer(
        self, goal: Term, max_solutions: Optional[int] = None
    ) -> tuple[str, Optional[list[dict]]]:
        """The read-only half of :meth:`answer`, safe under a read lock.

        Returns ``("hit", answers)`` when a fresh maintained view served
        the goal, ``("stale", None)`` when answering needs mutating work
        (a stale view must refresh) so the caller must retry holding the
        write lock, and ``("miss", None)`` when no maintained view covers
        the goal.
        """
        parts = conjuncts(goal)
        if len(parts) != 1 or not isinstance(parts[0], Struct):
            return "miss", None
        call = parts[0]
        view = self._views.get(call.indicator)
        if view is None:
            return "miss", None
        if view.quarantined or view.stale:
            return "stale", None  # healing/refreshing mutates: write side
        answers = view.answers(call)
        if answers is None:
            return "miss", None
        self.stats.incr("maintained_asks")
        if max_solutions is not None:
            return "hit", answers[:max_solutions]
        return "hit", answers

    # -- lifecycle ----------------------------------------------------------

    def on_load(self, relations: Sequence[str]) -> None:
        """A wholesale load replaced base relations: resync and go stale.

        Refreshes happen lazily on the next ask of each affected view.
        """
        for relation in relations:
            if relation in self._union:
                self._union[relation] = set(
                    self.database.fetch_relation(relation)
                )
            for view in self._by_relation.get(relation, ()):
                view.stale = True

    def on_consult(self) -> None:
        """The program changed: conservatively re-register every view.

        The session calls this only when a consult moved the program
        clock; consulted base-relation tuples arrive as ordinary insert
        deltas and need no rebuild.
        """
        if not self._views:
            return
        registered = [(view.goal, view.name) for view in self._views.values()]
        self._teardown()
        for goal, view_name in registered:
            self.view(goal, name=view_name)

    def _teardown(self) -> None:
        self._views.clear()
        self._by_relation.clear()
        self._union.clear()
        self.stats.views = 0

    # -- inspection ---------------------------------------------------------

    def views(self) -> list[MaintainedView]:
        return list(self._views.values())

    def is_maintained(self, relation: str) -> bool:
        return relation in self._by_relation

    def has_view(self, indicator: tuple) -> bool:
        """Is a maintained view registered under this indicator?

        The serving layer consults this before diverting a recursive
        goal group into the batch-seeded CTE: maintained views must keep
        answering from their :class:`IncrementalClosure`.
        """
        return indicator in self._views

    def stats_dict(self) -> dict:
        """The maintenance counters as one plain JSON-serializable dict.

        Delegates to the uniform ``snapshot()`` contract every stats
        section now follows (``session.stats()`` is ``json.dumps``-able
        end to end).
        """
        return self.stats.snapshot()
