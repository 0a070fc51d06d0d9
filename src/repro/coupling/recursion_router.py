"""Routing recursive goals to the transitive-closure executors.

A goal that reaches a predicate on a call-graph cycle bypasses the DBCL
compile chain and is answered by a :class:`~.recursion_exec.TransitiveClosure`
per view.  The router validates, at compile time, that the goal is one
the executors can answer (a single call of a binary linear-recursive
view with one side bound) and records it as a :class:`ClosureCall`; at
execution it runs the read :meth:`~.recursion_exec.TransitiveClosure.plan`
names (the in-memory interval labels on a forest, for either bound
side), steps down the ladder interval → CTE → ``memory`` when that read
fails, and answers a same-shape ``ask_many`` group per seed from the
labels — or, when they cannot serve, with one batch-seeded statement.
Every rung is a read: a recursive ask never needs the write lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from ..concurrency import LockedCounters
from ..errors import CouplingError, DeadlineExceeded
from ..metaevaluate.recursion import is_recursive_goal
from ..prolog.terms import Struct, Term, Variable, conjuncts
from .global_opt import CompiledPlan, GoalShape, _constant_value
from .recursion_exec import RecursionPlan, TransitiveClosure


@dataclass(frozen=True)
class ClosureCall:
    """What a ``recursive`` plan fixes at compile time.

    The view, which side the goal binds (``"low"``: ``view(c, Y)``, the
    chain above ``c``; ``"high"``: ``view(X, c)``, the cone below it),
    and the variable the answers bind.
    """

    view: str
    bound: str
    variable: str


@dataclass
class RecursionPlanStats(LockedCounters):
    """Observability for the recursion planner's decisions.

    Every planned recursive ask counts the strategy the planner chose —
    one of its three reads — plus the *reason string* of the most recent
    decision, so interval-vs-CTE routing is auditable in production via
    ``session.stats()["recursion_plans"]`` (and on the ask's span).
    """

    planned_asks: int = 0
    interval: int = 0
    cte: int = 0
    memory: int = 0
    last_strategy: str = ""
    last_reason: str = ""

    def note(self, plan) -> None:
        """Record one :class:`~repro.coupling.recursion_exec.RecursionPlan`."""
        with self._lock:
            self.planned_asks += 1
            setattr(self, plan.strategy, getattr(self, plan.strategy) + 1)
            self.last_strategy = plan.strategy
            self.last_reason = plan.reason


#: The planner's reads, fastest first: a failing read steps down this list.
_LADDER = ("interval", "cte", "memory")


class RecursionRouter:
    """Answers recursive goals; owns the per-view closure executors."""

    def __init__(self, session):
        self.session = session
        self.stats = RecursionPlanStats()
        self._closures: dict[tuple[str, int], TransitiveClosure] = {}
        self._closures_lock = threading.Lock()

    def clear(self) -> None:
        """Drop every closure executor (the program changed)."""
        with self._closures_lock:
            self._closures.clear()

    def indicators(self) -> set[tuple[str, int]]:
        """Predicates on a call-graph cycle (memoized on the program clock)."""
        session = self.session
        return session.plans.recursive_indicators(session.kb, session.schema)

    def is_recursive(self, goal: Term, graph) -> bool:
        """Does ``goal`` reach a recursive predicate of the call graph?"""
        return is_recursive_goal(
            self.session.kb,
            self.session.schema,
            goal,
            graph=graph,
            recursive=self.indicators(),
        )

    def closure_for(self, view_name: str) -> TransitiveClosure:
        """The (cached) transitive-closure executor for a recursive view."""
        session = self.session
        indicator = (view_name, 2)
        with self._closures_lock:
            executor = self._closures.get(indicator)
            if executor is None:
                executor = TransitiveClosure(
                    session.kb,
                    session.schema,
                    session.constraints,
                    session.database,
                    indicator,
                    optimize=session.optimize,
                )
                self._closures[indicator] = executor
            return executor

    def _closure_call(self, goal: Term) -> tuple:
        """``(call, low, high)``: the goal's single binary recursive-view
        call and the constant on each side (None for an unbound one).

        Raises :class:`CouplingError` for any goal the closure executors
        cannot answer.
        """
        goals = conjuncts(goal)
        if len(goals) != 1 or not isinstance(goals[0], Struct):
            raise CouplingError(
                "recursive goals must be a single view call; combine "
                "results in Prolog afterwards"
            )
        call = goals[0]
        indicator = call.indicator
        if indicator not in self.indicators():
            raise CouplingError(
                f"goal reaches recursion through {indicator}; call the "
                "recursive view directly"
            )
        if len(call.args) != 2:
            raise CouplingError(
                f"{indicator[0]}/{indicator[1]} is recursive but not binary; "
                "recursion strategies support binary views only"
            )
        low_arg, high_arg = call.args
        return call, _constant_value(low_arg), _constant_value(high_arg)

    def compile(self, goal: Term) -> CompiledPlan:
        """The ``recursive`` plan of a goal: its :class:`ClosureCall`.

        Raises :class:`CouplingError` for any goal the closure executors
        cannot answer, including one with both or neither side bound.
        """
        call, low, high = self._closure_call(goal)
        low_arg, high_arg = call.args
        if low is not None and isinstance(high_arg, Variable):
            bound, variable = "low", high_arg
        elif high is not None and isinstance(low_arg, Variable):
            bound, variable = "high", low_arg
        else:
            raise CouplingError("exactly one of low/high must be bound")
        return CompiledPlan(
            kind="recursive",
            closure_call=ClosureCall(call.indicator[0], bound, variable.name),
        )

    def ask(self, call: ClosureCall, seed, span=None):
        """Answer one bound closure probe: answer dicts; every step reads.

        The read :meth:`~.recursion_exec.TransitiveClosure.plan` names —
        the interval labels' tour (rebuilt first, under the index's lock,
        when a descendant ask finds it stale), one prepared CTE
        statement, or ``memory``'s flat edge fetch — and, when that read
        raises, the rungs below it.  Maintained views never reach this
        point: they answer from their :class:`IncrementalClosure` first.
        """
        closure = self.closure_for(call.view)
        plan = closure.plan(call.bound)
        self.stats.note(plan)
        if span is not None:
            span.note_recursion(plan, closure.interval_stats())
        try:
            nodes = closure.probe(plan.strategy, call.bound, seed)
        except (CouplingError, DeadlineExceeded):
            raise  # semantic errors and expired budgets are not rungs
        except Exception as error:  # noqa: BLE001 - any execution failure degrades
            nodes = self._degraded(closure, plan, call.bound, seed, error)
        variable = call.variable
        return [{variable: node} for node in nodes]

    def _degraded(
        self, closure: TransitiveClosure, plan: RecursionPlan, bound: str, seed,
        error: Exception,
    ) -> list:
        """Step down the planner's own list when its read fails.

        Below the interval labels is the CTE pushdown (stale or failing
        labels must not cost the whole pushdown tier); below both, one
        flat edge fetch with the fixpoint in Python (``memory``) — the
        slowest read, but the one with the fewest backend dependencies.
        No rung writes: the setrel loop would answer only when the reads
        fail and the writer does not, a state in which every flat ask
        fails too.  Answers from any rung are identical (the E7
        equivalence the tests pin); only the cost differs, which is why
        a stepped-down answer counts as *degraded*, not wrong.
        """
        for rung in _LADDER[_LADDER.index(plan.strategy) + 1:]:
            try:
                run = closure.solve(strategy=rung, **{bound: seed})
            except (CouplingError, DeadlineExceeded):
                raise
            except Exception as failure:  # noqa: BLE001 - try the next rung
                error = failure
            else:
                self.session.database.resilience.incr("degraded_answers")
                return run.nodes(bound)
        raise error  # the last read failed too

    # -- batch-seeded execution (ask_many) --------------------------------------

    def batch_closure(self, shape: GoalShape):
        """``(closure, call)`` for a batchable recursive shape, else ``None``.

        Batchable means: the shape already holds a warm plan of kind
        ``recursive`` (one side bound, checked at compile time) over a
        view that is *not* maintained (maintained views answer from
        their :class:`IncrementalClosure` on the serial path).
        """
        if shape is None:
            return None
        session = self.session
        session.plans.sync(session.kb)
        plan = session.plans.peek(shape)
        if not isinstance(plan, CompiledPlan) or plan.kind != "recursive":
            return None
        call = plan.closure_call
        if session.materialize.has_view((call.view, 2)):
            return None
        try:
            closure = self.closure_for(call.view)
            # Only batch what the CTE can answer; a view whose pushdown
            # preparation fails keeps the serial ``memory`` path.  The
            # first preparation metaevaluates the edge view, which reads
            # the knowledge base: read-locked.
            with session.kb.lock.read():
                closure.cte_queries()
        except Exception:  # noqa: BLE001 - fall back to serial asks
            return None
        return closure, call

    def execute_batch(
        self,
        recursive,
        shapes: Sequence[GoalShape],
        max_solutions: Optional[int] = None,
    ) -> Optional[list[list[dict]]]:
        """Answer a same-shape group at once, identically to serial asks.

        While the interval labels serve, each distinct seed is answered
        from the tour with no statement; otherwise the group's seeds
        fold into one batch-seeded CTE's ``IN (VALUES …)`` membership
        and the fetched ``(root, node)`` rows demultiplex by root.  The
        answer lists match the serial :meth:`ask` (which sorts its
        nodes), and so does the ``max_solutions`` prefix each member
        keeps.  Returns ``None`` to fall back to serial asks.
        """
        closure, call = recursive
        variable_name = call.variable
        seeds = [closure.seed(call.bound, shape.constants[0]) for shape in shapes]
        distinct: dict = dict.fromkeys(seeds)
        session = self.session
        plans = session.plans
        with session.kb.lock.read():
            plans.sync(session.kb)
            entry = plans.entry_for(shapes[0])
            if entry is None or entry.uncacheable:
                return None  # a concurrent write invalidated the plan
            # The serial decision (:meth:`ask`), under the read lock: a
            # rebuild of the tour must not race a writer.
            index = None
            if closure.plan(call.bound).strategy == "interval":
                index = closure.interval_index()
                demux = {seed: index.nodes(call.bound, seed) for seed in distinct}
            else:
                try:
                    text = closure.batch_probe_text(call.bound, len(distinct))
                except Exception:  # noqa: BLE001 - no batch form at all
                    return None
                rows = session.database.execute_prepared(text, list(distinct))
        if index is None:
            found: dict = {seed: set() for seed in distinct}
            for root, node in rows:
                bucket = found.get(root)
                if bucket is None:
                    return None  # affinity coerced a seed: answer serially
                bucket.add(node)
            demux = {seed: sorted(nodes) for seed, nodes in found.items()}
        plans.stats.incr("batched_asks", len(shapes))
        plans.stats.incr("recursive_batches")
        return [
            [{variable_name: node} for node in demux[seed][:max_solutions]]
            for seed in seeds
        ]
