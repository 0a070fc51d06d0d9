"""SLD resolution engine with cut, negation-as-failure, and builtins.

The engine implements depth-first, left-to-right resolution over a
:class:`~repro.prolog.knowledge_base.KnowledgeBase`, exactly the strategy
the paper assumes of PROLOG.  Control constructs:

* conjunction ``','``, disjunction ``';'``, ``true``/``fail``,
* cut ``!`` with standard transparent-to-the-clause semantics,
* ``not/1`` (negation as failure),
* an extensible builtin registry, which the coupling layer uses to install
  ``metaevaluate/4`` (paper section 4) without the engine knowing about
  databases at all.

A step budget guards against runaway recursion: recursive views are meant
to be evaluated through the database coupling (section 7), not by unbounded
internal backtracking.

Hot path: user-goal resolution (:meth:`Engine._solve_call`) resolves the
goal under the current substitution before the candidate lookup (so bound
arguments drive the knowledge base's per-position indexes), skips
``rename_apart`` for ground facts, and rides the persistent substitution
chain of :mod:`repro.prolog.unify`.  The pre-overhaul implementation is
pinned in :mod:`repro.prolog.legacy` for differential testing and as the
benchmark baseline (``benchmarks/bench_e11_engine.py``).
"""

from __future__ import annotations

import sys
from typing import Callable, Iterator, Optional, Sequence

from ..errors import CutSignal, ExistenceError, PrologError
from .builtins import DEFAULT_BUILTINS, BuiltinFunction
from .knowledge_base import KnowledgeBase
from .reader import parse_goal
from .terms import (
    CUT,
    FAIL,
    TRUE,
    Atom,
    Struct,
    Term,
    Variable,
    conjuncts,
    goal_indicator,
    rename_apart,
    variables_of,
)
from .unify import EMPTY_SUBSTITUTION, Substitution, unify


class StepBudgetExceeded(PrologError):
    """Raised when a proof exceeds the configured inference-step budget."""


# Resolution recurses one Python generator frame per inference; generator
# frames live on the heap, so a high interpreter limit is safe and lets the
# step budget (not CPython's frame counter) be the effective guard.
_MIN_RECURSION_LIMIT = 100_000
if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
    sys.setrecursionlimit(_MIN_RECURSION_LIMIT)


class Engine:
    """A Prolog interpreter over a knowledge base."""

    #: Starting substitution for a query; the pinned legacy engine
    #: (:mod:`repro.prolog.legacy`) overrides this with the original
    #: dict-copy implementation for differential testing and baselines.
    EMPTY = EMPTY_SUBSTITUTION

    def __init__(
        self,
        kb: Optional[KnowledgeBase] = None,
        max_steps: int = 1_000_000,
        strict_procedures: bool = False,
    ):
        self.kb = kb if kb is not None else KnowledgeBase()
        self.max_steps = max_steps
        #: When True, calling an undefined procedure raises ExistenceError
        #: instead of silently failing (useful in tests).
        self.strict_procedures = strict_procedures
        self._builtins: dict[tuple[str, int], BuiltinFunction] = dict(DEFAULT_BUILTINS)
        self._steps = 0

    # -- configuration -------------------------------------------------------

    def register_builtin(self, functor: str, arity: int, fn: BuiltinFunction) -> None:
        """Install (or override) a builtin procedure."""
        self._builtins[(functor, arity)] = fn

    # -- public query API ------------------------------------------------------

    def solve(
        self, goal: Term | str, max_solutions: Optional[int] = None
    ) -> Iterator[dict[Variable, Term]]:
        """Prove ``goal``; yield one answer binding per solution.

        Each answer maps the goal's source variables to their (deeply
        resolved) values.  ``goal`` may be Prolog text or a term.
        """
        if isinstance(goal, str):
            goal = parse_goal(goal)
        query_vars = variables_of(goal)
        produced = 0
        self._steps = 0
        try:
            for subst in self._solve_goals(conjuncts(goal), self.EMPTY, depth=0):
                yield subst.restrict(query_vars)
                produced += 1
                if max_solutions is not None and produced >= max_solutions:
                    return
        except RecursionError:
            raise StepBudgetExceeded(
                "proof exceeded the interpreter recursion limit; "
                "likely unbounded recursion — recursive views should be "
                "evaluated through the database coupling"
            ) from None

    def solve_all(self, goal: Term | str, limit: Optional[int] = None) -> list[dict[Variable, Term]]:
        """All answers to ``goal`` as a list."""
        return list(self.solve(goal, max_solutions=limit))

    def succeeds(self, goal: Term | str) -> bool:
        """True if ``goal`` has at least one solution."""
        for _ in self.solve(goal, max_solutions=1):
            return True
        return False

    def count_solutions(self, goal: Term | str) -> int:
        """Number of solutions (for tests and statistics)."""
        return sum(1 for _ in self.solve(goal))

    # -- resolution --------------------------------------------------------------

    def prove(
        self, goals: Sequence[Term], subst: Substitution, depth: int
    ) -> Iterator[Substitution]:
        """Entry point for builtins that need to call back into the engine."""
        return self._solve_goals(list(goals), subst, depth)

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise StepBudgetExceeded(
                f"exceeded {self.max_steps} inference steps; "
                "likely unbounded recursion — recursive views should be "
                "evaluated through the database coupling"
            )

    def _solve_goals(
        self, goals: list[Term], subst: Substitution, depth: int
    ) -> Iterator[Substitution]:
        if not goals:
            yield subst
            return
        goal, rest = goals[0], goals[1:]
        goal = subst.walk(goal)
        self._tick()

        if isinstance(goal, Variable):
            raise PrologError(f"unbound goal variable {goal}")

        if goal == TRUE:
            yield from self._solve_goals(rest, subst, depth)
            return
        if goal == FAIL or goal == Atom("false"):
            return
        if goal == CUT:
            yield from self._solve_goals(rest, subst, depth)
            # Backtracking past the cut prunes every choice point created
            # since the current clause body was entered.
            raise CutSignal(depth)

        if isinstance(goal, Struct):
            if goal.functor == "," and goal.arity == 2:
                yield from self._solve_goals(conjuncts(goal) + rest, subst, depth)
                return
            if goal.functor == ";" and goal.arity == 2:
                left, right = goal.args
                yield from self._solve_goals([left] + rest, subst, depth)
                yield from self._solve_goals([right] + rest, subst, depth)
                return

        indicator = goal_indicator(goal)
        builtin = self._builtins.get(indicator)
        if builtin is not None:
            for extended in builtin(self, goal, subst, depth):
                yield from self._solve_goals(rest, extended, depth)
            return

        yield from self._solve_call(goal, rest, subst, depth)

    def _solve_call(
        self, goal: Term, rest: list[Term], subst: Substitution, depth: int
    ) -> Iterator[Substitution]:
        """Resolve a user-defined goal against the knowledge base.

        The goal is resolved under the current substitution *before* the
        candidate lookup, so arguments bound earlier in the proof drive
        the knowledge base's per-position constant indexes (a join goal
        whose variable was just bound becomes an indexed probe, not a
        scan).  Ground facts skip :func:`rename_apart` entirely — a
        variable-free clause needs no renaming — and their (empty) bodies
        are not solved, saving a generator frame per fact.
        """
        if self.strict_procedures:
            # has_procedure counts *live* clauses, so a procedure reduced
            # to tombstones raises just like a never-defined one.
            indicator = goal_indicator(goal)
            if not self.kb.has_procedure(indicator):
                raise ExistenceError(
                    f"unknown procedure {indicator[0]}/{indicator[1]}"
                )
        if isinstance(goal, Struct):
            resolved = subst.apply(goal)
        else:
            resolved = goal
        clauses = self.kb.clauses_for(resolved)
        if not clauses:
            return
        body_depth = depth + 1
        # Bound the iteration to the clauses present at call time: the
        # stored sequence is aliased (not copied), but clauses appended by
        # assertz *during* this resolution must not be visited — the
        # logical-update view every Prolog (and the legacy engine) gives,
        # and the difference between 'grow(X) :- c(X), assertz(c(3)).'
        # terminating or looping forever.  Positions are stable: removal
        # tombstones in place and front-insert/compaction replace the
        # stored list wholesale.
        for position in range(len(clauses)):
            clause = clauses[position]
            if clause is None:
                continue  # tombstone left by a lazy retract
            if clause.is_ground_fact:
                unified = unify(resolved, clause.head, subst)
                if unified is None:
                    continue
                try:
                    yield from self._solve_goals(rest, unified, depth)
                except CutSignal as signal:
                    if signal.depth == body_depth:
                        return  # cut committed to this clause
                    raise
                continue
            renamed = rename_apart(clause)
            unified = unify(resolved, renamed.head, subst)
            if unified is None:
                continue
            try:
                for result in self._solve_goals(
                    renamed.body_goals(), unified, body_depth
                ):
                    yield from self._solve_goals(rest, result, depth)
            except CutSignal as signal:
                if signal.depth == body_depth:
                    return  # cut committed to this clause; drop alternatives
                raise
