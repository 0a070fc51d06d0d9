"""Stepwise evaluation with tuple substitution (paper section 7).

When database references are interleaved with embedded Prolog predicates
that SQL cannot express, "several queries have to be issued, and the
interaction between their results must be evaluated in PROLOG".  The
naive approach materialises every partial result — which "may not even
fit in main memory" — so the paper proposes "a step-wise evaluation
process that evaluates the partial queries ... using what amounts to a
version of tuple substitution [Wong and Youssefi 1976]": trade extra
queries for bounded intermediate storage.

:class:`StepwiseEvaluator` walks the conjunction goal by goal, carrying a
set of partial bindings (tuples).  Database-translatable goals are
metaevaluated *per partial binding* with the bound values substituted as
constants (a result cache collapses duplicate parameterisations);
internal goals extend bindings through the Prolog engine.  Statistics
record the queries issued and the maximum number of live tuples, the
space/time trade-off the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..coupling.global_opt import ResultCache, classify_conjuncts
from ..dbms.internal_db import term_to_value, value_to_term
from ..dbms.sqlite_backend import ExternalDatabase
from ..errors import CouplingError
from ..metaevaluate.translator import Metaevaluator
from ..optimize.pipeline import SimplifyOptions, simplify
from ..prolog.engine import Engine
from ..prolog.reader import parse_goal
from ..prolog.terms import Term, Variable, conjuncts, variables_of
from ..prolog.unify import EMPTY_SUBSTITUTION, Substitution
from ..schema.constraints import ConstraintSet
from ..sql.translate import translate

Value = Union[int, float, str, None]


@dataclass
class StepwiseStats:
    """The space/time trade-off measurements."""

    queries_issued: int = 0
    cache_hits: int = 0
    max_live_tuples: int = 0
    engine_calls: int = 0

    def observe_tuples(self, count: int) -> None:
        self.max_live_tuples = max(self.max_live_tuples, count)


class StepwiseEvaluator:
    """Evaluates mixed conjunctions goal-by-goal with tuple substitution."""

    def __init__(
        self,
        metaevaluator: Metaevaluator,
        engine: Engine,
        database: ExternalDatabase,
        constraints: ConstraintSet,
        options: SimplifyOptions = SimplifyOptions(),
    ):
        self.metaevaluator = metaevaluator
        self.engine = engine
        self.database = database
        self.constraints = constraints
        self.options = options
        self.cache = ResultCache(generation=database.data_generation)

    def evaluate(
        self, goal: Union[Term, str], max_solutions: Optional[int] = None
    ) -> tuple[list[dict[str, Value]], StepwiseStats]:
        """All answers to ``goal`` plus evaluation statistics."""
        if isinstance(goal, str):
            goal = parse_goal(goal)
        stats = StepwiseStats()
        goal_vars = [v for v in variables_of(goal) if not v.is_anonymous]

        classified = classify_conjuncts(
            self.metaevaluator.kb, self.metaevaluator.schema, goal
        )
        substitutions: list[Substitution] = [EMPTY_SUBSTITUTION]
        for subgoal, kind in classified:
            if not substitutions:
                break
            if kind in ("external", "comparison"):
                substitutions = self._extend_external(subgoal, substitutions, stats)
            elif kind == "internal":
                substitutions = self._extend_internal(subgoal, substitutions, stats)
            else:
                raise CouplingError(
                    f"stepwise evaluation cannot handle {kind} goal {subgoal}"
                )
            stats.observe_tuples(len(substitutions))

        answers = []
        seen: set[tuple] = set()
        for subst in substitutions:
            answer = {}
            for variable in goal_vars:
                term = subst.apply(variable)
                if isinstance(term, Variable):
                    answer[variable.name] = None
                else:
                    answer[variable.name] = term_to_value(term)
            key = tuple(sorted(answer.items()))
            if key not in seen:
                seen.add(key)
                answers.append(answer)
            if max_solutions is not None and len(answers) >= max_solutions:
                break
        return answers, stats

    # -- goal extension --------------------------------------------------------------

    def _extend_external(
        self,
        subgoal: Term,
        substitutions: list[Substitution],
        stats: StepwiseStats,
    ) -> list[Substitution]:
        extended: list[Substitution] = []
        for subst in substitutions:
            instantiated = subst.apply(subgoal)
            free = [v for v in variables_of(instantiated) if not v.is_anonymous]
            if not free:
                # Fully ground: a membership test.
                if self._ground_holds(instantiated, stats):
                    extended.append(subst)
                continue
            predicate = self.metaevaluator.metaevaluate(
                instantiated, targets=free
            )
            result = simplify(predicate, self.constraints, self.options)
            if result.is_empty:
                continue
            rows = self.cache.lookup(result.predicate)
            if rows is None:
                stamp = self.cache.stamp(result.predicate)
                rows = self.database.execute(
                    translate(result.predicate, distinct=True)
                )
                stats.queries_issued += 1
                self.cache.store(result.predicate, rows, stamp=stamp)
            else:
                stats.cache_hits += 1
            names = [t.name for t in result.predicate.target_symbols()]
            by_name = {v.name: v for v in free}
            for row in rows:
                candidate = subst
                for name, value in zip(names, row):
                    candidate = candidate.bind(by_name[name], value_to_term(value))
                extended.append(candidate)
        return extended

    def _ground_holds(self, instantiated: Term, stats: StepwiseStats) -> bool:
        from ..prolog.terms import COMPARISON_PREDICATES, goal_indicator

        name, arity = goal_indicator(instantiated)
        if arity == 2 and name in COMPARISON_PREDICATES:
            stats.engine_calls += 1
            return self.engine.succeeds(instantiated)
        predicate = self.metaevaluator.metaevaluate(instantiated, targets=[])
        result = simplify(predicate, self.constraints, self.options)
        if result.is_empty:
            return False
        rows = self.cache.lookup(result.predicate)
        if rows is None:
            stamp = self.cache.stamp(result.predicate)
            rows = self.database.execute(
                translate(result.predicate, distinct=True)
            )
            stats.queries_issued += 1
            self.cache.store(result.predicate, rows, stamp=stamp)
        else:
            stats.cache_hits += 1
        return bool(rows)

    def _extend_internal(
        self,
        subgoal: Term,
        substitutions: list[Substitution],
        stats: StepwiseStats,
    ) -> list[Substitution]:
        extended: list[Substitution] = []
        for subst in substitutions:
            instantiated = subst.apply(subgoal)
            stats.engine_calls += 1
            for binding in self.engine.solve(instantiated):
                candidate = subst
                for variable, term in binding.items():
                    candidate = candidate.bind(variable, term)
                extended.append(candidate)
        return extended
