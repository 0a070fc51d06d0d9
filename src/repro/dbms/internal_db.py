"""Bridging external query answers into the internal Prolog database.

The paper's mechanism stores query answers "in the internal database
system in the logic language" (section 2): after a DBCL query executes,
its answer tuples are asserted as ground facts so ordinary tuple-at-a-time
resolution can combine them with purely internal knowledge (the
``partner`` scenario of Example 4-1).

:func:`assert_answers` instantiates the *original goal term* with each
answer row, producing ground facts under the view's own name — exactly the
"instantiated same_manager predicates" the paper describes.  Because
target variables are, by construction, the goal's free variables, the
instantiated goal is ground.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from ..dbcl.predicate import DbclPredicate
from ..dbcl.symbols import TargetSymbol
from ..errors import CouplingError
from ..prolog.knowledge_base import KnowledgeBase
from ..prolog.terms import (
    Atom,
    Clause,
    Number,
    Struct,
    Term,
    Variable,
    goal_indicator,
    is_ground,
)
from ..prolog.unify import EMPTY_SUBSTITUTION, Substitution

Value = Union[int, float, str, None]


def value_to_term(value: Value) -> Term:
    """Convert a database value to a Prolog constant term."""
    if isinstance(value, bool):  # bool before int: True is an int in Python
        return Atom("true" if value else "false")
    if isinstance(value, (int, float)):
        return Number(value)
    if isinstance(value, str):
        return Atom(value)
    if value is None:
        return Atom("null")
    raise CouplingError(f"cannot convert database value {value!r} to a term")


def term_to_value(term: Term) -> Value:
    """Convert a ground Prolog constant back to a database value."""
    if isinstance(term, Number):
        return term.value
    if isinstance(term, Atom):
        return term.name
    raise CouplingError(f"cannot convert term {term} to a database value")


def fact_row(clause: Clause) -> Optional[tuple]:
    """The value tuple of a ground relational fact, or None.

    Non-ground facts and structured arguments cannot be database tuples:
    the session's base writes leave them to the knowledge base.
    """
    if not clause.is_fact or not isinstance(clause.head, Struct):
        return None
    try:
        return tuple(term_to_value(argument) for argument in clause.head.args)
    except CouplingError:
        return None


def answer_substitutions(
    predicate: DbclPredicate,
    target_vars: Sequence[Variable],
    rows: Iterable[tuple],
) -> list[Substitution]:
    """Substitutions binding each target variable per answer row.

    Rows follow the SQL SELECT order, which is the targetlist's schema-
    column order; target variables are matched to targets by name.
    """
    targets_in_order = predicate.target_symbols()
    by_name = {variable.name: variable for variable in target_vars}
    positions: list[Variable] = []
    for symbol in targets_in_order:
        variable = by_name.get(symbol.name)
        if variable is None:
            raise CouplingError(
                f"target symbol {symbol} has no matching query variable"
            )
        positions.append(variable)

    substitutions = []
    for row in rows:
        if len(row) != len(positions):
            raise CouplingError(
                f"answer row has {len(row)} values for {len(positions)} targets"
            )
        subst = EMPTY_SUBSTITUTION
        for variable, value in zip(positions, row):
            subst = subst.bind(variable, value_to_term(value))
        substitutions.append(subst)
    return substitutions


def assert_answers(
    kb: KnowledgeBase,
    goal: Term,
    predicate: DbclPredicate,
    target_vars: Sequence[Variable],
    rows: Iterable[tuple],
    dedupe: bool = True,
) -> int:
    """Assert one ground instance of ``goal`` per answer row.

    Only single-predicate goals can be asserted (a conjunction has no
    single functor to store facts under).  Returns the number of *new*
    facts added; with ``dedupe`` (default) rows already present are
    skipped, implementing the answer-merge the paper requires between
    internal and external segments.

    Duplicate detection is O(1) per row against the knowledge base's
    ground-fact hash set (:meth:`KnowledgeBase.has_ground_fact`) — a
    re-merge of an already-asserted batch never rescans the stored
    clauses, so merging stays linear in the batch size however large the
    procedure has grown.
    """
    if not isinstance(goal, (Struct, Atom)):
        raise CouplingError(f"cannot assert answers for goal {goal}")
    if isinstance(goal, Struct) and goal.functor == ",":
        raise CouplingError(
            "cannot assert answers for a conjunction; wrap it in a view"
        )

    # Fallback path for the (documented-impossible) case of a row leaving
    # the instantiated goal non-ground: scan once, lazily.
    nonground_seen: Optional[set[Term]] = None

    added = 0
    for subst in answer_substitutions(predicate, target_vars, rows):
        fact = subst.apply(goal)
        if dedupe:
            if is_ground(fact):
                if kb.has_ground_fact(fact):
                    continue
            else:
                if nonground_seen is None:
                    nonground_seen = {
                        clause.head
                        for clause in kb.all_clauses(goal_indicator(goal))
                        if clause.is_fact
                    }
                if fact in nonground_seen:
                    continue
                nonground_seen.add(fact)
        kb.assertz(Clause(fact))
        added += 1
    return added
