"""Recursion analysis over the view call graph (paper sections 4, 7).

``metaevaluate`` on a recursive view must produce a *sequence* of DBCL
statements.  This module provides the analysis half:

* :func:`view_call_graph` / :func:`recursive_indicators` — which predicates
  are (mutually) recursive, via SCCs of the call graph (a ``dict`` of
  callee sets; :func:`descendants` walks it);
* :func:`is_linear_recursive` — does every recursive clause contain exactly
  one recursive call (the class Example 7-1's ``works_for`` belongs to);
* :func:`expansion_at_level` — the level-``k`` conjunctive expansion used
  by the *naive* strategy (queries 1, 2, 3, … of Example 7-1);
* :func:`recursion_signature` — which argument positions are carried
  through the recursion (used to pick top-down vs bottom-up).

The execution half (intermediate relations, ``setrel``) lives in
:mod:`repro.coupling.recursion_exec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..dbcl.predicate import DbclPredicate
from ..errors import MetaevaluationError
from ..prolog.knowledge_base import KnowledgeBase
from ..prolog.reader import parse_goal
from ..prolog.terms import (
    Struct,
    Term,
    Variable,
    goal_indicator,
    variables_of,
)
from ..schema.catalog import DatabaseSchema
from .collector import GoalUnfolder
from .translator import Metaevaluator

Indicator = tuple[str, int]

#: The view call graph: each predicate defined in the knowledge base maps
#: to the set of predicates its clauses call (database relations and
#: builtins appear only as callees).
CallGraph = dict[Indicator, set[Indicator]]


def view_call_graph(kb: KnowledgeBase, schema: DatabaseSchema) -> CallGraph:
    """``graph[u]`` holds ``v`` when a clause of ``u`` calls ``v``."""
    graph: CallGraph = {}
    for indicator in kb.indicators():
        callees = graph.setdefault(indicator, set())
        for clause in kb.all_clauses(indicator):
            for goal in clause.body_goals():
                try:
                    callees.add(goal_indicator(goal))
                except ValueError:
                    continue
    return graph


def descendants(graph: CallGraph, node: Indicator) -> set[Indicator]:
    """Everything ``node`` calls, transitively (``node`` itself excluded)."""
    found: set[Indicator] = set()
    frontier = list(graph.get(node, ()))
    while frontier:
        callee = frontier.pop()
        if callee not in found:
            found.add(callee)
            frontier.extend(graph.get(callee, ()))
    found.discard(node)
    return found


def recursive_indicators(
    kb: KnowledgeBase,
    schema: DatabaseSchema,
    graph: Optional[CallGraph] = None,
) -> set[Indicator]:
    """All predicates on a call-graph cycle (directly or mutually recursive).

    One linear-time pass of Tarjan's strongly-connected-components
    algorithm, iterative so a deep program cannot exhaust the stack.
    """
    if graph is None:
        graph = view_call_graph(kb, schema)
    index: dict[Indicator, int] = {}
    low: dict[Indicator, int] = {}
    stack: list[Indicator] = []
    on_stack: set[Indicator] = set()
    recursive: set[Indicator] = set()
    work: list = []  # (node, iterator over its unvisited callees)

    def visit(node: Indicator) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(graph.get(node, ()))))

    for root in graph:
        if root in index:
            continue
        visit(root)
        while work:
            node, callees = work[-1]
            for callee in callees:
                if callee not in index:
                    visit(callee)
                    break
                if callee in on_stack:
                    low[node] = min(low[node], index[callee])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[node])
                if low[node] == index[node]:
                    component = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                        on_stack.discard(component[-1])
                    if len(component) > 1 or node in graph.get(node, ()):
                        recursive.update(component)
    return recursive


def is_recursive_goal(
    kb: KnowledgeBase,
    schema: DatabaseSchema,
    goal: Union[Term, str],
    graph: Optional[CallGraph] = None,
    recursive: Optional[set[Indicator]] = None,
) -> bool:
    """Does evaluating ``goal`` reach any recursive predicate?

    ``graph`` and ``recursive`` let callers supply memoized analyses (the
    session's plan cache holds both per KB generation) instead of
    rebuilding the call graph on every ask.
    """
    if isinstance(goal, str):
        goal = parse_goal(goal)
    if recursive is None:
        recursive = recursive_indicators(kb, schema)
    if not recursive:
        return False
    if graph is None:
        graph = view_call_graph(kb, schema)
    from ..prolog.terms import conjuncts

    for subgoal in conjuncts(goal):
        try:
            indicator = goal_indicator(subgoal)
        except ValueError:
            continue
        if indicator in recursive or descendants(graph, indicator) & recursive:
            return True
    return False


def is_linear_recursive(kb: KnowledgeBase, indicator: Indicator) -> bool:
    """True when every recursive clause has exactly one recursive call.

    Mutual recursion counts as non-linear here: the ``setrel`` strategy of
    Example 7-1 assumes a single self-call whose frontier can be staged
    through one intermediate relation.
    """
    clauses = kb.all_clauses(indicator)
    if not clauses:
        return False
    saw_recursive_clause = False
    for clause in clauses:
        calls = [
            goal
            for goal in clause.body_goals()
            if isinstance(goal, Struct) and goal.indicator == indicator
        ]
        if len(calls) > 1:
            return False
        if calls:
            saw_recursive_clause = True
    return saw_recursive_clause


@dataclass(frozen=True)
class RecursionSignature:
    """How a linear recursive clause threads its arguments.

    For ``works_for(Low, High) :- works_dir_for(Low, Medium),
    works_for(Medium, High)`` the head's ``High`` (position 1) is *carried*
    unchanged into the recursive call, while position 0 changes — so a
    query binding position 1 (``works_for(People, smiley)``) can seed an
    intermediate relation from the bound side and iterate "top-down",
    whereas one binding position 0 benefits from the bottom-up rewriting.
    """

    indicator: Indicator
    carried_positions: tuple[int, ...]

    def favours_binding(self, bound_positions: Sequence[int]) -> bool:
        """Is some bound argument carried through the recursion unchanged?"""
        return any(p in self.carried_positions for p in bound_positions)


def recursion_signature(
    kb: KnowledgeBase, indicator: Indicator
) -> Optional[RecursionSignature]:
    """Compute the carried argument positions of a linear recursive view."""
    if not is_linear_recursive(kb, indicator):
        return None
    carried: Optional[set[int]] = None
    for clause in kb.all_clauses(indicator):
        recursive_calls = [
            goal
            for goal in clause.body_goals()
            if isinstance(goal, Struct) and goal.indicator == indicator
        ]
        if not recursive_calls:
            continue
        call = recursive_calls[0]
        head = clause.head
        assert isinstance(head, Struct)
        positions = {
            i
            for i, (head_arg, call_arg) in enumerate(zip(head.args, call.args))
            if isinstance(head_arg, Variable) and head_arg == call_arg
        }
        carried = positions if carried is None else (carried & positions)
    if carried is None:
        return None
    return RecursionSignature(indicator, tuple(sorted(carried)))


def expansion_at_level(
    metaevaluator: Metaevaluator,
    goal: Union[Term, str],
    indicator: Indicator,
    level: int,
    name: Optional[str] = None,
    targets: Optional[Sequence[Variable]] = None,
) -> list[DbclPredicate]:
    """The conjunctive queries using exactly ``level`` recursive steps.

    Level 0 is the base case (query 1 of Example 7-1); level ``k`` unfolds
    the recursive clause ``k`` times.  Several predicates may come back if
    other view disjunction multiplies branches.
    """
    if isinstance(goal, str):
        goal = parse_goal(goal)
    if targets is None:
        targets = [v for v in variables_of(goal) if not v.is_anonymous]
    if name is None:
        name = metaevaluator._default_name(goal)

    branches = metaevaluator.collect_branches(goal, recursion_budget=level)
    selected = [
        branch
        for branch in branches
        if branch.recursion_depths.get(indicator, 0) == level
    ]
    return [
        metaevaluator.branch_to_dbcl(branch, name, targets) for branch in selected
    ]


def expansion_sequence(
    metaevaluator: Metaevaluator,
    goal: Union[Term, str],
    indicator: Indicator,
    max_level: int,
    name: Optional[str] = None,
    targets: Optional[Sequence[Variable]] = None,
) -> list[list[DbclPredicate]]:
    """Levels 0..max_level of the naive expansion, as a list per level."""
    if max_level < 0:
        raise MetaevaluationError("max_level must be non-negative")
    return [
        expansion_at_level(metaevaluator, goal, indicator, level, name, targets)
        for level in range(max_level + 1)
    ]
