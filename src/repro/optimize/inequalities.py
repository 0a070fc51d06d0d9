"""Inequality-based simplification (paper section 6.1).

A graph procedure in the style of Rosenkrantz and Hunt (1980) over the
conjunction of comparison predicates:

* nodes are the symbols and constants occurring in comparisons;
* ``a <= b`` contributes a non-strict edge, ``a < b`` a strict edge
  (``>``/``>=`` are mirrored first, ``=`` contributes edges both ways);
* comparable constants contribute their implicit ordering edges.

On this graph the procedure detects

* **contradictions** — a cycle containing a strict edge (or two distinct
  constants forced equal);
* **derived equalities** — cycles of non-strict edges collapse their
  members into one equivalence class, yielding variable renamings
  ("A >= B and B >= C and C >= A is equivalent to A = B and B = C");
* **sharpenings** — ``a <= b`` plus ``a neq b`` becomes ``a < b``;
* **redundancies** — comparisons implied by the rest of the set (and by
  declared value bounds, which enter the graph as *assumptions* and never
  appear in the output).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from ..dbcl.predicate import MIRRORED_OPS, Comparison
from ..dbcl.symbols import (
    ConstSymbol,
    JoinableSymbol,
    TargetSymbol,
    VarSymbol,
    compare_values,
    is_constant_symbol,
)
from ..errors import OptimizationError

Node = JoinableSymbol


@dataclass
class InequalityOutcome:
    """Result of analysing a comparison set."""

    contradiction: bool = False
    reason: str = ""
    #: variable renamings derived from equality cycles (v -> representative)
    renamings: dict[JoinableSymbol, JoinableSymbol] = field(default_factory=dict)
    #: equalities between symbols neither of which can be renamed
    #: (two target symbols); emitted as explicit eq comparisons
    residual_equalities: list[tuple[JoinableSymbol, JoinableSymbol]] = field(
        default_factory=list
    )
    #: the simplified comparison list (meaningless if contradiction)
    comparisons: list[Comparison] = field(default_factory=list)
    changed: bool = False


class InequalityGraph:
    """The strictness-annotated ordering graph over comparison operands."""

    def __init__(self):
        # adjacency: node -> {node: strict?}; parallel edges keep max strictness
        self._edges: dict[Node, dict[Node, bool]] = {}
        self._nodes: set[Node] = set()
        #: constant pairs (node ids) already ordered: no edge to add again
        self._ordered: set[tuple[int, int]] = set()

    def add_node(self, node: Node) -> None:
        if node not in self._edges:
            self._nodes.add(node)
            self._edges[node] = {}

    def add_edge(self, low: Node, high: Node, strict: bool) -> None:
        """Record ``low <= high`` (or ``low < high`` when strict)."""
        self.add_node(low)
        self.add_node(high)
        successors = self._edges[low]
        current = successors.get(high)
        if current is None or (strict and not current):
            successors[high] = strict

    def add_comparison(self, comparison: Comparison) -> None:
        """Insert one DBCL comparison (neq is handled by the caller)."""
        op, left, right = comparison.op, comparison.left, comparison.right
        if op in ("greater", "geq"):
            op, left, right = MIRRORED_OPS[op], right, left
        if op == "less":
            self.add_edge(left, right, strict=True)
        elif op == "leq":
            self.add_edge(left, right, strict=False)
        elif op == "eq":
            self.add_edge(left, right, strict=False)
            self.add_edge(right, left, strict=False)
        else:
            raise OptimizationError(f"cannot graph comparison {comparison}")

    def add_constant_ordering(self) -> None:
        """Implicit edges between constants, in SQLite's total order."""
        constants = [n for n in self._nodes if isinstance(n, ConstSymbol)]
        ordered = self._ordered
        for a, b in combinations(constants, 2):
            pair = (id(a), id(b)) if id(a) < id(b) else (id(b), id(a))
            if pair in ordered:
                continue
            ordered.add(pair)
            ordering = compare_values(a.value, b.value)
            if ordering < 0:
                self.add_edge(a, b, strict=True)
            elif ordering > 0:
                self.add_edge(b, a, strict=True)
            # ordering == 0 cannot happen for distinct ConstSymbol nodes.

    # -- reachability ------------------------------------------------------------

    def nodes(self) -> set[Node]:
        return set(self._nodes)

    def reach(self, start: Node) -> dict[Node, bool]:
        """Nodes reachable from ``start``; value True if via a strict edge.

        A node may first be found non-strictly and later strictly; the
        traversal upgrades entries, so the result is exact.
        """
        reached: dict[Node, bool] = {}
        stack: list[tuple[Node, bool]] = [(start, False)]
        while stack:
            node, strict = stack.pop()
            for successor, edge_strict in self._edges.get(node, {}).items():
                path_strict = strict or edge_strict
                known = reached.get(successor)
                if known is None or (path_strict and not known):
                    reached[successor] = path_strict
                    stack.append((successor, path_strict))
        return reached

    def implies(self, low: Node, high: Node, strict: bool) -> bool:
        """Does the graph imply ``low <= high`` (or ``<`` when strict)?"""
        if low == high:
            return not strict
        if isinstance(low, ConstSymbol) and isinstance(high, ConstSymbol):
            ordering = compare_values(low.value, high.value)
            return ordering < 0 if strict else ordering <= 0
        # Constant operands not yet in the graph still order against the
        # graph's constants (e.g. x <= 90000 implies x < 200000): integrate
        # them before searching.
        integrated = False
        for operand in (low, high):
            if isinstance(operand, ConstSymbol) and operand not in self._nodes:
                self.add_node(operand)
                integrated = True
        if integrated:
            self.add_constant_ordering()
        if low not in self._nodes:
            return False
        reached = self.reach(low)
        found = reached.get(high)
        if found is None:
            return False
        return found if strict else True


def _representative(members: Sequence[Node]) -> Node:
    """Pick the symbol an equivalence class collapses to.

    Constants win (constant propagation), then target symbols (they cannot
    be renamed), then the lexicographically smallest variable for
    determinism.
    """
    constants = [m for m in members if isinstance(m, ConstSymbol)]
    if constants:
        return constants[0]
    targets = [m for m in members if isinstance(m, TargetSymbol)]
    if targets:
        return sorted(targets, key=str)[0]
    return sorted(members, key=str)[0]


def _strongly_connected(graph: InequalityGraph) -> list[list[Node]]:
    """Tarjan SCCs over the ordering edges (iterative)."""
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []
    counter = [0]

    for root in graph.nodes():
        if root in index:
            continue
        work: list[tuple[Node, Optional[Iterable]]] = [(root, None)]
        while work:
            node, iterator = work.pop()
            if iterator is None:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
                iterator = iter(list(graph._edges.get(node, {})))
            advanced = False
            for successor in iterator:
                if successor not in index:
                    work.append((node, iterator))
                    work.append((successor, None))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def analyse_comparisons(
    comparisons: Sequence[Comparison],
    assumptions: Sequence[Comparison] = (),
) -> InequalityOutcome:
    """Run the full inequality simplification.

    ``assumptions`` (value bounds) participate in contradiction and
    redundancy reasoning but are never emitted in the output comparison
    list.
    """
    outcome = InequalityOutcome()

    ordering = [c for c in comparisons if c.op != "neq"]
    neqs = [c for c in comparisons if c.op == "neq"]
    assumed_ordering = [c for c in assumptions if c.op != "neq"]

    graph = InequalityGraph()
    for comparison in ordering + assumed_ordering:
        graph.add_comparison(comparison)
    graph.add_constant_ordering()

    # -- contradictions and equality classes over the SCCs -------------------
    for component in _strongly_connected(graph):
        if len(component) < 2:
            continue
        # Any strict edge inside the component makes a < cycle.
        component_set = set(component)
        for node in component:
            for successor, strict in graph._edges.get(node, {}).items():
                if strict and successor in component_set:
                    outcome.contradiction = True
                    outcome.reason = (
                        f"cyclic ordering forces {node} < {node} via {successor}"
                    )
                    return outcome
        constants = {
            n.value for n in component if isinstance(n, ConstSymbol)
        }
        if len(constants) > 1:
            outcome.contradiction = True
            outcome.reason = f"distinct constants {sorted(map(str, constants))} forced equal"
            return outcome
        representative = _representative(component)
        for member in component:
            if member == representative:
                continue
            if isinstance(member, TargetSymbol):
                if isinstance(representative, ConstSymbol):
                    # A target equal to a constant stays in place; record the
                    # equality so the pipeline keeps the restriction.
                    outcome.residual_equalities.append((member, representative))
                else:
                    outcome.residual_equalities.append((member, representative))
            else:
                outcome.renamings[member] = representative

    # neq inside an equivalence class is a contradiction.
    rename = lambda s: outcome.renamings.get(s, s)
    for comparison in neqs:
        left, right = rename(comparison.left), rename(comparison.right)
        if left == right:
            outcome.contradiction = True
            outcome.reason = f"{comparison.left} <> {comparison.right} but they are forced equal"
            return outcome

    if outcome.renamings or outcome.residual_equalities:
        outcome.changed = True

    # -- rebuild the graph after renaming for sharpening/redundancy ----------
    def rename_comparison(comparison: Comparison) -> Comparison:
        return Comparison(
            comparison.op, rename(comparison.left), rename(comparison.right)
        )

    renamed_ordering = [rename_comparison(c) for c in ordering]
    renamed_assumed = [rename_comparison(c) for c in assumed_ordering]
    renamed_neqs = [rename_comparison(c) for c in neqs]

    base_graph = InequalityGraph()
    for comparison in renamed_ordering + renamed_assumed:
        base_graph.add_comparison(comparison)
    base_graph.add_constant_ordering()

    # Sharpen: a <= b plus a <> b gives a < b (paper's A >= B >= C, A <> C).
    sharpened: list[Comparison] = []
    used_neq: set[int] = set()
    for position, comparison in enumerate(renamed_neqs):
        left, right = comparison.left, comparison.right
        if base_graph.implies(left, right, strict=False) and not base_graph.implies(
            left, right, strict=True
        ):
            sharpened.append(Comparison("less", left, right))
            used_neq.add(position)
            outcome.changed = True
        elif base_graph.implies(right, left, strict=False) and not base_graph.implies(
            right, left, strict=True
        ):
            sharpened.append(Comparison("less", right, left))
            used_neq.add(position)
            outcome.changed = True

    candidate_ordering = renamed_ordering + sharpened
    remaining_neqs = [
        c for i, c in enumerate(renamed_neqs)
        if i not in used_neq
    ]

    # -- drop ground comparisons and redundancies ------------------------------
    kept: list[Comparison] = []
    for position, comparison in enumerate(candidate_ordering):
        if comparison.left == comparison.right:
            if comparison.op in ("eq", "leq", "geq"):
                outcome.changed = True
                continue  # trivially true
            outcome.contradiction = True
            outcome.reason = f"{comparison} compares a symbol with itself"
            return outcome
        if comparison.is_ground:
            if comparison.evaluate_ground():
                outcome.changed = True
                continue
            outcome.contradiction = True
            outcome.reason = f"ground comparison {comparison} is false"
            return outcome
        # Redundant if implied by everything else (assumptions + the other
        # kept/pending ordering comparisons).
        others = InequalityGraph()
        for other in kept + candidate_ordering[position + 1 :] + renamed_assumed:
            others.add_comparison(other)
        others.add_constant_ordering()
        strict = comparison.op == "less"
        low, high = comparison.left, comparison.right
        if comparison.op in ("greater", "geq"):
            low, high = high, low
            strict = comparison.op == "greater"
        if comparison.op == "eq":
            implied = others.implies(low, high, False) and others.implies(
                high, low, False
            )
        else:
            implied = others.implies(low, high, strict)
        if implied:
            outcome.changed = True
            continue
        kept.append(comparison)

    # neq redundancy: implied by a strict ordering either way.
    final_graph = InequalityGraph()
    for comparison in kept + renamed_assumed:
        final_graph.add_comparison(comparison)
    final_graph.add_constant_ordering()
    for comparison in remaining_neqs:
        if comparison.is_ground:
            if comparison.evaluate_ground():
                outcome.changed = True
                continue
            outcome.contradiction = True
            outcome.reason = f"ground comparison {comparison} is false"
            return outcome
        left, right = comparison.left, comparison.right
        if final_graph.implies(left, right, True) or final_graph.implies(
            right, left, True
        ):
            outcome.changed = True
            continue
        kept.append(comparison)

    # Equalities that could not become renamings (they involve target
    # symbols) must survive as explicit eq comparisons — unless the kept
    # set already implies them.
    for left, right in outcome.residual_equalities:
        if final_graph.implies(left, right, False) and final_graph.implies(
            right, left, False
        ):
            continue
        kept.append(Comparison("eq", left, right))

    outcome.comparisons = kept
    return outcome
