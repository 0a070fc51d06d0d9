"""Frozen copy of Algorithm 2's per-predicate stages (the oracle).

``repro.optimize`` runs the stages over one integer-coded working
tableau and builds one DBCL predicate at the end.  This module keeps the
stages it replaced — each building and validating a fresh immutable
predicate — with their code unchanged apart from imports, shortened
docstrings and a local copy of the predicate method
``comparison_symbols``, so the differential in
``test_optimize_differential.py`` can hold the new pipeline's output
predicate, emptiness, reason, iteration count, stage log, cost order and
marker consultations to the old ones.  Not imported by ``src/``; do not
edit it to make a differential pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from repro.dbcl.containment import find_homomorphism
from repro.dbcl.predicate import Comparison, DbclPredicate, RelRow
from repro.dbcl.symbols import (
    ConstSymbol,
    JoinableSymbol,
    TargetSymbol,
    VarSymbol,
    compare_values,
    is_constant_symbol,
    is_param_marker,
    is_star,
    is_variable_symbol,
)
from repro.errors import OptimizationError
from repro.optimize.pipeline import SimplifyOptions
from repro.schema.constraints import ConstraintSet, FuncDep, ValueBound
from repro.schema.inference import RefIntHypothesis, derive_refint


def _comparison_symbols(predicate: DbclPredicate) -> set[JoinableSymbol]:
    """All symbols mentioned in Relcomparisons (once a predicate method)."""
    symbols: set[JoinableSymbol] = set()
    for comparison in predicate.comparisons:
        symbols.update(comparison.symbols())
    return symbols


# -- inequalities.py -----------------------------------------------------------------

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

    def add_node(self, node: Node) -> None:
        self._nodes.add(node)
        self._edges.setdefault(node, {})

    def add_edge(self, low: Node, high: Node, strict: bool) -> None:
        """Record ``low <= high`` (or ``low < high`` when strict)."""
        self.add_node(low)
        self.add_node(high)
        current = self._edges[low].get(high)
        if current is None or (strict and not current):
            self._edges[low][high] = strict

    def add_comparison(self, comparison: Comparison) -> None:
        """Insert one DBCL comparison (neq is handled by the caller)."""
        op, left, right = comparison.op, comparison.left, comparison.right
        if op in ("greater", "geq"):
            mirrored = comparison.mirrored()
            op, left, right = mirrored.op, mirrored.left, mirrored.right
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
        for a, b in combinations(constants, 2):
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


# -- valuebounds.py ---------------------------------------------------------------------


@dataclass(frozen=True)
class BoundViolation:
    """A constant outside its declared domain."""

    row: int
    relation: str
    attribute: str
    value: object
    bound: ValueBound

    def describe(self) -> str:
        return (
            f"row {self.row}: {self.relation}.{self.attribute} = {self.value} "
            f"violates valuebound [{self.bound.low}, {self.bound.high}]"
        )


def check_constants(
    predicate: DbclPredicate, constraints: ConstraintSet
) -> Optional[BoundViolation]:
    """First violation of a declared domain by a Relreferences constant."""
    schema = predicate.schema
    for row_index, row in enumerate(predicate.rows):
        relation = schema.relation(row.tag)
        for attribute in relation.attributes:
            column = schema.column_of(attribute)
            entry = row.entries[column]
            if not isinstance(entry, ConstSymbol):
                continue
            if is_param_marker(entry.value):
                continue
            bound = constraints.bound_for(row.tag, attribute)
            if bound is not None and not bound.contains(entry.value):
                return BoundViolation(
                    row_index, row.tag, attribute, entry.value, bound
                )
    return None


def bound_assumptions(
    predicate: DbclPredicate, constraints: ConstraintSet
) -> list[Comparison]:
    """Assumption comparisons for comparison variables (Algorithm 2 step 1)."""
    schema = predicate.schema
    assumptions: list[Comparison] = []
    seen: set[tuple[JoinableSymbol, str, str]] = set()
    comparison_symbols = {
        s for s in _comparison_symbols(predicate) if not is_constant_symbol(s)
    }
    if not comparison_symbols:
        return []
    for symbol, occurrences in predicate.occurrences().items():
        if symbol not in comparison_symbols:
            continue
        for occurrence in occurrences:
            row = predicate.rows[occurrence.row]
            attribute = schema.attribute_names[occurrence.column]
            bound = constraints.bound_for(row.tag, attribute)
            if bound is None:
                continue
            key = (symbol, row.tag, attribute)
            if key in seen:
                continue
            seen.add(key)
            assumptions.append(
                Comparison("geq", symbol, ConstSymbol(bound.low))
            )
            assumptions.append(
                Comparison("leq", symbol, ConstSymbol(bound.high))
            )
    return assumptions


# -- chase.py ---------------------------------------------------------------------------


@dataclass
class ChaseOutcome:
    """Result of one chase run."""

    predicate: DbclPredicate
    changed: bool = False
    contradiction: bool = False
    reason: str = ""
    renamings: dict[JoinableSymbol, JoinableSymbol] = field(default_factory=dict)
    rows_removed: int = 0


class _UnionFind:
    """Union-find over symbols with representative preference."""

    def __init__(self):
        self._parent: dict[JoinableSymbol, JoinableSymbol] = {}
        self.contradiction: Optional[str] = None
        self.blocked_target_merges: list[tuple[TargetSymbol, TargetSymbol]] = []

    def find(self, symbol: JoinableSymbol) -> JoinableSymbol:
        root = symbol
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        # Path compression.
        while self._parent.get(symbol, symbol) != root:
            symbol, self._parent[symbol] = self._parent[symbol], root
        return root

    @staticmethod
    def _rank(symbol: JoinableSymbol) -> int:
        if isinstance(symbol, ConstSymbol):
            return 2
        if isinstance(symbol, TargetSymbol):
            return 1
        return 0

    def union(self, a: JoinableSymbol, b: JoinableSymbol) -> bool:
        """Merge the classes of ``a`` and ``b``; True if anything changed."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        rank_a, rank_b = self._rank(ra), self._rank(rb)
        if rank_a == 2 and rank_b == 2:
            self.contradiction = f"chase equates constants {ra} and {rb}"
            return False
        if rank_a == 1 and rank_b == 1:
            self.blocked_target_merges.append((ra, rb))  # type: ignore[arg-type]
            return False
        if rank_a < rank_b or (rank_a == rank_b and str(ra) > str(rb)):
            ra, rb = rb, ra
        self._parent[rb] = ra
        return True


def chase(
    predicate: DbclPredicate,
    constraints: ConstraintSet,
    max_rounds: int = 1000,
) -> ChaseOutcome:
    """Run the FD chase to fixpoint and remove duplicate rows."""
    uf = _UnionFind()
    schema = predicate.schema

    funcdeps_by_tag: dict[str, list[FuncDep]] = {}
    for row in predicate.rows:
        if row.tag not in funcdeps_by_tag:
            funcdeps_by_tag[row.tag] = constraints.funcdeps_of(row.tag)

    def cell(row_index: int, attribute: str) -> JoinableSymbol:
        column = schema.column_of(attribute)
        entry = predicate.rows[row_index].entries[column]
        assert not is_star(entry)
        return uf.find(entry)  # type: ignore[arg-type]

    rows_by_tag: dict[str, list[int]] = {}
    for index, row in enumerate(predicate.rows):
        rows_by_tag.setdefault(row.tag, []).append(index)

    changed_any = False
    for _round in range(max_rounds):
        changed_this_round = False
        for tag, row_indices in rows_by_tag.items():
            for fd in funcdeps_by_tag.get(tag, ()):
                if fd.is_trivial:
                    continue
                # Group rows by their (canonicalised) LHS cells.
                groups: dict[tuple, list[int]] = {}
                for row_index in row_indices:
                    key = tuple(cell(row_index, a) for a in fd.lhs)
                    groups.setdefault(key, []).append(row_index)
                for group in groups.values():
                    if len(group) < 2:
                        continue
                    anchor = group[0]
                    for other in group[1:]:
                        for attribute in fd.rhs:
                            merged = uf.union(
                                cell(anchor, attribute), cell(other, attribute)
                            )
                            if uf.contradiction:
                                return ChaseOutcome(
                                    predicate,
                                    changed=changed_any,
                                    contradiction=True,
                                    reason=uf.contradiction,
                                )
                            changed_this_round = changed_this_round or merged
        if not changed_this_round:
            break
        changed_any = True

    # Build the renaming from the union-find classes.
    renamings: dict[JoinableSymbol, JoinableSymbol] = {}
    for symbol in predicate.occurrences():
        representative = uf.find(symbol)
        if representative != symbol and not isinstance(symbol, TargetSymbol):
            renamings[symbol] = representative

    if not renamings:
        return ChaseOutcome(predicate, changed=False)

    renamed = predicate.rename(renamings)
    deduped = renamed.dedupe_rows()
    rows_removed = len(renamed.rows) - len(deduped.rows)
    return ChaseOutcome(
        deduped.dedupe_comparisons(),
        changed=True,
        renamings=renamings,
        rows_removed=rows_removed,
    )


# -- refint.py --------------------------------------------------------------------------


@dataclass
class RefintOutcome:
    """Result of the dangling-row removal."""

    predicate: DbclPredicate
    removed_rows: int = 0
    deletions: list[tuple[str, str]] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.removed_rows > 0


def _symbol_use_counts(predicate: DbclPredicate) -> dict[JoinableSymbol, int]:
    """Total number of appearances of each symbol anywhere in the predicate."""
    counts: dict[JoinableSymbol, int] = {}
    for row in predicate.rows:
        for entry in row.entries:
            if not is_star(entry):
                counts[entry] = counts.get(entry, 0) + 1  # type: ignore[index]
    for comparison in predicate.comparisons:
        for side in comparison.symbols():
            counts[side] = counts.get(side, 0) + 1
    for entry in predicate.targets:
        counts[entry] = counts.get(entry, 0) + 1
    return counts


def _find_deletable_row(
    predicate: DbclPredicate, constraints: ConstraintSet
) -> Optional[tuple[int, int]]:
    """First (dangling row, witness row) pair whose refint is derivable."""
    schema = predicate.schema
    counts = _symbol_use_counts(predicate)

    for row_index, row in enumerate(predicate.rows):
        relation = schema.relation(row.tag)
        own_cells = [e for e in row.entries if not is_star(e)]
        if len(own_cells) != len(set(own_cells)):
            continue
        shared_attributes: list[str] = []
        for attribute in relation.attributes:
            entry = row.entries[schema.column_of(attribute)]
            if isinstance(entry, VarSymbol) and counts[entry] == 1:
                continue  # an RN cell: private singleton variable
            if isinstance(entry, (ConstSymbol, TargetSymbol)):
                shared_attributes.append(attribute)
                continue
            shared_attributes.append(attribute)
        if not shared_attributes:
            continue
        for witness_index, witness in enumerate(predicate.rows):
            if witness_index == row_index:
                continue
            witness_attributes = _match_against(
                predicate, row, shared_attributes, witness
            )
            if witness_attributes is None:
                continue
            hypothesis = RefIntHypothesis(
                witness.tag,
                tuple(witness_attributes),
                row.tag,
                tuple(shared_attributes),
            )
            derivation = derive_refint(schema, hypothesis, constraints.refints)
            if derivation.success:
                return (row_index, witness_index)
    return None


def _match_against(
    predicate: DbclPredicate,
    row: RelRow,
    shared_attributes: Sequence[str],
    witness: RelRow,
) -> Optional[list[str]]:
    """Witness attributes matching each shared cell of ``row``, if all match."""
    schema = predicate.schema
    witness_relation = schema.relation(witness.tag)
    matched: list[str] = []
    for attribute in shared_attributes:
        symbol = row.entries[schema.column_of(attribute)]
        found: Optional[str] = None
        for witness_attribute in witness_relation.attributes:
            witness_symbol = witness.entries[schema.column_of(witness_attribute)]
            if witness_symbol == symbol:
                found = witness_attribute
                break
        if found is None:
            return None
        matched.append(found)
    return matched


def remove_dangling_rows(
    predicate: DbclPredicate, constraints: ConstraintSet
) -> RefintOutcome:
    """Delete deletable dangling rows until none remain (recursive process)."""
    outcome = RefintOutcome(predicate)
    while len(outcome.predicate.rows) > 1:
        found = _find_deletable_row(outcome.predicate, constraints)
        if found is None:
            break
        row_index, witness_index = found
        outcome.deletions.append(
            (
                outcome.predicate.rows[row_index].tag,
                outcome.predicate.rows[witness_index].tag,
            )
        )
        outcome.predicate = outcome.predicate.drop_rows([row_index])
        outcome.removed_rows += 1
    return outcome


# -- minimize.py ------------------------------------------------------------------------


@dataclass
class MinimizeOutcome:
    """Result of the syntactic minimization."""

    predicate: DbclPredicate
    removed_rows: int = 0

    @property
    def changed(self) -> bool:
        return self.removed_rows > 0


def _row_removable(predicate: DbclPredicate, row_index: int) -> bool:
    """Can ``row_index`` be dropped without changing the answer?"""
    reduced = predicate.drop_rows([row_index], validate=False)
    frozen = {
        symbol
        for symbol in _comparison_symbols(predicate)
        if is_variable_symbol(symbol)
    }
    if any(not reduced.occurs_in_rows(symbol) for symbol in frozen):
        return False
    if any(
        not reduced.occurs_in_rows(target) for target in predicate.target_symbols()
    ):
        return False
    return find_homomorphism(predicate, reduced, frozen=frozen) is not None


def minimize(predicate: DbclPredicate) -> MinimizeOutcome:
    """Remove redundant rows until none is removable."""
    current = predicate.dedupe_rows()
    removed = len(predicate.rows) - len(current.rows)
    progress = True
    while progress and len(current.rows) > 1:
        progress = False
        for row_index in range(len(current.rows)):
            if _row_removable(current, row_index):
                current = current.drop_rows([row_index])
                removed += 1
                progress = True
                break
    return MinimizeOutcome(current, removed)


# -- costs.py ---------------------------------------------------------------------------

DEFAULT_ROW_COUNT = 1000
DEFAULT_EQ_SELECTIVITY = 0.1

StatsProvider = Callable[[str], object]


def _profile(stats_of: Optional[StatsProvider], relation: str):
    if stats_of is None:
        return None
    try:
        return stats_of(relation)
    except Exception:
        return None


def estimate_row_cardinality(
    predicate: DbclPredicate,
    row: RelRow,
    stats_of: Optional[StatsProvider],
) -> float:
    """Estimated tuples of ``row`` after its own equality restrictions."""
    profile = _profile(stats_of, row.tag)
    if profile is None:
        cardinality = float(DEFAULT_ROW_COUNT)
        distinct = {}
    else:
        cardinality = float(max(profile.row_count, 1))
        distinct = profile.distinct
    for column, entry in enumerate(row.entries):
        if isinstance(entry, ConstSymbol):
            attribute = predicate.attribute_of_column(column)
            count = distinct.get(attribute, 0)
            if count > 0:
                cardinality /= count
            else:
                cardinality *= DEFAULT_EQ_SELECTIVITY
    return max(cardinality, 1.0)


def _join_selectivity(
    predicate: DbclPredicate,
    placed_symbols: set,
    row: RelRow,
    stats_of: Optional[StatsProvider],
) -> Optional[float]:
    """Selectivity of joining ``row`` against the placed prefix."""
    best: Optional[float] = None
    profile = _profile(stats_of, row.tag)
    distinct = profile.distinct if profile is not None else {}
    for column, entry in enumerate(row.entries):
        if is_star(entry) or not is_variable_symbol(entry):
            continue
        if entry not in placed_symbols:
            continue
        attribute = predicate.attribute_of_column(column)
        count = distinct.get(attribute, 0)
        selectivity = 1.0 / count if count > 0 else DEFAULT_EQ_SELECTIVITY
        if best is None or selectivity < best:
            best = selectivity
    return best


def greedy_row_order(
    predicate: DbclPredicate,
    stats_of: Optional[StatsProvider],
) -> list[int]:
    """Greedy minimum-intermediate-cardinality order of the row indices."""
    rows = predicate.rows
    if len(rows) <= 1:
        return list(range(len(rows)))
    base = [
        estimate_row_cardinality(predicate, row, stats_of) for row in rows
    ]
    remaining = list(range(len(rows)))
    first = min(remaining, key=lambda i: (base[i], i))
    order = [first]
    remaining.remove(first)
    placed_symbols = {
        entry
        for entry in rows[first].entries
        if not is_star(entry) and is_variable_symbol(entry)
    }
    prefix_cardinality = base[first]
    while remaining:
        def joined_size(i: int) -> float:
            selectivity = _join_selectivity(
                predicate, placed_symbols, rows[i], stats_of
            )
            if selectivity is None:
                return prefix_cardinality * base[i]  # cross product
            return max(prefix_cardinality * base[i] * selectivity, 1.0)

        chosen = min(remaining, key=lambda i: (joined_size(i), i))
        prefix_cardinality = joined_size(chosen)
        order.append(chosen)
        remaining.remove(chosen)
        placed_symbols |= {
            entry
            for entry in rows[chosen].entries
            if not is_star(entry) and is_variable_symbol(entry)
        }
    return order


# -- pipeline.py ------------------------------------------------------------------------


@dataclass
class SimplificationResult:
    """Outcome of Algorithm 2 on one DBCL predicate."""

    original: DbclPredicate
    predicate: DbclPredicate
    is_empty: bool = False
    reason: str = ""
    iterations: int = 0
    stage_log: list[str] = field(default_factory=list)


def simplify(
    predicate: DbclPredicate,
    constraints: ConstraintSet,
    options: SimplifyOptions = SimplifyOptions(),
) -> SimplificationResult:
    """Run Algorithm 2 on ``predicate`` under ``constraints``."""
    result = SimplificationResult(original=predicate, predicate=predicate)
    current = predicate

    # -- step 1: value bounds ---------------------------------------------------
    assumptions: list[Comparison] = []
    if options.use_valuebounds:
        violation = check_constants(current, constraints)
        if violation is not None:
            result.is_empty = True
            result.reason = violation.describe()
            result.stage_log.append(f"valuebounds: {result.reason}")
            return result
        assumptions = bound_assumptions(current, constraints)
        if assumptions:
            result.stage_log.append(
                f"valuebounds: {len(assumptions)} assumption(s) added"
            )

    # -- steps 2-4: inequality/chase fixpoint ------------------------------------
    repeat = True
    first_time = True
    while repeat:
        result.iterations += 1
        if result.iterations > options.max_iterations:
            raise OptimizationError(
                f"Algorithm 2 did not converge in {options.max_iterations} iterations"
            )

        renamed_in_step_3 = False
        if options.use_inequalities:
            outcome = analyse_comparisons(list(current.comparisons), assumptions)
            if outcome.contradiction:
                result.is_empty = True
                result.reason = outcome.reason
                result.stage_log.append(f"inequalities: {outcome.reason}")
                return result
            if outcome.renamings:
                current = current.rename(outcome.renamings)
                renamed_in_step_3 = True
            if outcome.changed:
                current = current.replace(
                    comparisons=outcome.comparisons
                ).dedupe_rows()
                result.stage_log.append(
                    "inequalities: simplified to "
                    f"{len(current.comparisons)} comparison(s)"
                )
            if renamed_in_step_3 and options.use_valuebounds:
                assumptions = bound_assumptions(current, constraints)

        repeat = renamed_in_step_3 or first_time
        first_time = False

        if repeat and options.use_chase:
            chase_outcome = chase(current, constraints)
            if chase_outcome.contradiction:
                result.is_empty = True
                result.reason = chase_outcome.reason
                result.stage_log.append(f"chase: {chase_outcome.reason}")
                return result
            current = chase_outcome.predicate
            if chase_outcome.changed:
                result.stage_log.append(
                    f"chase: {len(chase_outcome.renamings)} renaming(s), "
                    f"{chase_outcome.rows_removed} duplicate row(s) removed"
                )
                if options.use_valuebounds:
                    assumptions = bound_assumptions(current, constraints)
            if not chase_outcome.renamings:
                repeat = False
        elif repeat and not options.use_chase:
            repeat = False

    # -- step 5: referential integrity --------------------------------------------
    if options.use_refint:
        refint_outcome = remove_dangling_rows(current, constraints)
        current = refint_outcome.predicate
        if refint_outcome.changed:
            result.stage_log.append(
                f"refint: {refint_outcome.removed_rows} dangling row(s) removed "
                f"({', '.join(f'{a}->{b}' for a, b in refint_outcome.deletions)})"
            )

    # -- step 6: syntactic minimization --------------------------------------------
    if options.use_minimize:
        minimize_outcome = minimize(current)
        current = minimize_outcome.predicate
        if minimize_outcome.changed:
            result.stage_log.append(
                f"minimize: {minimize_outcome.removed_rows} redundant row(s) removed"
            )

    result.predicate = current
    return result
