"""Counting-based maintenance of non-recursive materialized views.

A registered view compiles once through the existing pipeline
(metaevaluate → DBCL → simplify → SQL) and loads its result as a
**support-counted** multiset: each distinct answer row carries the number
of derivations (join combinations) producing it.  Updates then apply
*delta rules* instead of recomputing:

For a view ``V`` whose tableau references relation ``R`` at occurrences
``o1..ok``, a single-tuple change ``t`` of ``R`` contributes::

    ΔV = Σ over non-empty S ⊆ {o1..ok} of (-1)^(|S|+1) · Q_S(t)

where ``Q_S(t)`` is the view body with every occurrence in ``S`` pinned
to ``t`` (inclusion–exclusion over the occurrences handles self-joins
exactly).  Each ``Q_S`` is compiled **once** per view into a
parameterized prepared statement — the pinning constants are PR 2
``Parameter`` leaves bound per delta — and evaluated:

* for an **insert**, against the post-insert state (the manager applies
  the tuple to the store first), with alternating signs as above;
* for a **delete**, against the pre-delete state (the manager applies
  the tuple after), with the same alternating signs.

Both follow from expanding the join product over ``R ± t``; with the
relation kept duplicate-free (merge semantics), the pinned tuple
matches exactly one stored row, so no multiplicity scaling is needed.

Support counts make deletion exact: a distinct answer row disappears
only when its last derivation dies — the property plain
invalidate-and-recompute pays a full query for.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from ..coupling.global_opt import marker_for
from ..dbcl.predicate import Comparison, DbclPredicate
from ..dbcl.symbols import ConstSymbol, is_star
from ..dbms.sqlite_backend import ExternalDatabase
from ..errors import CouplingError
from ..optimize.pipeline import SimplifyOptions, simplify
from ..prolog.terms import Struct, Term, Variable
from ..schema.constraints import ConstraintSet
from ..sql.translate import translate
from .delta import DELETE, INSERT, Delta, ViewStats

#: Self-join fan-out guard: a relation referenced more than this many
#: times in one view would need 2^k - 1 delta rules per update.
MAX_OCCURRENCES = 4


def _interned(row: tuple) -> tuple:
    """``row`` with its text cells interned: one object per distinct value."""
    return tuple(sys.intern(c) if type(c) is str else c for c in row)


@dataclass(frozen=True)
class DeltaRule:
    """One prepared delta query ``Q_S`` for a view.

    ``bind_order`` lists delta-tuple positions in the prepared
    statement's ``?`` order; ``required`` pins positions whose tableau
    cell was a constant — a delta tuple differing there contributes
    nothing and the rule is skipped without touching the DBMS.
    """

    relation: str
    occurrences: tuple[int, ...]
    sign: int
    sql_text: str
    bind_order: tuple[int, ...]
    required: tuple[tuple[int, object], ...]

    def applies_to(self, row: Sequence) -> bool:
        return all(row[position] == value for position, value in self.required)

    def bind(self, row: Sequence) -> list:
        return [row[position] for position in self.bind_order]


class MaterializedView:
    """A non-recursive view maintained with counting delta rules."""

    recursive = False

    def __init__(
        self,
        name: str,
        goal: Term,
        args: Sequence[Variable],
        predicate: DbclPredicate,
        original: DbclPredicate,
        database: ExternalDatabase,
        constraints: ConstraintSet,
    ):
        self.name = name
        self.goal = goal
        self.args = tuple(args)
        #: The simplified predicate the counts are defined over.
        self.predicate = predicate
        #: The pre-simplification predicate (bound-check replay only).
        self.original = original
        self.database = database
        self.constraints = constraints
        self.stale = False
        #: Quarantined: a maintenance delta failed, so the counts are no
        #: longer trusted; the manager serves this view by recompute and
        #: rebuilds it at the next write-side opportunity.
        self.quarantined = False
        #: Maintenance generation: advanced once per successfully applied
        #: delta or refresh, never by a failed one.
        self.applied_generation = 0
        self.stats = ViewStats()

        self.select_names = [t.name for t in predicate.target_symbols()]
        #: goal-argument position -> select column (None when the
        #: argument never reached a database call and projects nothing).
        self.position_column: list[Optional[int]] = [
            self.select_names.index(arg.name)
            if arg.name in self.select_names
            else None
            for arg in self.args
        ]
        #: base relations read (delta subscriptions)
        self.relations = frozenset(row.tag for row in predicate.rows)
        #: select column -> (relation, attribute) cells of the target in
        #: the *unsimplified* predicate, replaying ``check_constants`` for
        #: constants bound at ask time (mirrors CompiledPlan.bind).
        self.column_cells: dict[int, tuple[tuple[str, str], ...]] = (
            self._target_cells(original)
        )

        self.counts: Counter = Counter()
        #: Lazily built per-column hash indexes over the distinct rows,
        #: maintained incrementally alongside the counts; constant-bound
        #: asks probe a bucket instead of scanning the whole view.
        self._indexes: dict[int, dict[object, set[tuple]]] = {}
        self._rules: dict[str, tuple[DeltaRule, ...]] = self._compile_rules()
        self._load_sql = self._prepare_load()

    # -- compilation --------------------------------------------------------

    def _target_cells(
        self, predicate: DbclPredicate
    ) -> dict[int, tuple[tuple[str, str], ...]]:
        cells: dict[int, list[tuple[str, str]]] = {}
        for column_index, symbol in enumerate(predicate.target_symbols()):
            if symbol.name not in self.select_names:
                continue
            select_column = self.select_names.index(symbol.name)
            for occurrence in predicate.occurrences().get(symbol, ()):
                cells.setdefault(select_column, []).append(
                    (
                        predicate.rows[occurrence.row].tag,
                        predicate.attribute_of_column(occurrence.column),
                    )
                )
        return {column: tuple(found) for column, found in cells.items()}

    def _prepare_load(self) -> str:
        sql = translate(self.predicate, distinct=False)
        return self.database.prepare(sql)

    def _compile_rules(self) -> dict[str, tuple[DeltaRule, ...]]:
        """One inclusion–exclusion rule set per referenced relation."""
        schema = self.predicate.schema
        rules: dict[str, list[DeltaRule]] = {}
        for relation_name in sorted(self.relations):
            relation = schema.relation(relation_name)
            occurrences = [
                index
                for index, row in enumerate(self.predicate.rows)
                if row.tag == relation_name
            ]
            if len(occurrences) > MAX_OCCURRENCES:
                raise CouplingError(
                    f"view {self.name}: {relation_name} referenced "
                    f"{len(occurrences)} times; too many delta rules"
                )
            parameter_map = {
                str(marker_for(position)): position
                for position in range(relation.arity)
            }
            for size in range(1, len(occurrences) + 1):
                for subset in combinations(occurrences, size):
                    rule = self._compile_rule(
                        relation_name, relation, subset, parameter_map
                    )
                    rules.setdefault(relation_name, []).append(rule)
        return {name: tuple(found) for name, found in rules.items()}

    def _compile_rule(
        self, relation_name, relation, subset, parameter_map
    ) -> DeltaRule:
        schema = self.predicate.schema
        extra: list[Comparison] = []
        seen: set[tuple] = set()
        required: list[tuple[int, object]] = []
        for row_index in subset:
            row = self.predicate.rows[row_index]
            for position, attribute in enumerate(relation.attributes):
                entry = row.entries[schema.column_of(attribute)]
                if is_star(entry):
                    continue
                if isinstance(entry, ConstSymbol):
                    required.append((position, entry.value))
                    continue
                comparison = Comparison(
                    "eq", entry, ConstSymbol(marker_for(position))
                )
                key = (comparison.op, comparison.left, comparison.right)
                if key not in seen:
                    seen.add(key)
                    extra.append(comparison)
        pinned = self.predicate.replace(
            comparisons=tuple(self.predicate.comparisons) + tuple(extra)
        )
        sql = translate(pinned, distinct=False, parameters=parameter_map)
        return DeltaRule(
            relation=relation_name,
            occurrences=tuple(subset),
            sign=1 if len(subset) % 2 else -1,
            sql_text=self.database.prepare(sql),
            bind_order=sql.parameter_order(),
            required=tuple(
                sorted(set(required), key=lambda item: (item[0], str(item[1])))
            ),
        )

    # -- loading ------------------------------------------------------------

    def refresh(self) -> None:
        """Recompute the counts from scratch (registration, staleness, heal).

        The load query is the only step that can fail, and it runs
        first: a failed refresh leaves the in-memory state untouched and
        the view still stale/quarantined — never half-refreshed.
        """
        rows = self.database.execute_prepared(self._load_sql)
        self.counts = Counter(map(_interned, rows))
        self._indexes.clear()
        self.applied_generation += 1
        self.stale = False
        self.quarantined = False
        self.stats.refreshes += 1

    # -- maintenance --------------------------------------------------------

    def apply_delta(self, delta: Delta) -> tuple[list[tuple], list[tuple]]:
        """Fold one base-relation delta into the counts.

        Returns ``(appeared, disappeared)`` — the distinct answer rows
        whose support crossed zero, which is the delta a *subscriber*
        (e.g. a recursive view over this one) observes.

        Application is two-phase so a failure can never tear the view:
        phase one runs the (read-only) delta-rule queries and validates
        the support arithmetic without touching any state; phase two
        mutates the in-memory counts and cannot fail.  The ``delta``
        fault probe sits between the two, so an injected failure — like
        a real one in a rule query — leaves counts, indexes and
        generation untouched.
        """
        changes: Counter = Counter()
        outer_sign = 1 if delta.kind == INSERT else -1
        for rule in self._rules.get(delta.relation, ()):
            if not rule.applies_to(delta.row):
                continue
            produced = self.database.execute_prepared(
                rule.sql_text, rule.bind(delta.row)
            )
            self.stats.delta_executions += 1
            sign = rule.sign * outer_sign
            for produced_row in produced:
                changes[_interned(produced_row)] += sign
        effective = {row: change for row, change in changes.items() if change}
        for row, change in effective.items():
            if self.counts[row] + change < 0:
                raise CouplingError(
                    f"view {self.name}: negative support for {row!r}"
                )
        fault = self.database._fault_point
        if fault is not None:
            fault("delta", self.name)
        appeared: list[tuple] = []
        disappeared: list[tuple] = []
        for row, change in effective.items():
            before = self.counts[row]
            after = before + change
            if after == 0:
                del self.counts[row]
                disappeared.append(row)
            else:
                self.counts[row] = after
                if before == 0:
                    appeared.append(row)
        self.applied_generation += 1
        self.stats.deltas_applied += 1
        self.stats.rows_added += len(appeared)
        self.stats.rows_removed += len(disappeared)
        for column, index in self._indexes.items():
            for row in appeared:
                index.setdefault(row[column], set()).add(row)
            for row in disappeared:
                bucket = index.get(row[column])
                if bucket is not None:
                    bucket.discard(row)
        return appeared, disappeared

    # -- serving ------------------------------------------------------------

    def answers(self, goal: Struct) -> Optional[list[dict]]:
        """Answer bindings for a goal over this view, or None if unservable.

        Mirrors the cold pipeline's ``_rows_to_answers``: constants
        restrict (with the valuebound replay a fresh compilation's
        ``check_constants`` would apply), repeated variables join, and
        answers project + dedupe on the goal's variable names.
        """
        from ..coupling.global_opt import _constant_value

        filters: list[tuple[int, object]] = []  # (select column, value)
        outputs: list[tuple[int, str]] = []  # (select column, variable name)
        by_name: dict[str, int] = {}
        for position, argument in enumerate(goal.args):
            column = self.position_column[position]
            if isinstance(argument, Variable):
                if argument.is_anonymous:
                    continue
                if column is None:
                    # The compiled view never projected this argument; the
                    # cold path omits it from answers, and plain row
                    # projection below does the same.
                    continue
                earlier = by_name.get(argument.name)
                if earlier is not None:
                    filters.append((column, ("join", earlier)))
                else:
                    by_name[argument.name] = column
                    outputs.append((column, argument.name))
                continue
            value = _constant_value(argument)
            if value is None or column is None:
                return None  # structured constant / unprojected restriction
            for relation, attribute in self.column_cells.get(column, ()):
                bound = self.constraints.bound_for(relation, attribute)
                if bound is not None and not bound.contains(value):
                    return []
            filters.append((column, ("const", value)))

        answers: list[dict] = []
        seen: set[tuple] = set()
        for row in self._candidate_rows(filters):
            if any(
                row[column] != (operand if kind == "const" else row[operand])
                for column, (kind, operand) in filters
            ):
                continue
            answer = {name: row[column] for column, name in outputs}
            key = tuple(sorted(answer.items()))
            if key not in seen:
                seen.add(key)
                answers.append(answer)
        self.stats.maintained_asks += 1
        return answers

    def _candidate_rows(self, filters):
        """Candidate rows for a filtered ask: an index bucket when possible.

        The first constant filter's column gets a hash index built on
        demand and kept current by :meth:`apply_delta`; without constant
        filters the full distinct row set is scanned.
        """
        for column, condition in filters:
            if condition[0] != "const":
                continue
            index = self._indexes.get(column)
            if index is None:
                index = {}
                for row in self.counts:
                    index.setdefault(row[column], set()).add(row)
                self._indexes[column] = index
            return index.get(condition[1], ())
        return self.counts
