"""Multiple-query optimization: common subexpression isolation (paper §7).

"Often, it is advantageous to process multiple database queries
simultaneously by recognizing common subexpressions [Jarke 1984]."  The
batch executor here implements two levels of sharing over a batch of DBCL
predicates:

1. **duplicate elimination** — queries with identical canonical forms
   execute once;
2. **common-core isolation** — queries whose tableaux (rows + targets)
   coincide and that differ only in their Relcomparisons share one
   *widened* scan: the common core executes once with the compared
   variables promoted into the SELECT list, and each member's comparisons
   are applied to the fetched tuples (the stored intermediate result
   playing the role of the paper's ``setrel`` relation).

Execution is built on the session's :class:`~repro.coupling.global_opt.
PlanCache`: every scan — shared or singleton — is rendered to SQL once
per canonical form and stored as a prepared statement under a pseudo
goal shape, so repeated batches re-execute prepared text instead of
re-translating and re-printing (the compile-once discipline of the warm
ask path, extended to the widened scans).  Client-side comparison
filtering follows SQL three-valued semantics: a NULL operand rejects the
row, exactly as the backend's WHERE clause would.

The report records how many DBMS queries were issued against the
unshared baseline, which is the series Experiment E8 regenerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..dbcl.predicate import Comparison, DbclPredicate
from ..dbcl.symbols import (
    ConstSymbol,
    JoinableSymbol,
    TargetSymbol,
    VarSymbol,
    compare_values,
)
from ..errors import CouplingError
from ..dbms.sqlite_backend import ExternalDatabase
from ..optimize.pipeline import SimplifyOptions, simplify
from ..schema.constraints import ConstraintSet
from ..sql.translate import translate
from .global_opt import CompiledPlan, GoalShape, PlanCache

Value = Union[int, float, str, None]


@dataclass
class BatchReport:
    """What the batch executor did, versus the unshared baseline."""

    batch_size: int = 0
    queries_issued: int = 0
    duplicates_shared: int = 0
    cores_shared: int = 0
    #: scans answered through an already-prepared statement (no
    #: translate/print work at all this batch)
    statements_reused: int = 0

    @property
    def queries_saved(self) -> int:
        return self.batch_size - self.queries_issued


_COMPARISON_TESTS = {
    "eq": lambda ordering: ordering == 0,
    "neq": lambda ordering: ordering != 0,
    "less": lambda ordering: ordering < 0,
    "greater": lambda ordering: ordering > 0,
    "leq": lambda ordering: ordering <= 0,
    "geq": lambda ordering: ordering >= 0,
}


def _evaluate_comparison(op: str, left: Value, right: Value) -> bool:
    """One WHERE-conjunct applied client-side, with SQL NULL semantics.

    Three-valued logic: a comparison with a NULL operand is *unknown*,
    and an unknown conjunct rejects the row — for every operator,
    including ``neq`` (``NULL <> x`` is not true in SQL).  The NULL check
    must happen before :func:`compare_values`, which orders only
    non-NULL constants.  Everything else defers to the same total order
    the backend and the optimizer use, so client-side filtering of a
    widened scan is indistinguishable from the unshared query's WHERE.
    """
    if left is None or right is None:
        return False  # SQL three-valued logic: unknown rejects the row
    return _COMPARISON_TESTS[op](compare_values(left, right))


@dataclass
class _CoreGroup:
    """Queries sharing one comparison-free core."""

    core: DbclPredicate  # canonical rows/targets, no comparisons
    members: list[int] = field(default_factory=list)  # batch positions
    member_comparisons: list[tuple[Comparison, ...]] = field(default_factory=list)
    member_arity: int = 0


class BatchExecutor:
    """Evaluates a batch of DBCL predicates with subexpression sharing.

    ``plans`` (optional) is the session's plan cache: every scan the
    executor issues is prepared once per canonical form and stored there
    under a pseudo goal shape, so later batches (and other executors
    sharing the cache) skip translation and printing entirely.  ``kb``
    (optional, with ``plans``) keys the reuse to the knowledge base
    generation — a consult or assert drops the prepared scans with
    everything else.  Without ``plans`` a private per-executor memo gives
    the same reuse for the executor's own lifetime.
    """

    def __init__(
        self,
        database: ExternalDatabase,
        constraints: ConstraintSet,
        optimize: bool = True,
        share: bool = True,
        plans: Optional[PlanCache] = None,
        kb=None,
    ):
        self.database = database
        self.constraints = constraints
        self.options = SimplifyOptions() if optimize else SimplifyOptions.none()
        self.share = share
        self.plans = plans
        self.kb = kb
        self._local_statements: dict[tuple, Optional[str]] = {}

    # -- prepared-scan reuse ----------------------------------------------------------

    def _prepared_scan(
        self, predicate: DbclPredicate, report: BatchReport
    ) -> Optional[str]:
        """Prepared SQL text for a scan, compiled at most once per form.

        Returns ``None`` for a provably-empty translation (the caller
        answers ``[]`` without touching the DBMS).
        """
        key = ("mqo",) + (predicate.canonical_key(),)
        if self.plans is not None:
            if self.kb is not None:
                self.plans.sync(self.kb)
            shape = GoalShape(key=key, constants=())
            cached = self.plans.lookup(shape)
            if isinstance(cached, CompiledPlan):
                report.statements_reused += 1
                return None if cached.is_empty else cached.sql_text
            sql = translate(predicate, distinct=True)
            if sql.is_empty:
                self.plans.store(
                    shape, (), CompiledPlan(kind="external", is_empty=True)
                )
                return None
            text = self.database.prepare(sql)
            self.plans.store(
                shape,
                (),
                CompiledPlan(kind="external", sql_text=text, sql=sql),
            )
            return text
        if key in self._local_statements:
            report.statements_reused += 1
            return self._local_statements[key]
        sql = translate(predicate, distinct=True)
        if sql.is_empty:
            self._local_statements[key] = None  # memoize the empty proof too
            return None
        text = self.database.prepare(sql)
        self._local_statements[key] = text
        return text

    def _run_scan(
        self, predicate: DbclPredicate, report: BatchReport
    ) -> list[tuple]:
        text = self._prepared_scan(predicate, report)
        if text is None:
            return []
        rows = self.database.execute_prepared(text)
        report.queries_issued += 1
        return rows

    # -- public API -----------------------------------------------------------------

    def execute(
        self, predicates: Sequence[DbclPredicate]
    ) -> tuple[list[list[tuple]], BatchReport]:
        """Run the whole batch; returns per-query answers plus the report."""
        report = BatchReport(batch_size=len(predicates))
        simplified: list[Optional[DbclPredicate]] = []
        for predicate in predicates:
            result = simplify(predicate, self.constraints, self.options)
            simplified.append(None if result.is_empty else result.predicate)

        answers: list[Optional[list[tuple]]] = [None] * len(predicates)

        if not self.share:
            for position, predicate in enumerate(simplified):
                if predicate is None:
                    answers[position] = []
                else:
                    answers[position] = self._run_scan(predicate, report)
            return [a if a is not None else [] for a in answers], report

        # -- level 1: duplicate elimination over canonical forms -----------------
        by_key: dict[tuple, list[int]] = {}
        for position, predicate in enumerate(simplified):
            if predicate is None:
                answers[position] = []
                continue
            by_key.setdefault(predicate.canonical_key(), []).append(position)

        # -- level 2: group by comparison-free core -------------------------------
        groups: dict[tuple, _CoreGroup] = {}
        for key, positions in by_key.items():
            representative = simplified[positions[0]]
            assert representative is not None
            canonical = representative.canonical_form()
            core = canonical.replace(comparisons=())
            core_key = core.canonical_key()
            group = groups.get(core_key)
            if group is None:
                group = _CoreGroup(core=core, member_arity=len(canonical.targets))
                groups[core_key] = group
            group.members.extend(positions)
            group.member_comparisons.extend(
                [tuple(canonical.comparisons)] * len(positions)
            )
            report.duplicates_shared += len(positions) - 1

        for group in groups.values():
            distinct_comparison_sets = {
                comparisons for comparisons in group.member_comparisons
            }
            if len(distinct_comparison_sets) <= 1:
                # No comparison variance: run each distinct query directly
                # (it is one query thanks to level-1 dedup).
                rows = self._run_scan(
                    group.core.replace(comparisons=group.member_comparisons[0]),
                    report,
                )
                for position in group.members:
                    answers[position] = rows
                continue

            report.cores_shared += len(group.members) - 1
            widened, column_of = self._widen(group)
            all_rows = self._run_scan(widened, report)
            arity = group.member_arity
            for position, comparisons in zip(
                group.members, group.member_comparisons
            ):
                kept = []
                seen: set[tuple] = set()
                for row in all_rows:
                    if all(
                        _evaluate_comparison(
                            c.op,
                            self._operand_value(c.left, row, column_of),
                            self._operand_value(c.right, row, column_of),
                        )
                        for c in comparisons
                    ):
                        projected = row[:arity]
                        if projected not in seen:
                            seen.add(projected)
                            kept.append(projected)
                answers[position] = kept

        return [a if a is not None else [] for a in answers], report

    # -- core widening -----------------------------------------------------------------

    def _widen(
        self, group: _CoreGroup
    ) -> tuple[DbclPredicate, dict[JoinableSymbol, int]]:
        """Promote compared variables into the SELECT list of the core."""
        core = group.core
        compared: list[VarSymbol] = []
        for comparisons in group.member_comparisons:
            for comparison in comparisons:
                for side in comparison.symbols():
                    if isinstance(side, VarSymbol) and side not in compared:
                        compared.append(side)

        mapping = {
            symbol: TargetSymbol(f"Aux{i}") for i, symbol in enumerate(compared)
        }
        widened = core.rename(mapping)
        new_targets = list(widened.targets) + [mapping[s] for s in compared]
        widened = widened.replace(targets=new_targets)

        column_of: dict[JoinableSymbol, int] = {}
        for i, target in enumerate(widened.targets):
            column_of[target] = i
        for symbol, target in mapping.items():
            column_of[symbol] = column_of[target]
        # Original targets keep their positions for comparisons against them.
        for i, target in enumerate(core.targets):
            column_of.setdefault(target, i)
        return widened, column_of

    @staticmethod
    def _operand_value(
        symbol: JoinableSymbol, row: tuple, column_of: dict[JoinableSymbol, int]
    ) -> Value:
        if isinstance(symbol, ConstSymbol):
            return symbol.value
        column = column_of.get(symbol)
        if column is None:
            raise CouplingError(f"comparison symbol {symbol} not in widened SELECT")
        return row[column]
