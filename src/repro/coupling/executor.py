"""The execute half of the ask pipeline: plan × constants → answers.

Every compiled plan — warm from the plan cache or fresh from a cold
compile — runs through :meth:`Executor.execute`: is-empty → bind values
→ result cache → prepared statement → rows → answers.  The plan's *kind*
selects only the answer assembly (rows → answer dicts / staged under an
interface predicate and combined with internal knowledge / asserted as
facts for a ``metaevaluate/4`` fetch / certain rows) — the cold path is
the warm path run on the plan the compiler just built.

The set-oriented batch path (:meth:`Executor.execute_batch`) shares the
row decoder: one ``IN (VALUES …)`` execution per same-shape group,
demultiplexed back into per-goal answers.
"""

from __future__ import annotations

import hashlib
import time
from itertools import islice
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

from ..dbcl.predicate import DbclPredicate
from ..dbms.internal_db import assert_answers, term_to_value
from ..errors import CouplingError, ExecutionError, TransientBackendError
from ..prolog.terms import (
    Struct,
    Term,
    Variable,
    conjoin,
    conjuncts,
    variables_of,
)
from ..prolog.writer import term_to_string
from .global_opt import CompiledPlan, GoalShape, goal_shape, is_database_indicator

Value = Union[int, float, str, None]

_pc = time.perf_counter

#: Sentinel: execution under the read lock reached a step that mutates
#: (a pending segment merge, a recursion re-plan); the caller re-runs
#: under the write lock.
NEEDS_WRITE = object()


def interface_name(predicate: DbclPredicate) -> str:
    """A stable, collision-resistant name for an interface predicate.

    Derived from a digest of the canonical key so it is identical
    across runs (no dependence on Python hash randomization) and
    distinct for structurally different predicates.
    """
    digest = hashlib.blake2b(
        repr(predicate.canonical_key()).encode("utf-8"), digest_size=6
    ).hexdigest()
    return f"$ext_{digest}"


def answer_columns(
    predicate: DbclPredicate, goal_vars: Iterable[Variable]
) -> list[tuple[int, str]]:
    """``(row position, variable name)`` for each target the goal asks for."""
    wanted = {v.name for v in goal_vars}
    return [
        (column, target.name)
        for column, target in enumerate(predicate.target_symbols())
        if target.name in wanted
    ]


def answer_variables(goal: Term) -> list[Variable]:
    """The goal's named variables, in order: what its answers bind."""
    return [v for v in variables_of(goal) if not v.is_anonymous]


def decode_rows(
    columns: Sequence[tuple[int, str]], rows: Iterable[tuple]
) -> list[dict[str, Value]]:
    """Result rows → deduplicated answer dicts, in row order."""
    names = [name for _, name in columns]
    if not names:
        return [{} for _ in islice(rows, 1)]  # one empty answer if any row
    # dict.fromkeys dedupes in order; one column's itemgetter yields values.
    keys = dict.fromkeys(map(itemgetter(*[column for column, _ in columns]), rows))
    if len(names) == 1:
        return [{names[0]: value} for value in keys]
    return [dict(zip(names, key)) for key in keys]


class Executor:
    """Runs compiled plans against the two database segments."""

    def __init__(self, session):
        self.session = session

    def merge_pending(self, relations: Iterable[str]) -> None:
        """Merge pending internal segments ahead of violation probes.

        A fact asserted into a base relation can introduce (or resolve)
        a key violation; probing the pre-merge store would answer for
        data the subsequent execution never sees.
        """
        session = self.session
        pending = session.merger.pending(sorted(set(relations)))
        if not pending:
            return
        with session.kb.lock.write():
            for name in session.merger.pending(pending):
                session.merger.materialise_internal(name)

    # -- the one execution tail ----------------------------------------------------------

    def execute(
        self,
        plan: CompiledPlan,
        shape: Optional[GoalShape],
        goal: Term,
        max_solutions: Optional[int] = None,
        span=None,
        exclusive: bool = True,
        dirty=None,
    ):
        """Answer ``goal`` through ``plan``.

        Returns the answer dicts — ``(predicate, rows)`` for a fetch
        plan, whose answers are asserted as facts instead; the predicate
        is None when binding proved the fetch empty — or
        :data:`NEEDS_WRITE` when ``exclusive`` is false (the caller holds
        only the read lock) and a segment merge is pending — or, for a
        recursive plan, anything else that writes first
        (:meth:`~.recursion_router.RecursionRouter.ask`).  ``dirty``
        holds the violating relations of a consistent-mode ask.
        """
        session = self.session
        kind = plan.kind
        if kind == "recursive":
            # The plan fixed view, bound side and answer variable; the
            # seed is the shape's one constant.
            if shape is None:
                shape = goal_shape(goal)
            answers = session._recursion.ask(
                plan.closure_call, shape.constants[0], exclusive, span
            )
            if max_solutions is None or answers is NEEDS_WRITE:
                return answers
            return answers[:max_solutions]
        if kind == "engine":
            return self.answers_from_engine(goal, answer_variables(goal), max_solutions)
        constants = shape.constants if shape is not None else ()
        # Execution reads only the bind values; the bound predicate is
        # built below only where something reads it.
        empty = plan.is_empty
        if not empty and plan.bind_is_empty(constants, session.constraints):
            session.plans.stats.incr("bind_empties")
            empty = True
        if kind == "cqa" or kind == "cqa_enum":
            rows = self._certain_rows(plan, constants, empty, dirty, span)
        elif not empty:
            rows = self._rows(plan, constants, goal, exclusive)
            if rows is NEEDS_WRITE:
                return NEEDS_WRITE
            if kind == "fetch":
                bound = plan.bind(constants, session.constraints)
                assert_answers(session.kb, goal, bound, answer_variables(goal), rows)
            if exclusive and shape is not None:
                # A fetch's answer facts advanced the program clock;
                # keep this shape's plan alive across its own side
                # effects (answer facts only add fact branches, which
                # the fetch front filters out by design).
                session.plans.retain(shape, session.kb)
        if kind == "fetch":
            if not empty:
                return bound, rows
            # Proved empty: an exact plan stored the pre-simplification
            # predicate as its trace; a bind-time proof has none.
            return (plan.template if plan.is_empty else None), []
        if empty:
            return []
        if kind == "mixed":
            # The stored fetch targets carry compile-time ordinals;
            # resolve them to this goal's variables by name (the shape
            # key guarantees names match and are unambiguous) so the
            # interface predicate joins with the internal conjuncts.
            by_name = {v.name: v for v in variables_of(goal)}
            conjunct_list = conjuncts(goal)
            return self.combine_with_internal(
                plan.bind(constants, session.constraints),
                [by_name[t.name] for t in plan.fetch_targets],
                rows,
                [conjunct_list[i] for i in plan.internal_indices],
                answer_variables(goal),
                max_solutions,
            )
        mark = _pc() if span is not None else 0.0
        answers = decode_rows(plan.columns, rows)
        if span is not None:
            span.phases["demux"] = _pc() - mark
        if max_solutions is not None:
            return answers[:max_solutions]
        return answers

    def _rows(self, plan: CompiledPlan, constants: tuple, goal: Term, exclusive: bool):
        """Result rows for a live plan: result cache, else prepared SQL.

        The one place that touches the result cache.  With the cache
        policy disabled nothing could ever be stored, so neither the
        bound predicate (the cache's key, see :meth:`ResultCache.lookup`)
        nor its dependency set is built; the miss/rejected counters tick
        as for any probe and refused store.
        """
        session = self.session
        merger = session.merger
        # The paper's merge procedure: a base relation with internally
        # asserted tuples is materialised externally before SQL reads it,
        # so the statement sees the union of both segments.  Binding
        # leaves row tags alone, so the template's are the bound ones.
        pending = merger.pending({row.tag for row in plan.template.rows})
        if pending and not exclusive:
            return NEEDS_WRITE  # merging segments mutates both stores
        cache = session.cache
        bound = None
        if cache.policy.enabled:
            bound = plan.bind(constants, session.constraints)
        rows = cache.lookup(bound)
        if rows is not None:
            return rows
        for name in pending:
            merger.materialise_internal(name)
        stamp = None if bound is None else cache.stamp(bound)
        rows = session.database.execute_prepared(
            plan.sql_text, plan.bind_values(constants)
        )
        cache.store(
            bound,
            rows,
            None if bound is None else self.result_dependencies(bound, goal),
            stamp=stamp,
        )
        return rows

    def _certain_rows(
        self,
        plan: CompiledPlan,
        constants: tuple,
        empty: bool,
        dirty,
        span,
    ) -> list[tuple]:
        """The certain rows of a consistent-mode plan over a dirty store.

        A rewriting runs as one prepared statement and degrades to repair
        enumeration if it fails for good; a non-rewritable plan
        enumerates straight away.  Certain rows bypass the result cache
        (its key is the predicate alone, shared with the plain rows) and
        need no segment merge (the consistent mode merges before it
        probes for violations).
        """
        session, cqa = self.session, self.session._cqa
        rewriting = plan.kind == "cqa"
        info = {
            "mode": "rewritten" if rewriting else "enumerated",
            "rewritable": rewriting,
            "dirty_relations": sorted(dirty),
            "violating_blocks": sum(v.block_count for v in dirty.values()),
        }
        if span is not None:
            span.cqa = info
        if empty:
            if plan.is_empty:
                cqa.stats.incr("rewritten_asks")
            return []
        if not rewriting:
            return cqa.enumerate(plan.bind(constants, session.constraints), dirty)
        try:
            with session.database.fault_context("cqa_rewrite"):
                rows = session.database.execute_prepared(
                    plan.sql_text, plan.bind_values(constants)
                )
        except TransientBackendError:
            raise  # retried whole by the ask driver
        except ExecutionError:
            # Degradation rung: the rewriting statement failed
            # permanently, so fall to repair enumeration, which reads the
            # store through plain per-relation fetches instead.
            session.database.resilience.incr("degraded_answers")
            cqa.stats.incr("degraded")
            info["mode"] = "enumerated"
            info["degraded"] = True
            return cqa.enumerate(plan.bind(constants, session.constraints), dirty)
        cqa.stats.incr("rewritten_asks")
        return rows

    def result_dependencies(self, predicate: DbclPredicate, goal: Term) -> frozenset:
        """What a cached result for ``predicate`` depends on, transitively.

        Row tags cover the base relations the *compiled* query reads, but
        a goal over views depends on the intermediate view definitions
        too: new clauses (or facts) for ``works_dir_for`` must drop a
        cached ``same_manager`` result even though the compiled tableau
        only mentions ``empl``/``dept``.  The view call graph supplies the
        names on the path plus any indirect base relations simplification
        may have reasoned away.
        """
        session = self.session
        relations = {row.tag for row in predicate.rows}
        for indicator in session._compiler.reachable_from(conjuncts(goal)):
            if is_database_indicator(
                session.schema, indicator
            ) or session.kb.has_procedure(indicator):
                relations.add(indicator[0])
        return frozenset(relations)

    # -- answer assembly -------------------------------------------------------------------

    def combine_with_internal(
        self,
        final: DbclPredicate,
        fetch_targets: Sequence[Variable],
        rows: Sequence[tuple],
        internal_goals: Sequence[Term],
        goal_vars: Sequence[Variable],
        max_solutions: Optional[int],
    ) -> list[dict[str, Value]]:
        """Mixed-plan tail: stage fetched answers, resolve the remainder.

        The external answers are asserted under a fresh interface
        predicate, then Prolog combines them with internal knowledge.
        """
        name = interface_name(final)
        interface_goal = Struct(name, tuple(fetch_targets))
        # Interface facts are derived bookkeeping, not program clauses:
        # they must not invalidate compiled plans (see KnowledgeBase
        # generation semantics).
        kb = self.session.kb
        with kb.preserve_generation():
            kb.retract_all((name, len(fetch_targets)))
            assert_answers(kb, interface_goal, final, fetch_targets, rows)
        rewritten = conjoin([interface_goal] + list(internal_goals))
        return self.answers_from_engine(rewritten, goal_vars, max_solutions)

    def answers_from_engine(
        self,
        goal: Term,
        goal_vars: Sequence[Variable],
        max_solutions: Optional[int],
    ) -> list[dict[str, Value]]:
        def lenient(term: Term) -> Value:
            # Constants convert to plain values; anything else (an unbound
            # variable, a structured term such as a bound DBCL predicate)
            # is rendered as text so answers stay JSON-friendly.
            try:
                return term_to_value(term)
            except CouplingError:
                if isinstance(term, Variable):
                    return None
                return term_to_string(term)

        answers = []
        wanted = set(goal_vars)
        engine = self.session.engine
        for binding in engine.solve(goal, max_solutions=max_solutions):
            answers.append(
                {
                    variable.name: lenient(term)
                    for variable, term in binding.items()
                    if variable in wanted
                }
            )
        return answers

    # -- set-oriented batch execution (ask_many) ---------------------------------------------

    def batchable_plan(self, shape: GoalShape) -> Optional[CompiledPlan]:
        """The shared fully-parameterized plan for a shape, if it has one.

        ``None`` means the group answers serially: the shape is cold
        (its first ask compiles the shared plan), constant-sensitive,
        uncacheable, or anything but pure-external.
        """
        plans = self.session.plans
        plans.sync(self.session.kb)
        entry = plans.entry_for(shape)
        if entry is None or entry.uncacheable:
            return None
        if entry.material:
            return None  # constant-sensitive: exact variants only
        plan = entry.variants.get(())
        if (
            plan is None
            or plan.kind != "external"
            or plan.internal_indices
            or plan.is_empty
            or not plan.open_params
        ):
            return None
        return plan

    def execute_batch(
        self,
        plan: CompiledPlan,
        shapes: Sequence[GoalShape],
        max_solutions: Optional[int],
    ) -> Optional[list[list[dict[str, Value]]]]:
        """One prepared execution for a whole same-shape group, demuxed.

        Returns ``None`` to make the caller fall back to serial asks —
        when the plan has no batchable SQL form, a pending segment merge
        needs the write lock, the plan went stale under a concurrent
        write between warm-up and execution, a ``max_solutions`` cap is
        in force (the serial path defines which prefix of the answers is
        returned), or a fetched row's anchor values fail to demultiplex
        (SQLite affinity matched a constant Python equality cannot).
        """
        if max_solutions is not None:
            return None
        session = self.session
        # Per-goal valuebound replay: members whose constants violate a
        # declared domain are provably empty and never reach the batch.
        keys: list[Optional[tuple]] = []
        distinct: dict[tuple, None] = {}
        for shape in shapes:
            if plan.bind_is_empty(shape.constants, session.constraints):
                session.plans.stats.incr("bind_empties")
                keys.append(None)
                continue
            key = tuple(shape.constants[i] for i in plan.open_params)
            keys.append(key)
            distinct[key] = None
        live = [key for key in keys if key is not None]
        if not live:
            return [[] for _ in shapes]
        if len(live) < 2:
            return None  # a lone live member gains nothing from batching
        # Two *distinct* Python keys that SQLite affinity would coerce to
        # one value (30000 vs '30000') would share every fetched row's
        # anchor tuple, silently starving one member; textual collision is
        # a safe over-approximation of the coercion rules, so such
        # batches answer serially.
        if len({tuple(str(v) for v in key) for key in distinct}) != len(distinct):
            return None
        text = plan.batch_statement(session.database, len(distinct))
        if text is None:
            return None
        constants_by_key: dict[tuple, tuple] = {}
        for shape, key in zip(shapes, keys):
            if key is not None and key not in constants_by_key:
                constants_by_key[key] = shape.constants
        with session.kb.lock.read():
            if session.merger.pending({row.tag for row in plan.template.rows}):
                return None
            session.plans.sync(session.kb)
            first = session.plans.entry_for(shapes[0])
            if first is None or first.variants.get(()) is not plan:
                return None  # a concurrent write invalidated the plan
            rows = session.database.execute_prepared(
                text,
                plan.batch_bind_values(
                    [constants_by_key[key] for key in distinct]
                ),
            )
        demux: dict[tuple, list[tuple]] = {key: [] for key in distinct}
        width = len(plan.open_params)
        for row in rows:
            bucket = demux.get(row[-width:])
            if bucket is None:
                # SQL equality matched where Python equality does not
                # (column affinity coerced the constant, e.g. TEXT '30000'
                # against an INTEGER column): demultiplexing would drop
                # the row, so answer this batch serially instead.
                return None
            bucket.append(row)
        session.plans.stats.incr("batched_asks", len(shapes))
        session.plans.stats.incr("batch_executions")
        # Every member shares the shape, and so the plan's answer columns.
        return [
            [] if key is None else decode_rows(plan.columns, demux[key])
            for key in keys
        ]
