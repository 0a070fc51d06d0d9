"""The compile half of the ask pipeline: goal × mode → :class:`CompiledPlan`.

Paper Figure 1 is one chain — classify → metaevaluate → DBCL →
Algorithm 2 → SQL — and this module holds the only copy of it.  Every
entry point of the session (``ask``, ``ask_consistent``, the
``metaevaluate/4`` fetch, ``explain``) compiles through
:meth:`Compiler.compile`; a :class:`Mode` selects only

* the shape-key prefix its plans are cached under (:meth:`lookup`),
* the *front* — how the goal becomes a DBCL predicate (the classified
  external block / a pure-external block or :class:`CqaError` / the
  single rule branch of a view), and
* the *finish* applied to the simplified predicate (translate + prepare
  / the same plus a certainty suffix, or repair enumeration).

One compile per shape, in every mode: the first time a shape is seen,
:meth:`Compiler.compile` runs the marker analysis (:meth:`_parameterize`)
that abstracts its constants into bind parameters, and that ask — like
every later one — executes the parameterized plan with its constants
bound.  A shape whose compilation consults a concrete constant keeps
exact-constant variants, compiled for exactly the goal's constants.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from ..concurrency import LockedCounters
from ..dbcl.grammar import format_dbcl
from ..dbcl.predicate import DbclPredicate
from ..dbcl.symbols import watch_marker_consultation
from ..errors import (
    CouplingError,
    CqaError,
    DatabaseNegationError,
    TranslationError,
)
from ..optimize.costs import permuted, tableau_row_order
from ..optimize.pipeline import SimplificationResult, SimplifyOptions, simplify
from ..prolog.reader import parse_goal
from ..prolog.terms import (
    Struct,
    Term,
    Variable,
    conjoin,
    conjuncts,
    goal_indicator,
    variables_of,
)
from ..sql.ast import SqlQuery, empty_query
from ..sql.printer import print_sql
from ..sql.translate import translate
from .executor import answer_columns, answer_variables
from .global_opt import (
    UNCACHEABLE,
    CompiledPlan,
    GoalShape,
    goal_shape,
    goal_with_markers,
    is_database_indicator,
    marker_columns,
    marker_for,
    markers_in_comparisons,
    markers_in_rows,
    plan_goal,
    reachable,
    text_shape,
)

_pc = time.perf_counter


@dataclass(frozen=True)
class Mode:
    """Which flavour of the one pipeline an entry point asks for."""

    name: str  # 'plain' | 'cqa' | 'fetch'
    #: prepended to the goal's shape key, so the modes' plans never collide
    prefix: tuple = ()
    #: False only for a ``metaevaluate/4`` fetch with ``no_optim``
    optimize: bool = True
    span_kind: str = "ask"


PLAIN = Mode("plain")
CQA = Mode("cqa", ("cqa",), span_kind="ask_consistent")
FETCH = {
    use_optim: Mode("fetch", ("fetch", use_optim), optimize=use_optim)
    for use_optim in (True, False)
}


@dataclass
class CompilePhaseStats(LockedCounters):
    """Wall-clock breakdown of cold compilations, per pipeline phase.

    A cold ask pays classification (goal split over the view call graph),
    metaevaluation (Prolog → DBCL), optimization (Algorithm 2 plus the
    cost-based row order), translation (DBCL → SQL tree), and printing
    (tree → prepared text).  ``session.stats()["compile_phases"]``
    exposes the accumulated seconds per phase so a cost-model regression
    (say, the greedy join order suddenly dominating compile time) is
    observable instead of vanishing into one opaque cold-ask number.
    """

    cold_compilations: int = 0
    classify_seconds: float = 0.0
    metaevaluate_seconds: float = 0.0
    optimize_seconds: float = 0.0
    translate_seconds: float = 0.0
    print_seconds: float = 0.0


@dataclass
class TranslationTrace:
    """Everything the pipeline produced for one goal (``explain``)."""

    goal: Term
    dbcl: DbclPredicate
    simplification: SimplificationResult
    sql: SqlQuery

    @property
    def dbcl_text(self) -> str:
        return format_dbcl(self.dbcl)

    @property
    def optimized_dbcl_text(self) -> str:
        return format_dbcl(self.simplification.predicate)

    @property
    def sql_text(self) -> str:
        return print_sql(self.sql)


@dataclass
class Front:
    """The mode-specific front half of one compilation."""

    kind: str  # the plan kind: 'external' | 'mixed' | 'cqa' | 'fetch'
    options: SimplifyOptions
    fetch_targets: tuple[Variable, ...]
    #: positions of the goal's conjuncts that compile to the database
    #: (in compilation order) and of those Prolog resolves afterwards
    external_indices: tuple[int, ...]
    internal_indices: tuple[int, ...]
    #: the goal's conjuncts (constants possibly replaced by markers) →
    #: the DBCL predicate of the external block
    predicate: Callable[[Sequence[Term]], Optional[DbclPredicate]]


class _ConstantSensitive(Exception):
    """A marker compilation consulted concrete constants.

    ``params`` are the positions to make concrete before retrying; empty
    means the culprit is not attributable and the shape stays exact.
    """

    def __init__(self, params: frozenset = frozenset()):
        super().__init__()
        self.params = params


def params_in_conjuncts(
    conjunct_list: Sequence[Term], selected: Iterable[int]
) -> frozenset:
    """Parameter indices occupied by the selected conjuncts.

    Mirrors :func:`goal_shape`'s traversal: constants are numbered
    across the whole conjunction; only those inside the selected
    conjunct positions are returned.
    """
    wanted = set(selected)
    found: set[int] = set()
    position = 0
    for index, conjunct in enumerate(conjunct_list):
        if not isinstance(conjunct, Struct):
            continue
        for argument in conjunct.args:
            if isinstance(argument, Variable):
                continue
            if index in wanted:
                found.add(position)
            position += 1
    return frozenset(found)


class Compiler:
    """Plan lookup, first-sight parameterization and exact compilation."""

    def __init__(self, session):
        self.session = session
        self.phases = CompilePhaseStats()
        #: Reachable-base-relation sets per (goal indicators, kb
        #: generation) — the call graph only changes with the kb, so a
        #: warm consistent ask skips the graph traversal entirely.
        self._relations_memo: dict[tuple, frozenset] = {}

    def options(self, use_optim: bool = True) -> SimplifyOptions:
        """Algorithm 2's stage toggles for this session."""
        optimize = use_optim and self.session.optimize
        return SimplifyOptions() if optimize else SimplifyOptions.none()

    # -- the view call graph ---------------------------------------------------------

    def call_graph(self):
        session = self.session
        return session.plans.graph(session.kb, session.schema)

    @staticmethod
    def _indicators(terms: Iterable[Term]) -> list[tuple[str, int]]:
        indicators = []
        for term in terms:
            try:
                indicators.append(goal_indicator(term))
            except ValueError:
                continue
        return indicators

    def reachable_from(self, terms: Iterable[Term]) -> set[tuple[str, int]]:
        """Every predicate the given goal terms can call, themselves included."""
        return reachable(self.call_graph(), self._indicators(terms))

    def base_relations(self, goal: Term) -> frozenset:
        """Base relations the goal can read, transitively through views."""
        indicators = self._indicators(conjuncts(goal))
        memo_key = (frozenset(indicators), self.session.kb.generation)
        cached = self._relations_memo.get(memo_key)
        if cached is not None:
            return cached
        schema = self.session.schema
        relations = frozenset(
            indicator[0]
            for indicator in reachable(self.call_graph(), indicators)
            if is_database_indicator(schema, indicator)
        )
        if len(self._relations_memo) >= 128:
            self._relations_memo.clear()
        self._relations_memo[memo_key] = relations
        return relations

    def _constant_discriminating(
        self, terms: Sequence[Term], ignore_facts: bool = False
    ) -> bool:
        """Do reachable clauses pattern-match constants in their heads?

        Unfolding a goal whose argument is a parameter marker must take
        exactly the branches a concrete constant would; a clause head with
        a constant argument breaks that (the marker fails the unification
        some constants would pass), so such shapes stay unparameterized.

        ``ignore_facts`` skips bodyless clauses: the fetch path discards
        branches without database calls, so a fact matching one constant
        and not another never changes the compiled rule branch.
        """
        for indicator in self.reachable_from(terms):
            for clause in self.session.kb.all_clauses(indicator):
                if ignore_facts and clause.is_fact:
                    continue
                head = clause.head
                if isinstance(head, Struct) and any(
                    not isinstance(argument, Variable) for argument in head.args
                ):
                    return True
        return False

    # -- lookup ----------------------------------------------------------------------

    def scan(
        self, goal: Union[str, Term]
    ) -> tuple[Optional[GoalShape], Optional[Term]]:
        """``(shape, term)`` of a goal: a text whose skeleton is learned
        (:func:`~.global_opt.text_shape`) is not parsed, and its ``term``
        is None (``shape.goal()`` builds it).  No plan caching, no shape.
        """
        caching = self.session._plan_caching
        if isinstance(goal, str):
            shape = text_shape(goal) if caching else None
            if shape is not None:
                return shape, None
            goal = parse_goal(goal)
        return (goal_shape(goal) if caching else None), goal

    def lookup(self, goal: Term, mode: Mode, span=None, count: bool = True, shape=None):
        """sync → goal shape → plan cache: ``(shape, plan)``.

        ``plan`` is None on a miss.  ``shape`` is None when nothing may be
        stored for the goal — plan caching is off, the goal has no shape,
        or its shape is marked uncacheable (cold path, no recompilation
        attempt).  The open span records which of ``hit`` / ``miss`` /
        ``uncacheable`` it was; ``count=False`` leaves the hit/miss
        counters to a later lookup (the read-locked attempt of an ask
        that may restart on the write side).  ``shape`` is the goal's
        shape when the caller's :meth:`scan` already has it.
        """
        session = self.session
        plans = session.plans
        if session._plan_caching:
            mark = _pc() if span is not None else 0.0
            plans.sync(session.kb)
            if shape is None:
                shape = goal_shape(goal)
            if span is not None:
                # Inlined span.mark(): method-call frames on this path
                # are paid on every warm ask (E20 overhead budget).
                now = _pc()
                phases = span.phases
                phases["shape"] = phases.get("shape", 0.0) + (now - mark)
                mark = now
        if shape is None:
            if span is not None:
                span.plan_cache = "miss"
            return None, None
        if mode.prefix:
            shape = GoalShape(key=mode.prefix + shape.key, constants=shape.constants)
        plan = plans.peek(shape)
        if plan is None:
            status = "miss"
        elif plan is UNCACHEABLE:
            status = "uncacheable"
        else:
            status = "hit"
        if count and status != "uncacheable":
            plans.stats.incr("hits" if status == "hit" else "misses")
        if span is not None:
            span.shape_key = shape.key
            span.plan_cache = status
            if status == "hit":
                span.plan_kind = plan.kind
            phases["plan_lookup"] = phases.get("plan_lookup", 0.0) + (_pc() - mark)
        if status == "uncacheable":
            return None, None
        return shape, plan

    # -- cold compilation ------------------------------------------------------------

    def _phase(self, phase: str, started: float) -> float:
        """Accumulate one compile phase's wall clock; returns a new mark.

        Feeds both the session-wide :class:`CompilePhaseStats` and — when
        an ask span is open on this thread — that span's per-ask phase
        breakdown, so cold compiles are explainable from one trace record.
        """
        now = _pc()
        elapsed = now - started
        self.phases.incr(f"{phase}_seconds", elapsed)
        span = self.session.tracer.current_span()
        if span is not None:
            span.phases[phase] = span.phases.get(phase, 0.0) + elapsed
        return now

    def compile(
        self, goal: Term, mode: Mode, shape: Optional[GoalShape] = None
    ) -> Optional[CompiledPlan]:
        """Classify ``goal`` and compile the plan its shape will reuse.

        A goal with a shape and constants in its external block is
        parameterized here, at first sight, whatever the mode; it is
        compiled for exactly its constants only when it has no shape,
        the shape is known exact (:meth:`_strategy`), or the marker
        analysis finds it constant-sensitive or fails — an analysis
        that raises never fails the ask, and the exact plan's material
        records that the shape is not to be analysed again.  The plan
        is None only for a fetch whose view unfolds to fact branches
        alone: its answers are already in the internal database.
        """
        front = self._front(goal, mode)
        if isinstance(front, CompiledPlan):
            return front  # a 'recursive' / 'engine' stub compiles nothing
        conjunct_list = conjuncts(goal)
        # Constants inside internal conjuncts never reach the external
        # compilation, and the executor re-reads internal conjuncts from
        # the live goal — so they are neither parameterized nor part of
        # the variant key, and rotating them reuses one plan.
        relevant: frozenset = frozenset()
        plan = None
        if shape is not None:
            relevant = params_in_conjuncts(conjunct_list, front.external_indices)
            seed = self._strategy(shape, relevant)
            if relevant and seed != "exact":
                try:
                    plan = self._parameterize(shape, goal, front, relevant, seed)
                except Exception:  # noqa: BLE001 - the exact compile decides
                    plan = None
        if plan is None:
            mark = _pc()
            predicate = front.predicate(conjunct_list)
            if predicate is None:
                return None
            self._phase("metaevaluate", mark)
            plan = self._plan(front, self._lower(predicate, front), relevant)
        plan.columns = answer_columns(plan.template, answer_variables(goal))
        return plan

    def explain(self, goal: Term) -> TranslationTrace:
        """The whole goal through the chain, in the paper's row order."""
        targets = [v for v in variables_of(goal) if not v.is_anonymous]
        predicate = self.session.metaevaluator.metaevaluate(goal, targets=targets)
        whole = Front("external", self.options(), tuple(targets), (), (), None)
        result, _, sql, _, _ = self._lower(predicate, whole, order=False)
        return TranslationTrace(
            goal=goal,
            dbcl=predicate,
            simplification=result,
            sql=sql if sql is not None else empty_query(),
        )

    def fetch_predicate(self, goal: Term) -> Optional[DbclPredicate]:
        """The unsimplified DBCL predicate of a view's single rule branch.

        A view that was metaevaluated before carries its previous answers
        as asserted facts; unfolding now yields extra *fact branches* with
        no database calls.  Those answers are already in the internal
        database, so only the rule branch compiles — None when there is
        none.
        """
        metaevaluator = self.session.metaevaluator
        branches = [
            branch
            for branch in metaevaluator.collect_branches(goal)
            if branch.dbcalls
        ]
        if not branches:
            return None
        name = metaevaluator._default_name(goal)
        if len(branches) > 1:
            raise CouplingError(
                f"metaevaluate/4 on disjunctive view {name}; use "
                "ask_disjunctive instead"
            )
        targets = [v for v in variables_of(goal) if not v.is_anonymous]
        return metaevaluator.branch_to_dbcl(branches[0], name, targets)

    def _front(self, goal: Term, mode: Mode) -> Union[Front, CompiledPlan]:
        """Classify the goal: its :class:`Front`, or a plan that needs none."""
        session = self.session
        conjunct_list = conjuncts(goal)
        options = self.options(mode.optimize)
        if mode.name == "fetch":
            self.phases.incr("cold_compilations")
            return Front(
                "fetch",
                options,
                tuple(v for v in variables_of(goal) if not v.is_anonymous),
                tuple(range(len(conjunct_list))),
                (),
                lambda marked: self.fetch_predicate(conjoin(list(marked))),
            )
        consistent = mode.name == "cqa"
        graph = self.call_graph()
        if session._recursion.is_recursive(goal, graph):
            if consistent:
                raise CqaError(
                    "consistent answers are not defined for recursive goals: "
                    "neither the rewriting nor the repair enumeration covers "
                    "them (ROADMAP E19 scope)"
                )
            return session._recursion.compile(goal)
        mark = _pc()
        self.phases.incr("cold_compilations")
        try:
            split = plan_goal(session.kb, session.schema, goal, graph=graph)
        except DatabaseNegationError:
            raise  # the engine is never the right evaluator for this one
        except CouplingError as error:
            if consistent:
                raise CqaError(
                    f"goal mixes internal and external knowledge inside one "
                    f"view; repairs only range over the external store: {error}"
                ) from error
            # A "mixed" goal interleaves database and internal knowledge in
            # one view — the paper's programs handle these themselves by
            # calling metaevaluate/4 inside the rule (the partner example),
            # so ordinary Prolog resolution is the correct evaluator.
            return CompiledPlan(kind="engine")
        if consistent:
            if split.internal:
                raise CqaError(
                    "consistent answers need a pure-external conjunctive goal; "
                    "internal conjuncts have no repair semantics"
                )
            session._cqa.stats.incr("rewrite_compiles")
            kind = "cqa"
        elif not split.external:
            return CompiledPlan(kind="engine")
        else:
            kind = "mixed" if split.internal else "external"
        self._phase("classify", mark)
        index_of = {id(term): i for i, term in enumerate(conjunct_list)}
        external_indices = tuple(index_of[id(term)] for term in split.external)
        interface = set(split.interface_variables)
        fetch_targets = tuple(
            v
            for v in variables_of(conjoin(split.external))
            if not v.is_anonymous and v in interface
        )
        return Front(
            kind,
            options,
            fetch_targets,
            external_indices,
            tuple(index_of[id(term)] for term in split.internal),
            lambda marked: session.metaevaluator.metaevaluate(
                conjoin([marked[i] for i in external_indices]),
                targets=list(fetch_targets),
            ),
        )

    def _cost_ordered(self, result: SimplificationResult) -> DbclPredicate:
        """The simplified predicate, rows in the statistics-driven join order.

        Applied between Algorithm 2 and SQL translation: the order is
        computed on Algorithm 2's working tableau, and the simplified
        tableau's rows are permuted so the most selective relation leads
        and each join extends the cheapest prefix (System R estimates
        over the backend's relation statistics).  Answer-preserving by
        construction — see :mod:`repro.optimize.costs` — and skipped
        when the backend has no statistics service.
        """
        predicate = result.predicate
        if len(predicate.rows) <= 1:
            return predicate
        stats_of = getattr(self.session.database, "relation_statistics", None)
        if stats_of is None:
            return predicate
        try:
            return permuted(predicate, tableau_row_order(result.tableau, stats_of))
        except Exception:  # noqa: BLE001 - cost ordering is advisory
            return predicate

    def _lower(
        self,
        predicate: DbclPredicate,
        front: Front,
        open_params: frozenset = frozenset(),
        order: bool = True,
    ):
        """Algorithm 2 → cost order → SQL tree, for one DBCL predicate.

        Returns ``(simplification, final, sql, certainty, parameter_map)``:
        ``final`` is None when the predicate is provably empty, ``sql`` is
        None when there is nothing to send (a false ground comparison
        survived, or a consistent-mode goal must be enumerated —
        ``certainty`` is the peel order otherwise).  With ``open_params``
        the predicate carries markers (``parameter_map``: marker text →
        position), and any sign that their concrete values matter raises
        :class:`_ConstantSensitive`:

        * Algorithm 2 or the translator consulted a marker's *value* —
          every ordering decision about constants funnels through
          ``compare_values``, which a :func:`watch_marker_consultation`
          witness instruments; equality-only reasoning treats markers as
          distinct constants, which at worst under-simplifies
          (answer-preserving) or empties the marker plan (detected below);
        * the marker plan is empty (a constant interacted with the
          constraints, or a marker-free ground comparison is false for
          every constant choice — the exact path replays the empty);
        * a marker vanished from the simplified predicate (its
          restriction was reasoned away).
        """
        options = front.options
        watch = watch_marker_consultation if open_params else nullcontext
        mark = _pc()
        with watch() as witness:
            result = simplify(predicate, self.session.constraints, options)
        if open_params:
            if result.is_empty:
                raise _ConstantSensitive()
            if witness.consulted:
                # Attribute the consultation to the markers visible in
                # comparisons (the only place ordering reasoning reaches).
                raise _ConstantSensitive(
                    (
                        frozenset(markers_in_comparisons(predicate))
                        | frozenset(markers_in_comparisons(result.predicate))
                    )
                    & open_params
                )
            vanished = (
                open_params
                - frozenset(markers_in_rows(result.predicate))
                - frozenset(markers_in_comparisons(result.predicate))
            )
            if vanished:
                raise _ConstantSensitive(vanished)
        if result.is_empty:
            self._phase("optimize", mark)
            return result, None, None, None, {}
        final = result.predicate
        if order and options != SimplifyOptions.none():
            # Cardinality estimates never consult a marker's concrete
            # value, so the order is the one a cold compile applies.
            final = self._cost_ordered(result)
        mark = self._phase("optimize", mark)
        parameter_map = {str(marker_for(index)): index for index in open_params}
        certainty = None
        if front.kind == "cqa":
            certainty = self.session._cqa.certainty_order(final)
            if certainty is None:
                return result, final, None, None, parameter_map
        try:
            with watch() as witness:
                sql = translate(
                    final, distinct=True, parameters=parameter_map or None
                )
        except TranslationError:
            if open_params:
                raise _ConstantSensitive() from None
            raise
        if open_params and (witness.consulted or sql.is_empty):
            raise _ConstantSensitive()
        self._phase("translate", mark)
        return result, final, None if sql.is_empty else sql, certainty, parameter_map

    def _plan(
        self,
        front: Front,
        lowered,
        relevant: frozenset,
        open_params: frozenset = frozenset(),
        param_cells: Optional[dict] = None,
    ) -> CompiledPlan:
        """Prepare the lowered predicate's statement and wrap it as a plan.

        ``relevant`` are the constant positions of the external block;
        those not left open are the plan's material.
        """
        result, final, sql, certainty, parameter_map = lowered
        kind = front.kind
        parameters = dict(
            material=tuple(sorted(relevant - open_params)),
            open_params=tuple(sorted(open_params)),
            param_columns={
                index: (param_cells or {}).get(index, ()) for index in open_params
            },
            fetch_targets=front.fetch_targets,
            internal_indices=front.internal_indices,
        )
        if final is None:
            # Proved empty; the pre-simplification predicate is the trace.
            return CompiledPlan(
                kind=kind, is_empty=True, template=result.original, **parameters
            )
        if sql is None:
            if kind == "cqa" and certainty is None:
                # Not first-order rewritable: the plan carries only the
                # template for the repair enumerator.
                return CompiledPlan(kind="cqa_enum", template=final, **parameters)
            return CompiledPlan(
                kind=kind, is_empty=True, template=final, **parameters
            )
        mark = _pc()
        text = self.session.database.prepare(sql)
        self._phase("print", mark)
        bind_order = sql.parameter_order()
        if kind == "cqa":
            # The tree is dropped: an ``IN (VALUES …)`` batch variant
            # would let one goal's answer satisfy another goal's
            # certainty condition, so consistent plans never batch.
            text, bind_order = self.session._cqa.rewritten(
                final, certainty, sql, text, parameter_map
            )
            sql = None
        return CompiledPlan(
            kind=kind,
            template=final,
            sql_text=text,
            sql=sql if open_params else None,
            bind_order=bind_order,
            **parameters,
        )

    # -- filling the plan cache --------------------------------------------------------

    def store(self, shape: GoalShape, plan: CompiledPlan) -> None:
        """File ``plan`` under its shape, keyed by its own material."""
        # retain, not sync: executing the plan may have advanced the
        # program clock (a fetch's answer facts), but this shape's own
        # cache slot stays valid across its own side effects.
        plans = self.session.plans
        plans.retain(shape, self.session.kb)
        plans.store(shape, plan.material, plan)

    def _strategy(
        self, shape: GoalShape, relevant: frozenset
    ) -> Union[str, frozenset]:
        """How to compile a missed shape, given its cache history.

        * ``"exact"`` — every relevant constant is already known to be
          material (the analysis found the shape constant-sensitive, or
          failed): compile another exact variant without re-running it;
        * a frozenset — run the marker analysis, seeded with the material
          set discovered previously (empty at first sight; a partially
          material shape compiling a new variant skips the discovery
          iterations).
        """
        entry = self.session.plans.entry_for(shape)
        if entry is None or entry.uncacheable:
            return frozenset()
        if entry.material == tuple(sorted(relevant)):
            return "exact"
        return frozenset(entry.material) & relevant

    def _parameterize(
        self,
        shape: GoalShape,
        goal: Term,
        front: Front,
        relevant: frozenset,
        initial_material: frozenset,
    ) -> Optional[CompiledPlan]:
        """Find the maximal parameterization of a shape, compile it.

        Starts with every relevant constant abstracted to a marker and
        grows the *material* set (constants the compilation must see
        concretely) until the marker compilation is provably
        constant-insensitive (see :meth:`_lower`).  Consistent-mode
        shapes get one round: any sensitivity sends them to exact plans.

        Returns None when every position is material — the caller falls
        back to an exact-constant compile.  Shapes whose reachable clauses
        pattern-match on constants in their heads cannot be parameterized
        at all (a marker would fail a head unification a concrete constant
        might pass).
        """
        conjunct_list = conjuncts(goal)
        if self._constant_discriminating(
            [conjunct_list[i] for i in front.external_indices],
            ignore_facts=front.kind == "fetch",
        ):
            return None
        irrelevant = frozenset(range(shape.parameter_count)) - relevant
        material = frozenset(initial_material) & relevant
        for _attempt in range(1 if front.kind == "cqa" else 4):
            if material == relevant:
                break
            # Irrelevant (internal-conjunct) constants keep their concrete
            # values: they never reach the compiled predicate anyway.
            marker_goal = goal_with_markers(goal, material | irrelevant)
            mark = _pc()
            predicate = front.predicate(conjuncts(marker_goal))
            if predicate is None:
                raise CouplingError("view shape is not a single rule branch")
            self._phase("metaevaluate", mark)
            open_params = relevant - material
            try:
                lowered = self._lower(predicate, front, open_params)
            except _ConstantSensitive as sensitive:
                if not sensitive.params:
                    break
                material |= sensitive.params
                continue
            return self._plan(
                front, lowered, relevant, open_params, marker_columns(predicate)
            )
        return None
