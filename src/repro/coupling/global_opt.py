"""Global optimization: splitting goals between PROLOG and the DBMS.

Paper section 2 assigns "global optimize" two functions: decide which
parts of a DBCL expression can be evaluated using the internal PROLOG
database versus the external DBMS, and decide whether query results
should be stored for future reference.

:func:`classify_conjuncts` sorts the conjuncts of a goal by where their
evaluation must happen (reachability over the view call graph), and
:func:`plan_goal` produces an execution plan: one *external block* to be
metaevaluated, simplified, translated, and fetched, plus the *internal
remainder* to be resolved tuple-at-a-time over the fetched answers.

:class:`ResultCache` implements the storage decision with a simple,
inspectable policy: results up to a row bound, keyed by the prepared
statement and its bind values, and stale once a base relation they read
has moved its data generation.

:class:`PlanCache` implements the *compile-once* half of the storage
decision: two goals that differ only in their constants (``works_for(X,
'emp00001')`` vs ``works_for(X, 'emp00042')``) share one compiled plan —
classification, metaevaluation, Algorithm 2, SQL translation, and SQL
printing all happen once per goal *shape*; subsequent asks bind the new
constants into a prepared statement.  Shapes whose simplification
consulted a concrete constant value fall back to exact-constant variants
so warm answers stay identical to fresh compilation (see
:func:`goal_shape` and :mod:`repro.coupling.compiler`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

from ..concurrency import LockedCounters, StripedLock
from ..dbcl.predicate import DbclPredicate
from ..dbcl.symbols import ConstSymbol, ParamMarker, is_param_marker
from ..errors import CouplingError, DatabaseNegationError, PrologSyntaxError
from ..metaevaluate.recursion import (
    CallGraph,
    descendants,
    recursive_indicators as _recursive_indicators,
    view_call_graph,
)
from ..prolog.knowledge_base import KnowledgeBase
from ..prolog.reader import parse_goal, slot_value, split_slots
from ..prolog.terms import (
    COMPARISON_PREDICATES,
    Atom,
    Number,
    PString,
    Struct,
    Term,
    Variable,
    conjuncts,
    goal_indicator,
    variables_of,
)
from ..schema.catalog import DatabaseSchema
from ..schema.constraints import ConstraintSet

Kind = str  # 'external' | 'internal' | 'comparison' | 'mixed'

Value = Union[int, float, str]


def is_database_indicator(schema: DatabaseSchema, indicator: tuple[str, int]) -> bool:
    """Does ``name/arity`` name a base relation of the schema?"""
    name, arity = indicator
    return schema.has_relation(name) and schema.relation(name).arity == arity


def reachable(
    graph: CallGraph, indicators: Iterable[tuple[str, int]]
) -> set[tuple[str, int]]:
    """The indicators plus everything they call, transitively.

    The one walk over the view call graph: classification, the
    constant-discrimination test and the consistent mode's relation
    probe all ask this question.
    """
    found: set[tuple[str, int]] = set()
    for indicator in indicators:
        found.add(indicator)
        found |= descendants(graph, indicator)
    return found


def classify_conjuncts(
    kb: KnowledgeBase,
    schema: DatabaseSchema,
    goal: Term,
    graph: Optional[CallGraph] = None,
) -> list[tuple[Term, Kind]]:
    """Label each conjunct of ``goal``.

    * ``external`` — bottoms out exclusively in database relations and
      comparisons: the metaevaluator can compile it away entirely;
    * ``internal`` — never reaches a database relation (pure expert-system
      knowledge such as the ``specialist`` facts of Example 4-1);
    * ``comparison`` — a builtin comparison, attachable to either side;
    * ``mixed`` — reaches both kinds of leaves; the caller must restructure
      (the paper's stepwise-evaluation extension handles these).

    ``not/1`` over internal predicates is ``internal``; over anything that
    reaches a database relation it raises ``DatabaseNegationError``.

    ``graph`` lets callers reuse a memoized view call graph (see
    :meth:`PlanCache.graph`) instead of rebuilding it per classification.
    """
    if graph is None:
        graph = view_call_graph(kb, schema)
    classified: list[tuple[Term, Kind]] = []
    for subgoal in conjuncts(goal):
        try:
            indicator = goal_indicator(subgoal)
        except ValueError:
            raise CouplingError(f"cannot classify non-callable goal {subgoal}")
        name, arity = indicator
        if arity == 2 and name in COMPARISON_PREDICATES:
            classified.append((subgoal, "comparison"))
            continue
        if is_database_indicator(schema, indicator):
            classified.append((subgoal, "external"))
            continue
        if indicator == ("not", 1) and not isinstance(subgoal.args[0], Variable):
            # (the reader spells ``\\+ G`` as ``not(G)`` too)
            negated = classify_conjuncts(kb, schema, subgoal.args[0], graph)
            if any(kind in ("external", "mixed") for _, kind in negated):
                raise DatabaseNegationError(
                    f"goal {subgoal} negates over the database; "
                    "use PrologDbSession.ask_with_negation"
                )
            classified.append((subgoal, "internal"))
            continue
        called = reachable(graph, (indicator,))
        db_leaves = {i for i in called if is_database_indicator(schema, i)}
        defined = {i for i in called if kb.has_procedure(i)}
        plain_leaves = {
            i
            for i in called
            if i not in db_leaves
            and not kb.has_procedure(i)
            and not (i[1] == 2 and i[0] in COMPARISON_PREDICATES)
        }
        if db_leaves and not plain_leaves:
            # Distinguish "compiles fully to the database" from "also uses
            # internal facts": a view whose every non-database callee is
            # itself database-translatable is external.
            internal_fact_preds = {
                i
                for i in defined
                if not any(
                    is_database_indicator(schema, other)
                    for other in reachable(graph, (i,))
                )
            }
            if internal_fact_preds - {indicator}:
                classified.append((subgoal, "mixed"))
            else:
                classified.append((subgoal, "external"))
        elif db_leaves:
            classified.append((subgoal, "mixed"))
        else:
            classified.append((subgoal, "internal"))
    return classified


@dataclass
class ExecutionPlan:
    """How a goal will be evaluated across the coupling boundary."""

    #: conjuncts shipped to the metaevaluator (order preserved)
    external: list[Term]
    #: conjuncts resolved in Prolog after the fetch (order preserved)
    internal: list[Term]
    #: variables shared between the two sides (must be fetched)
    interface_variables: list[Variable]
    #: target variables of the whole goal
    goal_variables: list[Variable]


def plan_goal(
    kb: KnowledgeBase,
    schema: DatabaseSchema,
    goal: Term,
    graph: Optional[CallGraph] = None,
) -> ExecutionPlan:
    """Split a conjunctive goal into external and internal parts.

    Comparisons join the external block when every variable they use is
    produced there (the DBMS can evaluate them); otherwise they stay
    internal.  Mixed conjuncts are rejected with guidance.
    """
    classified = classify_conjuncts(kb, schema, goal, graph=graph)
    for subgoal, kind in classified:
        if kind == "mixed":
            raise CouplingError(
                f"goal {subgoal} mixes database and internal knowledge; "
                "split the view or use repro.extensions.stepwise"
            )

    external = [g for g, kind in classified if kind == "external"]
    internal = [g for g, kind in classified if kind == "internal"]
    external_vars = {v for g in external for v in variables_of(g)}

    for subgoal, kind in classified:
        if kind != "comparison":
            continue
        used = set(variables_of(subgoal))
        if external and used <= external_vars:
            external.append(subgoal)
        else:
            internal.append(subgoal)

    goal_vars = [v for v in variables_of(goal) if not v.is_anonymous]
    internal_vars = {v for g in internal for v in variables_of(g)}
    # every answer variable the external block binds, used internally or not
    interface = [v for v in goal_vars if v in external_vars]
    # Variables shared between blocks but not in the answer still must
    # cross the interface.
    for variable in sorted(external_vars & internal_vars, key=str):
        if variable not in interface and not variable.is_anonymous:
            interface.append(variable)

    return ExecutionPlan(
        external=external,
        internal=internal,
        interface_variables=interface,
        goal_variables=goal_vars,
    )


# -- goal shapes (parameterized plans) ---------------------------------------------

#: Marker prefix for plan parameters; the trailing index is recoverable.
_PARAM_PREFIX = "$plan_param_"


def marker_for(index: int) -> ParamMarker:
    """The placeholder constant standing for goal parameter ``index``."""
    return ParamMarker(f"{_PARAM_PREFIX}{index}$")


def marker_index(marker: str) -> int:
    """Recover the parameter index from a marker's text."""
    return int(marker[len(_PARAM_PREFIX):-1])


@dataclass(frozen=True)
class GoalShape:
    """A goal with its constants abstracted to parameters.

    ``key`` is hashable and invariant under constant choice *and* variable
    ordinals; ``constants`` holds the concrete values in goal-traversal
    order.  Variables are keyed by source name plus first-occurrence index
    — the name is what answer columns and interface predicates join on,
    while the ordinal only distinguishes renamed-apart copies (the engine
    renames clause variables per resolution, so an ordinal-sensitive key
    would never repeat for goals built inside rule bodies).  Two goals
    with equal keys are identical up to constants, so a compiled plan for
    one answers the other after parameter binding.
    """

    key: tuple
    constants: tuple
    #: the parse of a :func:`text_shape` probe (``'$slotN$'`` markers at
    #: the constant positions); None for a shape taken from a parsed goal
    template: Optional[Term] = field(default=None, compare=False, repr=False)

    @property
    def parameter_count(self) -> int:
        return len(self.constants)

    def goal(self) -> Term:
        """The goal a scanned shape stands for: its template, constants in."""
        return _fill(self.template, iter(self.constants))


@lru_cache(maxsize=4096)
def shape_digest(key: tuple) -> str:
    """A short stable hex digest naming one goal shape.

    The digest is the public identity of a shape in trace records and
    latency histograms — stable across sessions and processes (unlike
    ``hash``, which is salted), short enough to read in a log line, and
    memoized because the tracer computes it once per committed span.
    """
    from hashlib import blake2b  # on first use: it loads OpenSSL (3.6 MB RSS)
    return blake2b(repr(key).encode("utf-8"), digest_size=6).hexdigest()


def _constant_value(term: Term) -> Optional[Value]:
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Number):
        return term.value
    if isinstance(term, PString):
        return term.value
    return None


def goal_shape(goal: Term) -> Optional[GoalShape]:
    """Canonicalize a conjunctive goal to its shape, or None if unshapeable.

    Only flat conjunctions of calls over variables and constants — the
    function-free fragment the coupling pipeline accepts — have a shape;
    anything else (nested structures, lists) is reported uncacheable and
    always takes the cold path.
    """
    constants: list[Value] = []
    key_parts: list[tuple] = []
    variable_index: dict[Variable, int] = {}
    name_owner: dict[str, Variable] = {}
    for subgoal in conjuncts(goal):
        if isinstance(subgoal, Atom):
            key_parts.append(("a", subgoal.name))
            continue
        if not isinstance(subgoal, Struct):
            return None
        arg_keys: list[tuple] = []
        for argument in subgoal.args:
            if isinstance(argument, Variable):
                index = variable_index.get(argument)
                if index is None:
                    if name_owner.setdefault(argument.name, argument) != argument:
                        # Two distinct variables sharing a source name
                        # would collide in answer columns; leave such
                        # goals to the cold path.
                        return None
                    index = len(variable_index)
                    variable_index[argument] = index
                arg_keys.append(("v", argument.name, index))
                continue
            value = _constant_value(argument)
            if value is None:
                return None  # nested structure: not a flat conjunctive goal
            arg_keys.append(("p", len(constants)))
            constants.append(value)
        key_parts.append((subgoal.functor, tuple(arg_keys)))
    return GoalShape(key=tuple(key_parts), constants=tuple(constants))


def _fill(term: Term, values) -> Term:
    """``term`` with each constant argument of its conjuncts replaced by
    the next of ``values`` (:func:`goal_shape`'s traversal order)."""
    if not isinstance(term, Struct):
        return term
    if term.functor == "," and len(term.args) == 2:
        return Struct(",", tuple([_fill(part, values) for part in term.args]))
    return Struct(term.functor, tuple([
        arg if isinstance(arg, Variable)
        else Atom(value) if isinstance(value := next(values), str)
        else Number(value)
        for arg in term.args
    ]))


# -- goal skeletons: a goal text's shape without its parse -----------------------

#: Skeletons held before the map starts over.  One map serves the process:
#: which skeleton has which shape is a fact of the syntax, not of a session.
_MAX_SKELETONS = 1024
#: A skeleton seen once, and one whose texts must always parse.
_SEEN_ONCE = object()
_UNLEARNABLE = object()
_skeletons: dict[tuple, object] = {}


def text_shape(text: str) -> Optional[GoalShape]:
    """The shape of goal ``text`` from its skeleton, or None: parse it.

    The skeleton is the text without its argument-position constants
    (:func:`~repro.prolog.reader.split_slots`); it is learned on its
    second sight (:func:`_learn`).  Concurrent callers may learn one
    skeleton twice; both store the same value.
    """
    parts = split_slots(text)
    skeleton = tuple(parts[0::2])
    learned = _skeletons.get(skeleton)
    if learned.__class__ is not tuple:
        if learned is _UNLEARNABLE:
            return None
        if len(_skeletons) >= _MAX_SKELETONS:
            _skeletons.clear()
        # A skeleton that never repeats costs one split beside its parse.
        learned = (
            _SEEN_ONCE if learned is None else _learn(skeleton, text, parts[1::2])
        )
        _skeletons[skeleton] = learned
        if learned.__class__ is not tuple:
            return None
    key, template = learned
    return GoalShape(key, tuple(map(slot_value, parts[1::2])), template)


def _learn(pieces: tuple, text: str, tokens: list):
    """``(shape key, template)`` for a skeleton, or :data:`_UNLEARNABLE`.

    The probe, a distinct quoted marker in each slot, must parse to
    exactly the markers as shape constants, in order, and the text to
    the probe's key with the decoded tokens.  The text alone is not
    enough: in ``empl(E, N, S, D), c, S > c`` the one slot is the
    conjunct ``c`` and the one constant is ``greater``'s.
    """
    markers = tuple(f"$slot{index}$" for index in range(len(tokens)))
    probe = pieces[0] + "".join(
        f"'{marker}'{piece}" for marker, piece in zip(markers, pieces[1:])
    )
    try:
        template = parse_goal(probe)
        shape = goal_shape(template)
        if shape is None or shape.constants != markers:
            return _UNLEARNABLE
        values = tuple(map(slot_value, tokens))
        if goal_shape(parse_goal(text)) != GoalShape(shape.key, values):
            return _UNLEARNABLE
    except (PrologSyntaxError, ValueError):
        return _UNLEARNABLE
    return shape.key, template


def goal_with_markers(goal: Term, material: frozenset[int]) -> Term:
    """Rebuild ``goal`` with marker atoms at non-material constant positions.

    Parameter numbering follows the same traversal as :func:`goal_shape`;
    constants whose index is in ``material`` keep their concrete value
    (the plan is specialised on them).
    """
    from ..prolog.terms import conjoin

    counter = [0]

    def rebuild(subgoal: Term) -> Term:
        if not isinstance(subgoal, Struct):
            return subgoal
        new_args: list[Term] = []
        for argument in subgoal.args:
            if isinstance(argument, Variable):
                new_args.append(argument)
                continue
            index = counter[0]
            counter[0] += 1
            if index in material:
                new_args.append(argument)
            else:
                new_args.append(Atom(marker_for(index)))
        return Struct(subgoal.functor, tuple(new_args))

    return conjoin([rebuild(g) for g in conjuncts(goal)])


def _marker_indices(symbols: Iterable) -> set[int]:
    return {
        marker_index(symbol.value)
        for symbol in symbols
        if isinstance(symbol, ConstSymbol) and is_param_marker(symbol.value)
    }


def markers_in_comparisons(predicate: DbclPredicate) -> set[int]:
    """Parameter indices whose marker occurs in any Relcomparison."""
    return _marker_indices(
        side for comparison in predicate.comparisons for side in comparison.symbols()
    )


def markers_in_rows(predicate: DbclPredicate) -> set[int]:
    """Parameter indices whose marker occurs in some tableau cell."""
    return _marker_indices(entry for row in predicate.rows for entry in row.entries)


def marker_columns(
    predicate: DbclPredicate,
) -> dict[int, tuple[tuple[str, str], ...]]:
    """Per parameter: the (relation, attribute) cells its marker occupies.

    Computed on the *unsimplified* predicate so bind-time bound checks see
    every column a constant would have been checked against by a fresh
    compilation's ``check_constants``.
    """
    schema = predicate.schema
    columns: dict[int, list[tuple[str, str]]] = {}
    for row in predicate.rows:
        for column, entry in enumerate(row.entries):
            if isinstance(entry, ConstSymbol) and is_param_marker(entry.value):
                columns.setdefault(marker_index(entry.value), []).append(
                    (row.tag, schema.attribute_names[column])
                )
    return {index: tuple(cells) for index, cells in columns.items()}


@dataclass
class CompiledPlan:
    """A reusable, parameter-bindable compilation of one goal shape.

    ``kind``:

    * ``engine`` — resolved entirely by Prolog (pure internal, or the
      mixed-view fallback); nothing is compiled;
    * ``recursive`` — routed to the transitive-closure executor (the
      view, bound side and answer variable in ``closure_call``);
    * ``external`` / ``mixed`` — the external block compiled to SQL; a
      mixed plan additionally records which conjuncts stay internal.

    ``template`` carries marker constants at ``open_params`` positions.
    Execution needs only :meth:`bind_is_empty` (the valuebound checks a
    fresh compile would have applied) and :meth:`bind_values`;
    :meth:`bind` substitutes the values into the template for the
    readers of a bound predicate (fetch, mixed plan, repairs).
    ``material`` are the positions compiled concretely — the plan is
    filed under their values (see :class:`ShapeEntry`).
    """

    kind: str
    material: tuple[int, ...] = ()
    template: Optional[DbclPredicate] = None
    sql_text: Optional[str] = None
    #: the parameterized syntax tree behind ``sql_text`` — the batch path
    #: derives its ``IN (VALUES …)`` variants from it.
    sql: Optional[object] = None
    bind_order: tuple[int, ...] = ()
    open_params: tuple[int, ...] = ()
    param_columns: dict[int, tuple[tuple[str, str], ...]] = field(
        default_factory=dict
    )
    fetch_targets: tuple[Variable, ...] = ()
    internal_indices: tuple[int, ...] = ()
    is_empty: bool = False
    #: a ``recursive`` plan's :class:`~.recursion_router.ClosureCall`
    closure_call: Optional[object] = None
    #: ``(row position, variable name)`` per answer column, set at compile
    #: time (the shape key names every variable, so they never change)
    columns: Optional[list] = None
    #: lazily-built prepared batch statements, keyed by batch size; False
    #: once the shape is proven unbatchable (no equality column for some
    #: parameter).  Guarded by ``_batch_lock``.
    _batch_texts: dict[int, str] = field(default_factory=dict, repr=False)
    _batchable: Optional[bool] = field(default=None, repr=False)
    _batch_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def executes_sql(self) -> bool:
        return self.kind in ("external", "mixed") and not self.is_empty

    def bind(
        self, constants: Sequence[Value], constraints: ConstraintSet
    ) -> Optional[DbclPredicate]:
        """The template with concrete constants, or None if provably empty.

        Replays ``check_constants`` for the parameter positions: a value
        outside the declared domain of any column its marker occupied
        proves the query empty, exactly as the fresh compile would have.
        """
        if self.bind_is_empty(constants, constraints):
            return None
        if not self.open_params:
            return self.template
        mapping = {
            ConstSymbol(marker_for(index)): ConstSymbol(constants[index])
            for index in self.open_params
        }
        assert self.template is not None
        return self.template.rename(mapping)

    def bind_is_empty(
        self, constants: Sequence[Value], constraints: ConstraintSet
    ) -> bool:
        """The cheap half of :meth:`bind`: just the valuebound re-checks."""
        for index in self.open_params:
            value = constants[index]
            for relation, attribute in self.param_columns.get(index, ()):
                bound = constraints.bound_for(relation, attribute)
                if bound is not None and not bound.contains(value):
                    return True
        return False

    def bind_values(self, constants: Sequence[Value]) -> list[Value]:
        """Positional parameter values in the prepared statement's order."""
        return [constants[index] for index in self.bind_order]

    # -- set-oriented batch execution -------------------------------------------

    def batch_statement(self, database, batch_size: int) -> Optional[str]:
        """Prepared text answering ``batch_size`` constant tuples at once.

        Built (and cached per batch size) from the parameterized syntax
        tree by :func:`repro.sql.translate.batch_variant`; ``None`` when
        this plan cannot be batched (no stored tree, a parameter with no
        equality column, or an empty/partial plan).
        """
        if not self.executes_sql or self.is_empty or not self.open_params:
            return None
        with self._batch_lock:
            if self._batchable is False:
                return None
            text = self._batch_texts.get(batch_size)
            if text is not None:
                return text
            if self.sql is None:
                self._batchable = False
                return None
            from ..sql.translate import batch_variant

            variant = batch_variant(self.sql, self.open_params, batch_size)
            if variant is None:
                self._batchable = False
                return None
            self._batchable = True
            text = database.prepare(variant)
            self._batch_texts[batch_size] = text
            return text

    def batch_bind_values(
        self, batch: Sequence[Sequence[Value]]
    ) -> list[Value]:
        """Bind values for :meth:`batch_statement`, row-major per member."""
        return [
            constants[index] for constants in batch for index in self.open_params
        ]


@dataclass
class ShapeEntry:
    """Cache slot for one goal shape.

    ``material`` are parameter positions whose concrete value the
    compilation consulted (they select among ``variants``); an empty
    material set means one fully parameterized plan serves every constant
    choice.  ``uncacheable`` shapes always recompile.  The slot is filled
    the first time the shape is seen, by the plan every later ask of it
    will use; a shape whose every relevant constant is material adds
    further exact variants without re-running the marker analysis.
    """

    material: tuple[int, ...] = ()
    variants: dict[tuple, CompiledPlan] = field(default_factory=dict)
    uncacheable: bool = False

    def variant_key(self, constants: Sequence[Value]) -> tuple:
        return tuple(constants[index] for index in self.material)


@dataclass
class PlanCacheStats(LockedCounters):
    hits: int = 0
    misses: int = 0
    compiled: int = 0
    specialised: int = 0  # constant-sensitive variants compiled
    uncacheable: int = 0  # shapes (not asks) marked uncacheable
    invalidations: int = 0
    bind_empties: int = 0
    batched_asks: int = 0  # goals answered through a set-oriented batch
    batch_executions: int = 0  # IN (VALUES …) statements executed
    recursive_batches: int = 0  # batch-seeded WITH RECURSIVE executions


#: Bounds of the plan cache: shapes held, and exact-constant variants
#: held per shape; the oldest entry makes room for a new one.
_MAX_SHAPES = 512
_MAX_VARIANTS = 64

#: Sentinel :meth:`PlanCache.lookup` returns for shapes marked uncacheable,
#: so callers skip both plan execution *and* recompilation attempts.
UNCACHEABLE = object()


class PlanCache:
    """Compiled plans per goal shape, pinned to the program clock.

    Also memoizes the view call graph and the recursive-indicator set —
    the per-ask graph rebuilds classification used to pay for.  Any
    *program* change (``consult``, a rule or a non-schema fact asserted
    or retracted) advances ``KnowledgeBase.generation`` and empties the
    cache on the next :meth:`sync`; a base-relation tuple never does.
    """

    def __init__(self):
        self.stats = PlanCacheStats()
        self._entries: dict[tuple, ShapeEntry] = {}
        self._generation: Optional[int] = None
        self._graph: Optional[CallGraph] = None
        self._recursive: Optional[set[tuple[str, int]]] = None
        #: Per-shape critical sections stripe by shape key so concurrent
        #: warm asks of *different* shapes never contend; whole-cache
        #: operations (sync's clear, eviction, the memoized analyses)
        #: take ``_structure``.  Stripe→structure is the only nesting
        #: order, so the two levels cannot deadlock.
        self._stripes = StripedLock()
        self._structure = threading.RLock()

    def __len__(self) -> int:
        with self._structure:
            return sum(
                len(entry.variants)
                for entry in self._entries.values()
                if not entry.uncacheable
            )

    def sync(self, kb: KnowledgeBase) -> None:
        """Drop everything if the knowledge base changed underneath us."""
        if self._generation == kb.generation:
            return  # racy fast path: generation reads are atomic ints
        with self._structure:
            if self._generation == kb.generation:
                return
            if self._entries or self._graph is not None:
                self.stats.incr("invalidations")
            self._entries.clear()
            self._graph = None
            self._recursive = None
            self._generation = kb.generation

    def invalidate(self) -> None:
        with self._structure:
            self._entries.clear()
            self._graph = None
            self._recursive = None
            self._generation = None

    # -- memoized call-graph analyses ------------------------------------------

    def graph(self, kb: KnowledgeBase, schema: DatabaseSchema) -> CallGraph:
        self.sync(kb)
        with self._structure:
            if self._graph is None:
                self._graph = view_call_graph(kb, schema)
            return self._graph

    def recursive_indicators(
        self, kb: KnowledgeBase, schema: DatabaseSchema
    ) -> set[tuple[str, int]]:
        self.sync(kb)
        with self._structure:
            if self._recursive is None:
                self._recursive = _recursive_indicators(
                    kb, schema, graph=self.graph(kb, schema)
                )
            return self._recursive

    # -- plan lookup/storage ----------------------------------------------------

    def lookup(self, shape: GoalShape):
        """The cached plan, the :data:`UNCACHEABLE` sentinel, or None.

        The sentinel tells the caller to take the cold path *without*
        attempting another compilation — a shape marked uncacheable would
        fail (or be rejected) identically on every retry.
        """
        with self._stripes.for_key(shape.key):
            plan = self.peek(shape)
        if plan is None:
            self.stats.incr("misses")
        elif plan is not UNCACHEABLE:
            self.stats.incr("hits")
        return plan

    def peek(self, shape: GoalShape):
        """:meth:`lookup` without the stripe lock or the hit/miss counters.

        The session's ask driver resolves plans through this: its asks
        already hold the knowledge base's read or write lock, and it
        counts a lookup only once it knows which side answers it.
        """
        entry = self._entries.get(shape.key)
        if entry is None:
            return None
        if entry.uncacheable:
            return UNCACHEABLE
        return entry.variants.get(entry.variant_key(shape.constants))

    def entry_for(self, shape: GoalShape) -> Optional[ShapeEntry]:
        """The raw cache slot for a shape (no stats accounting)."""
        return self._entries.get(shape.key)

    def store(
        self, shape: GoalShape, material: Iterable[int], plan: CompiledPlan
    ) -> None:
        material_key = tuple(sorted(material))
        with self._stripes.for_key(shape.key):
            entry = self._entries.get(shape.key)
            if entry is None or entry.uncacheable or entry.material != material_key:
                replaced = entry is not None
                entry = ShapeEntry(material=material_key)
                # Dict *writes* additionally hold _structure so whole-dict
                # walkers (__len__, eviction, sync's clear) never see the
                # mapping resize mid-iteration.
                with self._structure:
                    if not replaced:
                        # Overwriting an existing key does not grow the
                        # dict, so evicting would needlessly drop an
                        # unrelated shape's plan.
                        self._evict_shapes()
                    self._entries[shape.key] = entry
            if len(entry.variants) >= _MAX_VARIANTS:
                entry.variants.pop(next(iter(entry.variants)))
            entry.variants[entry.variant_key(shape.constants)] = plan
        self.stats.incr("compiled")
        if material_key:
            self.stats.incr("specialised")

    def mark_uncacheable(self, shape: GoalShape) -> None:
        with self._stripes.for_key(shape.key):
            existing = self._entries.get(shape.key)
            if existing is not None and existing.uncacheable:
                return
            with self._structure:
                if existing is None:
                    self._evict_shapes()
                self._entries[shape.key] = ShapeEntry(uncacheable=True)
        self.stats.incr("uncacheable")

    def evict(self, shape: GoalShape) -> bool:
        """Drop one shape's entry (all variants); True if anything was cached.

        The resilient serving path calls this when a warm plan fails
        *permanently* at execution time — a prepared statement referencing
        a dropped backend table, say — so the next ask for the shape
        recompiles cold instead of re-failing warm forever.  Stripe→
        structure is the cache's one nesting order (see ``__init__``).
        """
        with self._stripes.for_key(shape.key):
            with self._structure:
                return self._entries.pop(shape.key, None) is not None

    def retain(self, shape: GoalShape, kb: KnowledgeBase) -> None:
        """Keep one shape's entry alive across a self-inflicted bump.

        A warm fetch that asserts *new* answer facts advances the KB
        generation exactly as its cold counterpart does; the cold path
        then recompiles and re-stores its plan under the new generation.
        This is the warm path's equivalent: every other plan is dropped
        (they may be stale against the new facts) but the entry that just
        executed — whose validity is unaffected by answer facts under its
        own view, since the fetch path filters fact branches — survives.
        """
        if self._generation == kb.generation:
            return
        with self._stripes.for_key(shape.key):
            entry = self._entries.get(shape.key)
            self.sync(kb)
            if entry is not None:
                with self._structure:
                    self._entries[shape.key] = entry

    def _evict_shapes(self) -> None:
        while len(self._entries) >= _MAX_SHAPES:
            self._entries.pop(next(iter(self._entries)))


# -- result storage -----------------------------------------------------------------


@dataclass
class CachePolicy:
    """When is a query result worth storing? (paper section 2, function 2)

    Disabled, every lookup misses and every store is rejected, unkeyed.
    """

    max_rows: int = 10_000
    enabled: bool = True

    def should_store(self, row_count: int) -> bool:
        return self.enabled and row_count <= self.max_rows


@dataclass
class CacheStats(LockedCounters):
    hits: int = 0
    misses: int = 0
    stored: int = 0
    rejected: int = 0


class ResultCache:
    """A stamped memo of prepared statements: key → rows.

    The session's key is ``(sql_text, bind values)``, values in bind
    order (two shapes may share a text but order their parameters
    differently).  Goals differing only in variable names share a text,
    hence an entry; a program change changes the text, hence the key.

    One freshness rule: an entry is stamped with the ``generation`` (the
    backend's ``data_generation``) of each base relation its statement
    reads, taken before the read; a lookup whose stamp has moved is a
    miss and drops the entry.  Every base write moves a generation —
    through the session (whatever its route) or straight to the backend.
    """

    def __init__(
        self,
        policy: Optional[CachePolicy] = None,
        *,
        generation: Callable[[str], int],
    ):
        self.policy = policy if policy is not None else CachePolicy()
        self._generation = generation
        #: key → (rows, stamp); entry access holds the key's stripe
        self._entries: dict[object, tuple[list[tuple], tuple]] = {}
        self.stats = CacheStats()
        self._stripes = StripedLock()

    def lookup(self, key) -> Optional[list[tuple]]:
        """Fresh rows stored under ``key``, else None (a miss)."""
        if not self.policy.enabled:
            self.stats.incr("misses")  # nothing is ever stored: key unread
            return None
        with self._stripes.for_key(key):
            entry = self._entries.get(key)
            if entry is not None and self._fresh(entry[1]):
                self.stats.incr("hits")
                return entry[0]
            self._entries.pop(key, None)  # stale, or absent
        self.stats.incr("misses")
        return None

    def stamp(self, relations: Iterable[str]) -> tuple:
        """The data generations of the base relations a statement reads,
        taken *before* the read: a write landing in between leaves the
        entry stale, never fresh over old rows."""
        generation = self._generation
        return tuple((relation, generation(relation)) for relation in relations)

    def _fresh(self, stamp: tuple) -> bool:
        generation = self._generation
        return all(generation(relation) == seen for relation, seen in stamp)

    def store(self, key, rows: Sequence[tuple], *, stamp: Optional[tuple]) -> bool:
        """Store ``rows`` under ``key`` with its :meth:`stamp`; both are
        None only while the policy is disabled."""
        if not self.policy.should_store(len(rows)):
            self.stats.incr("rejected")
            return False
        with self._stripes.for_key(key):
            self._entries[key] = (list(rows), stamp)
        self.stats.incr("stored")
        return True

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        """The entries the cache can serve: those whose stamp is current."""
        return sum(self._fresh(stamp) for _, stamp in list(self._entries.values()))
