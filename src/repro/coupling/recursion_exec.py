"""Recursive database calls through intermediate relations (paper §7).

Example 7-1 contrasts two evaluation schemes for the recursive
``works_for`` view:

* **naive expansion** — issue a sequence of increasingly complex
  conjunctive queries (one per recursion level), each re-executing all the
  work of the previous one;
* **setrel / intermediate relations** — store each level's result in an
  intermediate relation and issue one *fixed-shape* query per level that
  joins the base view with ``intermediate``.

The paper further observes that the intermediate-relation scheme is
direction-sensitive: iterating *top-down* (frontier on the boss side) is
cheap for ``works_for(People, smiley)`` but generates "much (and
unnecessarily!) larger" intermediates for ``works_for(jones, Superior)``,
where the *bottom-up* rewriting wins.  :class:`TransitiveClosure` exposes
all three strategies plus an ``auto`` mode that picks the frontier from
the bound argument — the optimization the paper leaves as an open
question, solved here with the bound-argument heuristic.

Beyond the paper's repertoire, the executor can push the *entire*
fixpoint into the backend as one prepared ``WITH RECURSIVE`` statement
(``strategy="cte"``): no intermediate relation, no per-level Python
round-trip, no commits.  On forest-shaped data it goes one further:
``strategy="interval"`` answers from in-memory interval labels
(:class:`~repro.materialize.intervals.IntervalIndex`) — a slice of one
depth-first tour below a seed, the parent walk above it, no statement at
all.  The planner (:meth:`TransitiveClosure.plan`) chooses only reads,
from the tour's standing alone: the interval labels on a forest, the CTE
otherwise, and ``memory`` (one flat edge fetch) when the CTE cannot be
prepared; a failing read steps down that same list.  The paper's
frontier strategies, which write the intermediate relation, stay
callable through :meth:`TransitiveClosure.solve` (Example 7-1, E7) and
answer no planned ask; maintained views keep their
:class:`IncrementalClosure` path in the materialize subsystem.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Iterable, NamedTuple, Optional

from ..errors import CouplingError, RecursionLimitExceeded
from ..metaevaluate.recursion import expansion_at_level, is_linear_recursive
from ..metaevaluate.translator import Metaevaluator
from ..optimize.pipeline import SimplifyOptions, simplify
from ..prolog.knowledge_base import KnowledgeBase
from ..prolog.terms import (
    Atom,
    Struct,
    Term,
    Variable,
    conjoin,
    struct,
    var,
)
from ..schema.catalog import DatabaseSchema, Relation
from ..schema.constraints import ConstraintSet
from ..sql.ast import empty_query
from ..sql.translate import closure_cte, translate
from ..dbms.sqlite_backend import ExternalDatabase

INTERMEDIATE = "intermediate"


def find_base_clause(
    kb: KnowledgeBase, view: tuple[str, int]
) -> tuple[Struct, list[Term]]:
    """The single non-recursive clause of a linear recursive view.

    Returns ``(head, body_goals)``.  Shared by the closure executors and
    the materialized-view subsystem (which maintains the base clause's
    *edge view* incrementally and folds edge deltas into the closure).
    """
    base_clauses = [
        clause
        for clause in kb.all_clauses(view)
        if not any(
            isinstance(g, Struct) and g.indicator == view
            for g in clause.body_goals()
        )
    ]
    if len(base_clauses) != 1:
        raise CouplingError(
            f"{view[0]}/2 needs exactly one non-recursive clause, "
            f"found {len(base_clauses)}"
        )
    clause = base_clauses[0]
    head = clause.head
    if not isinstance(head, Struct) or not all(
        isinstance(a, Variable) for a in head.args
    ):
        raise CouplingError("base clause head must use distinct variables")
    return head, clause.body_goals()


def schema_with_intermediate(
    schema: DatabaseSchema, attribute: str, name: str = INTERMEDIATE
) -> DatabaseSchema:
    """The catalog extended with a unary ``intermediate`` relation.

    The intermediate's column *shares* the given base attribute, so a
    symbol appearing in both a base row and the intermediate row becomes a
    plain equijoin — exactly the ``v3.nam = v4.nam`` of the paper's
    fixed-shape query.
    """
    relations = list(schema.relations.values()) + [Relation(name, (attribute,))]
    types = {a.name: a.type for a in schema.attributes}
    return DatabaseSchema(schema.name, relations, attribute_types=types)


def constraints_for(
    constraints: ConstraintSet, schema: DatabaseSchema
) -> ConstraintSet:
    """Rebind a constraint set to an extended catalog."""
    return ConstraintSet(
        schema,
        value_bounds=constraints.value_bounds,
        funcdeps=constraints.funcdeps,
        refints=constraints.refints,
    )


@dataclass
class RecursionStats:
    """Measurements Experiment E7 reports."""

    strategy: str
    levels: int = 0
    queries_issued: int = 0
    frontier_sizes: list[int] = field(default_factory=list)
    new_answers_per_level: list[int] = field(default_factory=list)
    sql_join_terms_per_level: list[int] = field(default_factory=list)

    @property
    def total_intermediate_tuples(self) -> int:
        return sum(self.frontier_sizes)


@dataclass
class RecursionRun:
    """Answer pairs plus the per-level statistics."""

    pairs: set[tuple]
    stats: RecursionStats

    def nodes(self, bound: str) -> list:
        """The free side of the pairs, sorted (``bound``: the bound side)."""
        side = 1 if bound == "low" else 0
        return sorted({pair[side] for pair in self.pairs})


@dataclass(frozen=True)
class RecursionPlan:
    """One planning decision: which strategy answers a closure probe.

    ``strategy`` is ``interval``, ``cte`` or ``memory`` (each a read;
    see :meth:`TransitiveClosure.probe`); ``reason`` says why the planner
    chose as it did — surfaced so tests and operators can audit it.
    """

    strategy: str
    reason: str


_ANCESTORS_WHILE_STALE = RecursionPlan("cte", (
    "pushdown: the edge data moved; an ancestor probe reads the CTE "
    "until a descendant probe rebuilds the tour"))


class _EdgeView(NamedTuple):
    """The base clause's flat edge body, metaevaluated once per closure."""

    sql: object  # SELECT (low, high); ``is_empty`` when provably empty
    relations: tuple[str, ...]  # the base relations it reads
    low_attribute: str  # the attribute each endpoint lives in
    high_attribute: str


@dataclass
class _CteQueries:
    """Prepared ``WITH RECURSIVE`` statements for both directions.

    The query trees are kept for inspection (:meth:`TransitiveClosure.
    cte_queries`); solving binds the seed constant into the pre-rendered
    *texts*, so the SQL is printed exactly once per direction however
    many asks run.  ``batch_texts`` caches the ``IN (VALUES …)``-seeded
    variants the set-oriented serving path executes, keyed by
    ``(direction, batch_size)``.
    """

    descend_sql: object  # seed on the high side, collect the cone below
    ascend_sql: object  # seed on the low side, collect the cone above
    descend_text: str
    ascend_text: str
    batch_texts: dict = field(default_factory=dict)


@dataclass
class _EdgeQueries:
    """Prepared fixed-shape step queries for one direction.

    The query *trees* are kept for inspection (:meth:`TransitiveClosure.
    step_queries`); the loop executes the pre-rendered *texts* so the SQL
    is printed exactly once per direction, however many levels run.
    """

    descend_sql: object  # SELECT (low, high) ... WHERE high IN intermediate
    ascend_sql: object  # SELECT (low, high) ... WHERE low IN intermediate
    descend_text: str  # rendered once; re-executed per level
    ascend_text: str


class TransitiveClosure:
    """Executor for a linear recursive binary view (``works_for`` shaped)."""

    def __init__(
        self,
        kb: KnowledgeBase,
        schema: DatabaseSchema,
        constraints: ConstraintSet,
        database: ExternalDatabase,
        view: tuple[str, int],
        optimize: bool = True,
    ):
        if view[1] != 2:
            raise CouplingError("recursion strategies support binary views only")
        if not is_linear_recursive(kb, view):
            raise CouplingError(
                f"{view[0]}/{view[1]} is not linear recursive; only one "
                "recursive call per clause is supported"
            )
        self.kb = kb
        self.schema = schema
        self.constraints = constraints
        self.database = database
        self.view = view
        self.optimize = optimize
        self._base_head, self._base_body = find_base_clause(kb, view)
        self._edge: Optional[_EdgeView] = None
        self._edges: Optional[_EdgeQueries] = None
        self._cte: Optional[_CteQueries] = None
        #: Negative cache: the error a failed CTE preparation raised.  A
        #: closure that cannot push down would otherwise re-metaevaluate
        #: (and re-fail) on every planned ask; the session rebuilds
        #: closures whenever the program changes, so caching the failure
        #: for this executor's lifetime is sound.
        self._cte_error: Optional[Exception] = None
        #: The view's in-memory interval labels, built lazily the first
        #: time a probe is planned.
        self._interval = None
        #: ``(standing, plan)``: the plan :meth:`plan` made from the
        #: labels' standing it last saw, kept so a warm ask allocates none.
        self._planned: tuple = (None, None)
        # The setrel loop mutates one shared intermediate table per view;
        # two concurrent solves of the same closure would interleave
        # frontier swaps.  The session runs the loop under the knowledge
        # base's write lock, while planned probes read under its read
        # lock and take no mutex; this one keeps *direct* executor use
        # safe too.
        self._solve_lock = threading.RLock()

    def interval_stats(self) -> Optional[dict]:
        """The interval accelerator's counters, or None before first build.

        Trace spans read this to report demotions alongside the planner's
        strategy decision without forcing the labeling to exist.
        """
        if self._interval is None:
            return None
        return self._interval.stats.snapshot()

    # -- step-query preparation -------------------------------------------------------

    def _prepare_edges(self) -> _EdgeQueries:
        if self._edges is not None:
            return self._edges

        low_var, high_var = self._base_head.args  # type: ignore[misc]
        edge = self._edge_query()
        options = SimplifyOptions() if self.optimize else SimplifyOptions.none()

        def build(step_goal: Term, attribute: str) -> object:
            extended = schema_with_intermediate(self.schema, attribute)
            extended_constraints = constraints_for(self.constraints, extended)
            evaluator = Metaevaluator(
                extended,
                self.kb,
                extra_relations={(INTERMEDIATE, 1): INTERMEDIATE},
            )
            predicate = evaluator.metaevaluate(
                step_goal, name="step", targets=[low_var, high_var]
            )
            result = simplify(predicate, extended_constraints, options)
            return translate(result.predicate, distinct=True)

        # The intermediate joins the *frontier* side: the high attribute
        # when descending, the low attribute when ascending.  The two ends
        # may live in different attribute domains (e.g. a bill-of-materials
        # edge between part numbers of different columns).
        descend_goal = conjoin(self._base_body + [struct(INTERMEDIATE, high_var)])
        ascend_goal = conjoin(self._base_body + [struct(INTERMEDIATE, low_var)])
        descend_sql = build(descend_goal, edge.high_attribute)
        ascend_sql = build(ascend_goal, edge.low_attribute)
        self._edges = _EdgeQueries(
            descend_sql=descend_sql,
            ascend_sql=ascend_sql,
            descend_text=self.database.prepare(descend_sql),
            ascend_text=self.database.prepare(ascend_sql),
        )
        return self._edges

    # -- inspection --------------------------------------------------------------------

    def step_queries(self) -> tuple[object, object]:
        """The two prepared fixed-shape step queries (descend, ascend).

        The descend query is the paper's::

            SELECT v3.ename
            FROM empl v1, dept v2, empl v3, intermediate v4
            WHERE (v1.dno=v2.dno) AND (v2.mgr=v3.eno) AND (v3.nam=v4.nam)

        (modulo the paper's ``v3.ename`` typo — the answer column is the
        subordinate's name).  Exposed so callers and benchmarks can verify
        the "same form" claim of Example 7-1.
        """
        edges = self._prepare_edges()
        return edges.descend_sql, edges.ascend_sql

    # -- recursive-CTE pushdown ---------------------------------------------------------

    def _edge_query(self) -> _EdgeView:
        """The flat edge view compiled to SQL: SELECT (low, high) pairs.

        Metaevaluated once per closure; the attribute each endpoint lives
        in is read off the unsimplified predicate, so a provably empty
        view still has them (the frontier loop needs them).
        """
        if self._edge is not None:
            return self._edge
        low_var, high_var = self._base_head.args  # type: ignore[misc]
        evaluator = Metaevaluator(self.schema, self.kb)
        predicate = evaluator.metaevaluate(
            conjoin(self._base_body),
            name="edge",
            targets=[low_var, high_var],
        )
        low, high = (
            self.schema.attribute_names[predicate.first_occurrence(target).column]
            for target in predicate.targets
        )
        options = SimplifyOptions() if self.optimize else SimplifyOptions.none()
        result = simplify(predicate, self.constraints, options)
        if result.is_empty:
            self._edge = _EdgeView(empty_query(), (), low, high)
        else:
            relations = tuple(sorted({row.tag for row in result.predicate.rows}))
            sql = translate(result.predicate, distinct=True)
            self._edge = _EdgeView(sql, relations, low, high)
        return self._edge

    def _cte_name(self) -> str:
        """A CTE name that cannot shadow any base relation in the FROM list."""
        name = "reach"
        while self.schema.has_relation(name):
            name = "cte_" + name
        return name

    def _prepare_cte(self) -> _CteQueries:
        """Compile both directions' ``WITH RECURSIVE`` statements once.

        Failures are cached too: preparation re-raises the first error
        without re-running metaevaluation, so a non-pushdownable view
        costs one failed compile, not one per ask.
        """
        with self._solve_lock:
            if self._cte is not None:
                return self._cte
            if self._cte_error is not None:
                raise self._cte_error.with_traceback(None)  # no growing chain
            try:
                return self._prepare_cte_uncached()
            except Exception as error:
                self._cte_error = error
                raise

    def _prepare_cte_uncached(self) -> _CteQueries:
        edge_sql = self._edge_query().sql
        if edge_sql.is_empty:
            raise CouplingError(
                f"{self.view[0]}/2: the edge view is provably empty"
            )
        name = self._cte_name()
        # Descending collects the cone *below* a bound high endpoint:
        # the frontier matches the high column (index 1 of the edge
        # SELECT list), derived rows contribute their low column.
        descend = closure_cte(edge_sql, frontier=1, result=0, name=name)
        ascend = closure_cte(edge_sql, frontier=0, result=1, name=name)
        self._cte = _CteQueries(
            descend_sql=descend,
            ascend_sql=ascend,
            descend_text=self.database.prepare(descend),
            ascend_text=self.database.prepare(ascend),
        )
        return self._cte

    def cte_queries(self) -> tuple[object, object]:
        """The two prepared ``WITH RECURSIVE`` trees (descend, ascend)."""
        cte = self._prepare_cte()
        return cte.descend_sql, cte.ascend_sql

    # -- interval labels (in-memory tour) -------------------------------------------------

    def interval_index(self):
        """The view's :class:`~repro.materialize.intervals.IntervalIndex`.

        Built lazily over the CTE pushdown's edge view (so interval
        availability implies CTE availability — the demotion target
        always exists), fetched without ``DISTINCT``: the tour skips a
        repeated edge for less than the backend's sort costs.  Imported
        locally: the materialize package reaches back into this module.
        """
        with self._solve_lock:
            if self._interval is None:
                from ..materialize.intervals import IntervalIndex

                self._prepare_cte()
                edge = self._edge_query()
                self._interval = IntervalIndex(
                    self.database,
                    self.view[0],
                    replace(edge.sql, distinct=False),
                    edge.relations,
                )
            return self._interval

    def seed(self, bound: str, value):
        """``value`` as the backend compares it with the bound endpoint.

        A flat ask leaves that to SQLite's column affinity (``"2"``
        equals employee number 2); the in-memory strategies compare in
        Python, so every strategy takes its seed through here.
        """
        edge = self._edge_query()
        attribute = edge.low_attribute if bound == "low" else edge.high_attribute
        return self.schema.attribute(attribute).coerce(value)

    def probe(self, strategy: str, bound: str, seed) -> list:
        """Sorted distinct nodes from one read of a planned strategy.

        ``bound`` names the bound side: ``"high"`` collects the cone
        below the seed, ``"low"`` the chain above it.  ``interval``
        answers from the tour the caller freshened; ``cte`` executes one
        prepared statement the caller prepared.  ``memory`` fetches the
        flat edge view and closes over it in Python — also a read, and
        no statement at all when the view is provably empty.
        """
        seed = self.seed(bound, seed)
        if strategy == "memory":
            return self._solve_memory(**{bound: seed}).nodes(bound)
        if strategy == "interval":
            return self._interval.nodes(bound, seed)
        cte = self._cte
        text = cte.descend_text if bound == "high" else cte.ascend_text
        return sorted({row[0] for row in self.database.execute_prepared(text, (seed,))})

    def batch_probe_text(self, bound: str, batch_size: int) -> str:
        """The prepared batch-seeded CTE for a same-shape ask group.

        Seeds its probe with ``batch_size`` distinct constants through
        one ``IN (VALUES …)`` membership and threads each row's seed
        through a ``root`` column, so one execution answers the whole
        group; rows come back as ``(root, node)``.  Texts are cached per
        (direction, batch size) — rotating seed batches re-execute them
        at zero re-prints.
        """
        cte = self._prepare_cte()
        with self._solve_lock:
            key = (bound, batch_size)
            text = cte.batch_texts.get(key)
            if text is None:
                frontier, result = (1, 0) if bound == "high" else (0, 1)
                variant = closure_cte(
                    self._edge_query().sql,
                    frontier=frontier,
                    result=result,
                    name=self._cte_name(),
                    batch_size=batch_size,
                )
                text = self.database.prepare(variant)
                cte.batch_texts[key] = text
            return text

    # -- strategy choice -----------------------------------------------------------------

    def plan(self, bound: str = "high") -> RecursionPlan:
        """Choose the read for a probe on ``bound`` (``"high"``: the cone).

        The README's Pushdown section draws the tree: ``memory`` (one
        flat edge fetch closed over in Python) when the recursive CTE
        cannot be prepared; ``interval`` (the tour) while the edge data
        is a forest; otherwise the CTE.  The labels' standing is the only
        state read: while it is current (:meth:`~repro.materialize.
        intervals.IntervalIndex.current`, one comparison, no lock) the
        plan made from it returns as is.  While it is stale an ancestor
        probe reads the CTE and a descendant probe rebuilds the tour,
        under the index's lock.  No statistics are read; maintained
        views never reach here.
        """
        index = self._interval
        standing = None if index is None else index.current()
        if standing is None:
            if index is not None and bound == "low":
                return _ANCESTORS_WHILE_STALE
            try:
                self._prepare_cte()
            except Exception as error:  # noqa: BLE001 - any failure means no pushdown
                standing = error  # cached: the same object every ask
            else:
                try:
                    standing = self.interval_index().refresh()
                except Exception as error:  # noqa: BLE001 - a failed build → CTE
                    standing = str(error)
        planned = self._planned
        if planned[0] is standing:
            return planned[1]
        if isinstance(standing, Exception):
            plan = RecursionPlan(
                "memory", f"no CTE support ({standing}); one flat edge fetch"
            )
        elif isinstance(standing, str):
            plan = RecursionPlan("cte", (
                "pushdown: single WITH RECURSIVE statement, zero per-level "
                f"round-trips; interval unavailable ({standing})"
            ))
        else:
            plan = RecursionPlan("interval", (
                f"interval labels: labeled forest ({standing.shape}); "
                "a tour slice below a seed, the parent walk above"
            ))
        self._planned = (standing, plan)
        return plan

    # -- strategies --------------------------------------------------------------------

    def solve(
        self,
        low: Optional[str] = None,
        high: Optional[str] = None,
        strategy: str = "auto",
        max_levels: int = 64,
    ) -> RecursionRun:
        """Answer ``view(low, high)`` with exactly one side bound.

        ``strategy``:

        * ``interval`` — answer from the in-memory interval labels: a
          tour slice or a parent walk, no fixpoint and no statement
          (raises :class:`~repro.errors.IntervalUnavailable` on non-tree
          data);
        * ``cte`` — push the whole fixpoint down as one prepared
          ``WITH RECURSIVE`` statement (zero per-level round-trips);
        * ``auto`` — frontier starts at the bound argument (efficient);
        * ``topdown`` — frontier on the *high* side regardless (the paper's
          ``setrel(intermediate(Boss))`` program);
        * ``bottomup`` — frontier on the *low* side regardless (the
          rewritten view at the end of Example 7-1);
        * ``naive`` — the sequence of growing conjunctive queries;
        * ``memory`` — fetch the flat edge view once and close over it
          client-side (the degradation ladder's last rung: no prepared
          texts, no setrel DDL, no ``WITH RECURSIVE`` required).
        """
        if (low is None) == (high is None):
            raise CouplingError("exactly one of low/high must be bound")
        if low is not None:
            low = self.seed("low", low)
        else:
            high = self.seed("high", high)
        with self._solve_lock:
            if strategy in ("interval", "cte"):
                if strategy == "interval":
                    self.interval_index().ensure_fresh()
                else:
                    self._prepare_cte()
                bound, seed = ("high", high) if high is not None else ("low", low)
                nodes = self.probe(strategy, bound, seed)
                stats = RecursionStats(strategy=strategy, queries_issued=1)
                stats.new_answers_per_level.append(len(nodes))
                if high is not None:
                    pairs = {(node, high) for node in nodes}
                else:
                    pairs = {(low, node) for node in nodes}
                return RecursionRun(pairs=pairs, stats=stats)
            if strategy == "memory":
                return self._solve_memory(low, high)
            if strategy == "naive":
                return self._solve_naive(low, high, max_levels)
            if strategy == "auto":
                strategy = "bottomup" if low is not None else "topdown"
            if strategy == "topdown":
                return self._solve_frontier(
                    low, high, frontier_side="high", max_levels=max_levels
                )
            if strategy == "bottomup":
                return self._solve_frontier(
                    low, high, frontier_side="low", max_levels=max_levels
                )
            raise CouplingError(f"unknown strategy {strategy!r}")

    # The frontier executor: iterate the fixed-shape step query, replacing
    # the intermediate relation's contents each round (the setrel scheme).
    def _solve_frontier(
        self,
        low: Optional[str],
        high: Optional[str],
        frontier_side: str,
        max_levels: int,
    ) -> RecursionRun:
        edges = self._prepare_edges()
        stats = RecursionStats(
            strategy=f"setrel-{'topdown' if frontier_side == 'high' else 'bottomup'}"
        )
        aligned = (frontier_side == "high") == (high is not None)

        if frontier_side == "high":
            frontier_attribute = self._edge_query().high_attribute
            seed = (
                {high}
                if high is not None
                else self._domain_values(frontier_attribute)
            )
            step_text = edges.descend_text
        else:
            frontier_attribute = self._edge_query().low_attribute
            seed = (
                {low}
                if low is not None
                else self._domain_values(frontier_attribute)
            )
            step_text = edges.ascend_text
        # The intermediate relation's column matches the frontier side.
        self.database.create_intermediate(INTERMEDIATE, [frontier_attribute])

        seen: set[str] = set()
        frontier = set(seed)
        collected_edges: set[tuple[str, str]] = set()
        previous_frontier: Optional[set[str]] = None
        while frontier and stats.levels < max_levels:
            stats.levels += 1
            stats.frontier_sizes.append(len(frontier))
            # One transaction per frontier level: the intermediate swap
            # (delete + insert) and the prepared step query commit once,
            # and the step SQL is never re-printed or re-planned.
            with self.database.transaction():
                self.database.set_intermediate_rows(
                    INTERMEDIATE, [(value,) for value in frontier]
                )
                rows = self.database.execute_prepared(step_text)
            stats.queries_issued += 1
            seen |= frontier
            edge_set = {(r[0], r[1]) for r in rows}
            new_edges = edge_set - collected_edges
            stats.new_answers_per_level.append(len(new_edges))
            collected_edges |= new_edges
            step_values = (
                {l for l, _h in edge_set}
                if frontier_side == "high"
                else {h for _l, h in edge_set}
            )
            if aligned:
                # Semi-naive: only genuinely new values continue (cycle-safe).
                frontier = step_values - seen
            else:
                # The paper's program iterates the full image each round
                # ("all employee names, then all names of immediate
                # employees of any manager, and so forth until the
                # hierarchy is exhausted"); a fixpoint check terminates it
                # on cyclic data.
                previous_frontier, frontier = frontier, step_values
                if frontier == previous_frontier:
                    frontier = set()
        if frontier:
            raise RecursionLimitExceeded(
                f"frontier not exhausted after {max_levels} levels"
            )

        pairs = self._closure_pairs(collected_edges, low, high, aligned)
        return RecursionRun(pairs=pairs, stats=stats)

    def _solve_memory(
        self, low: Optional[str] = None, high: Optional[str] = None
    ) -> RecursionRun:
        """One flat SELECT of the edge view; the fixpoint runs in Python.

        The last rung of the serving layer's degradation ladder.  It
        depends on nothing but a single unprepared read — no intermediate
        relation (DDL + per-level writes), no ``WITH RECURSIVE`` support,
        no cached statement texts — so it stays answerable when every
        richer strategy's machinery is failing.  The full edge set crosses
        the wire, which is exactly the inefficiency the healthier rungs
        exist to avoid.  A provably empty edge view answers no pairs
        without a statement.
        """
        stats = RecursionStats(strategy="memory")
        edge_sql = self._edge_query().sql
        rows = self.database.execute(edge_sql)
        stats.queries_issued = 0 if edge_sql.is_empty else 1
        stats.levels = 1
        edge_set = {(row[0], row[1]) for row in rows}
        stats.new_answers_per_level.append(len(edge_set))
        pairs = self._closure_pairs(edge_set, low, high, aligned=True)
        return RecursionRun(pairs=pairs, stats=stats)

    def _closure_pairs(
        self,
        edges: set[tuple[str, str]],
        low: Optional[str],
        high: Optional[str],
        aligned: bool,
    ) -> set[tuple[str, str]]:
        """Transitive closure over the collected direct edges.

        When the frontier started from the bound side, the edges collected
        are exactly the reachable cone and the closure is cheap; in the
        misaligned (paper-pathological) case the edge set spans the whole
        hierarchy and the closure does the remaining work client-side —
        the inefficiency being the point of the measurement.
        """
        successors: dict[str, set[str]] = {}
        predecessors: dict[str, set[str]] = {}
        for l, h in edges:
            successors.setdefault(l, set()).add(h)
            predecessors.setdefault(h, set()).add(l)

        def reach(start: str, mapping: dict[str, set[str]]) -> set[str]:
            found: set[str] = set()
            frontier = set(mapping.get(start, ()))
            while frontier:
                found |= frontier
                frontier = {
                    n for f in frontier for n in mapping.get(f, ())
                } - found
            return found

        if low is not None:
            return {(low, h) for h in reach(low, successors)}
        assert high is not None
        return {(l, high) for l in reach(high, predecessors)}

    def _domain_values(self, attribute: str) -> set:
        """All stored values of an attribute (the paper's 'all employee names').

        The misaligned strategy seeds its first intermediate with the
        whole domain of the frontier attribute: the union of that column
        over every base relation carrying it.
        """
        values: set = set()
        for relation in self.schema.relations_with_attribute(attribute):
            rows = self.database.execute(
                f"SELECT DISTINCT {attribute} FROM {relation.name}"
            )
            values.update(r[0] for r in rows)
        return values

    # -- the naive strategy ---------------------------------------------------------------

    def _solve_naive(
        self, low: Optional[str], high: Optional[str], max_levels: int
    ) -> RecursionRun:
        stats = RecursionStats(strategy="naive")
        evaluator = Metaevaluator(self.schema, self.kb)
        options = SimplifyOptions() if self.optimize else SimplifyOptions.none()

        low_term: Term = Atom(low) if low is not None else var("Low")
        high_term: Term = Atom(high) if high is not None else var("High")
        goal = struct(self.view[0], low_term, high_term)
        targets = [t for t in (low_term, high_term) if isinstance(t, Variable)]

        pairs: set[tuple[str, str]] = set()
        stale_levels = 0
        for level in range(max_levels):
            predicates = expansion_at_level(
                evaluator, goal, self.view, level, targets=targets
            )
            if not predicates:
                break
            new_this_level = 0
            for predicate in predicates:
                result = simplify(predicate, self.constraints, options)
                if result.is_empty:
                    continue
                sql = translate(result.predicate, distinct=True)
                stats.sql_join_terms_per_level.append(sql.join_term_count)
                rows = self.database.execute(sql)
                stats.queries_issued += 1
                for row in rows:
                    if low is not None:
                        pair = (low, row[0])
                    elif high is not None:
                        pair = (row[0], high)
                    else:
                        pair = (row[0], row[1])
                    if pair not in pairs:
                        pairs.add(pair)
                        new_this_level += 1
            stats.levels += 1
            stats.new_answers_per_level.append(new_this_level)
            if new_this_level == 0:
                stale_levels += 1
                if stale_levels >= 2:
                    break
            else:
                stale_levels = 0
        else:
            raise RecursionLimitExceeded(
                f"naive expansion did not converge in {max_levels} levels"
            )
        return RecursionRun(pairs=pairs, stats=stats)


# -- incremental closure maintenance (the materialize subsystem) --------------------


_NOTHING: frozenset = frozenset()


class IncrementalClosure:
    """A transitive closure maintained under edge inserts and deletes.

    The batch executors above answer one ``view(low, high)`` query by
    iterating the setrel loop from scratch.  The materialized-view
    subsystem instead keeps the *whole* closure live:

    * :meth:`insert_edge` propagates semi-naively — a new edge ``l -> h``
      can only create pairs ``(x, y)`` with ``x`` reaching ``l`` and ``h``
      reaching ``y``, so exactly that product is probed and only
      genuinely new pairs are added;
    * :meth:`delete_edge` is DRed-style delete/re-derive: every pair
      whose derivations *might* route through the deleted edge is
      over-deleted, then pairs still derivable from the remaining edges
      are re-derived semi-naively until fixpoint.

    Both operations return the exact pair delta, so a downstream consumer
    (a count table, a subscriber view) can be maintained without diffing
    the full closure.  Cycles are handled: a pair ``(x, x)`` exists iff
    ``x`` lies on a cycle, matching the batch executors' semantics.

    The closure is held once, as adjacency: ``_reach[x]`` is the set of
    nodes ``x`` reaches and ``_reached_by`` its exact inverse, so a
    bound probe (:meth:`above` / :meth:`below`) and a cone are one
    lookup; ``_successors`` holds the edges.  :attr:`pairs` is derived.
    """

    def __init__(self, edges: Iterable[tuple[str, str]] = ()):
        self._successors: dict[str, set[str]] = {}
        self._reach: dict[str, set[str]] = {}
        self._reached_by: dict[str, set[str]] = {}
        for low, high in edges:
            self.insert_edge(low, high)

    # -- inspection ---------------------------------------------------------

    @property
    def pairs(self) -> set[tuple[str, str]]:
        """A snapshot of the closure as ``(low, high)`` pairs."""
        return {(x, y) for x, reach in self._reach.items() for y in reach}

    def above(self, node: str) -> AbstractSet[str]:
        """Every y with (node, y) in the closure (live; treat as read-only)."""
        return self._reach.get(node, _NOTHING)

    def below(self, node: str) -> AbstractSet[str]:
        """Every x with (x, node) in the closure (live; treat as read-only)."""
        return self._reached_by.get(node, _NOTHING)

    def __len__(self) -> int:
        return sum(map(len, self._reach.values()))

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair[1] in self._reach.get(pair[0], _NOTHING)

    def _add_pair(self, pair: tuple[str, str]) -> None:
        x, y = pair
        self._reach.setdefault(x, set()).add(y)
        self._reached_by.setdefault(y, set()).add(x)

    def _remove_pair(self, pair: tuple[str, str]) -> None:
        x, y = pair
        for index, node, other in ((self._reach, x, y), (self._reached_by, y, x)):
            index[node].discard(other)
            if not index[node]:
                del index[node]

    # -- maintenance --------------------------------------------------------

    def insert_edge(self, low: str, high: str) -> set[tuple[str, str]]:
        """Add edge ``low -> high``; returns the newly derivable pairs."""
        successors = self._successors.setdefault(low, set())
        if high in successors:
            return set()
        successors.add(high)
        sources, targets = {low} | self.below(low), {high} | self.above(high)
        added = {(x, y) for x in sources for y in targets - self.above(x)}
        for pair in added:
            self._add_pair(pair)
        return added

    def delete_edge(self, low: str, high: str) -> set[tuple[str, str]]:
        """Remove edge ``low -> high``; returns the pairs that died.

        Over-deletes the cone of pairs that could route through the edge,
        then re-derives: a removed pair ``(x, y)`` comes back if some
        remaining edge ``x -> z`` has ``z == y`` or ``(z, y)`` surviving.
        Iterates to fixpoint because one re-derivation can support
        another (paths sharing suffixes).
        """
        successors = self._successors.get(low, _NOTHING)
        if high not in successors:
            return set()
        # Cone computed on the OLD closure (before anything is removed).
        sources, targets = {low} | self.below(low), {high} | self.above(high)
        successors.discard(high)
        if not successors:
            del self._successors[low]

        suspect = {(x, y) for x in sources for y in targets & self.above(x)}
        for pair in suspect:
            self._remove_pair(pair)

        changed = True
        while changed:
            changed = False
            for pair in list(suspect):
                x, y = pair
                for z in self._successors.get(x, ()):
                    if z == y or y in self.above(z):
                        self._add_pair(pair)
                        suspect.discard(pair)
                        changed = True
                        break
        return suspect
