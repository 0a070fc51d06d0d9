"""The coupled PROLOG–DBMS session (the whole of paper Figure 1).

:class:`PrologDbSession` is the public front door of this library.  It
owns the internal Prolog engine and knowledge base, the external SQLite
database, the metaevaluator, the local optimizer, and the global
optimizer, and it wires up the paper's ``metaevaluate/4`` amalgamated
predicate so expert-system programs can trigger database fetches from
inside Prolog clauses (the ``partner`` rule of Example 4-1).

Typical use::

    session = PrologDbSession()
    session.load_org(generate_org(depth=3, branching=2, staff_per_dept=4))
    session.consult(WORKS_DIR_FOR_SOURCE)
    answers = session.ask("works_dir_for(X, 'emp00001')")

``ask`` classifies the goal (internal / external / recursive), runs the
appropriate pipeline, and returns answer bindings as plain Python dicts.
``explain`` returns the full translation trace (DBCL, simplified DBCL,
SQL) without executing, which the examples and EXPERIMENTS.md use.

The ask hot path is *compile-once*: the first time a goal shape is seen
(constants abstracted to parameters), the session classifies it,
metaevaluates it, runs Algorithm 2, translates, and prints SQL — then
caches the whole artifact in a :class:`~repro.coupling.global_opt.PlanCache`.
Subsequent asks that differ only in constants bind parameters into the
prepared statement and execute.  Shapes whose simplification consulted a
concrete constant value (a marker reached a comparison, emptied the
plan, or vanished from the tableau) are *constant-sensitive*: they cache
exact-constant variants instead, so warm answers are always identical to
a fresh compilation.

Serving (concurrency + batching)
--------------------------------

The session is thread-safe.  Mutations — ``assert_fact``,
``retract_fact``, ``consult``, ``load_org``, and any ask that must
compile, refresh a materialized view, run the engine, re-plan a
recursive closure or iterate its frontier loop — serialize on the
knowledge base's write lock.  Warm *pure-external* asks (a cached
fully-compiled plan) and warm recursive probes (a decision still
current for the data) run concurrently under the read lock, each thread
executing on its own pooled read connection of the backend.

``ask_many`` is the set-oriented batch entry point: goals are grouped by
shape, and each warm fully-parameterized shape executes **once** per
batch — the rotating constants fold into an ``IN (VALUES …)`` variant of
the prepared statement, and result rows carry the constants they matched
so they demultiplex back into per-goal answers.  Cold and
constant-sensitive shapes fall back to the serial path (paper §7's
multiple-query optimization, applied to the prepared-plan hot path).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Optional, Union

from ..cqa import CertainAnswers
from ..dbcl.grammar import format_dbcl
from ..dbms.internal_db import fact_row
from ..dbms.sqlite_backend import ExternalDatabase
from ..dbms.workload import OrgHierarchy, load_org
from ..errors import CouplingError, DeadlineExceeded, ExecutionError, ReproError
from ..metaevaluate.translator import Metaevaluator
from ..observe import Tracer
from ..prolog.engine import Engine
from ..prolog.knowledge_base import KnowledgeBase
from ..prolog.reader import parse_goal, parse_program, parse_term
from ..prolog.terms import Atom, Clause, Struct, Term, list_items, variables_of
from ..prolog.unify import unify
from ..prolog.writer import program_to_string
from ..schema.catalog import DatabaseSchema
from ..schema.constraints import ConstraintSet
from ..schema.empdep import empdep_constraints, empdep_schema
from .compiler import CQA, FETCH, PLAIN, Compiler, TranslationTrace
from .driver import answer, drive
from .executor import Executor, answer_columns, decode_rows, interface_name
from .global_opt import CachePolicy, GoalShape, PlanCache, ResultCache
from .multi_query import BatchExecutor
from .recursion_exec import RecursionRun, TransitiveClosure
from .recursion_router import RecursionRouter

Value = Union[int, float, str, None]


def _hit_rate(hits: int, misses: int) -> Optional[float]:
    """Hits as a fraction of lookups, or None before the first lookup."""
    total = hits + misses
    if not total:
        return None
    return round(hits / total, 4)


class PrologDbSession:
    """A tightly-coupled expert-system / relational-database session."""

    def __init__(
        self,
        schema: Optional[DatabaseSchema] = None,
        constraints: Optional[ConstraintSet] = None,
        database: Optional[ExternalDatabase] = None,
        optimize: bool = True,
        cache_policy: Optional[CachePolicy] = None,
        plan_cache: bool = True,
        tracing: bool = True,
        trace_ring: int = 1024,
        slow_query_seconds: float = 0.25,
        tracer=None,
        wall_clock=None,
    ):
        self.schema = schema if schema is not None else empdep_schema()
        self.constraints = (
            constraints
            if constraints is not None
            else empdep_constraints(self.schema)
        )
        self.database = (
            database
            if database is not None
            else ExternalDatabase(self.schema, constraints=self.constraints)
        )
        self.optimize = optimize
        self.kb = KnowledgeBase()
        self.kb.data_indicators = frozenset(
            (relation.name, relation.arity)
            for relation in self.schema.relations.values()
        )
        self.kb.base_writer = self._write_base
        self.kb.write_unit = self._write_unit
        self.engine = Engine(self.kb)
        self.metaevaluator = Metaevaluator(self.schema, self.kb)
        self.cache = ResultCache(cache_policy, generation=self.database.data_generation)
        self.plans = PlanCache()
        #: Consistent query answering (ROADMAP E19): key-violation
        #: detection with per-generation probe caching, the certainty
        #: rewriting's finish and the repair enumeration, plus the
        #: counters ``stats()["cqa"]`` reports.
        self._cqa = CertainAnswers(self.schema, self.constraints, self.database)
        self.cqa_stats = self._cqa.stats
        self.cqa_detector = self._cqa.detector
        #: Per-ask tracing (ROADMAP E20).  ``tracing=False`` is the kill
        #: switch: ``Tracer.begin`` then returns ``None`` before any
        #: allocation and the backend execute observer is never installed.
        #: ``wall_clock`` injects the span timestamp provider (tests and
        #: seeded differentials pin it to a fake clock).
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(
                enabled=tracing,
                ring_size=trace_ring,
                slow_query_seconds=slow_query_seconds,
                wall_clock=wall_clock,
            )
        )
        self.tracer.attach(self.database)
        self._plan_caching = plan_cache
        self._register_metaevaluate_builtin()
        # Imported here, not at module level: repro.materialize reaches
        # back into repro.coupling for the closure machinery.
        from ..materialize.manager import MaterializeManager

        #: The incremental view-maintenance subsystem (maintain-on-write).
        self.materialize = MaterializeManager(
            kb=self.kb,
            schema=self.schema,
            database=self.database,
            constraints=self.constraints,
            metaevaluator=self.metaevaluator,
            plans=self.plans,
            optimize=optimize,
        )
        # The one ask pipeline (stage diagram: :mod:`.driver`).
        self._recursion = RecursionRouter(self)
        self.recursion_plans = self._recursion.stats
        self._compiler = Compiler(self)
        self.compile_phases = self._compiler.phases
        self._executor = Executor(self)

    # -- program loading ---------------------------------------------------------

    def consult(self, source: str) -> None:
        """Load Prolog clauses (views, rules, facts) into the session.

        Ground tuples of base relations go to the store (:meth:`_write_base`),
        all of them in one write unit (the load's ``bulk_update``); a
        source without any writes nothing, and one with nothing else
        leaves the program — and every compiled plan — as it was.
        """
        clauses = parse_program(source)
        # The write lock makes load + plan invalidation atomic: no
        # concurrent reader observes new clauses with stale cached plans.
        with self.kb.lock.write():
            generation = self.kb.generation
            self.kb.load(clauses)
            if self.kb.generation == generation:
                return  # data only: the program clock did not move
            self._recursion.clear()
            # Compiled plans key on KnowledgeBase.generation, which consult
            # advanced; the next sync drops them.  Clear eagerly anyway so the
            # cache never outlives a program change even in direct use.
            self.plans.invalidate()
            self.materialize.on_consult()

    def load_org(self, org: OrgHierarchy) -> None:
        """Load a generated organisation into the external database."""
        with self.kb.lock.write():
            relations = load_org(self.database, org)
            self.materialize.on_load(relations)

    def warm(self, goals: Iterable[Union[str, Term]]) -> int:
        """Prime the plan cache: compile-and-ask each goal, answers discarded.

        The scale-out serving tier (ROADMAP E18) calls this on every
        worker after a snapshot refresh, so the first real request after
        a generation change pays a warm plan-cache hit instead of a cold
        compile.  A goal that fails to compile or execute is skipped —
        warmup must never take a worker down.  Returns how many goals
        warmed successfully.
        """
        warmed = 0
        for goal in goals:
            try:
                self.ask(goal)
            except ReproError:
                continue
            warmed += 1
        return warmed

    def program_snapshot(self) -> tuple[int, str]:
        """The in-memory program as ``(generation, source text)``.

        The payload a scale-out owner ships to read-only workers: every
        rule and non-base fact, rendered back to Prolog source, stamped
        with the program clock it serializes.  Base-relation clauses are
        excluded: every ground tuple is a store write, so the shared store
        already holds it, and no statement reads the rest.
        """
        with self.kb.lock.read():
            clauses = []
            for indicator in list(self.kb.indicators()):
                if indicator not in self.kb.data_indicators:
                    clauses.extend(self.kb.all_clauses(indicator))
            return self.kb.generation, program_to_string(clauses)

    def assert_fact(self, functor: str, *values) -> None:
        """Add a fact: a store write for a base relation, else internal.

        The knowledge base hands a base-relation tuple to
        :meth:`_write_base`; any other fact is expert-system knowledge,
        asserted internally.
        """
        self.kb.assertz(KnowledgeBase.fact_clause(functor, values))

    def retract_fact(self, functor: str, *values) -> bool:
        """Remove a fact: a store delete for a base relation, else internal.

        Returns True when something was removed.
        """
        return self.kb.retract(KnowledgeBase.fact_clause(functor, values))

    def _base_row(self, clause: Clause) -> Optional[tuple]:
        """The row of a ground tuple of a base relation, else None."""
        if clause.indicator not in self.kb.data_indicators:
            return None
        return fact_row(clause)

    @contextmanager
    def _write_unit(self):
        """The store write unit of a ``bulk_update`` bracket (a consult).

        The knowledge base's ``write_unit``.  A bracket that raises rolls
        the store back and advances the data generations it wrote; the
        maintained views then resync from the store, as after a load.
        """
        try:
            with self.database.transaction():
                yield
        except BaseException:
            self.materialize.on_load(list(self.schema.relations))
            raise

    def _write_base(self, clause: Clause, insert: bool) -> Optional[bool]:
        """The one write of a base fact, whichever route it came by.

        ``session.assert_fact`` / ``retract_fact``, the knowledge base's
        ``assertz`` / ``asserta`` / ``retract`` (and so the engine's
        builtins) and ``consult`` all arrive here (the knowledge base's
        ``base_writer``).  A ground tuple is inserted into the store
        unless it is already there (the paper's merge semantics) or
        deleted from it, with materialized views maintained through
        insert / delete deltas (DRed delete/re-derive for recursive
        views); nothing enters the knowledge base.  Returns whether a
        row was stored or deleted, or None for a clause that is no
        tuple (non-ground, structured, a rule), which the knowledge
        base keeps.  The caller holds the knowledge base's write lock, so
        readers see the row in the store or not at all; inside a
        ``bulk_update`` bracket (a consult) every tuple joins one write
        unit.
        """
        row = self._base_row(clause)
        if row is None:
            return None
        name = clause.indicator[0]
        if self.materialize.is_maintained(name):
            if not insert:
                return self.materialize.delete(name, row)
            self.materialize.insert(name, row)
        elif not insert:
            return self.database.delete_row(name, row) > 0
        else:
            self.database.insert_absent(name, [row])
        return True

    # -- the paper's amalgamated metaevaluate/4 ------------------------------------

    def _register_metaevaluate_builtin(self) -> None:
        session = self

        def builtin_metaevaluate(engine, goal, subst, depth):
            """metaevaluate(Program, [Goal], Options, DBCL) — paper §4."""
            assert isinstance(goal, Struct)
            _program, goal_list, options, dbcl_out = goal.args
            goals = list_items(subst.apply(goal_list))
            if len(goals) != 1:
                raise CouplingError("metaevaluate/4 expects a one-goal list")
            inner = goals[0]
            use_optim = subst.apply(options) != Atom("no_optim")
            predicate, rows = session._fetch_view(inner, optimize=use_optim)
            if predicate is None:
                # All branches were fact branches: the answers are already
                # in the internal database from an earlier metaevaluation.
                dbcl_term: Term = Atom("already_evaluated")
            else:
                dbcl_term = parse_term(format_dbcl(predicate).rstrip(". \n"))
            extended = unify(dbcl_out, dbcl_term, subst)
            if extended is not None:
                yield extended

        self.engine.register_builtin("metaevaluate", 4, builtin_metaevaluate)

    def _fetch_view(self, goal: Term, optimize: bool = True):
        """Metaevaluate a single-view goal, execute it, assert the answers.

        The ``metaevaluate/4`` entry into the ask pipeline (fetch mode):
        the view's rule branch compiles and caches per goal shape like any
        plan, and the answers are asserted as facts under the view's name.
        Runs inside the enclosing ask (its lock, span, deadline, retry).
        Returns ``(predicate, rows)``: the DBCL trace — None when
        everything was already answered internally — and the fetched rows.
        """
        predicate, rows = answer(
            self, goal, FETCH[bool(optimize and self.optimize)], None, None, True
        )
        if predicate is None:
            # Proved empty at bind time: report the (unsimplified)
            # predicate a cold fetch would have proved empty.
            predicate = self._compiler.fetch_predicate(goal)
        return predicate, rows

    # -- query answering --------------------------------------------------------------

    def ask(
        self,
        goal: Union[str, Term],
        max_solutions: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> list[dict[str, Value]]:
        """Answer a goal, routing each part to the right evaluator.

        Thread-safe: warm pure-external asks (and fresh maintained-view
        hits) run concurrently under the knowledge base's read lock;
        everything that might mutate — compilation, view refreshes,
        engine resolution, recursive closures — serializes on the write
        lock.

        ``deadline`` caps the ask's wall-clock budget in seconds: the
        backend's progress handler interrupts any statement still running
        at expiry and :class:`~repro.errors.DeadlineExceeded` surfaces
        with partial-work counters attached.  Transient backend failures
        that outlast the backend's own retry ladder — a long lock burst,
        a poisoned pooled connection — are retried here, bounded by the
        fault policy's ``max_ask_retries``; only a budget this generous
        failing turns into an error the caller sees.
        """
        return drive(self, goal, PLAIN, max_solutions, deadline)

    # -- consistent query answering (ROADMAP E19) -------------------------------------

    def ask_consistent(
        self,
        goal: Union[str, Term],
        max_solutions: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> list[dict[str, Value]]:
        """The goal's *certain* answers: tuples true in every repair.

        A repair keeps exactly one tuple of each primary-key-equal block
        of every base relation; certain answers are the intersection of
        the goal's answers over all repairs (consistent query answering).
        Three regimes, decided per ask:

        * **clean store** — one cached key-violation probe per involved
          relation shows no violating blocks; the ask delegates to the
          plain pipeline and returns byte-identical answers with zero
          additional statements (the probe itself is cached against the
          backend's per-relation data generation);
        * **rewritten** — the goal's attack graph is acyclic
          (Koutris–Wijsen), so a certainty condition is appended to the
          plain translated query and the whole rewriting executes as one
          prepared, parameterized statement cached in the plan cache
          under the shape's consistent-mode variant — warm consistent
          asks run at warm-ask speed;
        * **enumerated** — outside the rewritable class (self-joins, an
          attack cycle), answers are intersected over the block-wise
          repair space, bounded by
          :data:`~repro.cqa.repairs.MAX_REPAIRS` and memoized per data
          generation.

        Only pure-external, non-recursive conjunctive goals have repair
        semantics here; anything else raises
        :class:`~repro.errors.CqaError`.  ``deadline`` and transient
        retries behave exactly as in :meth:`ask`.
        """
        return drive(self, goal, CQA, max_solutions, deadline)

    def integrity_report(self) -> dict:
        """Per-relation key/FD violation counts with sample blocks.

        Diagnostic view over the consistent mode's violation detector —
        see :meth:`repro.cqa.CertainAnswers.integrity_report`.
        """
        return self._cqa.integrity_report()

    # -- set-oriented batch serving ---------------------------------------------------

    def ask_many(
        self,
        goals: Iterable[Union[str, Term]],
        max_solutions: Optional[int] = None,
        deadline: Optional[float] = None,
        consistent: bool = False,
    ) -> list[list[dict[str, Value]]]:
        """Answer a batch of goals, one execution per warm goal shape.

        Goals are grouped by shape (:meth:`~.compiler.Compiler.scan`: a
        goal text whose skeleton is learned is neither parsed nor built
        into a term unless it answers serially); each group whose shape
        has a warm fully-parameterized pure-external plan executes
        **once**: the members' constant tuples fold into an
        ``IN (VALUES …)`` parameter-batch variant of the prepared
        statement, and the fetched rows — widened with the constants they
        matched — demultiplex back into per-goal answer lists (paper §7:
        "process multiple database queries simultaneously").

        A cold shape's first member answers serially — that ask compiles
        the plan the shape keeps — and the remainder batches;
        constant-sensitive, mixed, engine-resolved, and unshapeable goals
        fall back to the serial path.  Per-goal answer lists come back in
        input order, each
        containing exactly the answers ``self.ask(goal)`` would return —
        the *set* is guaranteed identical (gated by the E14
        differentials); the order *within* one goal's answers follows
        the batched statement's row emission, which SQLite does not
        promise matches the serial statement's.

        ``deadline`` budgets the whole batch (one shared scope; see
        :meth:`ask`).  A group whose batched statement fails for any
        backend reason — transient or permanent — degrades to the serial
        path, where each member goal gets the full per-ask retry and
        plan-recovery treatment.

        ``consistent=True`` asks for *certain* answers (see
        :meth:`ask_consistent`).  When every relation any batch member
        can reach is violation-free, certain answers coincide with plain
        answers and the batch executes through the ordinary set-oriented
        machinery — warm consistent shapes batch at full speed.  A store
        with violations serializes: each goal runs through
        :meth:`ask_consistent`, whose certainty condition is inherently
        per-goal (folding it into an ``IN (VALUES …)`` batch would be
        unsound).
        """
        scanned = [self._compiler.scan(goal) for goal in goals]
        if consistent:
            # One reachability walk per template (or unscanned term).
            sources = [s.template if t is None else t for s, t in scanned]
            unique = {id(source): source for source in sources}.values()
            reachable = set().union(*map(self._compiler.base_relations, unique))
            if self._cqa.dirty(reachable):
                with self.database.deadline(deadline):
                    return [
                        self._ask_scanned(one, max_solutions, CQA)
                        for one in scanned
                    ]
            self.cqa_stats.incr("clean_fast_paths", len(scanned))
        answers: list[Optional[list[dict[str, Value]]]] = [None] * len(scanned)
        groups: dict[tuple, list[int]] = {}
        serial: list[int] = []
        for position, (shape, _term) in enumerate(scanned):
            if shape is None or not shape.constants:
                serial.append(position)
            else:
                groups.setdefault(shape.key, []).append(position)
        with self.database.deadline(deadline):
            for members in groups.values():
                try:
                    self._ask_group(scanned, members, answers, max_solutions)
                except (CouplingError, DeadlineExceeded):
                    raise
                except ExecutionError:
                    # Batch rung failed: hand every member to the serial
                    # path (answers set mid-group are recomputed — ask is
                    # idempotent and the serial result is authoritative).
                    self.database.resilience.incr("degraded_answers")
                    for position in members:
                        answers[position] = None
                    serial.extend(members)
            for position in serial:
                answers[position] = self._ask_scanned(scanned[position], max_solutions)
        return [a if a is not None else [] for a in answers]

    def _ask_scanned(self, scanned: tuple, max_solutions, mode=PLAIN):
        """One serial ask of a scanned goal; its term is built only now."""
        shape, term = scanned
        if term is None:
            term = shape.goal()
        return drive(self, term, mode, max_solutions, None, shape)

    def batch_executor(self, share: bool = True):
        """A multiple-query optimizer sharing this session's plan cache.

        The returned :class:`~repro.coupling.multi_query.BatchExecutor`
        prepares each common-core widened scan once (stored in the plan
        cache under a pseudo shape, invalidated with the knowledge base
        generation like every compiled plan) and re-executes prepared
        statements on later batches.
        """
        return BatchExecutor(
            self.database,
            self.constraints,
            optimize=self.optimize,
            share=share,
            plans=self.plans if self._plan_caching else None,
            kb=self.kb,
        )

    def _batch_form(self, shape: GoalShape) -> tuple:
        """``(flat plan, recursive closure)`` a warm shape batches through."""
        plan = self._executor.batchable_plan(shape)
        if plan is not None:
            return plan, None
        return None, self._recursion.batch_closure(shape)

    def _ask_group(
        self,
        scanned: list[tuple],
        members: list[int],
        answers: list,
        max_solutions: Optional[int],
    ) -> None:
        """Answer one same-shape group, batching once the shape is warm.

        Two batch forms exist: flat warm shapes fold their constants into
        an ``IN (VALUES …)`` variant of the prepared statement, and warm
        *recursive* single-bound shapes fold their seeds into a
        batch-seeded ``WITH RECURSIVE`` statement (one fixpoint run for
        the whole group).  Everything else answers serially.
        """
        pending = list(members)
        lead = scanned[pending[0]]
        plan = recursive = None
        if len(pending) > 1:
            plan, recursive = self._batch_form(lead[0])
            if plan is None and recursive is None:
                # Cold, or never batchable: the lead's serial ask compiles
                # the plan every later member of the group shares.
                answers[pending.pop(0)] = self._ask_scanned(lead, max_solutions)
                if len(pending) > 1:
                    plan, recursive = self._batch_form(lead[0])
        if plan is None and recursive is None:
            for position in pending:
                answers[position] = self._ask_scanned(scanned[position], max_solutions)
            return
        group_shapes = [scanned[position][0] for position in pending]
        # One *group* span covers the whole batched execution — a span
        # per member would cost more than the batch itself (~6µs/goal);
        # the tracer expands the group back to per-goal records on read,
        # rendering a scanned member's goal only then.
        with self.tracer.group(len(pending)) as gspan:
            if plan is not None:
                batched = self._executor.execute_batch(
                    plan, group_shapes, max_solutions
                )
                batch_kind = "external"
            else:
                batched = self._recursion.execute_batch(
                    recursive, group_shapes, max_solutions
                )
                batch_kind = "recursive"
            if batched is not None and gspan is not None:
                gspan.shape_key = group_shapes[0].key
                gspan.phases["batch"] = time.perf_counter() - gspan.t0
                self.tracer.commit_group(
                    gspan,
                    [
                        shape if term is None else term
                        for shape, term in map(scanned.__getitem__, pending)
                    ],
                    [len(result) for result in batched],
                    batch_kind,
                )
        if batched is None:
            for position in pending:
                answers[position] = self._ask_scanned(scanned[position], max_solutions)
            return
        for position, result in zip(pending, batched):
            answers[position] = result

    #: Kept on the class for callers that name interface predicates.
    _interface_name = staticmethod(interface_name)

    # -- recursion -----------------------------------------------------------------------

    def closure_for(self, view_name: str) -> TransitiveClosure:
        """The (cached) transitive-closure executor for a recursive view."""
        return self._recursion.closure_for(view_name)

    def solve_recursive(
        self,
        view_name: str,
        low: Optional[str] = None,
        high: Optional[str] = None,
        strategy: str = "auto",
        max_levels: int = 64,
    ) -> RecursionRun:
        """Direct access to the recursion strategies (benchmarks use this).

        Only the setrel loop (``auto``, ``topdown``, ``bottomup``) writes:
        it swaps a shared intermediate relation per level, so it runs
        under the write lock; every other strategy is a read.
        """
        setrel = strategy in ("auto", "topdown", "bottomup")
        with self.kb.lock.write() if setrel else self.kb.lock.read():
            closure = self.closure_for(view_name)
            return closure.solve(
                low=low, high=high, strategy=strategy, max_levels=max_levels
            )

    def heal_materialized(self) -> int:
        """Rebuild quarantined materialized views now, not lazily.

        Quarantined views normally heal at the next write-side
        opportunity (any insert/delete touching their relations, or a
        write-path ask that needs them); this forces the attempt
        immediately.  Returns how many views remain quarantined — zero
        means fully healed.  Write-locked: healing refreshes views
        against the current visible union.
        """
        with self.kb.lock.write():
            return self.materialize.heal_all()

    # -- extensions (paper section 7) ------------------------------------------------------

    def ask_disjunctive(self, goal: Union[str, Term]) -> list[dict[str, Value]]:
        """Answer a goal over a disjunctive view via per-conjunct UNION."""
        from ..extensions.disjunction import translate_disjunctive

        if isinstance(goal, str):
            goal = parse_goal(goal)
        targets = [v for v in variables_of(goal) if not v.is_anonymous]
        with self.kb.lock.read():
            translation = translate_disjunctive(
                self.metaevaluator, goal, self.constraints, targets=targets,
                options=self._compiler.options(),
            )
            rows = self.database.execute(translation.union)
        live = [p for p in translation.simplified if p is not None]
        if not live:
            return []
        return decode_rows(answer_columns(live[0], targets), rows)

    def ask_with_negation(self, goal: Union[str, Term]) -> list[dict[str, Value]]:
        """Answer ``positive, not(view(...))`` via a NOT IN complement."""
        from ..extensions.negation import translate_with_negation

        if isinstance(goal, str):
            goal = parse_goal(goal)
        targets = [v for v in variables_of(goal) if not v.is_anonymous]
        with self.kb.lock.read():
            translation = translate_with_negation(
                self.metaevaluator, goal, self.constraints, targets=targets,
                options=self._compiler.options(),
            )
            rows = self.database.execute(translation.query)
        # Targets were projected in goal-variable order by the translator.
        wanted = {v.name for v in targets}
        target_names = [
            t.name
            for t in translation.positive.target_symbols()
            if t.name in wanted
        ]
        return decode_rows(list(enumerate(target_names)), rows)

    def ask_stepwise(self, goal: Union[str, Term]):
        """Tuple-substitution evaluation for mixed conjunctions."""
        from ..extensions.stepwise import StepwiseEvaluator

        evaluator = StepwiseEvaluator(
            self.metaevaluator,
            self.engine,
            self.database,
            self.constraints,
            options=self._compiler.options(),
        )
        # Tuple-substitution resolves through the engine (which programs
        # may mutate mid-proof): write side.
        with self.kb.lock.write():
            return evaluator.evaluate(goal)

    # -- inspection ------------------------------------------------------------------------

    def stats(self) -> dict:
        """One snapshot of every performance-relevant counter.

        Benchmarks, CI gates, and docs read this instead of poking at the
        knowledge base, plan cache, result cache, backend, and
        maintenance manager separately.  Each component contributes an
        *atomic* snapshot taken under its own lock, so no counter group
        is ever torn mid-update by a concurrent serving thread.
        """
        plan_stats = self.plans.stats.snapshot()
        cache_stats = self.cache.stats.snapshot()
        db_stats = self.database.stats.snapshot()
        phase_stats = self.compile_phases.snapshot()
        resilience = self.database.resilience.snapshot()
        resilience["breakers"] = self.database.breaker_states()
        observe = self.tracer.stats_snapshot()
        observe["hit_rates"] = {
            "plan_cache": _hit_rate(plan_stats["hits"], plan_stats["misses"]),
            "result_cache": _hit_rate(
                cache_stats["hits"], cache_stats["misses"]
            ),
        }
        return {
            "kb": {
                "generation": self.kb.generation,
                "clauses": len(self.kb),
            },
            "plan_cache": {"entries": len(self.plans), **plan_stats},
            "result_cache": {"entries": len(self.cache), **cache_stats},
            "database": db_stats,
            "compile_phases": phase_stats,
            "recursion_plans": self.recursion_plans.snapshot(),
            "materialize": self.materialize.stats_dict(),
            "resilience": resilience,
            "observe": observe,
            "cqa": self.cqa_stats.snapshot(),
        }

    def traces(self) -> list:
        """The resident trace spans as JSON-serializable dicts.

        One record per traced ``ask``/``ask_many`` goal (batched groups
        expand to their members), oldest resident first; at most the
        ring's ``trace_ring`` most recent goals are resident.
        """
        return self.tracer.traces()

    def slow_queries(self) -> list:
        """Full-detail records for asks over the slow-query threshold.

        Each record carries everything :meth:`traces` has plus the
        backend's ``EXPLAIN QUERY PLAN`` for the span's last statement,
        captured on demand when the threshold triggered.
        """
        return self.tracer.slow_queries()

    def on_span(self, callback) -> None:
        """Stream completed span dicts to an external sink (opt-in)."""
        self.tracer.on_span(callback)

    def export_trace(self, path) -> int:
        """Write resident traces plus observe metrics to ``path`` (JSON).

        Returns the number of trace records written.
        """
        return self.tracer.export(path, stats=self.stats()["observe"])

    def explain(self, goal: Union[str, Term]) -> TranslationTrace:
        """The full translation trace for an external goal (no execution)."""
        if isinstance(goal, str):
            goal = parse_goal(goal)
        return self._compiler.explain(goal)

    def close(self) -> None:
        self.database.close()

    def __enter__(self) -> "PrologDbSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
