"""The traced run: where one goal's microseconds go, layer by layer.

Everything here is measured from outside ``src/repro``:

* a :class:`TimingDatabase` — an ``ExternalDatabase`` subclass handed to
  the session through its ``database=`` parameter — times each backend
  entry point *in situ* and keeps the ``(text, parameters)`` stream;
* after each traced call, the public stage functions the call went
  through (``parse_goal``, ``goal_shape``, ``PlanCache.lookup``,
  ``CompiledPlan.bind`` — or on the cold path ``metaevaluate``,
  ``simplify``, ``translate``, ``print_sql``) are replayed on the same
  goal and timed one by one;
* the recorded statement stream is replayed on a bare ``sqlite3`` cursor
  over the same store: the floor;
* per-operation on/off pairs (tracing, resilience, consistent vs plain,
  tier vs in-process) isolate what each wrapper adds.

Times are means per goal over the traced operations (means add up, so a
layer's share of the root span is its mean over the root's mean); counts
are ``session.stats()`` deltas over the same operations and repeat
exactly for a given seed.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass, field

from repro.coupling.global_opt import GoalShape, goal_shape, plan_goal
from repro.dbms.sqlite_backend import ExternalDatabase
from repro.metaevaluate.recursion import is_recursive_goal
from repro.optimize.costs import order_rows
from repro.optimize.pipeline import SimplifyOptions, simplify
from repro.prolog.reader import parse_goal
from repro.prolog.terms import variables_of
from repro.resilience import FaultPolicy
from repro.sql.dialects import SqliteDialect
from repro.sql.printer import print_sql
from repro.sql.translate import translate

from bench_e2e.measure import RAISED, full_observation, raw_percentiles, timed_run

clock = time.perf_counter

#: on/off pairs run on the first quarter of the operation list, within
#: these limits, and repeat this often (per-op minimum)
PAIRED_OPS = (16, 256)
PAIRED_ROUNDS = 3
#: closure probes per strategy
STRATEGY_PROBES = 200
TRACE_ROUNDS = 3
REPLAY_ROUNDS = 2
FLOOR_ROUNDS = 3
#: floor writes use keys no generated or hired employee carries
FLOOR_ENO_SHIFT = 10_000_000


class TimingDatabase(ExternalDatabase):
    """Times every backend entry point and records what it was asked."""

    #: where the running operation's child spans go; None = not tracing
    sink = None
    _inside = False

    def _spanned(self, name, text, parameters, method, *args):
        sink = self.sink
        if sink is None or self._inside:  # nested calls belong to the outer
            return method(self, *args)
        self._inside = True
        began = clock()
        try:
            return method(self, *args)
        finally:
            ended = clock()
            self._inside = False
            sink.append((name, began, ended, text, parameters))

    def execute_prepared(self, text, parameters=()):
        return self._spanned(
            "dbms.execute_prepared", text, tuple(parameters),
            ExternalDatabase.execute_prepared, text, parameters,
        )

    def execute(self, query):
        return self._spanned(
            "dbms.execute", query if isinstance(query, str) else None, (),
            ExternalDatabase.execute, query,
        )

    def insert_rows(self, relation_name, rows):
        return self._spanned(
            "dbms.insert_rows", None, (),
            ExternalDatabase.insert_rows, relation_name, rows,
        )

    def delete_row(self, relation_name, row):
        return self._spanned(
            "dbms.delete_row", None, (),
            ExternalDatabase.delete_row, relation_name, row,
        )

    def apply_materialized_delta(self, name, changes, generation=None):
        return self._spanned(
            "dbms.apply_materialized_delta", None, (),
            ExternalDatabase.apply_materialized_delta, name, changes, generation,
        )

    def bare_connection(self) -> sqlite3.Connection:
        """A plain ``sqlite3`` connection to the same store: the floor."""
        return sqlite3.connect(
            self._target, uri=self._uri, cached_statements=256
        )


def is_read_span(span) -> bool:
    name, _began, _ended, text, _parameters = span
    return (
        name in ("dbms.execute_prepared", "dbms.execute")
        and text is not None
        and ExternalDatabase._is_read_statement(text)
    )


@dataclass
class Traced:
    """One traced operation: its root span and everything under it."""

    op: object
    began: float
    ended: float
    #: the in-process call (the root itself, except behind the tier)
    inner_began: float
    inner_ended: float
    children: list
    ok: bool
    stages: dict = field(default_factory=dict)
    floor: float = 0.0

    @property
    def root(self) -> float:
        return self.ended - self.began

    @property
    def inner(self) -> float:
        return self.inner_ended - self.inner_began

    def child_seconds(self, reads=None) -> float:
        """Time in backend calls: every one, or only the reads / the writes."""
        return sum(
            span[2] - span[1]
            for span in self.children
            if reads is None or is_read_span(span) == reads
        )

    def named_seconds(self) -> float:
        """In-situ backend spans plus the replayed stage times."""
        return self.child_seconds() + sum(
            value for value in self.stages.values() if isinstance(value, float)
        )


def _quieter(a: Traced, b: Traced) -> Traced:
    """The shorter of two traces of one op; a wrong answer is never dropped."""
    if a.ok != b.ok:
        return b if a.ok else a
    return a if a.root <= b.root else b


def trace_pass(handle, ops) -> list:
    """Run every op once with spans on, comparing whole answer sets."""
    database = handle.session.database
    local = handle.calls.get("local_ask")
    traced = []
    for op in ops:
        call = handle.calls[op.kind]
        children: list = []
        if local is None:
            database.sink = children
        began = clock()
        try:
            result = call(op.payload)
        except Exception:  # noqa: BLE001 - a raising call is a failed call
            result = RAISED
        ended = clock()
        database.sink = None
        ok = result is not RAISED and full_observation(op, result) == op.expected
        traced.append(Traced(op, began, ended, began, ended, children, ok))
    if local is not None:
        # Behind the tier the backend calls happen in the worker; the same
        # goals asked in-process show what they are.  A pass of its own, so
        # the worker is not left to fall asleep between two tier calls.
        for one in traced:
            database.sink = one.children
            one.inner_began = clock()
            local(one.op.payload)
            one.inner_ended = clock()
            database.sink = None
    return traced


# -- staged replay: the public stage functions, one by one ----------------------


def _plan_for(session, shape, prefix):
    if prefix:
        shape = GoalShape(key=prefix + shape.key, constants=shape.constants)
    return session.plans.lookup(shape)


def replay_warm(session, texts, prefix=(), upto="bind") -> dict:
    """parse -> shape -> plan lookup -> bind, as the warm path runs them.

    ``texts`` holds one goal, or the members of one ``ask_many`` group:
    every member is parsed and shaped, the group's plan is looked up
    once, and the members' constants bind into one statement.
    """
    mark = clock()
    terms = [parse_goal(text) for text in texts]
    stages = {"prolog.parse": clock() - mark}
    if upto == "parse":
        return stages
    mark = clock()
    shapes = [goal_shape(term) for term in terms]
    stages["coupling.shape"] = clock() - mark
    mark = clock()
    plan = _plan_for(session, shapes[0], prefix)
    stages["coupling.plan_lookup"] = clock() - mark
    if upto == "bind" and getattr(plan, "sql_text", None):
        mark = clock()
        if len(shapes) == 1:
            bound = plan.bind(shapes[0].constants, session.constraints)
            plan.bind_values(shapes[0].constants)
            if not prefix and bound is not None:
                # the plain warm path probes the result cache (a miss
                # still pays for the predicate's canonical key)
                stages["coupling.bind"] = clock() - mark
                mark = clock()
                session.cache.lookup(bound)
                stages["coupling.result_probe"] = clock() - mark
                return stages
        else:
            for shape in shapes:
                plan.bind_is_empty(shape.constants, session.constraints)
            plan.batch_bind_values([shape.constants for shape in shapes])
        stages["coupling.bind"] = clock() - mark
    return stages


_DIALECT = SqliteDialect()


def replay_cold(session, texts) -> dict:
    """parse -> classify -> metaevaluate -> simplify -> order -> translate
    -> print, each over the whole goal as ``explain`` runs them."""
    (text,) = texts
    mark = clock()
    term = parse_goal(text)
    stages = {"prolog.parse": clock() - mark}
    mark = clock()
    is_recursive_goal(session.kb, session.schema, term)
    plan_goal(session.kb, session.schema, term)
    stages["coupling.classify"] = clock() - mark
    targets = [v for v in variables_of(term) if not v.is_anonymous]
    mark = clock()
    predicate = session.metaevaluator.metaevaluate(term, targets=targets)
    stages["metaevaluate"] = clock() - mark
    stages["rows_out"] = len(predicate.rows)
    mark = clock()
    result = simplify(predicate, session.constraints, SimplifyOptions())
    stages["optimize.simplify"] = clock() - mark
    stages["rows_before"] = result.rows_before
    stages["rows_after"] = result.rows_after
    stages["proved_empty"] = int(result.is_empty)
    if result.is_empty:
        return stages
    mark = clock()
    final = order_rows(result.predicate, session.database.relation_statistics)
    stages["optimize.order"] = clock() - mark
    mark = clock()
    sql = translate(final, distinct=True)
    stages["sql.translate"] = clock() - mark
    if not sql.is_empty:
        mark = clock()
        printed = print_sql(sql, oneline=True, dialect=_DIALECT)
        stages["sql.print"] = clock() - mark
        stages["text_bytes"] = len(printed.encode("utf-8"))
    return stages


def replay_stages(session, traced, kind: str) -> None:
    """Fill ``Traced.stages`` with each stage's best time over the rounds."""
    replay = {
        "warm": lambda t: replay_warm(session, t),
        "recursive": lambda t: replay_warm(session, t, upto="lookup"),
        "consistent": lambda t: replay_warm(session, t, prefix=("cqa",)),
        "maintained": lambda t: replay_warm(session, t, upto="parse"),
        "cold": lambda t: replay_cold(session, t),
    }[kind]
    for _ in range(REPLAY_ROUNDS):
        for one in traced:
            if one.op.is_write:
                continue
            payload = one.op.payload
            stages = replay(payload if isinstance(payload, list) else [payload])
            for name, value in stages.items():
                known = one.stages.get(name)
                one.stages[name] = value if known is None else min(known, value)


# -- the floor: the same statements on a bare cursor ------------------------------


def replay_floor(database, traced) -> None:
    """Fill ``Traced.floor``: reads replay the recorded stream (best of a
    few rounds); a write is the hand-written INSERT or DELETE plus commit."""
    connection = database.bare_connection()
    try:
        cursor = connection.cursor()
        for one in traced:
            op = one.op
            if op.is_write:
                eno, nam, sal, dno = op.payload
                row = (eno + FLOOR_ENO_SHIFT, nam, sal, dno)
                began = clock()
                if op.kind == "assert":
                    cursor.execute("INSERT INTO empl VALUES (?, ?, ?, ?)", row)
                else:
                    cursor.execute(
                        "DELETE FROM empl WHERE eno = ? AND nam = ? "
                        "AND sal = ? AND dno = ?", row,
                    )
                connection.commit()
                one.floor = clock() - began
                continue
            statements = [
                (span[3], span[4]) for span in one.children if is_read_span(span)
            ]
            best = float("inf")
            for _ in range(FLOOR_ROUNDS):
                began = clock()
                for text, parameters in statements:
                    cursor.execute(text, parameters).fetchall()
                best = min(best, clock() - began)
            one.floor = best
        # an odd number of traced writes leaves one shifted hire behind
        cursor.execute("DELETE FROM empl WHERE eno >= ?", (FLOOR_ENO_SHIFT,))
        connection.commit()
    finally:
        connection.close()


# -- on/off pairs -----------------------------------------------------------------------


def paired_seconds(sides: dict, ops, back_to_back: bool = True) -> dict:
    """Per-op best time per side, both sides timed back to back.

    The overheads measured this way are a few microseconds, far below
    what the host's speed drifts by over a second; a pair shares one
    regime, alternating the order cancels what is left, and the per-op
    minimum over the rounds rejects jitter (ROADMAP E20's noise control).
    ``back_to_back=False`` gives each side whole passes of its own, for
    sides that disturb each other (a tier worker idles while the owner
    answers in-process).
    """
    labels = list(sides)
    best = {label: [float("inf")] * len(ops) for label in labels}

    def time_one(label, index, op, keep):
        began = clock()
        sides[label](op)
        elapsed = clock() - began
        if keep and elapsed < best[label][index]:
            best[label][index] = elapsed

    for round_index in range(PAIRED_ROUNDS + 1):  # round 0 warms, untimed
        order = labels if round_index % 2 else labels[::-1]
        if back_to_back:
            for index, op in enumerate(ops):
                for label in order:
                    time_one(label, index, op, round_index)
        else:
            for label in order:
                for index, op in enumerate(ops):
                    time_one(label, index, op, round_index)
    return {label: sum(times) for label, times in best.items()}


def _overhead_pct(workload, baseline, ops, warm, **off) -> float:
    """What a wrapper costs: the default session against one without it."""
    without = workload.build(warm=warm, **off)
    try:
        seconds = paired_seconds(
            {
                "on": lambda op: baseline.calls[op.kind](op.payload),
                "off": lambda op: without.calls[op.kind](op.payload),
            },
            ops,
        )
    finally:
        without.close()
    return (seconds["on"] / seconds["off"] - 1.0) * 100.0


# -- the whole traced run -------------------------------------------------------------


def _delta(after: dict, before: dict, section: str, key: str) -> float:
    return after[section][key] - before[section][key]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_run(workload, ops, warm, seconds: float, spans_path) -> dict:
    """Per-layer metrics of one workload; returns metrics + attempt counts."""
    metrics: dict[str, float] = {}
    fewest, most = PAIRED_OPS
    paired = [
        op for op in ops[:min(most, max(fewest, len(ops) // 4))]
        if not op.is_write
    ]
    # A plain session: raw percentiles, and the default side of every pair.
    plain = workload.build(warm=warm)
    handle = None
    try:
        reference, _ = timed_run(plain, ops, seconds * 0.3, slices=3)
        attempted = sum(one.calls for one in reference)
        failed = sum(one.failed for one in reference)
        metrics.update(raw_percentiles(reference))
        if plain.tier is not None:  # one tier worker at a time
            plain.tier.close()
            plain.tier = None
        if workload.ablate:
            metrics["observe.overhead_pct"] = _overhead_pct(
                workload, plain, paired, warm, tracing=False
            )
            metrics["resilience.overhead_pct"] = _overhead_pct(
                workload, plain, paired, warm, policy=FaultPolicy.disabled()
            )
        if workload.stages == "consistent":
            metrics.update(_consistent_pairs(workload, plain, paired, warm))

        handle = workload.build(database_cls=TimingDatabase, warm=warm)
        session = handle.session
        local = "local_ask" if handle.tier is not None else None
        if local:
            for op in warm:  # the owner's plans, as the worker's are warm
                session.ask(op.payload)
        metrics.update(handle.marks)
        # The list ends in the state it started from, so it can be replayed:
        # one pass to warm up as the timed run does, then the best of three
        # per operation (interference only ever lengthens a span).
        trace_pass(handle, ops)
        traced = trace_pass(handle, ops)
        for _ in range(TRACE_ROUNDS - 1):
            before = session.stats()
            again = trace_pass(handle, ops)
            after = session.stats()
            traced = [_quieter(a, b) for a, b in zip(traced, again)]
        replay_stages(session, traced, workload.stages)
        replay_floor(session.database, traced)
        attempted += len(traced)
        failed += sum(not one.ok for one in traced)
        metrics.update(_span_metrics(traced))
        metrics.update(_count_metrics(traced, before, after))

        def spanned(op):
            session.database.sink = []
            handle.calls[local or op.kind](op.payload)
            session.database.sink = None

        seconds_by_side = paired_seconds(
            {
                "traced": spanned,
                "plain": lambda op: plain.calls[local or op.kind](op.payload),
            },
            paired,
        )
        metrics["bench.trace_overhead_pct"] = (
            seconds_by_side["traced"] / seconds_by_side["plain"] - 1.0
        ) * 100.0
        if handle.tier is not None:
            metrics.update(_tier_pairs(handle, paired))
        if workload.stages == "recursive":
            probes = ops[:STRATEGY_PROBES]
            attempted += 3 * len(probes)
            strategy_metrics, wrong = _strategy_probes(session, probes)
            metrics.update(strategy_metrics)
            failed += wrong
    finally:
        plain.close()
        if handle is not None:
            handle.close()
    write_spans(spans_path, traced)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def _span_metrics(traced) -> dict:
    reads = [one for one in traced if not one.op.is_write]
    writes = [one for one in traced if one.op.is_write]
    read_goals = sum(one.op.goals for one in reads)
    goals = read_goals + len(writes)

    def per_read_goal(seconds: float) -> float:
        return seconds / read_goals * 1e6

    def stage(name: str) -> float:
        return per_read_goal(sum(one.stages.get(name, 0.0) for one in reads))

    metrics = {
        "prolog.parse_us": stage("prolog.parse"),
        "coupling.shape_us": stage("coupling.shape"),
        "coupling.plan_lookup_us": stage("coupling.plan_lookup"),
        "coupling.bind_us": stage("coupling.bind"),
        "coupling.result_probe_us": stage("coupling.result_probe"),
        "coupling.classify_us": stage("coupling.classify"),
        "metaevaluate.us": stage("metaevaluate"),
        "optimize.simplify_us": stage("optimize.simplify"),
        "optimize.order_us": stage("optimize.order"),
        "sql.translate_us": stage("sql.translate"),
        "sql.print_us": stage("sql.print"),
    }
    staged = sum(metrics.values())
    inner = per_read_goal(sum(one.inner for one in reads))
    executing = sum(one.child_seconds(reads=True) for one in traced) / goals * 1e6
    read_children = per_read_goal(sum(one.child_seconds() for one in reads))
    floor = sum(one.floor for one in traced) / goals * 1e6
    metrics["coupling.session_self_us"] = inner - read_children - staged
    metrics["dbms.execute_us"] = executing
    metrics["floor.execute_us"] = floor
    metrics["dbms.wrapper_us"] = executing - floor
    metrics["floor.ratio"] = _ratio(
        sum(one.root for one in traced) / goals * 1e6, floor
    )
    # Per call: named children plus the session's own remainder, over the
    # root span.  The remainder is clipped at zero, so the median reads
    # 100 unless the replayed stages overshoot what really ran in the call.
    shares = sorted(
        _ratio(
            (one.root - one.inner) + max(one.inner, one.named_seconds()),
            one.root,
        )
        for one in reads
    )
    metrics["bench.span_accounted_pct"] = shares[len(shares) // 2] * 100.0

    compiled = [one for one in reads if "rows_out" in one.stages]
    if compiled:
        with_sql = [one for one in compiled if "text_bytes" in one.stages]
        metrics["metaevaluate.rows_out"] = _ratio(
            sum(one.stages["rows_out"] for one in compiled), len(compiled)
        )
        metrics["optimize.rows_kept_ratio"] = _ratio(
            sum(one.stages["rows_after"] for one in compiled),
            sum(one.stages["rows_before"] for one in compiled),
        )
        metrics["optimize.empty_proved_share"] = _ratio(
            sum(one.stages["proved_empty"] for one in compiled), len(compiled)
        )
        metrics["sql.text_bytes"] = _ratio(
            sum(one.stages["text_bytes"] for one in with_sql), len(with_sql)
        )
    if writes:
        metrics["dbms.write_us"] = (
            sum(one.child_seconds(reads=False) for one in writes)
            / len(writes) * 1e6
        )
        metrics["materialize.write_self_us"] = (
            sum(one.root - one.child_seconds() for one in writes)
            / len(writes) * 1e6
        )
        for name, families in (
            ("materialize.flat_ask_us", ("directs", "peers", "boss_of")),
            ("materialize.closure_ask_us", ("reports", "chain")),
        ):
            chosen = [one.root for one in reads if one.op.family in families]
            metrics[name] = _ratio(sum(chosen), len(chosen)) * 1e6
    return metrics


def _count_metrics(traced, before: dict, after: dict) -> dict:
    read_ops = sum(not one.op.is_write for one in traced)
    writes = len(traced) - read_ops
    goals = sum(one.op.goals for one in traced)
    # a goal answered through a batched statement used a warm plan too
    plan_hits = _delta(after, before, "plan_cache", "hits") + _delta(
        after, before, "plan_cache", "batched_asks"
    )
    plan_misses = _delta(after, before, "plan_cache", "misses")
    cache_hits = _delta(after, before, "result_cache", "hits")
    cache_misses = _delta(after, before, "result_cache", "misses")
    cqa = {
        key: _delta(after, before, "cqa", key)
        for key in ("probes", "probe_cache_hits", "rewritten_asks", "fallback_asks")
    }
    planned = _delta(after, before, "recursion_plans", "planned_asks")
    return {
        "coupling.plan_hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "coupling.result_hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "coupling.batch_statements_per_goal": _ratio(
            _delta(after, before, "plan_cache", "batch_executions"),
            _delta(after, before, "plan_cache", "batched_asks"),
        ),
        "dbms.statements_per_goal": _ratio(
            _delta(after, before, "database", "queries_executed"), goals
        ),
        "dbms.rows_per_goal": _ratio(
            _delta(after, before, "database", "rows_fetched"), goals
        ),
        "dbms.commits_per_write": _ratio(
            _delta(after, before, "database", "commits"), writes
        ),
        "recursion.interval_share": _ratio(
            _delta(after, before, "recursion_plans", "interval"), planned
        ),
        "materialize.deltas_per_write": _ratio(
            _delta(after, before, "materialize", "deltas_applied"), writes
        ),
        "materialize.maintained_hit_ratio": _ratio(
            _delta(after, before, "materialize", "maintained_asks"), read_ops
        ),
        "materialize.refreshes": _delta(after, before, "materialize", "refreshes"),
        "materialize.fallbacks": _delta(after, before, "materialize", "fallbacks"),
        "observe.span_commit_ratio": _ratio(
            _delta(after, before, "observe", "spans"), goals - writes
        ),
        "resilience.retries": (
            _delta(after, before, "resilience", "retries")
            + _delta(after, before, "resilience", "ask_retries")
        ),
        "cqa.rewritten_share": _ratio(cqa["rewritten_asks"], read_ops),
        "cqa.probe_cache_hit_ratio": _ratio(
            cqa["probe_cache_hits"], cqa["probe_cache_hits"] + cqa["probes"]
        ),
        "cqa.fallback_asks": cqa["fallback_asks"],
    }


def _consistent_pairs(workload, dirty, ops, warm) -> dict:
    """ask_consistent minus plain ask, on a clean and on the dirty store."""
    goals = len(ops)
    clean = workload.build(warm=warm, extra_rows=False)
    try:
        extra = {}
        for name, handle in (
            ("cqa.clean_extra_us", clean), ("cqa.rewrite_extra_us", dirty),
        ):
            seconds = paired_seconds(
                {
                    "consistent": lambda op: handle.calls["ask_consistent"](op.payload),
                    "plain": lambda op: handle.calls["ask"](op.payload),
                },
                ops,
            )
            extra[name] = (seconds["consistent"] - seconds["plain"]) / goals * 1e6
        return extra
    finally:
        clean.close()


def _tier_pairs(handle, ops) -> dict:
    """tier.ask minus the same goal asked in-process on the same file."""
    seconds = paired_seconds(
        {
            "tier": lambda op: handle.calls["ask"](op.payload),
            "local": lambda op: handle.calls["local_ask"](op.payload),
        },
        ops,
        back_to_back=False,
    )
    return {
        "serving.ipc_us": (seconds["tier"] - seconds["local"]) / len(ops) * 1e6,
        "serving.worker_restarts": handle.tier.stats()["serving"]["restarts"],
    }


def _strategy_probes(session, ops) -> tuple[dict, int]:
    """The same closure probes under each recursion strategy."""
    metrics = {}
    wrong = 0
    for metric, strategy in (
        ("recursion.interval_probe_us", "interval"),
        ("recursion.cte_probe_us", "cte"),
        ("recursion.frontier_probe_us", "auto"),
    ):
        spent = 0.0
        for op in ops:
            bound = {"reports": "high", "chain": "low"}[op.family]
            began = clock()
            run = session.solve_recursive(
                "works_for", strategy=strategy, **{bound: op.args[0]}
            )
            spent += clock() - began
            wrong += len(run.pairs) != op.count
        metrics[metric] = spent / len(ops) * 1e6
    return metrics, wrong


def write_spans(path, traced) -> None:
    """One JSON line per span: root, in-situ children, replayed stages."""
    if not traced:
        return
    origin = traced[0].began
    with open(path, "w", encoding="utf-8") as sink:
        def emit(op_id, span_id, parent, name, began, ended, **more):
            record = {
                "op": op_id, "span": span_id, "parent": parent, "name": name,
                "start_us": round((began - origin) * 1e6, 3),
                "end_us": round((ended - origin) * 1e6, 3),
            }
            record.update(more)
            sink.write(json.dumps(record) + "\n")

        for op_id, one in enumerate(traced):
            root = f"{op_id}.0"
            emit(op_id, root, None, f"call.{one.op.kind}", one.began, one.ended,
                 family=one.op.family, goals=one.op.goals, ok=one.ok)
            parent = root
            if (one.inner_began, one.inner_ended) != (one.began, one.ended):
                parent = f"{op_id}.1"
                emit(op_id, parent, root, "replay.coupling.ask",
                     one.inner_began, one.inner_ended, replay=True)
            for index, span in enumerate(one.children):
                emit(op_id, f"{op_id}.c{index}", parent, span[0], span[1], span[2])
            for name, value in one.stages.items():
                if isinstance(value, float):
                    # replayed out of line: a duration, anchored at the root
                    emit(op_id, f"{op_id}.{name}", parent, f"replay.{name}",
                         one.began, one.began + value, replay=True)
            if one.floor:
                emit(op_id, f"{op_id}.floor", parent, "replay.floor.execute",
                     one.began, one.began + one.floor, replay=True)
