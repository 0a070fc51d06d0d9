"""Per-ask spans and the tracer that collects them.

One :class:`AskTrace` is allocated per ``ask`` (and per ``ask_many``
goal — batched groups share one *group* span that expands to per-goal
records on read, so a 64-goal batch costs one allocation, not 64).
Durations come from the monotonic clock; the wall-clock timestamp of
each span comes from the tracer's injected ``wall_clock`` provider, so
seeded differentials and benchmarks can pin time with a fake clock
instead of scattering ``time.time()`` calls across span sites.

The tracer is designed so the *disabled* path does no work at all: no
span object is allocated, no clock is read, and the backend observer
hook is never installed.  The *enabled* path is bounded by the ring —
a fixed number of retained spans — and by fixed-size per-shape latency
histograms (log2 microsecond buckets, no per-span sample storage).
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional

from ..concurrency import StripedLock
from .ring import TraceRing

#: Module-bound monotonic clock: one global load per call on the span
#: hot path instead of a module-attribute chain.
_pc = time.perf_counter

#: Span fields whose ``None``/empty defaults are elided from trace dicts.
_OPTIONAL = (
    "recursion",
    "resilience",
    "deadline_remaining",
    "cqa",
    "error",
    "explain",
)

#: Lazily-bound ``coupling.global_opt.shape_digest`` — a module-level
#: import would close the coupling → observe → coupling cycle, and a
#: per-call function import costs a ``sys.modules`` lookup on the span
#: commit path.
_shape_digest = None


def _digest(key) -> str:
    global _shape_digest
    if _shape_digest is None:
        from ..coupling.global_opt import shape_digest

        _shape_digest = shape_digest
    return _shape_digest(key)


#: Latency histogram resolution: bucket ``i`` covers ``[2**(i-1), 2**i)``
#: microseconds; 40 buckets reach past 2**38 µs (~76 hours).  Counters
#: in a flat list make the commit-path record a couple of integer ops —
#: no sample window to append/evict, no sort on read.
_HIST_BUCKETS = 40

#: entry layout: [goal_text, count, errors, total_seconds, bucket_counts]
_H_GOAL, _H_COUNT, _H_ERRORS, _H_TOTAL, _H_LATENCIES = range(5)

#: Staging-queue length at which a *group* commit triggers a drain —
#: far below the serial threshold (the ring size) because each group
#: span pins a whole batch's member lists while staged.
_GROUP_STAGE_LIMIT = 64


def _bucket_quantile(buckets: list, q: float) -> float:
    """Nearest-rank quantile in **ms** from log2-µs bucket counters.

    Reported as the geometric midpoint of the winning bucket, so the
    value is exact to within the bucket's factor-of-two resolution.
    """
    total = sum(buckets)
    if total == 0:
        return 0.0
    target = max(1, math.ceil(q * total))
    cumulative = 0
    for index, hits in enumerate(buckets):
        cumulative += hits
        if cumulative >= target:
            return 0.00075 * (2.0 ** index)
    return 0.00075 * (2.0 ** (_HIST_BUCKETS - 1))


class AskTrace:
    """Everything one ask did and why — a completed span is immutable.

    Plain ``__slots__`` object, not a dataclass: spans are allocated on
    the warm-ask hot path and the 5% overhead gate (E20) leaves no room
    for dataclass ``__init__`` machinery.
    """

    __slots__ = (
        "span_id",
        "goal",
        "kind",
        "started_at",
        "t0",
        "duration",
        "phases",
        "shape_key",
        "plan_cache",
        "plan_kind",
        "recursion",
        "resilience",
        "deadline_remaining",
        "cqa",
        "rows",
        "statements",
        "last_sql",
        "answers",
        "error",
        "batch_size",
        "members",
        "slow",
        "res_mark",
        "explain",
    )

    def __init__(self, span_id: int, goal, kind: str, started_at: float,
                 res_mark: int):
        # Only the fields every span touches are written here; the rest
        # of the slots stay *unset* until (if ever) a touchpoint assigns
        # them, and readers default them through ``getattr``.  Spans are
        # born on the warm-ask hot path, where a dozen skipped slot
        # stores is a measurable share of the 5% overhead budget (E20).
        self.span_id = span_id
        self.goal = goal
        self.kind = kind
        self.started_at = started_at
        self.t0 = _pc()
        self.duration = 0.0
        self.phases: dict = {}
        self.rows = 0
        self.statements = 0
        self.slow = False
        self.res_mark = res_mark

    def mark(self, phase: str, since: float) -> float:
        """Accumulate one phase's monotonic delta; returns a new mark."""
        now = _pc()
        phases = self.phases
        phases[phase] = phases.get(phase, 0.0) + (now - since)
        return now

    def note_recursion(self, plan, interval_stats: Optional[dict]) -> None:
        """Record the recursion planner's decision (strategy + reason)."""
        decision = {
            "strategy": plan.strategy,
            "reason": plan.reason,
        }
        if interval_stats is not None:
            decision["interval_demotions"] = interval_stats.get("demotions", 0)
        self.recursion = decision


class Tracer:
    """Allocates, completes, and publishes :class:`AskTrace` spans.

    ``enabled=False`` is the production kill switch: ``begin`` returns
    ``None`` before any allocation and the session never installs the
    backend execute observer, so a disabled tracer's cost is a handful
    of ``is None`` branches — unmeasurable next to a SQLite round trip.
    """

    __slots__ = (
        "enabled",
        "ring",
        "slow_query_seconds",
        "wall_clock",
        "worker_id",
        "_local",
        "_id_lock",
        "_next_id",
        "_committed",
        "_callbacks",
        "_callback_errors",
        "_slow",
        "_slow_total",
        "_hist",
        "_hist_stripes",
        "_database",
        "_resilience",
        "_staged",
        "_drain_threshold",
        "_drain_lock",
    )

    def __init__(
        self,
        enabled: bool = True,
        ring_size: int = 1024,
        slow_query_seconds: float = 0.25,
        wall_clock: Optional[Callable[[], float]] = None,
        slow_log_size: int = 64,
        worker_id: Optional[str] = None,
    ):
        self.enabled = enabled
        #: Fleet attribution (ROADMAP E18): when set, every expanded
        #: span record and stats snapshot carries this id, so traces
        #: exported from a multi-process serving tier stay attributable
        #: to the worker that produced them.
        self.worker_id = worker_id
        self.ring = TraceRing(ring_size)
        self.slow_query_seconds = slow_query_seconds
        #: Injected wall-clock provider — span sites never call
        #: ``time.time()`` directly (deterministic under a fake clock).
        self.wall_clock = wall_clock if wall_clock is not None else time.time
        self._local = threading.local()
        self._id_lock = threading.Lock()
        self._next_id = 0
        self._committed = 0
        self._callbacks: list = []
        self._callback_errors = 0
        self._slow: deque = deque(maxlen=slow_log_size)
        self._slow_total = 0
        self._hist: dict = {}
        self._hist_stripes = StripedLock(8)
        self._database = None
        self._resilience = None
        #: Completed spans stage here (``deque.append`` is atomic under
        #: the GIL) and are aggregated in batched :meth:`_drain` passes —
        #: triggered by any read surface, or inline once a ring's worth
        #: piles up.  Batching keeps ``commit`` O(1) on the serving
        #: thread and lets one drain pass reuse hot histogram entries.
        self._staged: deque = deque()
        self._drain_threshold = max(64, ring_size)
        self._drain_lock = threading.RLock()

    # -- wiring ---------------------------------------------------------------

    def attach(self, database) -> None:
        """Bind the tracer to a backend (EXPLAIN + resilience ledger).

        Installs the execute observer only when enabled, so a disabled
        tracer leaves the backend's hot path untouched.
        """
        self._database = database
        self._resilience = getattr(database, "resilience", None)
        if self.enabled:
            database.observer = self.observe_execute

    def on_span(self, callback: Callable[[dict], None]) -> None:
        """Register an external sink; called with each completed span dict.

        Callback failures are counted (``callback_errors``) and swallowed
        — an exporter must never fail an ask.
        """
        self._callbacks.append(callback)

    # -- span lifecycle -------------------------------------------------------

    def current_span(self) -> Optional[AskTrace]:
        return getattr(self._local, "span", None)

    def _allocate(self, count: int = 1) -> int:
        with self._id_lock:
            base = self._next_id
            self._next_id += count
            return base

    def begin(self, goal, kind: str = "ask") -> Optional[AskTrace]:
        """Open a span and make it current, or ``None`` (disabled/nested).

        Nested asks (an ask issued while another span is active on this
        thread) attribute their work to the outer span instead of
        opening their own — the outer ask is the unit the caller timed.
        """
        if not self.enabled:
            return None
        local = self._local
        if getattr(local, "span", None) is not None:
            return None
        resilience = self._resilience
        # _allocate() inlined: one id, plain acquire/release (no context
        # manager protocol) — this runs once per warm ask.
        lock = self._id_lock
        lock.acquire()
        span_id = self._next_id
        self._next_id = span_id + 1
        lock.release()
        span = AskTrace(
            span_id,
            goal,
            kind,
            self.wall_clock(),
            resilience.event_seq if resilience is not None else 0,
        )
        local.span = span
        return span

    @contextmanager
    def group(self, size: int) -> Iterator[Optional[AskTrace]]:
        """A span covering one batched ``ask_many`` group execution.

        Reserves ``size`` consecutive span ids (one per member goal) but
        allocates a single object; :meth:`commit_group` files it and
        :meth:`traces` expands it back into per-goal records.  Yields
        ``None`` when disabled or a span is already active.
        """
        if not self.enabled or getattr(self._local, "span", None) is not None:
            yield None
            return
        resilience = self._resilience
        span = AskTrace(
            self._allocate(size),
            None,
            "batch",
            self.wall_clock(),
            resilience.event_seq if resilience is not None else 0,
        )
        span.batch_size = size
        self._local.span = span
        try:
            yield span
        finally:
            self._local.span = None

    def observe_execute(self, text: str, rows: int, seconds: float) -> None:
        """Backend hook: one executed statement on this thread.

        Installed as ``database.observer`` (enabled tracers only); a
        statement outside any span — maintenance deltas on the write
        path, benchmarks poking the backend directly — is ignored.
        """
        span = getattr(self._local, "span", None)
        if span is None:
            return
        span.statements += 1
        span.rows += rows
        span.phases["execute"] = span.phases.get("execute", 0.0) + seconds
        span.last_sql = text

    def commit(self, span: AskTrace) -> None:
        """Complete the current span: duration, resilience delta, stage."""
        local = self._local
        if local.span is span:
            local.span = None
        span.duration = _pc() - span.t0
        resilience = self._resilience
        if resilience is not None and resilience.event_seq != span.res_mark:
            events = resilience.events_since(
                span.res_mark, threading.get_ident()
            )
            if events:
                span.resilience = events
        staged = self._staged
        staged.append(span)
        if self._callbacks or len(staged) >= self._drain_threshold:
            self._drain()

    def commit_group(self, span: AskTrace, goals, answer_counts,
                     plan_kind: Optional[str] = None) -> None:
        """Complete a batch group span for its member goals.

        ``members`` holds the *existing* goal and count lists (no
        per-member allocation), and group spans drain on a much lower
        staging threshold than serial spans: each one pins a whole
        batch's worth of member references, so letting a ring's worth
        pile up would bloat the staging queue's memory residency.
        """
        span.duration = _pc() - span.t0
        span.plan_cache = "hit"
        span.plan_kind = plan_kind or "external"
        span.members = (goals, answer_counts)
        resilience = self._resilience
        if resilience is not None and resilience.event_seq != span.res_mark:
            events = resilience.events_since(
                span.res_mark, threading.get_ident()
            )
            if events:
                span.resilience = events
        staged = self._staged
        staged.append(span)
        if self._callbacks or len(staged) >= _GROUP_STAGE_LIMIT:
            self._drain()

    def _drain(self) -> None:
        """Aggregate every staged span: ring, histograms, slow log, sinks.

        ``popleft`` until empty is race-free against concurrent
        ``commit`` appends; the reentrant drain lock serializes
        aggregation itself (and survives an ``on_span`` sink that reads
        ``traces()`` back).  Spans are aggregated *grouped by histogram
        key* — one stripe acquisition and one entry fetch per shape per
        drain, not per span — so the deferred cost stays a fraction of
        what inline per-span publishing would spend.
        """
        staged = self._staged
        with self._drain_lock:
            batch = []
            while True:
                try:
                    batch.append(staged.popleft())
                except IndexError:
                    break
            if not batch:
                return
            committed = 0
            by_key: dict = {}
            for span in batch:
                members = getattr(span, "members", None)
                count = len(members[0]) if members is not None else 1
                committed += count
                key = getattr(span, "shape_key", None)
                if key is None:
                    key = getattr(span, "plan_kind", None) or span.kind
                group = by_key.get(key)
                if group is None:
                    by_key[key] = group = []
                group.append((span, count))
            for key, group in by_key.items():
                self._record_latencies(key, group)
            self.ring.store_many(batch)
            self._committed += committed
            threshold = self.slow_query_seconds
            callbacks = self._callbacks
            for span in batch:
                if threshold is not None and span.duration >= threshold:
                    span.slow = True
                    self._capture_slow(span)
                if callbacks:
                    for record in self.expand(span):
                        for callback in tuple(callbacks):
                            try:
                                callback(record)
                            except Exception:  # noqa: BLE001 - sinks must not fail asks
                                self._callback_errors += 1

    # -- slow-query log -------------------------------------------------------

    def _capture_slow(self, span: AskTrace) -> None:
        """Full-detail capture, including an on-demand EXPLAIN QUERY PLAN."""
        last_sql = getattr(span, "last_sql", None)
        if last_sql is not None and self._database is not None:
            try:
                span.explain = self._database.query_plan(last_sql)
            except Exception:  # noqa: BLE001 - diagnosis is best-effort
                span.explain = None
        self._slow_total += 1
        for record in self.expand(span):
            self._slow.append(record)

    def slow_queries(self) -> list:
        """The most recent slow-span records (full detail + EXPLAIN)."""
        self._drain()
        return list(self._slow)

    # -- latency histograms ---------------------------------------------------

    def _record_latencies(self, key, group) -> None:
        """Fold one drained shape-group into its histogram entry.

        Keyed by the *raw* shape key (or plan kind); digesting the key
        is deferred to :meth:`stats_snapshot`, so drains never hash
        bytes, and the log2 bucket costs two list ops per span instead
        of a sample-window append.
        """
        hist = self._hist
        cap = _HIST_BUCKETS - 1
        with self._hist_stripes.for_key(key):
            entry = hist.get(key)
            if entry is None:
                first = group[0][0]
                members = getattr(first, "members", None)
                entry = [
                    _goal_text(members[0][0] if members else first.goal),
                    0,
                    0,
                    0.0,
                    [0] * _HIST_BUCKETS,
                ]
                hist[key] = entry
            buckets = entry[_H_LATENCIES]
            for span, count in group:
                duration = span.duration
                entry[_H_COUNT] += count
                entry[_H_TOTAL] += duration
                buckets[min(cap, int(duration * 1e6).bit_length())] += 1
                if getattr(span, "error", None) is not None:
                    entry[_H_ERRORS] += count

    # -- export surface -------------------------------------------------------

    def expand(self, span: AskTrace) -> list:
        """One JSON-serializable dict per goal the span covered."""
        shape_key = getattr(span, "shape_key", None)
        members = getattr(span, "members", None)
        base = {
            "span_id": span.span_id,
            "kind": span.kind,
            "goal": _goal_text(span.goal),
            "started_at": span.started_at,
            "duration_ms": round(span.duration * 1000.0, 4),
            "phases_ms": {
                name: round(seconds * 1000.0, 4)
                for name, seconds in span.phases.items()
            },
            "shape": None if shape_key is None else _digest(shape_key),
            "plan_cache": getattr(span, "plan_cache", None),
            "plan_kind": getattr(span, "plan_kind", None),
            "rows": span.rows,
            "statements": span.statements,
            "sql": getattr(span, "last_sql", None),
            "answers": getattr(span, "answers", None),
            "batched": members is not None,
            "slow": span.slow,
        }
        if self.worker_id is not None:
            base["worker"] = self.worker_id
        for name in _OPTIONAL:
            value = getattr(span, name, None)
            if value is not None:
                base[name] = value
        if members is None:
            return [base]
        goals, answer_counts = members
        records = []
        batch = {"batch_size": len(goals)}
        if "execute" in span.phases and "batch" in span.phases:
            batch["demux_ms"] = round(
                max(0.0, span.phases["batch"] - span.phases["execute"])
                * 1000.0,
                4,
            )
        for offset, goal in enumerate(goals):
            record = dict(base)
            record.update(batch)
            record["span_id"] = span.span_id + offset
            record["goal"] = _goal_text(goal)
            record["answers"] = answer_counts[offset]
            records.append(record)
        return records

    def traces(self) -> list:
        """Resident spans as structured dicts, ascending span id."""
        self._drain()
        out: list = []
        for span in self.ring.spans():
            out.extend(self.expand(span))
        return out

    def export(self, path, stats: Optional[dict] = None) -> int:
        """Write the resident traces (plus metrics) to ``path`` as JSON."""
        traces = self.traces()
        payload = {
            "observe": stats if stats is not None else self.stats_snapshot(),
            "traces": traces,
        }
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(payload, sink, indent=1)
            sink.write("\n")
        return len(traces)

    def stats_snapshot(self) -> dict:
        """Gauges and histograms for ``session.stats()["observe"]``."""
        self._drain()
        histograms = {}
        with self._hist_stripes.all():
            items = [
                (key, entry[:_H_LATENCIES] + [list(entry[_H_LATENCIES])])
                for key, entry in self._hist.items()
            ]
        for key, entry in items:
            buckets = entry[_H_LATENCIES]
            name = _digest(key) if isinstance(key, tuple) else key
            histograms[name] = {
                "goal": entry[_H_GOAL],
                "count": entry[_H_COUNT],
                "errors": entry[_H_ERRORS],
                "total_ms": round(entry[_H_TOTAL] * 1000.0, 3),
                "p50_ms": round(_bucket_quantile(buckets, 0.50), 4),
                "p95_ms": round(_bucket_quantile(buckets, 0.95), 4),
                "p99_ms": round(_bucket_quantile(buckets, 0.99), 4),
            }
        snapshot = {
            "enabled": self.enabled,
            "ring_size": self.ring.size,
            "spans": self._committed,
            "resident_spans": len(self.ring.spans()),
            "slow_queries": self._slow_total,
            "slow_threshold_seconds": self.slow_query_seconds,
            "callback_errors": self._callback_errors,
            "histograms": histograms,
        }
        if self.worker_id is not None:
            snapshot["worker"] = self.worker_id
        return snapshot

    def histogram_export(self) -> dict:
        """Raw log2-µs bucket counters per shape, for cross-process merge.

        :meth:`stats_snapshot` collapses each histogram to quantiles,
        which cannot be combined across workers; this surface keeps the
        buckets themselves (JSON/pickle-serializable) so a serving tier
        can sum per-worker counters and *then* take quantiles — see
        :func:`merge_histogram_exports`.
        """
        self._drain()
        with self._hist_stripes.all():
            items = [
                (key, entry[:_H_LATENCIES] + [list(entry[_H_LATENCIES])])
                for key, entry in self._hist.items()
            ]
        export = {}
        for key, entry in items:
            name = _digest(key) if isinstance(key, tuple) else key
            export[name] = {
                "goal": entry[_H_GOAL],
                "count": entry[_H_COUNT],
                "errors": entry[_H_ERRORS],
                "total_seconds": entry[_H_TOTAL],
                "buckets": entry[_H_LATENCIES],
            }
        return export


def merge_histogram_exports(exports: Iterable[dict]) -> dict:
    """Fold per-worker :meth:`Tracer.histogram_export` payloads into one.

    Bucket counters are summed per shape across the fleet, then the
    aggregate quantiles are taken from the *merged* buckets — the only
    order of operations that is correct (quantiles of quantiles are
    not quantiles).  The result uses the same per-shape record shape as
    ``stats_snapshot()["histograms"]``, so dashboards can read an
    aggregate view and a single worker's view interchangeably.
    """
    merged: dict = {}
    for export in exports:
        for name, entry in export.items():
            into = merged.get(name)
            if into is None:
                merged[name] = {
                    "goal": entry["goal"],
                    "count": entry["count"],
                    "errors": entry["errors"],
                    "total_seconds": entry["total_seconds"],
                    "buckets": list(entry["buckets"]),
                }
                continue
            into["count"] += entry["count"]
            into["errors"] += entry["errors"]
            into["total_seconds"] += entry["total_seconds"]
            buckets = into["buckets"]
            for index, hits in enumerate(entry["buckets"]):
                buckets[index] += hits
    histograms = {}
    for name, entry in merged.items():
        buckets = entry["buckets"]
        histograms[name] = {
            "goal": entry["goal"],
            "count": entry["count"],
            "errors": entry["errors"],
            "total_ms": round(entry["total_seconds"] * 1000.0, 3),
            "p50_ms": round(_bucket_quantile(buckets, 0.50), 4),
            "p95_ms": round(_bucket_quantile(buckets, 0.95), 4),
            "p99_ms": round(_bucket_quantile(buckets, 0.99), 4),
        }
    return histograms


def _goal_text(goal) -> Optional[str]:
    if goal is None or isinstance(goal, str):
        return goal
    try:
        from ..coupling.global_opt import GoalShape
        from ..prolog.writer import term_to_string

        if isinstance(goal, GoalShape):  # a scanned ask_many member
            goal = goal.goal()
        return term_to_string(goal)
    except Exception:  # noqa: BLE001 - rendering is cosmetic
        return repr(goal)
