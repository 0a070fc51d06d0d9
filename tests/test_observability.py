"""The query tracing and metrics layer (ROADMAP E20).

Covers the per-ask span lifecycle (phase timings, plan-cache outcome,
recursion strategy + reason, resilience events), the lock-striped trace
ring (wraparound, the 4-thread tear-freedom hammer), the disabled-tracer
zero-allocation guarantee, the injected wall-clock provider, the
slow-query log with its on-demand ``EXPLAIN QUERY PLAN``, the ``on_span``
callback / ``export_trace`` sinks, and the ``session.stats()`` JSON
round-trip normalization.
"""

import json
import threading

import pytest

import repro.observe.tracer as tracer_module
from repro.coupling import PrologDbSession
from repro.coupling.global_opt import CachePolicy, shape_digest
from repro.dbms import generate_org
from repro.observe import AskTrace, TraceRing, Tracer
from repro.resilience.faults import (
    FaultEvent,
    FaultInjectingBackend,
    FaultSchedule,
)
from repro.schema import ALL_VIEWS_SOURCE
from repro.schema.empdep import empdep_constraints, empdep_schema

pytestmark = pytest.mark.smoke


def answer_set(answers):
    return {frozenset(a.items()) for a in answers}


def make_session(**kwargs) -> PrologDbSession:
    session = PrologDbSession(**kwargs)
    session.load_org(generate_org(depth=2, branching=2, staff_per_dept=3, seed=13))
    session.consult(ALL_VIEWS_SOURCE)
    return session


@pytest.fixture()
def session():
    session = make_session()
    yield session
    session.close()


def an_employee(session) -> str:
    return session.database.execute("SELECT nam FROM empl LIMIT 1")[0][0]


# -- span lifecycle -----------------------------------------------------------------


class TestAskSpans:
    def test_every_ask_emits_one_trace(self, session):
        for _ in range(3):
            session.ask("works_dir_for(X, Y)")
        traces = session.traces()
        assert len(traces) == 3
        assert [t["span_id"] for t in traces] == [0, 1, 2]

    def test_cold_ask_records_compile_phases(self, session):
        session.ask("works_dir_for(X, Y)")
        record = session.traces()[0]
        assert record["plan_cache"] == "miss"
        assert record["plan_kind"] == "external"
        for phase in ("classify", "metaevaluate", "optimize", "translate"):
            assert record["phases_ms"][phase] >= 0.0
        assert record["statements"] >= 1
        assert record["sql"].startswith("SELECT")
        assert record["rows"] >= 1
        assert record["answers"] >= 1

    def test_warm_ask_records_hit_and_shape(self, session):
        name = an_employee(session)
        session.ask(f"works_dir_for(X, {name})")
        session.ask(f"works_dir_for(X, {name})")
        session.ask(f"works_dir_for(X, {name})")
        warm = session.traces()[-1]
        assert warm["plan_cache"] == "hit"
        assert warm["plan_kind"] == "external"
        assert warm["shape"] is not None
        assert "shape" in warm["phases_ms"]
        assert warm["duration_ms"] > 0.0

    def test_recursion_decision_in_trace(self, session):
        name = an_employee(session)
        session.ask(f"works_for({name}, X)")
        record = session.traces()[-1]
        assert record["plan_kind"] == "recursive"
        decision = record["recursion"]
        assert decision["strategy"] in ("interval", "cte", "memory")
        assert isinstance(decision["reason"], str) and decision["reason"]
        stats_strategy = session.stats()["recursion_plans"]["last_strategy"]
        assert decision["strategy"] == stats_strategy

    def test_deadline_remaining_recorded(self, session):
        session.ask("works_dir_for(X, Y)", deadline=30.0)
        record = session.traces()[-1]
        assert 0.0 < record["deadline_remaining"] <= 30.0

    def test_error_recorded_and_span_still_committed(self, session):
        with pytest.raises(Exception):
            # recursive views must be called alone: typed CouplingError
            session.ask("works_for(X, Y), works_dir_for(X, Z)")
        record = session.traces()[-1]
        assert "CouplingError" in record["error"]
        assert record["answers"] is None

    def test_uncacheable_shape_is_reported_as_such(self, session):
        """A shape marked uncacheable takes the cold path on every ask;
        its span must say ``uncacheable``, not ``miss``."""
        from repro.coupling import goal_shape
        from repro.prolog import parse_goal

        goal = f"works_dir_for(X, {an_employee(session)})"
        expected = answer_set(session.ask(goal))
        session.plans.mark_uncacheable(goal_shape(parse_goal(goal)))
        assert answer_set(session.ask(goal)) == expected
        record = session.traces()[-1]
        assert (record["plan_cache"], record["plan_kind"]) == (
            "uncacheable", "external",
        )
        assert record["shape"] is not None

    def test_batched_group_expands_to_member_records(self, session):
        names = [
            row[0]
            for row in session.database.execute("SELECT nam FROM empl LIMIT 4")
        ]
        goals = [f"works_dir_for(X, {name})" for name in names]
        session.ask_many(goals)  # warm-up: serial compiles
        serial = [session.ask(goal) for goal in goals]
        before = len([t for t in session.traces() if t["batched"]])
        batched = session.ask_many(goals)
        assert [answer_set(b) for b in batched] == [
            answer_set(s) for s in serial
        ]
        records = [t for t in session.traces() if t["batched"]]
        assert len(records) == before + len(goals)
        group = records[-len(goals):]
        # one record per member goal, consecutive span ids, shared batch
        assert [r["span_id"] for r in group] == list(
            range(group[0]["span_id"], group[0]["span_id"] + len(goals))
        )
        for record, goal, answers in zip(group, goals, batched):
            assert record["goal"] == goal
            assert record["answers"] == len(answers)
            assert record["batch_size"] == len(goals)
            assert record["plan_cache"] == "hit"

    def test_resilience_events_attributed_to_span(self):
        schema = empdep_schema()
        constraints = empdep_constraints(schema)
        database = FaultInjectingBackend(
            schema,
            constraints=constraints,
            schedule=FaultSchedule(
                [FaultEvent(at=2, kind="locked", burst=2)], latency=0.0
            ),
        )
        session = PrologDbSession(
            schema=schema,
            constraints=constraints,
            database=database,
            cache_policy=CachePolicy(enabled=False),
        )
        session.load_org(
            generate_org(depth=2, branching=2, staff_per_dept=3, seed=13)
        )
        session.consult(ALL_VIEWS_SOURCE)
        for _ in range(10):
            session.ask("works_dir_for(X, Y)")
        assert session.stats()["resilience"]["retries"] >= 1
        hit = [t for t in session.traces() if "resilience" in t]
        assert hit, "the retried ask's span should carry the events"
        assert any(r["resilience"].get("retries") for r in hit)
        session.close()


# -- the injected wall clock (satellite) --------------------------------------------


class TestWallClock:
    def test_fake_clock_stamps_spans(self):
        ticks = iter(range(1000, 2000))
        session = make_session(wall_clock=lambda: float(next(ticks)))
        session.ask("works_dir_for(X, Y)")
        session.ask("works_dir_for(X, Y)")
        stamps = [t["started_at"] for t in session.traces()]
        assert stamps == sorted(stamps)
        assert all(1000.0 <= s < 2000.0 for s in stamps)
        session.close()

    def test_default_clock_is_wall_time(self):
        import time

        tracer = Tracer()
        assert tracer.wall_clock is time.time


# -- the trace ring -----------------------------------------------------------------


class TestTraceRing:
    def test_wraparound_keeps_newest(self):
        session = make_session(trace_ring=8)
        for _ in range(20):
            session.ask("works_dir_for(X, Y)")
        traces = session.traces()
        assert len(traces) == 8
        assert [t["span_id"] for t in traces] == list(range(12, 20))
        assert session.stats()["observe"]["spans"] == 20
        session.close()

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            TraceRing(0)

    def test_four_thread_hammer_never_tears(self, session):
        session.ask("works_dir_for(X, Y)")  # warm the shape first
        errors = []
        asks_per_thread = 50

        def hammer():
            try:
                for _ in range(asks_per_thread):
                    session.ask("works_dir_for(X, Y)")
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = 1 + 4 * asks_per_thread
        assert session.stats()["observe"]["spans"] == total
        traces = session.traces()
        ids = [t["span_id"] for t in traces]
        # monotonic, unique ids; nothing beyond what was allocated
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert max(ids) == total - 1
        # no partial spans: every resident record is complete
        for record in traces:
            assert record["plan_cache"] is not None
            assert record["answers"] is not None
            assert record["duration_ms"] >= 0.0
            json.dumps(record)


# -- the disabled tracer ------------------------------------------------------------


class TestDisabledTracer:
    def test_no_span_allocation_when_disabled(self, monkeypatch):
        allocations = []
        real_init = AskTrace.__init__

        def counting_init(self, *args, **kwargs):
            allocations.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(tracer_module.AskTrace, "__init__", counting_init)
        session = make_session(tracing=False)
        for _ in range(5):
            session.ask("works_dir_for(X, Y)")
        session.ask_many(["works_dir_for(X, Y)"] * 3)
        assert allocations == []
        assert session.traces() == []
        assert session.database.observer is None
        assert session.stats()["observe"]["enabled"] is False
        session.close()

    def test_enabled_tracer_installs_backend_observer(self, session):
        assert session.database.observer is not None


# -- slow-query log -----------------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_triggers_full_capture_with_explain(self):
        session = make_session(slow_query_seconds=0.0)
        session.ask("works_dir_for(X, Y)")
        slow = session.slow_queries()
        assert len(slow) == 1
        record = slow[0]
        assert record["slow"] is True
        assert record["sql"].startswith("SELECT")
        assert record["explain"], "EXPLAIN QUERY PLAN lines expected"
        assert any("empl" in line for line in record["explain"])
        assert session.stats()["observe"]["slow_queries"] == 1
        session.close()

    def test_fast_asks_stay_out_of_the_log(self, session):
        session.ask("works_dir_for(X, Y)")  # default threshold: 0.25 s
        assert session.slow_queries() == []


# -- export surface -----------------------------------------------------------------


class TestExportSurface:
    def test_stats_round_trips_through_json(self, session):
        name = an_employee(session)
        session.materialize.view("works_dir_for(X, Y)")
        session.ask("works_dir_for(X, Y)")
        session.ask(f"works_for({name}, X)")
        session.assert_fact("empl", 909, "emp00909", 27000, 1)
        session.ask("works_dir_for(X, Y)")
        stats = session.stats()
        restored = json.loads(json.dumps(stats))
        assert restored["materialize"]["views"] == stats["materialize"]["views"]
        assert restored["observe"]["spans"] == stats["observe"]["spans"]
        # every subsection is a plain dict after the normalization fix
        for name_, section in restored.items():
            assert isinstance(section, dict), name_

    def test_traces_round_trip_through_json(self, session):
        session.ask("works_dir_for(X, Y)")
        session.ask(f"works_for({an_employee(session)}, X)")
        restored = json.loads(json.dumps(session.traces()))
        assert len(restored) == 2

    def test_observe_stats_histograms(self, session):
        name = an_employee(session)
        for _ in range(5):
            session.ask(f"works_dir_for(X, {name})")
        observe = session.stats()["observe"]
        assert observe["spans"] == 5
        digest, histogram = next(iter(observe["histograms"].items()))
        assert histogram["count"] == 5
        assert 0.0 <= histogram["p50_ms"] <= histogram["p95_ms"]
        assert histogram["p95_ms"] <= histogram["p99_ms"]
        assert histogram["goal"] == f"works_dir_for(X, {name})"
        assert observe["hit_rates"]["plan_cache"] is not None

    def test_on_span_callback_streams_records(self, session):
        seen = []
        session.on_span(seen.append)
        session.ask("works_dir_for(X, Y)")
        session.ask("works_dir_for(X, Y)")
        assert len(seen) == 2
        assert seen[0]["span_id"] == 0
        assert seen[1]["plan_cache"] is not None

    def test_failing_callback_never_fails_the_ask(self, session):
        def explode(record):
            raise RuntimeError("sink down")

        session.on_span(explode)
        answers = session.ask("works_dir_for(X, Y)")
        assert answers
        assert session.stats()["observe"]["callback_errors"] == 1

    def test_export_trace_writes_json_file(self, session, tmp_path):
        session.ask("works_dir_for(X, Y)")
        session.ask("works_dir_for(X, Y)")
        path = tmp_path / "trace.json"
        written = session.export_trace(path)
        assert written == 2
        payload = json.loads(path.read_text())
        assert len(payload["traces"]) == 2
        assert payload["observe"]["spans"] == 2


# -- shape digests ------------------------------------------------------------------


class TestShapeDigest:
    def test_stable_and_distinct(self):
        key_a = (("c", "works_dir_for", ("v", "X", 0), ("p", 0)),)
        key_b = (("c", "works_for", ("v", "X", 0), ("p", 0)),)
        assert shape_digest(key_a) == shape_digest(key_a)
        assert shape_digest(key_a) != shape_digest(key_b)
        assert len(shape_digest(key_a)) == 12


# -- acceptance: one record explains a degraded ask ---------------------------------


class TestExplainability:
    def test_single_trace_record_explains_a_slow_recursive_ask(self):
        """ISSUE 8 acceptance: phase timings, plan-cache outcome,
        recursion strategy + reason, resilience events, and row counts
        all present in ONE ``session.traces()`` record."""
        session = make_session(slow_query_seconds=0.0)
        name = an_employee(session)
        session.ask(f"works_for({name}, X)")
        record = session.traces()[-1]
        assert record["phases_ms"], "phase timings present"
        assert record["plan_cache"] in ("hit", "miss")
        assert record["recursion"]["strategy"]
        assert record["recursion"]["reason"]
        assert isinstance(record["rows"], int)
        assert isinstance(record["answers"], int)
        assert record["slow"] is True
        # and the same record is in the slow log with full detail
        slow = session.slow_queries()[-1]
        assert slow["span_id"] == record["span_id"]
        session.close()
