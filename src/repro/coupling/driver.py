"""The one ask driver: every entry point, one path.

``ask``, ``ask_consistent`` and the ``metaevaluate/4`` fetch all run
``lookup(goal, mode)`` → hit: ``execute(plan, constants)`` | miss:
``compile(goal, mode)`` → ``execute`` → ``store``, wrapped once in
tracing, a deadline scope and transient retry (stage diagram: README,
"The compile-once ask path").  A goal text is scanned first: once its
skeleton is learned, the scan alone gives its shape and goal term.  A
:class:`~.compiler.Mode` selects the shape-key prefix, the compiler's
front and finish and — through the plan's kind — the executor's answer
assembly; nothing here forks on it beyond the consistent mode's
violation probe.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from ..errors import ExecutionError, TransientBackendError
from ..prolog.terms import Term
from .compiler import CQA, PLAIN, Mode
from .global_opt import GoalShape

#: Sentinel: an ask under the read lock reached a step that mutates (a
#: cold compile, a stale maintained view, a failed warm plan's recovery);
#: :func:`attempt` re-runs it under the write lock.
NEEDS_WRITE = object()

#: Plan kinds a warm ask may execute under the read lock (an ``external``
#: plan with no internal conjuncts; a ``recursive`` plan, every rung of
#: whose ladder is a read).
_READ_KINDS = frozenset({"external", "recursive"})


def drive(
    session,
    goal: Union[str, Term],
    mode: Mode,
    max_solutions: Optional[int],
    deadline: Optional[float],
    shape: Optional[GoalShape] = None,
) -> list[dict]:
    """Answer one goal: span, deadline scope and transient retry.

    Wraps :func:`attempt` for every public ask entry point; a caller
    that scanned the goal already passes its term and ``shape``.  A
    transient backend failure that outlasted the backend's own retry
    ladder restarts the whole attempt, bounded by the fault policy's
    ``max_ask_retries``.
    """
    if isinstance(goal, str):
        shape, term = session._compiler.scan(goal)
        goal = shape.goal() if term is None else term
    tracer = session.tracer
    database = session.database
    span = tracer.begin(goal, mode.span_kind)
    try:
        with database.deadline(deadline):
            attempts = 0
            while True:
                try:
                    answers = attempt(session, goal, mode, max_solutions, span, shape)
                    break
                except TransientBackendError:
                    attempts += 1
                    policy = database.policy
                    if not policy.enabled or attempts > policy.max_ask_retries:
                        raise
                    database.resilience.incr("ask_retries")
                    pause = policy.ask_retry_pause * min(attempts, 8)
                    scope = database.current_deadline()
                    if scope is not None:
                        if scope.expired:
                            raise  # the next attempt could only time out
                        pause = scope.clamp(pause)
                    time.sleep(pause)
            if span is not None and deadline is not None:
                scope = database.current_deadline()
                if scope is not None:
                    span.deadline_remaining = round(scope.remaining(), 6)
        if span is not None:
            span.answers = len(answers)
        return answers
    except Exception as error:
        if span is not None:
            span.error = f"{type(error).__name__}: {error}"
        raise
    finally:
        if span is not None:
            tracer.commit(span)


def attempt(
    session, goal: Term, mode: Mode, max_solutions: Optional[int], span=None,
    shape: Optional[GoalShape] = None,
) -> list[dict]:
    """One attempt: under the read lock if possible, else the write lock.

    A consistent ask first probes the goal's relations for key
    violations; a clean store answers through the plain mode, a dirty
    one compiles and runs its certain-answer plan on the write side.
    """
    dirty = None
    if mode is CQA:
        dirty = session._cqa.dirty(session._compiler.base_relations(goal))
        if not dirty:
            # Every repair of a clean store is the store itself:
            # certain answers coincide with plain answers, and the
            # plain mode (same span, same caches) answers without one
            # extra statement beyond the cached probes above.
            session.cqa_stats.incr("clean_fast_paths")
            if span is not None:
                span.cqa = {"mode": "clean_fast_path", "violating_blocks": 0}
            mode = PLAIN
    lock = session.kb.lock
    if mode is PLAIN:
        with lock.read():
            answers = answer(
                session, goal, mode, max_solutions, span, False, None, shape
            )
        if answers is not NEEDS_WRITE:
            return answers
    with lock.write():
        return answer(session, goal, mode, max_solutions, span, True, dirty, shape)


def answer(
    session,
    goal: Term,
    mode: Mode,
    max_solutions: Optional[int],
    span,
    exclusive: bool,
    dirty=None,
    shape: Optional[GoalShape] = None,
):
    """lookup → hit: execute | miss: compile → execute → store.

    The whole pipeline for one goal in one mode.  ``exclusive`` says
    the caller holds the write lock; without it, anything but a warm
    pure-external or recursive execution returns :data:`NEEDS_WRITE`
    so the caller restarts on the write side (which
    repeats the lookup and does the hit/miss accounting).  A read-side
    hit is counted only once it answered, so counts match
    single-threaded use.  The open span (if any) arrives as a
    parameter — the warm path is where the E20 overhead budget is
    spent, and a thread-local read per ask is measurable there.
    ``shape`` is the goal's scanned shape, if it has one.
    """
    if mode is PLAIN:
        if exclusive:
            if span is None:
                span = session.tracer.current_span()
            maintained = session.materialize.answer(goal, max_solutions)
        else:
            status, maintained = session.materialize.try_answer(goal, max_solutions)
            if status == "stale":
                return NEEDS_WRITE
            if status != "hit":
                maintained = None
        if maintained is not None:
            if span is not None:
                span.plan_cache = "maintained"
                span.plan_kind = "maintained"
            return maintained
    shape, plan = session._compiler.lookup(goal, mode, span, exclusive, shape)
    if plan is not None:
        if not exclusive:
            if plan.kind not in _READ_KINDS or plan.internal_indices:
                return NEEDS_WRITE
        elif mode is CQA:
            session.cqa_stats.incr("rewrite_cache_hits")
        try:
            answers = session._executor.execute(
                plan, shape, goal, max_solutions, span, exclusive, dirty
            )
        except TransientBackendError:
            raise  # drive() retries whole attempts
        except ExecutionError:
            # The warm plan failed *permanently* mid-execution (a
            # prepared statement the backend no longer accepts).
            # Recovery mutates the plan cache and recompiles cold:
            # write side only, and not for a certain-answer plan
            # (whose executor already degraded to enumeration).
            if not exclusive:
                return NEEDS_WRITE
            if mode is CQA:
                raise
            # Evict the shape so one cold compile heals it for every
            # later ask; result rows cached through the dead plan were
            # fetched from the state the backend just disowned.
            session.plans.evict(shape)
            session.cache.clear()
            session.database.resilience.incr("plan_invalidations")
            if span is not None:
                span.plan_cache = "miss"
        else:
            if not exclusive:
                session.plans.stats.incr("hits")  # once, where it answered
            return answers
    elif not exclusive:
        return NEEDS_WRITE
    plan = session._compiler.compile(goal, mode, shape)
    if plan is None:
        return None, []  # a fetch already answered internally
    if span is not None:
        span.plan_kind = plan.kind
    answers = session._executor.execute(
        plan, shape, goal, max_solutions, span, True, dirty
    )
    if shape is not None:
        session._compiler.store(shape, plan)
    return answers
