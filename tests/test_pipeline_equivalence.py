"""One pipeline, four entry points: answers and counters must agree.

``ask``, ``ask_many``, ``ask_consistent`` and the ``metaevaluate/4``
fetch are entry points into one classify → metaevaluate → simplify →
translate → execute pipeline.  For one goal of every class the session
distinguishes, under every combination of ``plan_cache`` / ``optimize``
/ ``tracing``, across the first, second and third ask of a shape, this
matrix checks that

* all four entry points return the same answer sets (the fetch: the
  facts it asserts, for single-view goals), identical across all eight
  configurations;
* the per-call deltas of the plan-cache, result-cache and statement
  counters equal :data:`PINNED` — recorded from the implementation the
  matrix was written against, so a refactor cannot silently add a
  lookup, a compile or a statement.  Tracing never changes a counter.
  (A fetch's ``bind_empties`` is left unpinned: whether replaying an
  exact plan that simplification proved empty counts as a *bind-time*
  proof is the one accounting detail the entry points never agreed on.)

Regenerate the pins (only when a counter change is intended) with
``PYTHONPATH=src python tests/test_pipeline_equivalence.py``.
"""

import itertools
import pprint

import pytest

from repro.coupling import PrologDbSession
from repro.dbms import generate_org
from repro.dbms.internal_db import term_to_value
from repro.prolog import parse_goal
from repro.prolog.terms import variables_of
from repro.prolog.unify import unify
from repro.schema import ALL_VIEWS_SOURCE

EXTRA_VIEWS = """
paid_below(N, S, T) :- empl(_, N, S, _), less(S, T).
earns(N, S) :- empl(_, N, S, _).
"""

COUNTERS = (
    ("plan_cache", "hits"),
    ("plan_cache", "misses"),
    ("plan_cache", "compiled"),
    ("plan_cache", "specialised"),
    ("plan_cache", "bind_empties"),
    ("database", "queries_executed"),
    ("result_cache", "hits"),
    ("result_cache", "misses"),
    ("result_cache", "stored"),
    ("result_cache", "rejected"),
)

CONFIGS = list(itertools.product((True, False), repeat=3))


def make_org():
    return generate_org(depth=3, branching=2, staff_per_dept=4, seed=23)


def goal_classes(org):
    """Three asks per class (``mixed``: four); ``fetch`` marks single-view
    goals, ``oracle`` maps a goal's position to its expected answers."""
    by_eno = {e.eno: e.nam for e in org.employees}
    managers = [by_eno[d.mgr] for d in org.departments if d.mgr in by_eno]
    staff = [e.nam for e in org.employees if e.nam not in managers]
    return {
        "flat": {
            "goals": [f"works_dir_for(X, {m})" for m in managers[:3]],
            "fetch": True,
            "nonempty": True,
        },
        "sensitive": {
            "goals": [f"paid_below(N, S, {t})" for t in (30000, 50000, 70000)],
            "fetch": True,
            "nonempty": True,
        },
        "empty_constraint": {
            "goals": [f"paid_below(N, S, {t})" for t in (5000, 6000, 5000)],
            "fetch": True,
            "nonempty": False,
        },
        "empty_bind": {
            # two in-domain salaries parameterize the shape; the third
            # violates sal's declared bound and is proved empty at bind
            "goals": [f"earns(N, {s})" for s in (25000, 35000, 5000)],
            "fetch": True,
            "nonempty": False,
        },
        "mixed": {
            "goals": [
                f"works_dir_for(X, {m}), specialist(X, driving)"
                for m in (managers[0], managers[1], managers[0])
            ]
            # answer variables only the external block binds
            + ["empl(E, N, S, D), specialist(N, driving)"],
            "fetch": False,
            "nonempty": True,
            "oracle": {
                3: answer_set(
                    {"E": e.eno, "N": e.nam, "S": e.sal, "D": e.dno}
                    for e in org.employees
                    if e.nam in staff
                )
            },
        },
        "engine": {
            "goals": ["specialist(X, driving)"] * 3,
            "fetch": False,
            "nonempty": True,
        },
        "recursive": {
            "goals": [
                f"works_for(X, {m})"
                for m in (managers[0], managers[1], managers[0])
            ],
            "fetch": False,
            "nonempty": True,
        },
    }, staff


def make_session(org, staff, plan_cache, optimize, tracing):
    session = PrologDbSession(
        plan_cache=plan_cache, optimize=optimize, tracing=tracing
    )
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE + EXTRA_VIEWS)
    for name in staff:
        session.assert_fact("specialist", name, "driving")
    return session


def answer_set(answers):
    return frozenset(frozenset(answer.items()) for answer in answers)


def counters(session):
    stats = session.stats()
    return tuple(stats[group][name] for group, name in COUNTERS)


def delta(session, call):
    before = counters(session)
    result = call()
    after = counters(session)
    return result, tuple(b - a for a, b in zip(before, after))


def asserted_answers(session, goal_text):
    """The facts a fetch left under the goal's view, as answer dicts."""
    goal = parse_goal(goal_text)
    wanted = [v for v in variables_of(goal) if not v.is_anonymous]
    answers = []
    for clause in session.kb.all_clauses(goal.indicator):
        if not clause.is_fact:
            continue
        binding = unify(goal, clause.head)
        if binding is not None:
            answers.append(
                {v.name: term_to_value(binding.apply(v)) for v in wanted}
            )
    return answers


def observe(org, staff, spec, plan_cache, optimize, tracing):
    """Run one class through all four entry points, each on a fresh session.

    Returns ``(answers, deltas)``: per entry point, the three calls'
    answer sets (``ask_many``: a pair per call) and counter deltas.
    """
    goals = spec["goals"]
    answers, deltas = {}, {}

    def fresh():
        return make_session(org, staff, plan_cache, optimize, tracing)

    def record(name, session, calls, unpinned=()):
        results = [delta(session, call) for call in calls]
        session.close()
        answers[name] = [result for result, _ in results]
        deltas[name] = [
            tuple(
                None if counter in unpinned else value
                for counter, value in zip(COUNTERS, change)
            )
            for _, change in results
        ]

    session = fresh()
    record("ask", session, [lambda g=g: answer_set(session.ask(g)) for g in goals])
    session = fresh()
    record(
        "many",
        session,
        [
            lambda i=i: tuple(
                answer_set(member)
                for member in session.ask_many(
                    [goals[i], goals[(i + 1) % len(goals)]]
                )
            )
            for i in range(len(goals))
        ],
    )
    session = fresh()
    record(
        "consistent",
        session,
        [lambda g=g: answer_set(session.ask_consistent(g)) for g in goals],
    )
    if spec["fetch"]:
        session = fresh()

        def fetch(goal):
            session.ask(f"metaevaluate(pr, [{goal}], optim, DBCL)")
            return answer_set(asserted_answers(session, goal))

        record(
            "fetch",
            session,
            [lambda g=g: fetch(g) for g in goals],
            unpinned={("plan_cache", "bind_empties")},
        )
    return answers, deltas


# {(class, plan_cache, optimize): {entry point: [delta per call]}}, each
# delta in COUNTERS order.
PINNED = {('empty_bind', False, False): {'ask': [(0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                        (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                        (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                                'consistent': [(0, 0, 0, 0, 0, 2, 0, 1, 1, 0),
                                               (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                               (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                                'fetch': [(0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                          (0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                          (0, 0, 0, 0, None, 1, 0, 1, 1, 0)],
                                'many': [(0, 0, 0, 0, 0, 2, 0, 2, 2, 0),
                                         (0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
                                         (0, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('empty_bind', False, True): {'ask': [(0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                       (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                       (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                               'consistent': [(0, 0, 0, 0, 0, 2, 0, 1, 1, 0),
                                              (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                              (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                               'fetch': [(0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                         (0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                         (0, 0, 0, 0, None, 0, 0, 0, 0, 0)],
                               'many': [(0, 0, 0, 0, 0, 2, 0, 2, 2, 0),
                                        (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
                                        (0, 0, 0, 0, 0, 0, 1, 0, 0, 0)]},
 ('empty_bind', True, False): {'ask': [(0, 1, 1, 0, 0, 1, 0, 1, 1, 0),
                                       (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                       (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)],
                               'consistent': [(0, 1, 1, 0, 0, 2, 0, 1, 1, 0),
                                              (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                              (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)],
                               'fetch': [(0, 1, 1, 0, None, 1, 0, 1, 1, 0),
                                         (1, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                         (1, 0, 0, 0, None, 0, 0, 0, 0, 0)],
                               'many': [(1, 1, 1, 0, 0, 2, 0, 2, 2, 0),
                                        (2, 0, 0, 0, 2, 0, 1, 0, 0, 0),
                                        (2, 0, 0, 0, 2, 0, 1, 0, 0, 0)]},
 ('empty_bind', True, True): {'ask': [(0, 1, 1, 0, 0, 1, 0, 1, 1, 0),
                                      (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                      (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)],
                              'consistent': [(0, 1, 1, 0, 0, 2, 0, 1, 1, 0),
                                             (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                             (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)],
                              'fetch': [(0, 1, 1, 0, None, 1, 0, 1, 1, 0),
                                        (1, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                        (1, 0, 0, 0, None, 0, 0, 0, 0, 0)],
                              'many': [(1, 1, 1, 0, 0, 2, 0, 2, 2, 0),
                                       (2, 0, 0, 0, 2, 0, 1, 0, 0, 0),
                                       (2, 0, 0, 0, 2, 0, 1, 0, 0, 0)]},
 ('empty_constraint', False, False): {'ask': [(0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                              (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                              (0, 0, 0, 0, 0, 0, 1, 0, 0, 0)],
                                      'consistent': [(0, 0, 0, 0, 0, 2, 0, 1, 1, 0),
                                                     (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                                     (0, 0, 0, 0, 0, 0, 1, 0, 0, 0)],
                                      'fetch': [(0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                                (0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                                (0, 0, 0, 0, None, 0, 1, 0, 0, 0)],
                                      'many': [(0, 0, 0, 0, 0, 2, 0, 2, 2, 0),
                                               (0, 0, 0, 0, 0, 0, 2, 0, 0, 0),
                                               (0, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('empty_constraint', False, True): {'ask': [(0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                             (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                             (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                                     'consistent': [(0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
                                                    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                                    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                                     'fetch': [(0, 0, 0, 0, None, 0, 0, 0, 0, 0),
                                               (0, 0, 0, 0, None, 0, 0, 0, 0, 0),
                                               (0, 0, 0, 0, None, 0, 0, 0, 0, 0)],
                                     'many': [(0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                              (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                              (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)]},
 ('empty_constraint', True, False): {'ask': [(0, 1, 1, 0, 0, 1, 0, 1, 1, 0),
                                             (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                             (1, 0, 0, 0, 0, 0, 1, 0, 0, 0)],
                                     'consistent': [(0, 1, 1, 0, 0, 2, 0, 1, 1, 0),
                                                    (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                                    (1, 0, 0, 0, 0, 0, 1, 0, 0, 0)],
                                     'fetch': [(0, 1, 1, 0, None, 1, 0, 1, 1, 0),
                                               (1, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                               (1, 0, 0, 0, None, 0, 1, 0, 0, 0)],
                                     'many': [(1, 1, 1, 0, 0, 2, 0, 2, 2, 0),
                                              (2, 0, 0, 0, 0, 0, 2, 0, 0, 0),
                                              (2, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('empty_constraint', True, True): {'ask': [(0, 1, 1, 1, 0, 0, 0, 0, 0, 0),
                                            (0, 1, 1, 1, 0, 0, 0, 0, 0, 0),
                                            (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                                    'consistent': [(0, 1, 1, 1, 0, 1, 0, 0, 0, 0),
                                                   (0, 1, 1, 1, 0, 0, 0, 0, 0, 0),
                                                   (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                                    'fetch': [(0, 1, 1, 1, None, 0, 0, 0, 0, 0),
                                              (0, 1, 1, 1, None, 0, 0, 0, 0, 0),
                                              (1, 0, 0, 0, None, 0, 0, 0, 0, 0)],
                                    'many': [(0, 2, 2, 2, 0, 0, 0, 0, 0, 0),
                                             (2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                             (2, 0, 0, 0, 0, 0, 0, 0, 0, 0)]},
 ('engine', False, False): {'ask': [(0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                            'consistent': [(0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                           (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                           (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                            'many': [(0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)]},
 ('engine', False, True): {'ask': [(0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                   (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                           'consistent': [(0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                          (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                          (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                           'many': [(0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)]},
 ('engine', True, False): {'ask': [(0, 1, 1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                   (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                           'consistent': [(0, 1, 1, 0, 0, 0, 0, 0, 0, 0),
                                          (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                          (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                           'many': [(1, 1, 1, 0, 0, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                    (2, 0, 0, 0, 0, 0, 0, 0, 0, 0)]},
 ('engine', True, True): {'ask': [(0, 1, 1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                  (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                          'consistent': [(0, 1, 1, 0, 0, 0, 0, 0, 0, 0),
                                         (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                         (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                          'many': [(1, 1, 1, 0, 0, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                   (2, 0, 0, 0, 0, 0, 0, 0, 0, 0)]},
 ('flat', False, False): {'ask': [(0, 0, 0, 0, 0, 1, 0, 1, 1, 0), (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                  (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                          'consistent': [(0, 0, 0, 0, 0, 3, 0, 1, 1, 0),
                                         (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                         (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                          'fetch': [(0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                    (0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                    (0, 0, 0, 0, None, 1, 0, 1, 1, 0)],
                          'many': [(0, 0, 0, 0, 0, 2, 0, 2, 2, 0), (0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
                                   (0, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('flat', False, True): {'ask': [(0, 0, 0, 0, 0, 1, 0, 1, 1, 0), (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                 (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                         'consistent': [(0, 0, 0, 0, 0, 3, 0, 1, 1, 0),
                                        (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                        (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                         'fetch': [(0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                   (0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                   (0, 0, 0, 0, None, 1, 0, 1, 1, 0)],
                         'many': [(0, 0, 0, 0, 0, 2, 0, 2, 2, 0), (0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
                                  (0, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('flat', True, False): {'ask': [(0, 1, 1, 0, 0, 1, 0, 1, 1, 0), (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                 (1, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                         'consistent': [(0, 1, 1, 0, 0, 3, 0, 1, 1, 0),
                                        (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                        (1, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                         'fetch': [(0, 1, 1, 0, None, 1, 0, 1, 1, 0),
                                   (1, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                   (1, 0, 0, 0, None, 1, 0, 1, 1, 0)],
                         'many': [(1, 1, 1, 0, 0, 2, 0, 2, 2, 0), (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
                                  (0, 0, 0, 0, 0, 1, 0, 0, 0, 0)]},
 ('flat', True, True): {'ask': [(0, 1, 1, 0, 0, 1, 0, 1, 1, 0), (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                (1, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                        'consistent': [(0, 1, 1, 0, 0, 3, 0, 1, 1, 0),
                                       (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                       (1, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                        'fetch': [(0, 1, 1, 0, None, 1, 0, 1, 1, 0),
                                  (1, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                  (1, 0, 0, 0, None, 1, 0, 1, 1, 0)],
                        'many': [(1, 1, 1, 0, 0, 2, 0, 2, 2, 0), (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
                                 (0, 0, 0, 0, 0, 1, 0, 0, 0, 0)]},
 ('mixed', False, False): {'ask': [(0, 0, 0, 0, 0, 1, 0, 1, 1, 0), (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                   (0, 0, 0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                           'consistent': [(0, 0, 0, 0, 0, 3, 0, 1, 1, 0),
                                          (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                          (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
                                          (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                           'many': [(0, 0, 0, 0, 0, 2, 0, 2, 2, 0), (0, 0, 0, 0, 0, 0, 2, 0, 0, 0),
                                    (0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
                                    (0, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('mixed', False, True): {'ask': [(0, 0, 0, 0, 0, 1, 0, 1, 1, 0), (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                  (0, 0, 0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                          'consistent': [(0, 0, 0, 0, 0, 3, 0, 1, 1, 0),
                                         (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                         (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
                                         (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                          'many': [(0, 0, 0, 0, 0, 2, 0, 2, 2, 0), (0, 0, 0, 0, 0, 0, 2, 0, 0, 0),
                                   (0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
                                   (0, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('mixed', True, False): {'ask': [(0, 1, 1, 0, 0, 1, 0, 1, 1, 0), (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                  (1, 0, 0, 0, 0, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 1, 0, 1, 1, 0)],
                          'consistent': [(0, 1, 1, 0, 0, 3, 0, 1, 1, 0),
                                         (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                         (1, 0, 0, 0, 0, 0, 1, 0, 0, 0),
                                         (0, 1, 1, 0, 0, 1, 0, 1, 1, 0)],
                          'many': [(1, 1, 1, 0, 0, 2, 0, 2, 2, 0), (2, 0, 0, 0, 0, 0, 2, 0, 0, 0),
                                   (1, 1, 1, 0, 0, 1, 1, 1, 1, 0),
                                   (2, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('mixed', True, True): {'ask': [(0, 1, 1, 0, 0, 1, 0, 1, 1, 0), (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                 (1, 0, 0, 0, 0, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 1, 0, 1, 1, 0)],
                         'consistent': [(0, 1, 1, 0, 0, 3, 0, 1, 1, 0),
                                        (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                        (1, 0, 0, 0, 0, 0, 1, 0, 0, 0),
                                        (0, 1, 1, 0, 0, 1, 0, 1, 1, 0)],
                         'many': [(1, 1, 1, 0, 0, 2, 0, 2, 2, 0), (2, 0, 0, 0, 0, 0, 2, 0, 0, 0),
                                  (1, 1, 1, 0, 0, 1, 1, 1, 1, 0), (2, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('recursive', False, False): {'ask': [(0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
                                       (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                       (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                               'consistent': [(0, 0, 0, 0, 0, 3, 0, 0, 0, 0),
                                              (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                              (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                               'many': [(0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
                                        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)]},
 ('recursive', False, True): {'ask': [(0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
                                      (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                      (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                              'consistent': [(0, 0, 0, 0, 0, 3, 0, 0, 0, 0),
                                             (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                             (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                              'many': [(0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
                                       (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                       (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)]},
 ('recursive', True, False): {'ask': [(0, 1, 1, 0, 0, 1, 0, 0, 0, 0),
                                      (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                      (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                              'consistent': [(0, 1, 1, 0, 0, 3, 0, 0, 0, 0),
                                             (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                             (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                              'many': [(1, 1, 1, 0, 0, 1, 0, 0, 0, 0),
                                       (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                       (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)]},
 ('recursive', True, True): {'ask': [(0, 1, 1, 0, 0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                     (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                             'consistent': [(0, 1, 1, 0, 0, 3, 0, 0, 0, 0),
                                            (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                            (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)],
                             'many': [(1, 1, 1, 0, 0, 1, 0, 0, 0, 0),
                                      (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
                                      (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)]},
 ('sensitive', False, False): {'ask': [(0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                       (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                       (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                               'consistent': [(0, 0, 0, 0, 0, 2, 0, 1, 1, 0),
                                              (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                              (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                               'fetch': [(0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                         (0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                         (0, 0, 0, 0, None, 1, 0, 1, 1, 0)],
                               'many': [(0, 0, 0, 0, 0, 2, 0, 2, 2, 0),
                                        (0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
                                        (0, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('sensitive', False, True): {'ask': [(0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                      (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                      (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                              'consistent': [(0, 0, 0, 0, 0, 2, 0, 1, 1, 0),
                                             (0, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                             (0, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                              'fetch': [(0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                        (0, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                        (0, 0, 0, 0, None, 1, 0, 1, 1, 0)],
                              'many': [(0, 0, 0, 0, 0, 2, 0, 2, 2, 0),
                                       (0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
                                       (0, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('sensitive', True, False): {'ask': [(0, 1, 1, 0, 0, 1, 0, 1, 1, 0),
                                      (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                      (1, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                              'consistent': [(0, 1, 1, 0, 0, 2, 0, 1, 1, 0),
                                             (1, 0, 0, 0, 0, 1, 0, 1, 1, 0),
                                             (1, 0, 0, 0, 0, 1, 0, 1, 1, 0)],
                              'fetch': [(0, 1, 1, 0, None, 1, 0, 1, 1, 0),
                                        (1, 0, 0, 0, None, 1, 0, 1, 1, 0),
                                        (1, 0, 0, 0, None, 1, 0, 1, 1, 0)],
                              'many': [(1, 1, 1, 0, 0, 2, 0, 2, 2, 0),
                                       (2, 0, 0, 0, 0, 1, 1, 1, 1, 0),
                                       (2, 0, 0, 0, 0, 0, 2, 0, 0, 0)]},
 ('sensitive', True, True): {'ask': [(0, 1, 1, 1, 0, 1, 0, 1, 1, 0), (0, 1, 1, 1, 0, 1, 0, 1, 1, 0),
                                     (0, 1, 1, 1, 0, 1, 0, 1, 1, 0)],
                             'consistent': [(0, 1, 1, 1, 0, 2, 0, 1, 1, 0),
                                            (0, 1, 1, 1, 0, 1, 0, 1, 1, 0),
                                            (0, 1, 1, 1, 0, 1, 0, 1, 1, 0)],
                             'fetch': [(0, 1, 1, 1, None, 1, 0, 1, 1, 0),
                                       (0, 1, 1, 1, None, 1, 0, 1, 1, 0),
                                       (0, 1, 1, 1, None, 1, 0, 1, 1, 0)],
                             'many': [(0, 2, 2, 2, 0, 2, 0, 2, 2, 0),
                                      (1, 1, 1, 1, 0, 1, 1, 1, 1, 0),
                                      (2, 0, 0, 0, 0, 0, 2, 0, 0, 0)]}}


@pytest.fixture(scope="module")
def world():
    org = make_org()
    classes, staff = goal_classes(org)
    return org, classes, staff


@pytest.mark.parametrize(
    "name",
    ["flat", "sensitive", "empty_constraint", "empty_bind", "mixed", "engine",
     "recursive"],
)
def test_entry_points_agree_and_counters_are_pinned(world, name):
    org, classes, staff = world
    spec = classes[name]
    reference = None
    for plan_cache, optimize, tracing in CONFIGS:
        config = (plan_cache, optimize, tracing)
        answers, deltas = observe(org, staff, spec, *config)
        asked = answers["ask"]
        if reference is None:
            reference = asked
            if spec["nonempty"]:
                assert all(asked), (name, "expected answers")
            else:
                assert not asked[2], (name, "expected an empty answer")
        assert asked == reference, (name, config, "ask differs across configs")
        assert answers["consistent"] == asked, (name, config, "ask_consistent")
        for i, expected in spec.get("oracle", {}).items():
            assert asked[i] == expected, (name, config, "oracle", i)
        for i, members in enumerate(answers["many"]):
            assert members == (asked[i], asked[(i + 1) % len(asked)]), (
                name, config, "ask_many call", i,
            )
        if spec["fetch"]:
            assert answers["fetch"] == asked, (name, config, "fetch")
        assert deltas == PINNED[(name, plan_cache, optimize)], (name, config)


def _regenerate():
    org = make_org()
    classes, staff = goal_classes(org)
    pinned = {}
    for name, spec in classes.items():
        for plan_cache, optimize in itertools.product((True, False), repeat=2):
            _, deltas = observe(org, staff, spec, plan_cache, optimize, True)
            pinned[(name, plan_cache, optimize)] = deltas
    print("PINNED = " + pprint.pformat(pinned, width=100, compact=True))


if __name__ == "__main__":
    _regenerate()
