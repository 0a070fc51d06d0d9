"""Stale-row differential: a cache-on session answers as its cache-off twin.

Each example drives two sessions over one org through the same random
sequence of asks and writes.  The writes take every route a base tuple
can: the session's ``assert_fact`` / ``retract_fact``, the backend
directly (``insert_rows`` / ``delete_row``), an engine-level
``assertz(empl(...))`` (stored at once, as on every route),
a consulted base fact, and a consulted redefinition of ``works_dir_for``
(a program change, under the ``same_manager`` view too).  Every answer
of the cache-on session must equal its twin's.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.coupling import CachePolicy, PrologDbSession  # noqa: E402
from repro.dbms import generate_org  # noqa: E402
from repro.schema import SAME_MANAGER_SOURCE, WORKS_DIR_FOR_SOURCE  # noqa: E402

ORG = generate_org(depth=2, branching=2, staff_per_dept=3, seed=1)

#: Rows the writes add and remove: three new hires and two org rows.
ROWS = [
    (901, "hire1", 20000, ORG.departments[0].dno),
    (902, "hire2", 60000, ORG.departments[1].dno),
    (903, "hire3", 30000, ORG.departments[-1].dno),
] + [
    (e.eno, e.nam, e.sal, e.dno) for e in (ORG.employees[3], ORG.employees[-1])
]

#: The hires, the org rows written, and the managers of the hires' departments.
NAMES = sorted(
    {row[1] for row in ROWS}
    | {
        e.nam
        for e in ORG.employees
        if e.eno in {ORG.departments[i].mgr for i in (0, 1, -1)}
    }
)

GOALS = [
    "works_dir_for(X, {})",
    "works_dir_for({}, Y)",
    "same_manager(X, {})",
    "empl(E, {}, S, D)",
]

#: Two definitions of works_dir_for: the paper's, and a salary-restricted one.
VIEWS = [
    WORKS_DIR_FOR_SOURCE,
    "works_dir_for(X, Y) :- "
    "empl(_, X, S, D), dept(D, _, M), empl(M, Y, _, _), less(S, 45000).",
]

ops = st.one_of(
    st.tuples(
        st.just("ask"), st.sampled_from(GOALS), st.sampled_from(NAMES)
    ),
    st.tuples(
        st.sampled_from(
            [
                "assert_fact",
                "retract_fact",
                "insert_rows",
                "delete_row",
                "assertz",
                "consult_fact",
            ]
        ),
        st.sampled_from(ROWS),
    ),
    st.tuples(st.just("consult_view"), st.sampled_from(range(len(VIEWS)))),
)


def answer_set(answers):
    return {frozenset(a.items()) for a in answers}


def make_session(cache_on: bool) -> PrologDbSession:
    session = PrologDbSession(cache_policy=CachePolicy(enabled=cache_on))
    session.load_org(ORG)
    session.consult(WORKS_DIR_FOR_SOURCE)
    session.consult(SAME_MANAGER_SOURCE)
    return session


def apply(session: PrologDbSession, op: tuple):
    """Run one op; an ask returns its answer set, a write None."""
    kind = op[0]
    if kind == "ask":
        return answer_set(session.ask(op[1].format(op[2])))
    if kind == "consult_view":
        session.kb.retract_all(("works_dir_for", 2))
        session.consult(VIEWS[op[1]])
        return None
    row = op[1]
    literal = "empl({}, {}, {}, {})".format(*row)
    if kind == "assert_fact":
        session.assert_fact("empl", *row)
    elif kind == "retract_fact":
        session.retract_fact("empl", *row)
    elif kind == "insert_rows":
        session.database.insert_rows("empl", [row])
    elif kind == "delete_row":
        session.database.delete_row("empl", row)
    elif kind == "assertz":
        list(session.engine.solve(f"assertz({literal})"))
    else:
        session.consult(f"{literal}.")
    return None


@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(ops, min_size=1, max_size=24))
def test_cache_on_answers_equal_cache_off(sequence):
    cached, uncached = make_session(True), make_session(False)
    try:
        # An ask runs twice, so the repeat can be served cached.  A sweep
        # of every goal follows each write: the one before it cached every
        # entry, so an entry the write left stale is read before a later
        # write could move the same generation and hide it.
        sweep = [("ask", goal, name) for goal in GOALS for name in NAMES]
        for op in sweep:
            assert apply(cached, op) == apply(uncached, op), op
        for op in sequence:
            for read in [op, op] if op[0] == "ask" else [op] + sweep:
                assert apply(cached, read) == apply(uncached, read), (op, read)
    finally:
        cached.close()
        uncached.close()
