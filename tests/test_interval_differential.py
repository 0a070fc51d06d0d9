"""Interval labels against the CTE after every write, on every route.

Each example loads the tiny or the small org and applies a random
sequence of writes, each through the session (``assert_fact`` /
``retract_fact``) or straight to the backend (``insert_rows`` /
``delete_row``).  The rows written are a leaf hire, an internal
manager's own row, a department's manager row and its replacement (a
subtree move), a second department for an existing name (a node with
two parents; its delete is the undo), and a second row for an existing
name in its own department (the same edge twice).  After each write, for every
node and both bound sides, ``ask``, ``ask_many`` and
``solve_recursive(strategy="interval")`` answer as
``strategy="cte"`` — or, on non-tree data, the labels demote and the
planner takes the CTE — and no ask commits.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.coupling import PrologDbSession  # noqa: E402
from repro.dbms import generate_org  # noqa: E402
from repro.errors import IntervalUnavailable  # noqa: E402
from repro.schema import ALL_VIEWS_SOURCE  # noqa: E402

ORGS = {
    "tiny": generate_org(depth=2, branching=2, staff_per_dept=3, seed=1),
    "small": generate_org(depth=4, branching=2, staff_per_dept=4, seed=7),
}


def writable_rows(org):
    """``(relation, row)`` pairs the writes add and remove."""
    by_eno = {e.eno: e for e in org.employees}
    managers = {d.mgr for d in org.departments}
    moved = next(d for d in org.departments if d.dno != d.mgr and d.mgr in by_eno
                 and by_eno[d.mgr].dno != d.dno)
    internal = next(
        e for e in org.employees if e.eno in managers and e.dno != moved.dno
    )
    other = next(d for d in org.departments if d.dno not in (moved.dno, internal.dno))
    clone = next(e for e in org.employees if e.dno == moved.dno)
    return [
        ("empl", (99001, "hyp_hire", 20000, org.departments[-1].dno)),  # leaf
        ("empl", (internal.eno, internal.nam, internal.sal, internal.dno)),
        ("dept", (moved.dno, moved.fct, moved.mgr)),
        ("dept", (moved.dno, moved.fct, other.mgr)),  # the manager moves
        ("empl", (clone.eno + 90000, clone.nam, clone.sal, other.dno)),  # 2 parents
        ("empl", (clone.eno + 80000, clone.nam, clone.sal, clone.dno)),  # edge twice
    ]


writes = st.lists(
    st.tuples(
        st.sampled_from(["session", "backend"]),
        st.booleans(),  # add (True) or remove
        st.integers(min_value=0, max_value=5),  # index into writable_rows
    ),
    min_size=1,
    max_size=5,
)


def apply(session, route, add, relation, row):
    if route == "session":
        if add:
            session.assert_fact(relation, *row)
        else:
            session.retract_fact(relation, *row)
    elif add:
        session.database.insert_rows(relation, [row])
    else:
        session.database.delete_row(relation, row)


def goal(side, node):
    return f"works_for('{node}', Y)" if side == "low" else f"works_for(X, '{node}')"


def is_forest(session):
    """One parent per node and no cycle beyond a self-loop, by ``ask``."""
    parent = {}
    for answer in session.ask("works_dir_for(X, Y)"):
        low, high = answer["X"], answer["Y"]
        if low != high:
            if parent.setdefault(low, high) != high:
                return False
    for node in parent:
        seen = set()
        while node in parent:
            if node in seen:
                return False
            seen.add(node)
            node = parent[node]
    return True


def check(session, nodes):
    """Every node, both sides: the labels equal the CTE, or they demote —
    exactly when the data is not a forest.  Ancestor asks run before and
    after the descendant asks: while the tour is stale they read the CTE,
    once it is current (the ``interval`` solves below rebuild it) the
    tour."""
    stats = session.database.stats
    index = session.closure_for("works_for").interval_index()
    forest = is_forest(session)
    for side, variable in (("low", "Y"), ("high", "X"), ("low", "Y")):
        expected = []
        for node in nodes:
            run = session.solve_recursive("works_for", strategy="cte", **{side: node})
            expected.append(run.nodes(side))
            try:
                labels = session.solve_recursive(
                    "works_for", strategy="interval", **{side: node}
                )
            except IntervalUnavailable:
                demoted = True
            else:
                demoted = False
                assert labels.pairs == run.pairs, (side, node)
        goals = [goal(side, node) for node in nodes]
        stale = index.current() is None
        commits = stats.commits
        asked = [[a[variable] for a in session.ask(text)] for text in goals]
        assert asked == expected, side
        many = session.ask_many(goals)
        assert [[a[variable] for a in answers] for answers in many] == expected
        assert stats.commits == commits, "an ask committed"
        assert demoted != forest
        read = "cte" if demoted or (side == "low" and stale) else "interval"
        assert session.stats()["recursion_plans"]["last_strategy"] == read


@pytest.mark.parametrize("shape", sorted(ORGS))
@settings(
    max_examples=8,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@example(ops=[("session", True, 4), ("session", False, 4)])  # two parents, undone
@example(ops=[("backend", True, 4), ("backend", False, 4)])
@example(ops=[("session", False, 2), ("session", True, 3), ("backend", False, 1)])
@example(ops=[("backend", True, 5), ("session", True, 0), ("backend", False, 5)])
@given(ops=writes)
def test_labels_answer_as_the_cte_after_every_write(shape, ops):
    org = ORGS[shape]
    rows = writable_rows(org)
    nodes = sorted({e.nam for e in org.employees} | {"hyp_hire"})
    session = PrologDbSession()
    try:
        session.load_org(org)
        session.consult(ALL_VIEWS_SOURCE)
        check(session, nodes)
        for route, add, index in ops:
            apply(session, route, add, *rows[index])
            check(session, nodes)
    finally:
        session.close()
