"""Algorithm 2 over one coded tableau against the frozen stages it replaced.

``repro.optimize`` codes a predicate once and runs every stage over that
working tableau; ``legacy_optimize`` is the frozen per-predicate pipeline.
For every predicate below, under every ``ABLATION_LEVELS`` option set,
both must give the same output predicate text, emptiness, reason,
iteration count and stage log — or raise the same error — and consult a
parameter marker's value (``watch_marker_consultation``) exactly alike.
Non-empty results must also get the same greedy cost order.  The
predicates:

* every ``bench_e2e`` workload family on the benchmark's org, both
  metaevaluated directly (concretely and with every constant a marker)
  and as the session compiles them — ``ask`` with and without the plan
  cache, ``ask_consistent`` — which adds the recursion strategies'
  queries and the compiler's own marker compiles;
* the goals of ``test_paper_traces`` and ``test_pipeline_equivalence``;
* 2,000 derandomized ``tableaux()`` draws, each at a drawn ablation
  level and, half the time, with its constants replaced by markers.

The unit tests at the end pin the coded chase's own promises.
"""

import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_optimize as legacy
from test_pipeline_equivalence import EXTRA_VIEWS, goal_classes
from test_pipeline_equivalence import make_org as equivalence_org
from test_random_tableaux import CONSTRAINTS, SCHEMA, tableaux

import repro.coupling.compiler as compiler_module
import repro.coupling.recursion_exec as recursion_module
import repro.optimize as optimize
from repro.coupling import PrologDbSession
from repro.coupling.global_opt import goal_with_markers, marker_for
from repro.dbcl import (
    Comparison,
    ConstSymbol,
    TableauBuilder,
    TargetSymbol,
    format_dbcl,
)
from repro.dbcl.symbols import watch_marker_consultation
from repro.dbms import generate_org
from repro.optimize import ABLATION_LEVELS, SimplifyOptions, simplify
from repro.optimize.chase import chase_tableau
from repro.optimize.costs import greedy_row_order
from repro.optimize.tableau import Tableau
from repro.prolog import parse_goal
from repro.prolog.terms import variables_of
from repro.schema import ALL_VIEWS_SOURCE, ConstraintSet, ValueBound

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from bench_e2e.workloads import FAMILIES  # noqa: E402

#: bench_e2e's default org shape (depth, branching, staff per dept), seed 5.
BENCH_ORG = dict(depth=5, branching=3, staff_per_dept=8, seed=5)
PAPER_GOALS = (
    "works_dir_for(Nam, smiley)",
    "same_manager(X, jones)",
    "works_dir_for(X, smiley), empl(_, X, S, _), less(S, 40000)",
)


def outcome(module, predicate, constraints, options):
    """What the differential compares, plus the marker consultation."""
    with watch_marker_consultation() as witness:
        try:
            result = module.simplify(predicate, constraints, options)
        except Exception as error:  # noqa: BLE001 - errors must match too
            return ("raised", type(error).__name__, str(error)), witness.consulted
    return (
        format_dbcl(result.predicate),
        result.is_empty,
        result.reason,
        result.iterations,
        tuple(result.stage_log),
    ), witness.consulted


def assert_same(predicate, constraints, options):
    new = outcome(optimize, predicate, constraints, options)
    old = outcome(legacy, predicate, constraints, options)
    assert new == old, format_dbcl(predicate)
    return new


@contextmanager
def recording(into):
    """Record every (predicate, constraints) the session hands Algorithm 2."""
    modules = (compiler_module, recursion_module)
    originals = [module.simplify for module in modules]

    def recorder(original):
        def simplify(predicate, constraints, options=SimplifyOptions()):
            into.append((predicate, constraints))
            return original(predicate, constraints, options)

        return simplify

    for module, original in zip(modules, originals):
        module.simplify = recorder(original)
    try:
        yield
    finally:
        for module, original in zip(modules, originals):
            module.simplify = original


def family_goals(org):
    """Two goals per bench family, constants drawn from ``org``."""
    names = [e.nam for e in org.employees]
    by_eno = {e.eno: e.nam for e in org.employees}
    managers = [by_eno[d.mgr] for d in org.departments if d.mgr in by_eno]
    arguments = {
        "empty_range": [(15000, 25000), (60000, 70000)],
        "empty_bound": [()],
        "paid_above": [(79000,), (81000,)],
        "certain_staff_of": [(org.departments[0].mgr,), (org.departments[1].mgr,)],
    }
    goals = []
    for family, (template, _, _) in FAMILIES.items():
        for constants in arguments.get(family, [(managers[0],), (names[-1],)]):
            goals.append((family, template.format(*constants)))
    return goals


def metaevaluated(session, text):
    term = parse_goal(text)
    targets = [v for v in variables_of(term) if not v.is_anonymous]
    return session.metaevaluator.metaevaluate(term, targets=targets)


@pytest.fixture(scope="module")
def corpus():
    """Every (predicate, constraints) pair the differential replays."""
    pairs = []
    org = generate_org(**BENCH_ORG)
    sessions = []
    for plan_cache in (False, True):
        session = PrologDbSession(plan_cache=plan_cache)
        sessions.append(session)
        session.load_org(org)
        session.consult(ALL_VIEWS_SOURCE)
        with recording(pairs):
            for family, text in family_goals(org):
                session.ask(text)
                if family.startswith("certain"):
                    session.ask_consistent(text)
    bench = sessions[0]
    for family, text in family_goals(org):
        if family in ("reports", "chain"):
            continue  # recursive: compiled by the strategies above
        term = parse_goal(text)
        for goal in (term, goal_with_markers(term, frozenset())):
            targets = [v for v in variables_of(goal) if not v.is_anonymous]
            predicate = bench.metaevaluator.metaevaluate(goal, targets=targets)
            pairs.append((predicate, bench.constraints))
    for text in PAPER_GOALS:
        pairs.append((metaevaluated(bench, text), bench.constraints))

    org = equivalence_org()
    classes, staff = goal_classes(org)
    for plan_cache in (False, True):
        session = PrologDbSession(plan_cache=plan_cache)
        session.load_org(org)
        session.consult(ALL_VIEWS_SOURCE + EXTRA_VIEWS)
        for name in staff:
            session.assert_fact("specialist", name, "driving")
        with recording(pairs):
            for spec in classes.values():
                for text in spec["goals"]:
                    session.ask(text)
        session.close()
    unique = list(dict.fromkeys((p, id(c)) for p, c in pairs))
    by_id = {id(c): c for _, c in pairs}
    yield SimpleNamespace(
        pairs=[(p, by_id[c]) for p, c in unique],
        stats_of=bench.database.relation_statistics,
    )
    for session in sessions:
        session.close()


def test_corpus_covers_markers_recursion_and_every_family(corpus):
    texts = [format_dbcl(p) for p, _ in corpus.pairs]
    assert len(corpus.pairs) >= 60
    assert any("$" in text for text in texts)  # marker compiles
    assert any(c is not corpus.pairs[0][1] for _, c in corpus.pairs[1:])


@pytest.mark.parametrize("level", sorted(ABLATION_LEVELS))
def test_simplify_matches_frozen_stages(corpus, level):
    for predicate, constraints in corpus.pairs:
        assert_same(predicate, constraints, ABLATION_LEVELS[level])


def test_cost_order_matches_frozen_order(corpus):
    for predicate, constraints in corpus.pairs:
        result = simplify(predicate, constraints)
        if result.is_empty:
            continue
        for stats_of in (corpus.stats_of, None):
            assert greedy_row_order(result.predicate, stats_of) == (
                legacy.greedy_row_order(result.predicate, stats_of)
            )


#: A fixed statistics provider for random tableaux.
FAKE_STATS = {
    "empl": SimpleNamespace(row_count=400, distinct={"eno": 400, "nam": 390, "sal": 60, "dno": 12}),
    "dept": SimpleNamespace(row_count=12, distinct={"dno": 12, "fct": 5, "mgr": 12}),
}
#: The empdep constraints with a bound on every column, so the random
#: constants violate some and assumptions come from several columns.
BOUNDED = ConstraintSet(
    SCHEMA,
    value_bounds=CONSTRAINTS.value_bounds
    + [
        ValueBound("empl", "eno", 1, 9000),
        ValueBound("empl", "nam", "b", "z"),
        ValueBound("empl", "dno", 1, 40),
        ValueBound("dept", "dno", 2, 40),
        ValueBound("dept", "fct", "a", "z"),
        ValueBound("dept", "mgr", 1, 50000),
    ],
    funcdeps=CONSTRAINTS.funcdeps,
    refints=CONSTRAINTS.refints,
)


def with_markers(predicate):
    constants = {
        entry
        for row in predicate.rows
        for entry in row.entries
        if isinstance(entry, ConstSymbol)
    } | {s for c in predicate.comparisons for s in c.symbols() if isinstance(s, ConstSymbol)}
    mapping = {
        c: ConstSymbol(marker_for(i)) for i, c in enumerate(sorted(constants, key=str))
    }
    return predicate.rename(mapping)


def stage_outcomes(module, predicate, constraints):
    """Each public stage function run alone on ``predicate``."""
    with watch_marker_consultation() as witness:
        chased = module.chase(predicate, constraints)
        dangling = module.remove_dangling_rows(predicate, constraints)
        minimal = module.minimize(predicate)
        violation = module.check_constants(predicate, constraints)
        assumptions = module.bound_assumptions(predicate, constraints)
    return (
        (format_dbcl(chased.predicate), chased.changed, chased.contradiction),
        (chased.reason, chased.renamings, chased.rows_removed),
        (format_dbcl(dangling.predicate), dangling.removed_rows, dangling.deletions),
        (format_dbcl(minimal.predicate), minimal.removed_rows),
        violation and violation.describe(),
        assumptions,
        witness.consulted,
    )


@given(
    predicate=tableaux(),
    level=st.sampled_from(sorted(ABLATION_LEVELS)),
    constraints=st.sampled_from([CONSTRAINTS, BOUNDED]),
    markers=st.booleans(),
    ground=st.sampled_from([None, ("less", 1, 2), ("greater", 1, 2), ("neq", 2, 2)]),
)
@settings(max_examples=2000, derandomize=True, deadline=None)
def test_random_tableaux_match_frozen_stages(
    predicate, level, constraints, markers, ground
):
    if ground is not None:
        op, left, right = ground
        predicate = predicate.replace(
            comparisons=predicate.comparisons
            + (Comparison(op, ConstSymbol(left), ConstSymbol(right)),)
        )
    if markers:
        predicate = with_markers(predicate)
    assert_same(predicate, constraints, ABLATION_LEVELS[level])
    assert stage_outcomes(optimize, predicate, constraints) == stage_outcomes(
        legacy, predicate, constraints
    )
    stats_of = FAKE_STATS.get
    assert greedy_row_order(predicate, stats_of) == legacy.greedy_row_order(
        predicate, stats_of
    )


# -- the coded chase ------------------------------------------------------------


class _Recorded(dict):
    """A funcdeps index that records which relations' FDs were read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read: list = []

    def __getitem__(self, tag):
        self.read.append(tag)
        return super().__getitem__(tag)


class TestCodedChase:
    def test_a_relation_with_one_row_does_no_fd_work(self):
        b = TableauBuilder(SCHEMA, "q")
        b.row("empl", nam=b.target("X"), dno=b.var("D"))
        b.row("dept", dno=b.var("D"))
        index = SimpleNamespace(
            funcdeps=_Recorded(CONSTRAINTS.compiled(SCHEMA).funcdeps)
        )
        outcome = chase_tableau(Tableau(b.build()), index)
        assert not outcome.changed
        assert index.funcdeps.read == []

    def test_constant_clash_keeps_the_reason_text(self):
        b = TableauBuilder(SCHEMA, "q")
        b.row("empl", eno=1, nam="alice", sal=b.target("S"))
        b.row("empl", eno=1, nam="bob")
        predicate = b.build()
        new = simplify(predicate, CONSTRAINTS)
        old = legacy.simplify(predicate, CONSTRAINTS)
        assert new.is_empty and old.is_empty
        assert new.reason == old.reason == "chase equates constants alice and bob"

    def test_two_targets_stay_apart(self):
        b = TableauBuilder(SCHEMA, "q")
        b.row("empl", eno=b.var("E"), nam=b.target("X"))
        b.row("empl", eno=b.var("E"), nam=b.target("Y"))
        predicate = b.build()
        outcome = chase_tableau(Tableau(predicate), CONSTRAINTS.compiled(SCHEMA))
        assert outcome.renamings == legacy.chase(predicate, CONSTRAINTS).renamings
        assert not any(isinstance(s, TargetSymbol) for s in outcome.renamings)
        result = simplify(predicate, CONSTRAINTS, ABLATION_LEVELS["bounds+ineq+chase"])
        assert len(result.predicate.rows) == 2

    def test_example_6_1_chase_keeps_four_rows_to_three(self):
        session = PrologDbSession()
        session.consult(ALL_VIEWS_SOURCE)
        predicate = metaevaluated(
            session, "works_dir_for(X, smiley), empl(_, X, S, _), less(S, 40000)"
        )
        tableau = Tableau(predicate)
        outcome = chase_tableau(tableau, session.constraints.compiled(session.schema))
        assert (len(predicate.rows), len(tableau.rows)) == (4, 3)
        assert outcome.rows_removed == 1
        session.close()
