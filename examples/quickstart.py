"""Quickstart: the full Figure-1 pipeline on the paper's running example.

Run with::

    python examples/quickstart.py

Loads a synthetic ``empdep`` organisation, defines the paper's
``works_dir_for`` and ``same_manager`` views, and walks one query through
every stage: metaevaluation to DBCL, Algorithm-2 simplification, SQL
generation, and execution against SQLite.
"""

from repro import PrologDbSession, generate_org
from repro.schema import (
    SAME_MANAGER_SOURCE,
    WORKS_DIR_FOR_SOURCE,
    WORKS_FOR_TOP_DOWN_SOURCE,
)


def main() -> None:
    session = PrologDbSession()
    org = generate_org(depth=3, branching=2, staff_per_dept=4, seed=42)
    session.load_org(org)
    session.consult(WORKS_DIR_FOR_SOURCE)
    session.consult(SAME_MANAGER_SOURCE)

    employee = org.employees[0].nam
    goal = f"same_manager(X, {employee})"
    print(f"Query: :- {goal}.")
    print()

    trace = session.explain(goal)
    print("=== DBCL (metaevaluated, before optimization) ===")
    print(trace.dbcl_text)
    print()
    print("=== DBCL (after Algorithm 2) ===")
    print(trace.optimized_dbcl_text)
    print()
    print(f"Simplification: {trace.simplification.describe()}")
    for line in trace.simplification.stage_log:
        print(f"  - {line}")
    print()
    print("=== Generated SQL ===")
    print(trace.sql_text)
    print()

    answers = session.ask(goal)
    print(f"=== Answers ({len(answers)}) ===")
    for answer in answers[:10]:
        print(f"  X = {answer['X']}")
    if len(answers) > 10:
        print(f"  ... and {len(answers) - 10} more")

    # The ask above cached its compilation; the first repeat with a new
    # constant compiles the goal's *shape* (constants abstracted to
    # parameters) into a prepared plan, and every further ask that
    # differs only in constants is a plan-cache hit that binds and
    # executes without recompiling or re-printing SQL.
    # BENCH_coupling.json gates this at >= 5x warm throughput (see
    # README.md for how to read the record).
    others = [e.nam for e in org.employees[1:4]]
    for other in others:
        session.ask(f"same_manager(X, {other})")
    stats = session.plans.stats
    print()
    print("=== Plan cache after repeating the shape with new constants ===")
    print(f"  compiled={stats.compiled} hits={stats.hits} misses={stats.misses}")
    print(f"  prepared executions={session.database.stats.prepared_executions}")

    # Materialize the view and the answers survive *updates*: asserts and
    # retracts apply counting delta rules (prepared statements) to the
    # maintained rows instead of invalidating and recomputing them.
    session.materialize.view("same_manager(X, Y)")
    session.assert_fact("empl", 9001, "emp_new_hire", 25000, org.departments[0].dno)
    with_hire = session.ask(f"same_manager(X, {employee})")
    session.retract_fact("empl", 9001, "emp_new_hire", 25000, org.departments[0].dno)
    print()
    print("=== Incremental maintenance (session.materialize.stats) ===")
    print(f"  answers while the new hire existed: {len(with_hire)}")
    for key, value in session.materialize.stats.snapshot().items():
        if key != "per_view":
            print(f"  {key}={value}")
    snapshot = session.stats()
    print(f"  unified session.stats() keys: {sorted(snapshot)}")

    # Recursive closure without recursion: one depth-first tour of the
    # works_for forest, held in memory, makes the cone below a boss one
    # list slice — no fixpoint and no statement at all.  The planner
    # picks this tier for every recursive ask on tree-shaped data; here
    # we call it directly to show the machinery.
    session.consult(WORKS_FOR_TOP_DOWN_SOURCE)
    boss = org.root_manager_name()
    session.ask(f"works_for(X, {boss})")  # warm the recursive shape
    run = session.solve_recursive("works_for", high=boss, strategy="interval")
    print()
    print("=== Interval accelerator (one slice of an in-memory tour) ===")
    print(f"  everyone under {boss}: {len(run.pairs)} pairs")
    plans = session.stats()["recursion_plans"]
    print(f"  recursion plans by strategy: {plans}")

    session.close()


if __name__ == "__main__":
    main()
