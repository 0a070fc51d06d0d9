"""Example 7-1: recursive views over the employee hierarchy.

Compares the paper's three evaluation schemes for ``works_for`` — naive
re-expansion, the ``setrel`` intermediate-relation program iterating
top-down, and the bottom-up rewriting — on both query directions:

* ``works_for(People, boss)`` ("Smiley's people"): top-down frontiers stay
  small;
* ``works_for(leaf, Superior)`` ("Jones' managers"): top-down explodes
  (the first intermediate relation holds *every* employee name) while
  bottom-up walks just the chain above the leaf.

Run with::

    python examples/recursive_hierarchy.py
"""

from repro import PrologDbSession, generate_org
from repro.schema import ALL_VIEWS_SOURCE


def show(title: str, run) -> None:
    stats = run.stats
    print(f"  {title:<20} answers={len(run.pairs):<4} levels={stats.levels:<3} "
          f"queries={stats.queries_issued:<3} "
          f"frontier sizes={stats.frontier_sizes}")


def main() -> None:
    session = PrologDbSession()
    org = generate_org(depth=4, branching=2, staff_per_dept=4, seed=3)
    session.load_org(org)
    session.consult(ALL_VIEWS_SOURCE)

    boss = org.root_manager_name()
    leaf = org.leaf_employee_name()
    print(
        f"Org: {org.employee_count} employees, depth {org.max_depth}; "
        f"boss={boss}, leaf={leaf}\n"
    )

    print(f"Query 1: works_for(People, {boss})  -- 'Smiley's people'")
    for strategy in ("topdown", "bottomup", "naive"):
        show(strategy, session.solve_recursive("works_for", high=boss, strategy=strategy))

    print(f"\nQuery 2: works_for({leaf}, Superior)  -- 'Jones' managers'")
    for strategy in ("topdown", "bottomup", "naive"):
        show(strategy, session.solve_recursive("works_for", low=leaf, strategy=strategy))

    print(
        "\nNote the paper's observation: for query 2 the top-down scheme's "
        "first intermediate\nrelation holds all employee names, while "
        "bottom-up follows only the chain above the leaf."
    )

    auto1 = session.solve_recursive("works_for", high=boss, strategy="auto")
    auto2 = session.solve_recursive("works_for", low=leaf, strategy="auto")
    print(f"\nauto strategy picks: query 1 -> {auto1.stats.strategy}, "
          f"query 2 -> {auto2.stats.strategy}")

    # Beyond the paper: push the whole fixpoint into the DBMS as one
    # prepared WITH RECURSIVE statement.  On a forest the planner does
    # better for either bound side, at every size: in-memory interval
    # labels answer with no statement at all.
    cte = session.solve_recursive("works_for", high=boss, strategy="cte")
    show("cte", cte)
    plan = session.closure_for("works_for").plan()
    print(f"\nplanner, either side bound: {plan.strategy} -- {plan.reason}")

    session.close()


if __name__ == "__main__":
    main()
