"""Functional-dependency chase over DBCL tableaux (paper section 6.2).

DBCL was designed tableau-like precisely so FDs can simplify it "using
variations of the chase process" (Aho–Sagiv–Ullman 1979), adapted — as
the paper notes — from lossless-join testing to query simplification.
The engine is a round-based fixpoint over a union-find of symbol codes:

* each round visits the relations (with two rows or more) in first-row
  order and, per non-trivial FD ``R: X -> Y``, groups the ``R`` rows by
  the class representatives of their ``X`` cells; each row of a group
  has its ``Y`` cells merged with the group's first row;
* constants outrank targets outrank variables as representatives (ties
  to the smaller ``str``); two targets are never merged (that loses only
  optimization), two distinct constants are a **contradiction**;
* rounds repeat until one merges nothing; then the derived renaming is
  applied and duplicate rows are *actively removed* (the paper's
  addition over the plain chase).

Cross-column care: symbols may appear in more than one tableau column
(``mgr`` joined with ``eno``), so classes live on symbols, never columns,
and renaming rewrites comparisons too (note the renaming in Example 6-1's
Relcomparisons).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..dbcl.predicate import DbclPredicate
from ..dbcl.symbols import JoinableSymbol
from ..schema.constraints import CompiledConstraints, ConstraintSet
from .tableau import CONST, TARGET, Tableau


@dataclass
class ChaseOutcome:
    """Result of one chase run."""

    predicate: Optional[DbclPredicate] = None
    changed: bool = False
    contradiction: bool = False
    reason: str = ""
    renamings: dict[JoinableSymbol, JoinableSymbol] = field(default_factory=dict)
    rows_removed: int = 0


def chase_tableau(
    tableau: Tableau, index: CompiledConstraints, max_rounds: int = 1000
) -> ChaseOutcome:
    """Chase ``tableau`` to fixpoint in place (its ``predicate`` left unset)."""
    symbols, kinds = tableau.symbols, tableau.kinds
    parent = list(range(len(symbols)))

    def find(code: int) -> int:
        root = code
        while parent[root] != root:
            root = parent[root]
        while parent[code] != root:  # path compression
            parent[code], code = root, parent[code]
        return root

    rows_by_tag: dict[str, list[tuple[int, ...]]] = {}
    for tag, cells in tableau.rows:
        rows_by_tag.setdefault(tag, []).append(cells)
    work = [
        (rows, index.funcdeps[tag])
        for tag, rows in rows_by_tag.items()
        if len(rows) > 1 and tag in index.funcdeps
    ]

    changed_any = False
    for _round in range(max_rounds if work else 0):
        changed = False
        for rows, funcdeps in work:
            for lhs, rhs in funcdeps:
                groups: dict[object, list[tuple[int, ...]]] = {}
                for cells in rows:
                    key = (
                        find(cells[lhs[0]]) if len(lhs) == 1
                        else tuple([find(cells[c]) for c in lhs])
                    )
                    groups.setdefault(key, []).append(cells)
                for group in groups.values():
                    anchor = group[0]
                    for other in group[1:]:
                        for column in rhs:
                            a, b = find(anchor[column]), find(other[column])
                            if a == b:
                                continue
                            kind_a, kind_b = kinds[a], kinds[b]
                            if kind_a == CONST and kind_b == CONST:
                                return ChaseOutcome(
                                    changed=changed_any,
                                    contradiction=True,
                                    reason="chase equates constants "
                                    f"{symbols[a]} and {symbols[b]}",
                                )
                            if kind_a == TARGET and kind_b == TARGET:
                                continue
                            if kind_a < kind_b or (
                                kind_a == kind_b and str(symbols[a]) > str(symbols[b])
                            ):
                                a, b = b, a
                            parent[b] = a
                            changed = True
        if not changed:
            break
        changed_any = True

    renamings: dict[int, int] = {}
    # Symbols in row-major first-occurrence order.
    for code in dict.fromkeys(c for _, cells in tableau.rows for c in cells if c >= 0):
        representative = find(code)
        if representative != code and kinds[code] != TARGET:
            renamings[code] = representative
    if not renamings:
        return ChaseOutcome()
    tableau.substitute(renamings)
    removed = tableau.unique_rows()
    tableau.unique_comparisons()
    return ChaseOutcome(
        changed=True,
        renamings={symbols[s]: symbols[r] for s, r in renamings.items()},
        rows_removed=removed,
    )


def chase(
    predicate: DbclPredicate,
    constraints: ConstraintSet,
    max_rounds: int = 1000,
) -> ChaseOutcome:
    """Run the FD chase to fixpoint and remove duplicate rows."""
    tableau = Tableau(predicate)
    outcome = chase_tableau(
        tableau, constraints.compiled(predicate.schema), max_rounds
    )
    outcome.predicate = tableau.predicate()
    return outcome
