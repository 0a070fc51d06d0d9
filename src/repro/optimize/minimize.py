"""Syntactic tableau minimization (paper sections 6.0 and 6.4 step 6).

Join minimization "corresponds to the minimization of the number of rows"
(Aho–Sagiv–Ullman); the algorithms follow Sagiv 1983, extended — as the
paper requires — to the multi-relation setting where a symbol may appear
in more than one tableau column (Johnson–Klug).

A row is redundant when the full tableau has a containment mapping onto
the tableau without that row, fixing target symbols, constants, and every
symbol used in Relcomparisons (the conservative treatment of inequalities;
see :mod:`repro.dbcl.containment`).  Rows are removed greedily until no
row is removable; for conjunctive queries this reaches the unique core.

The search runs over symbol codes.  With every comparison symbol fixed, a
comparison's image is itself, which the reduced tableau still carries:
only a false ground comparison can fail a row mapping that exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dbcl.predicate import Comparison, DbclPredicate
from .tableau import CONST, STAR_CODE, VAR, Tableau


@dataclass
class MinimizeOutcome:
    """Result of the syntactic minimization."""

    predicate: Optional[DbclPredicate] = None
    removed_rows: int = 0

    @property
    def changed(self) -> bool:
        return self.removed_rows > 0


def _maps_onto(rows, position, mapping, candidates, fixed) -> bool:
    """Extend ``mapping`` so rows[position:] land on candidate rows."""
    if position == len(rows):
        return True
    tag, cells = rows[position]
    for image in candidates.get(tag, ()):
        extended = dict(mapping)
        for source, target in zip(cells, image):
            if source in fixed:
                if source != target:
                    break
            elif extended.setdefault(source, target) != target:
                break
        else:
            if _maps_onto(rows, position + 1, extended, candidates, fixed):
                return True
    return False


def _row_removable(tableau: Tableau, row_index: int, survive, fixed) -> bool:
    """Can ``row_index`` be dropped without changing the answer?"""
    rows = tableau.rows
    reduced = rows[:row_index] + rows[row_index + 1 :]
    # Comparison symbols and targets must keep an occurrence.
    if not survive.issubset({code for _, cells in reduced for code in cells}):
        return False
    candidates: dict[str, list[tuple[int, ...]]] = {}
    for tag, cells in reduced:
        candidates.setdefault(tag, []).append(cells)
    # Most-constrained rows first.
    order = sorted(rows, key=lambda row: len(candidates.get(row[0], ())))
    if not _maps_onto(order, 0, {}, candidates, fixed):
        return False
    symbols, kinds = tableau.symbols, tableau.kinds
    return all(
        Comparison(op, symbols[left], symbols[right]).evaluate_ground()
        for op, left, right in tableau.comparisons
        if kinds[left] == CONST and kinds[right] == CONST
    )


def minimize_tableau(tableau: Tableau) -> MinimizeOutcome:
    """Remove redundant rows in place (``predicate`` left unset)."""
    removed = tableau.unique_rows()
    frozen = tableau.comparison_variables()
    survive = frozen.union(tableau.target_codes)
    # Constants, targets, '*' and comparison symbols map to themselves.
    kinds = enumerate(tableau.kinds)
    fixed = frozen.union([STAR_CODE], (code for code, kind in kinds if kind != VAR))
    rows = tableau.rows
    while len(rows) > 1:
        for row_index in range(len(rows)):
            if _row_removable(tableau, row_index, survive, fixed):
                del rows[row_index]
                removed += 1
                break
        else:
            break
    return MinimizeOutcome(removed_rows=removed)


def minimize(predicate: DbclPredicate) -> MinimizeOutcome:
    """Remove redundant rows until none is removable."""
    tableau = Tableau(predicate)
    outcome = minimize_tableau(tableau)
    outcome.predicate = tableau.predicate()
    return outcome
