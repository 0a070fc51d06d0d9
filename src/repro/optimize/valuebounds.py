"""Value-bound exploitation (paper section 6.1, Algorithm 2 step 1).

Two services:

* :func:`check_constants` — every constant appearing in Relreferences must
  lie inside the declared domain of its column; a violation proves the
  query empty before anything is sent to the DBMS;
* :func:`bound_assumptions` — for every variable that participates in a
  comparison, the value bounds of the columns it occupies are turned into
  assumption comparisons (``L <= x`` and ``x <= U``).  These feed the
  inequality graph so it can drop redundant user comparisons (a salary
  test above the declared maximum) or detect contradictions (one below the
  minimum), without themselves ever appearing in the generated SQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dbcl.predicate import Comparison, DbclPredicate
from ..dbcl.symbols import ConstSymbol, is_param_marker
from ..schema.constraints import CompiledConstraints, ConstraintSet, ValueBound
from .tableau import CONST, Tableau


@dataclass(frozen=True)
class BoundViolation:
    """A constant outside its declared domain."""

    row: int
    relation: str
    attribute: str
    value: object
    bound: ValueBound

    def describe(self) -> str:
        return (
            f"row {self.row}: {self.relation}.{self.attribute} = {self.value} "
            f"violates valuebound [{self.bound.low}, {self.bound.high}]"
        )


def tableau_violation(
    tableau: Tableau, index: CompiledConstraints
) -> Optional[BoundViolation]:
    """First Relreferences constant outside its column's declared domain."""
    symbols, kinds = tableau.symbols, tableau.kinds
    for row_index, (tag, cells) in enumerate(tableau.rows):
        for column, attribute, bound in index.bounds.get(tag, ()):
            code = cells[column]
            if kinds[code] != CONST:
                continue
            value = symbols[code].value  # type: ignore[union-attr]
            # A plan-cache placeholder's value is unknown at compile time;
            # the plan re-checks it at bind time against the bounds of
            # every column the marker occupied.
            if not is_param_marker(value) and not bound.contains(value):
                return BoundViolation(row_index, tag, attribute, value, bound)
    return None


def tableau_assumptions(
    tableau: Tableau, index: CompiledConstraints
) -> list[Comparison]:
    """Assumption comparisons for comparison variables (Algorithm 2 step 1).

    The paper adds value bounds "to Relcomparisons for attribute variables
    appearing there": for each symbol used in a comparison, every cell it
    occupies contributes the bound of that cell's column, if declared —
    symbols in first-occurrence order, cells row-major.
    """
    wanted = tableau.comparison_variables()
    if not wanted:
        return []
    cells_of: dict[int, list[tuple[str, int]]] = {}
    for tag, cells in tableau.rows:
        for column, code in enumerate(cells):
            if code in wanted:
                cells_of.setdefault(code, []).append((tag, column))
    assumptions: list[Comparison] = []
    seen: set[tuple[int, str, str]] = set()
    for code, places in cells_of.items():
        symbol = tableau.symbols[code]
        for tag, column in places:
            for bounded, attribute, bound in index.bounds.get(tag, ()):
                if bounded != column or (code, tag, attribute) in seen:
                    continue
                seen.add((code, tag, attribute))
                assumptions.append(Comparison("geq", symbol, ConstSymbol(bound.low)))
                assumptions.append(Comparison("leq", symbol, ConstSymbol(bound.high)))
    return assumptions


def check_constants(
    predicate: DbclPredicate, constraints: ConstraintSet
) -> Optional[BoundViolation]:
    """First violation of a declared domain by a Relreferences constant."""
    return tableau_violation(Tableau(predicate), constraints.compiled(predicate.schema))


def bound_assumptions(
    predicate: DbclPredicate, constraints: ConstraintSet
) -> list[Comparison]:
    """The value-bound assumptions of ``predicate``'s comparison variables."""
    return tableau_assumptions(Tableau(predicate), constraints.compiled(predicate.schema))
