"""Referential-integrity row deletion (paper section 6.3).

A row *r* with tag R **dangles** when its non-``*`` cells split into

* RN — ``v_`` symbols appearing nowhere else in the whole DBCL predicate
  (not in another cell, not in Relcomparisons, not in the Targetlist), and
* RP — cells matched, attribute-wise, by a single other row *r'*
  (``r[RPi] = r'[RP'i]`` — the matching columns may differ, e.g. ``mgr``
  against ``eno``).

A dangling row is **deletable** when a referential constraint
``refint(R', [RP'...], R, [RP...])`` is derivable from the stored rules —
derivable directly or through the paper's Algorithm 1 (see
:func:`repro.schema.inference.derive_refint`; the constraint index keeps
each hypothesis's verdict): every r' value is then guaranteed to appear
in R, so joining r adds no restriction.

Deleting a row can make further rows dangle (Example 6-2 deletes the
``dept`` row only after the manager ``empl`` row is gone), so the removal
is a fixpoint loop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..dbcl.predicate import DbclPredicate
from ..schema.constraints import CompiledConstraints, ConstraintSet
from .tableau import VAR, Tableau


@dataclass
class RefintOutcome:
    """Result of the dangling-row removal."""

    predicate: Optional[DbclPredicate] = None
    removed_rows: int = 0
    #: (row tag, partner tag) per deletion, in order — for explain traces.
    deletions: list[tuple[str, str]] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.removed_rows > 0


def _find_deletable_row(
    tableau: Tableau, index: CompiledConstraints
) -> Optional[tuple[int, int]]:
    """First (dangling row, witness row) pair whose refint is derivable."""
    schema, kinds, rows = tableau.schema, tableau.kinds, tableau.rows
    # Appearances of each symbol anywhere: cells, comparisons, targets.
    counts = Counter(code for _, cells in rows for code in cells)
    counts.update(code for _, left, right in tableau.comparisons for code in (left, right))
    counts.update(tableau.target_codes)

    places = {
        tag: list(zip(schema.relations[tag].attributes, schema.columns_of_relation(tag)))
        for tag, _ in rows
    }
    # Per row: symbol → the first attribute holding it.
    attribute_of = [
        {cells[column]: attribute for attribute, column in reversed(places[tag])}
        for tag, cells in rows
    ]
    for row_index, (tag, cells) in enumerate(rows):
        own = [cells[column] for _, column in places[tag]]
        # A symbol repeated *within* the row is an intra-row restriction
        # (e.g. eno = dno on the same tuple) that no referential constraint
        # implies; such rows never qualify.
        if len(own) != len(set(own)):
            continue
        # RN cells (private singleton variables) drop out; constants and
        # targets restrict or produce output, so like shared variables
        # they must be matched by the witness row.
        shared = [
            (attribute, cells[column])
            for attribute, column in places[tag]
            if kinds[cells[column]] != VAR or counts[cells[column]] != 1
        ]
        if not shared:
            continue  # a row of only-private cells never dangles usefully
        shared_attributes = tuple(attribute for attribute, _ in shared)
        # Condition (b): one single row r' matches every shared cell, each
        # at the first witness attribute holding the same symbol.
        for witness_index, (witness_tag, _) in enumerate(rows):
            if witness_index == row_index:
                continue
            found = attribute_of[witness_index]
            matched = tuple([found.get(code) for _, code in shared])
            if None not in matched and index.refint_holds(
                (witness_tag, matched, tag, shared_attributes)
            ):
                return (row_index, witness_index)
    return None


def remove_dangling(tableau: Tableau, index: CompiledConstraints) -> RefintOutcome:
    """Delete deletable dangling rows in place (``predicate`` left unset)."""
    outcome = RefintOutcome()
    rows = tableau.rows
    while len(rows) > 1:
        found = _find_deletable_row(tableau, index)
        if found is None:
            break
        row_index, witness_index = found
        outcome.deletions.append((rows[row_index][0], rows[witness_index][0]))
        del rows[row_index]
        outcome.removed_rows += 1
    return outcome


def remove_dangling_rows(
    predicate: DbclPredicate, constraints: ConstraintSet
) -> RefintOutcome:
    """Delete deletable dangling rows until none remain (recursive process)."""
    tableau = Tableau(predicate)
    outcome = remove_dangling(tableau, constraints.compiled(predicate.schema))
    outcome.predicate = tableau.predicate()
    return outcome
