"""Statistics-driven cost estimation for flat conjunctive plans.

Algorithm 2 (:mod:`repro.optimize.pipeline`) is purely *logical*: it
removes rows and comparisons the constraints prove redundant, but orders
the surviving tableau rows exactly as metaevaluation produced them — the
generated SQL's FROM clause carries no cardinality information at all.
This module adds the classic System R estimates on top:

* the cardinality of one row is its relation's row count scaled by
  ``1/distinct(attribute)`` per equality restriction (constants *and*
  plan parameters — a bound parameter is a constant at execution time);
* joining a placed prefix with a new row scales by the most selective
  equijoin attribute connecting them, assuming independence;
* a row sharing no symbol with the prefix is a cross product — its full
  estimated cardinality multiplies in, which is exactly why the greedy
  order defers such rows to the end.

:func:`tableau_row_order` orders Algorithm 2's working tableau greedily
by these estimates; :func:`order_rows` permutes a predicate's rows.  The
reorder is *answer-preserving by construction*: targets, constants, and
comparisons locate symbols by first occurrence, and every occurrence of
a symbol is equijoined, so permuting rows permutes FROM entries and
rewires equality chains without changing the result set (the E15
differential gates this); it keeps every predicate invariant, so is not
re-validated.  Statistics come from
:meth:`repro.dbms.sqlite_backend.ExternalDatabase.relation_statistics`;
any relation the provider cannot profile falls back to a neutral
estimate, so the order degrades gracefully rather than failing.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..dbcl.predicate import DbclPredicate
from .tableau import CONST, Tableau

#: Fallback row count when a relation has no statistics.
DEFAULT_ROW_COUNT = 1000
#: Fallback selectivity for an equality against an unprofiled attribute.
DEFAULT_EQ_SELECTIVITY = 0.1

#: ``stats_of(relation_name)`` → object with ``row_count`` and
#: ``distinct`` (attribute → count), or raising/None when unavailable.
StatsProvider = Callable[[str], object]


def _profile(stats_of: Optional[StatsProvider], relation: str):
    if stats_of is None:
        return None
    try:
        return stats_of(relation)
    except Exception:
        return None


def _estimates(tableau: Tableau, stats_of: Optional[StatsProvider]):
    """Per row: restricted cardinality, and (variable code, join selectivity)
    per variable cell."""
    names, kinds = tableau.schema.attribute_names, tableau.kinds
    profiles = {tag: _profile(stats_of, tag) for tag, _ in tableau.rows}
    base, links = [], []
    for tag, cells in tableau.rows:
        profile = profiles[tag]
        if profile is None:
            cardinality = float(DEFAULT_ROW_COUNT)
            distinct = {}
        else:
            cardinality = float(max(profile.row_count, 1))
            distinct = profile.distinct
        joins = []
        for column, code in enumerate(cells):
            if code < 0:
                continue
            count = distinct.get(names[column], 0)
            if kinds[code] == CONST:
                if count > 0:
                    cardinality /= count
                else:
                    cardinality *= DEFAULT_EQ_SELECTIVITY
            else:
                joins.append((code, 1.0 / count if count > 0 else DEFAULT_EQ_SELECTIVITY))
        base.append(max(cardinality, 1.0))
        links.append(joins)
    return base, links


def tableau_row_order(
    tableau: Tableau, stats_of: Optional[StatsProvider]
) -> list[int]:
    """Greedy minimum-intermediate-cardinality order of the row indices.

    Starts from the row with the smallest restricted cardinality, then
    repeatedly appends the row minimizing the estimated size of the
    joined prefix (joined through its most selective shared variable; a
    row sharing none is a cross product).  Ties break on the original
    index, so the order is deterministic and a no-information run
    reproduces the input order.
    """
    count = len(tableau.rows)
    if count <= 1:
        return list(range(count))
    base, links = _estimates(tableau, stats_of)

    def joined_size(i: int) -> float:
        selectivities = [s for code, s in links[i] if code in placed]
        if not selectivities:
            return prefix_cardinality * base[i]  # cross product
        return max(prefix_cardinality * base[i] * min(selectivities), 1.0)

    remaining = list(range(count))
    first = min(remaining, key=lambda i: (base[i], i))
    order = [first]
    remaining.remove(first)
    placed = {code for code, _ in links[first]}
    prefix_cardinality = base[first]
    while remaining:
        chosen = min(remaining, key=lambda i: (joined_size(i), i))
        prefix_cardinality = joined_size(chosen)
        order.append(chosen)
        remaining.remove(chosen)
        placed.update(code for code, _ in links[chosen])
    return order


def greedy_row_order(
    predicate: DbclPredicate,
    stats_of: Optional[StatsProvider],
) -> list[int]:
    """The greedy cost order of ``predicate``'s row indices."""
    return tableau_row_order(Tableau(predicate), stats_of)


def permuted(predicate: DbclPredicate, order: Sequence[int]) -> DbclPredicate:
    """``predicate`` with rows in ``order`` (itself when already so)."""
    if list(order) == list(range(len(predicate.rows))):
        return predicate
    return predicate.replace(rows=[predicate.rows[i] for i in order], validate=False)


def order_rows(
    predicate: DbclPredicate,
    stats_of: Optional[StatsProvider],
) -> DbclPredicate:
    """The predicate with rows permuted into the greedy cost order.

    Returns the input unchanged when it is already ordered (or has at
    most one row), so hot compile paths pay nothing on trivial shapes.
    """
    return permuted(predicate, greedy_row_order(predicate, stats_of))
