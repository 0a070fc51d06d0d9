"""DBCL → SQL translation (paper section 5).

Function-free conjunctive DBCL predicates translate into a single flat
``SELECT … FROM … WHERE`` block by six rules, quoted from the paper:

1. each Relreferences row becomes a tuple-variable definition in FROM;
2. attributes with Targetlist entries appear in SELECT, named by the first
   row where the same entry appears;
3. each constant in Relreferences becomes an equality restriction located
   by its row (variable name) and column (attribute name);
4. each pair of equal ``t_``/``v_`` symbols becomes an equijoin term;
5. each Relcomparisons row maps to a restriction or join term, locating
   variables at their first occurrence in Relreferences;
6. non-repeated variables do not appear in the SQL query.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..dbcl.predicate import Comparison, DbclPredicate
from ..dbcl.symbols import (
    ConstSymbol,
    JoinableSymbol,
    TargetSymbol,
    VarSymbol,
    is_param_marker,
    is_star,
    is_variable_symbol,
)
from ..errors import TranslationError
from .ast import (
    ColumnRef,
    Condition,
    InValuesCondition,
    Literal,
    Operand,
    Parameter,
    RecursiveQuery,
    SelectItem,
    SqlQuery,
    TableRef,
)


def _alias(row_index: int, alias_base: str = "v", alias_start: int = 1) -> str:
    return f"{alias_base}{row_index + alias_start}"


class SqlTranslator:
    """Translates DBCL predicates to :class:`SqlQuery` syntax trees.

    ``alias_start`` exists only to reproduce the paper's appendix traces,
    which number tuple variables from 12 (``v12``, ``v13``, …) because
    earlier variables were used elsewhere in the session.
    """

    def __init__(
        self,
        distinct: bool = False,
        alias_base: str = "v",
        alias_start: int = 1,
        parameters: Optional[Mapping[str, int]] = None,
    ):
        self.distinct = distinct
        self.alias_base = alias_base
        self.alias_start = alias_start
        #: marker value -> parameter index; constants found here translate
        #: into ``?`` placeholders instead of literals (plan-cache path).
        self.parameters = dict(parameters or {})

    # -- helpers -----------------------------------------------------------------

    def _constant(self, symbol: ConstSymbol) -> Union[Literal, Parameter]:
        if is_param_marker(symbol.value):
            index = self.parameters.get(symbol.value)
            if index is None:
                raise TranslationError(
                    f"parameter marker {symbol.value!r} has no assigned index"
                )
            return Parameter(index)
        return Literal(symbol.value)

    def _column_ref(self, predicate: DbclPredicate, symbol: JoinableSymbol) -> ColumnRef:
        """Rule 5's locator: alias.attribute of the symbol's first occurrence."""
        occurrence = predicate.first_occurrence(symbol)
        return ColumnRef(
            _alias(occurrence.row, self.alias_base, self.alias_start),
            predicate.attribute_of_column(occurrence.column),
        )

    def _operand(self, predicate: DbclPredicate, symbol: JoinableSymbol) -> Operand:
        if isinstance(symbol, ConstSymbol):
            return self._constant(symbol)
        return self._column_ref(predicate, symbol)

    # -- translation --------------------------------------------------------------

    def translate(self, predicate: DbclPredicate) -> SqlQuery:
        """Apply the six mapping rules to a conjunctive DBCL predicate."""
        if not predicate.rows:
            raise TranslationError(
                f"predicate {predicate.name} has no relation references"
            )

        # Rule 1: FROM clause.
        from_tables = tuple(
            TableRef(row.tag, _alias(index, self.alias_base, self.alias_start))
            for index, row in enumerate(predicate.rows)
        )

        # Rule 2: SELECT clause — one item per target, in goal-argument
        # order, located at the target's first row occurrence.
        select_items: list[SelectItem] = []
        for symbol in predicate.targets:
            column_ref = self._column_ref(predicate, symbol)
            select_items.append(SelectItem(column_ref, label=column_ref.attribute))

        where: list[Condition] = []

        # Rule 3: constants in Relreferences become equality restrictions.
        for row_index, row in enumerate(predicate.rows):
            alias = _alias(row_index, self.alias_base, self.alias_start)
            for column, entry in enumerate(row.entries):
                if isinstance(entry, ConstSymbol):
                    where.append(
                        Condition(
                            "eq",
                            ColumnRef(alias, predicate.attribute_of_column(column)),
                            self._constant(entry),
                        )
                    )

        # Rule 4: repeated t_/v_ symbols become equijoin terms between
        # consecutive occurrences (this yields the paper's chains such as
        # v1.dno = v2.dno AND v2.mgr = v3.eno).
        for symbol, occurrences in predicate.occurrences().items():
            if not is_variable_symbol(symbol) or len(occurrences) < 2:
                continue  # rule 6: non-repeated variables do not appear
            for previous, current in zip(occurrences, occurrences[1:]):
                where.append(
                    Condition(
                        "eq",
                        ColumnRef(
                            _alias(previous.row, self.alias_base, self.alias_start),
                            predicate.attribute_of_column(previous.column),
                        ),
                        ColumnRef(
                            _alias(current.row, self.alias_base, self.alias_start),
                            predicate.attribute_of_column(current.column),
                        ),
                    )
                )

        # Rule 5: Relcomparisons map to restriction or join terms.
        for comparison in predicate.comparisons:
            if comparison.is_ground and any(
                isinstance(side, ConstSymbol) and is_param_marker(side.value)
                for side in comparison.symbols()
            ):
                # A ground comparison over a marker is a truth value that
                # depends on the concrete constant; such plans must have
                # fallen back to exact-constant caching before translation.
                raise TranslationError(
                    f"parameter marker in ground comparison {comparison}; "
                    "constant-sensitive plans cannot be parameterized"
                )
            if comparison.is_ground:
                # A ground comparison is a constant truth value; the
                # optimizer removes these, but translation must stay total.
                if comparison.evaluate_ground():
                    continue
                return SqlQuery(
                    select=tuple(select_items),
                    from_tables=from_tables,
                    where=(),
                    distinct=self.distinct,
                    is_empty=True,
                )
            where.append(
                Condition(
                    comparison.op,
                    self._operand(predicate, comparison.left),
                    self._operand(predicate, comparison.right),
                )
            )

        return SqlQuery(
            select=tuple(select_items),
            from_tables=from_tables,
            where=tuple(where),
            distinct=self.distinct,
        )


def translate(
    predicate: DbclPredicate,
    distinct: bool = False,
    parameters: Optional[Mapping[str, int]] = None,
) -> SqlQuery:
    """Module-level convenience wrapper."""
    return SqlTranslator(distinct=distinct, parameters=parameters).translate(
        predicate
    )


# -- set-oriented batch variant (serving layer) --------------------------------------


def batch_variant(
    query: SqlQuery, open_params: Sequence[int], batch_size: int
) -> Optional[SqlQuery]:
    """The ``IN (VALUES …)`` parameter-batch form of a prepared query.

    A fully parameterized plan restricts each open parameter through one
    or more equality conditions ``col = ?``.  The batch variant executes
    the plan once for a whole batch of constant tuples by

    1. picking one *anchor* column per parameter (its first equality
       restriction ``col = ?``) and projecting it into SELECT — execution
       returns each answer row tagged with the constants it matched, so
       the caller can demultiplex rows back to individual goals;
    2. rewriting every other condition that mentions the parameter with
       the anchor column substituted for the placeholder — within one
       batch member the anchor *is* the constant, so ``v2.nam = ? AND
       v1.nam <> ?`` becomes ``v1.nam <> v2.nam`` plus the membership;
    3. replacing the per-parameter equality restrictions with a single
       membership ``(col_p1, …) IN (VALUES (?, …) × batch_size)``.

    Returns ``None`` when the query is not batchable: a parameter with
    no equality anchor at all (``sal < ?`` alone) has no column to
    demultiplex on, and parameters inside NOT-IN subqueries would change
    the complement per batch member.
    """
    if query.is_empty or query.batch_conditions:
        return None
    for extra in query.extra_conditions:
        if extra.subquery.parameter_order():
            return None

    # Pass 1: anchors — the first equality column per parameter index.
    representative: dict[int, ColumnRef] = {}
    for condition in query.where:
        if condition.op != "eq":
            continue
        sides = (condition.left, condition.right)
        params = [s for s in sides if isinstance(s, Parameter)]
        if len(params) != 1:
            continue
        column = sides[0] if isinstance(sides[1], Parameter) else sides[1]
        if isinstance(column, ColumnRef) and params[0].index not in representative:
            representative[params[0].index] = column

    if set(representative) != set(open_params):
        return None  # a parameter never reached an equality restriction

    # Pass 2: drop each parameter's anchor restriction (the membership
    # replaces it) and substitute anchors into every other occurrence.
    def substituted(side):
        if isinstance(side, Parameter):
            return representative[side.index]
        return side

    rewritten: list[Condition] = []
    anchored: set[int] = set()
    for condition in query.where:
        sides = (condition.left, condition.right)
        params = [s for s in sides if isinstance(s, Parameter)]
        if not params:
            rewritten.append(condition)
            continue
        if (
            condition.op == "eq"
            and len(params) == 1
            and substituted(params[0]) in sides
            and params[0].index not in anchored
        ):
            anchored.add(params[0].index)
            continue  # the anchor restriction itself: folded into VALUES
        left, right = substituted(sides[0]), substituted(sides[1])
        if left == right and condition.op == "eq":
            continue  # col = anchor where col *is* the anchor: tautology
        rewritten.append(Condition(condition.op, left, right))

    columns = tuple(representative[index] for index in open_params)
    membership = InValuesCondition(
        columns=columns,
        parameter_rows=tuple(tuple(open_params) for _ in range(batch_size)),
    )
    select = tuple(query.select) + tuple(
        SelectItem(column) for column in columns
    )
    return SqlQuery(
        select=select,
        from_tables=query.from_tables,
        where=tuple(rewritten),
        distinct=query.distinct,
        extra_conditions=query.extra_conditions,
        batch_conditions=(membership,),
    )


# -- recursive-CTE pushdown (the setrel fixpoint, in the backend) --------------------


def closure_cte(
    edge: SqlQuery,
    frontier: int,
    result: int,
    name: str = "reach",
    alias: str = "w0",
    batch_size: Optional[int] = None,
) -> RecursiveQuery:
    """The ``WITH RECURSIVE`` form of a transitive-closure step query.

    ``edge`` is the compiled edge view — a flat conjunctive block whose
    SELECT list contains the two endpoint columns.  ``frontier`` and
    ``result`` index that SELECT list: the frontier column is matched
    against the current closure level, the result column extends it.
    The single-seed form (``batch_size=None``) binds the seed through one
    ``?`` parameter (index 0)::

        WITH RECURSIVE reach(node) AS (
            SELECT <result> FROM <edge> WHERE <edge conds> AND <frontier> = ?
            UNION
            SELECT <result> FROM <edge>, reach w0
            WHERE <edge conds> AND <frontier> = w0.node
        )
        SELECT w0.node FROM reach w0

    The batch form seeds the CTE with ``batch_size`` constants through an
    ``IN (VALUES …)`` membership and threads a ``root`` column (the seed
    each row descends from) through every level, so one execution answers
    a whole same-shape ``ask_many`` group and rows demultiplex by root.
    ``UNION`` deduplication keys on (root, node): two roots reaching the
    same node both keep their rows.
    """
    if edge.is_empty:
        raise TranslationError("cannot build a closure over an empty edge query")
    if edge.parameter_order():
        raise TranslationError(
            "closure edge must not carry its own bind parameters"
        )
    if edge.batch_conditions:
        raise TranslationError("closure edge cannot carry batch memberships")
    if not (0 <= frontier < len(edge.select)) or not (
        0 <= result < len(edge.select)
    ):
        raise TranslationError("frontier/result must index the edge SELECT list")
    frontier_column = edge.select[frontier].column
    result_column = edge.select[result].column
    if frontier_column == result_column:
        raise TranslationError("closure endpoints must be distinct columns")
    used_aliases = {t.alias for t in edge.from_tables}
    while alias in used_aliases:
        alias = alias + "x"

    step_tables = edge.from_tables + (TableRef(name, alias),)
    step_join = Condition("eq", frontier_column, ColumnRef(alias, "node"))
    if batch_size is None:
        columns = ("node",)
        base = SqlQuery(
            select=(SelectItem(result_column, label="node"),),
            from_tables=edge.from_tables,
            where=edge.where + (Condition("eq", frontier_column, Parameter(0)),),
            extra_conditions=edge.extra_conditions,
        )
        step = SqlQuery(
            select=(SelectItem(result_column, label="node"),),
            from_tables=step_tables,
            where=edge.where + (step_join,),
            extra_conditions=edge.extra_conditions,
        )
        final = SqlQuery(
            select=(SelectItem(ColumnRef(alias, "node")),),
            from_tables=(TableRef(name, alias),),
        )
    else:
        if batch_size < 1:
            raise TranslationError("batch closure needs at least one seed")
        columns = ("root", "node")
        # Same convention as batch_variant: every VALUES row repeats the
        # goal-parameter indices (here just index 0, the seed), and row
        # ``r`` binds from batch member ``r`` — see the parameter_order
        # docstring's batch-membership caveat.
        membership = InValuesCondition(
            columns=(frontier_column,),
            parameter_rows=tuple((0,) for _ in range(batch_size)),
        )
        base = SqlQuery(
            select=(
                SelectItem(frontier_column, label="root"),
                SelectItem(result_column, label="node"),
            ),
            from_tables=edge.from_tables,
            where=edge.where,
            extra_conditions=edge.extra_conditions,
            batch_conditions=(membership,),
        )
        step = SqlQuery(
            select=(
                SelectItem(ColumnRef(alias, "root")),
                SelectItem(result_column, label="node"),
            ),
            from_tables=step_tables,
            where=edge.where + (step_join,),
            extra_conditions=edge.extra_conditions,
        )
        final = SqlQuery(
            select=(
                SelectItem(ColumnRef(alias, "root")),
                SelectItem(ColumnRef(alias, "node")),
            ),
            from_tables=(TableRef(name, alias),),
        )
    return RecursiveQuery(
        name=name, columns=columns, base=base, step=step, final=final
    )


# -- certain-answer rewriting (consistent query answering, ROADMAP E19) --------------


def certainty_suffix(
    predicate: DbclPredicate,
    order,
    parameters: Optional[Mapping[str, int]] = None,
    alias_base: str = "v",
    alias_start: int = 1,
) -> tuple[str, list[str]]:
    """The certainty condition appended to a plain translated query.

    ``order`` is the attack-graph peel order
    (:func:`repro.cqa.rewrite.peel_order`); the returned text is one
    boolean SQL expression stating that the answer tuple selected by the
    *outer* (plain) query survives **every** repair.  Per atom, in peel
    order::

        EXISTS (SELECT 1 FROM R c1 WHERE <key conds>
            AND NOT EXISTS (SELECT 1 FROM R c1v
                WHERE c1v.k = c1.k AND ...
                  AND NOT (<non-key pattern conds> AND <next atom>)))

    — some block of ``R`` matches the bound key values, and every tuple
    of that block matches the atom's non-key pattern *and* lets the rest
    of the chain succeed.  On a violation-free relation every block is a
    singleton and the condition is trivially true, which is what makes
    appending it sound regardless of which relations are currently
    dirty.

    Free variables of the goal reference the outer query's tuple
    variables (``v1``, ``v2``, … — the translator's aliasing); the
    chain's own aliases use the disjoint ``c``/``cv`` families.
    Parameter markers render as ``?`` and the returned list names them
    in placeholder order, to be appended after the plain query's own
    ``parameter_order()``.
    """
    parameters = dict(parameters or {})
    marker_order: list[str] = []

    def outer_ref(symbol) -> str:
        occurrence = predicate.first_occurrence(symbol)
        return (
            f"{_alias(occurrence.row, alias_base, alias_start)}"
            f".{predicate.attribute_of_column(occurrence.column)}"
        )

    def render(symbol, env: dict) -> Optional[str]:
        if isinstance(symbol, ConstSymbol):
            if is_param_marker(symbol.value):
                if symbol.value not in parameters:
                    raise TranslationError(
                        f"parameter marker {symbol.value!r} has no "
                        "assigned index"
                    )
                marker_order.append(symbol.value)
                return "?"
            return str(Literal(symbol.value))
        return env.get(symbol)

    def build(depth: int, env: dict) -> Optional[str]:
        if depth == len(order):
            return None
        atom = order[depth]
        block = f"c{depth + 1}"
        member = f"{block}v"
        env = dict(env)
        key_set = set(atom.key_positions)
        key_conds: list[str] = []
        for position in atom.key_positions:
            symbol = atom.symbols[position]
            if isinstance(symbol, tuple):
                continue  # '*' key cell: unconstrained
            attribute = atom.attributes[position]
            bound = render(symbol, env)
            if bound is not None:
                key_conds.append(f"{block}.{attribute} = {bound}")
            elif not isinstance(symbol, ConstSymbol):
                env[symbol] = f"{block}.{attribute}"
        same_key = [
            f"{member}.{atom.attributes[j]} = {block}.{atom.attributes[j]}"
            for j in atom.key_positions
        ]
        member_conds: list[str] = []
        for position, symbol in enumerate(atom.symbols):
            if position in key_set or isinstance(symbol, tuple):
                continue
            attribute = atom.attributes[position]
            bound = render(symbol, env)
            if bound is not None:
                member_conds.append(f"{member}.{attribute} = {bound}")
            elif not isinstance(symbol, ConstSymbol):
                env[symbol] = f"{member}.{attribute}"
        rest = build(depth + 1, env)
        if rest is not None:
            member_conds.append(rest)
        clauses = list(key_conds)
        if member_conds:
            universal = " AND ".join(
                same_key + [f"NOT ({' AND '.join(member_conds)})"]
            )
            clauses.append(
                f"NOT EXISTS (SELECT 1 FROM {atom.tag} {member} "
                f"WHERE {universal})"
            )
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return f"EXISTS (SELECT 1 FROM {atom.tag} {block}{where})"

    env: dict = {}
    for target in predicate.targets:
        env[target] = outer_ref(target)
    text = build(0, env)
    if text is None:
        raise TranslationError("certainty condition needs at least one atom")
    return text, marker_order
