"""The DBCL predicate: a tagged tableau with comparisons (paper section 3).

A DBCL predicate for conjunctive queries has four components::

    dbcl(Schema, Targetlist, Relreferences, Relcomparisons)

* ``Schema`` — the database name plus the global attribute list;
* ``Targetlist`` — the schema of the result relation: the view name plus
  one entry per column (``t_`` symbols where the query projects, ``*``
  elsewhere);
* ``Relreferences`` — the tableau rows; each row carries a relation *tag*
  and one symbol per schema column (``*`` for attributes the relation does
  not have).  A symbol repeated across cells denotes an equijoin;
* ``Relcomparisons`` — inequality restrictions/joins such as
  ``[less, v_Sal1, 40000]``.

The class is immutable: new predicates derive through :meth:`rename`,
:meth:`drop_rows` and :meth:`replace`, and Algorithm 2 rewrites a coded
copy (:mod:`repro.optimize.tableau`) into one new predicate, which keeps
property tests (idempotence, answer preservation) straightforward.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..errors import DbclError
from ..schema.catalog import DatabaseSchema
from .symbols import (
    STAR,
    ConstSymbol,
    JoinableSymbol,
    Star,
    Symbol,
    TargetSymbol,
    VarSymbol,
    is_constant_symbol,
    is_star,
    is_variable_symbol,
)

#: Comparison operator names allowed in Relcomparisons, with SQL spellings.
COMPARISON_OPS: dict[str, str] = {
    "eq": "=",
    "neq": "<>",
    "less": "<",
    "greater": ">",
    "leq": "<=",
    "geq": ">=",
}

#: op -> op with sides swapped (used for normalisation).
MIRRORED_OPS: dict[str, str] = {
    "eq": "eq",
    "neq": "neq",
    "less": "greater",
    "greater": "less",
    "leq": "geq",
    "geq": "leq",
}

#: op -> logical negation (used by the extensions layer).
NEGATED_OPS: dict[str, str] = {
    "eq": "neq",
    "neq": "eq",
    "less": "geq",
    "greater": "leq",
    "leq": "greater",
    "geq": "less",
}


@dataclass(frozen=True, slots=True)
class RelRow:
    """One tagged tableau row: a relation name plus a cell per column."""

    tag: str
    entries: tuple[Symbol, ...]

    def __str__(self) -> str:
        cells = ", ".join(str(entry) for entry in self.entries)
        return f"[{self.tag}, {cells}]"

    def cell(self, column: int) -> Symbol:
        return self.entries[column]

    def with_entries(self, entries: Sequence[Symbol]) -> "RelRow":
        return RelRow(self.tag, tuple(entries))


@dataclass(frozen=True, slots=True)
class Comparison:
    """One Relcomparisons element: ``[op, left, right]``."""

    op: str
    left: JoinableSymbol
    right: JoinableSymbol

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise DbclError(f"unknown comparison operator {self.op!r}")
        if is_star(self.left) or is_star(self.right):
            raise DbclError("comparisons cannot involve '*'")

    def __str__(self) -> str:
        return f"[{self.op}, {self.left}, {self.right}]"

    def mirrored(self) -> "Comparison":
        """The same constraint with operands swapped."""
        return Comparison(MIRRORED_OPS[self.op], self.right, self.left)

    def negated(self) -> "Comparison":
        """The logical negation (for the extensions layer)."""
        return Comparison(NEGATED_OPS[self.op], self.left, self.right)

    def symbols(self) -> tuple[JoinableSymbol, JoinableSymbol]:
        return (self.left, self.right)

    @property
    def is_ground(self) -> bool:
        return is_constant_symbol(self.left) and is_constant_symbol(self.right)

    def evaluate_ground(self) -> bool:
        """Truth value when both sides are constants.

        Cross-type orderings follow SQLite's semantics (numbers before
        strings) via :func:`repro.dbcl.symbols.compare_values`, so the
        optimizer and the execution substrate always agree.
        """
        if not self.is_ground:
            raise DbclError(f"comparison {self} is not ground")
        from .symbols import compare_values

        ordering = compare_values(
            self.left.value, self.right.value  # type: ignore[union-attr]
        )
        return {
            "eq": ordering == 0,
            "neq": ordering != 0,
            "less": ordering < 0,
            "greater": ordering > 0,
            "leq": ordering <= 0,
            "geq": ordering >= 0,
        }[self.op]


@dataclass(frozen=True)
class Occurrence:
    """Where a symbol occurs: row index and schema column."""

    row: int
    column: int


class DbclPredicate:
    """An immutable DBCL predicate over a fixed database schema.

    ``targets`` is the authoritative, *ordered* list of output symbols
    (matching the argument order of the original Prolog goal).  The
    paper's flat Targetlist row is available as the derived
    :attr:`targetlist` — it is purely presentational, because two targets
    may legitimately address the same schema column (both arguments of
    ``works_dir_for(X, Y)`` are names) and a one-cell-per-column row
    cannot carry that.
    """

    __slots__ = ("schema", "name", "targets", "rows", "comparisons", "_occurrences")

    def __init__(
        self,
        schema: DatabaseSchema,
        name: str,
        targets: Sequence[Symbol],
        rows: Sequence[RelRow],
        comparisons: Sequence[Comparison] = (),
        validate: bool = True,
    ):
        self.schema = schema
        self.name = name
        self.targets: tuple[TargetSymbol, ...] = self._coerce_targets(targets)
        self.rows: tuple[RelRow, ...] = tuple(rows)
        self.comparisons: tuple[Comparison, ...] = tuple(comparisons)
        self._occurrences: Optional[dict[JoinableSymbol, list[Occurrence]]] = None
        if validate:
            self._validate()

    def _coerce_targets(self, targets: Sequence[Symbol]) -> tuple[TargetSymbol, ...]:
        """Accept either an explicit target list or a paper-style row.

        A sequence of exactly schema-width entries containing at least one
        ``*`` is interpreted as the paper's Targetlist row; anything else
        must be a plain sequence of target symbols.
        """
        entries = tuple(targets)
        if len(entries) == self.schema.width and any(is_star(e) for e in entries):
            collected = []
            for entry in entries:
                if is_star(entry):
                    continue
                if not isinstance(entry, TargetSymbol):
                    raise DbclError(
                        f"targetlist row: expected '*' or t_-symbol, got {entry}"
                    )
                collected.append(entry)
            return tuple(collected)
        for entry in entries:
            if not isinstance(entry, TargetSymbol):
                raise DbclError(f"targets: expected t_-symbols, got {entry}")
        return entries  # type: ignore[return-value]

    @property
    def targetlist(self) -> tuple[Symbol, ...]:
        """The paper's Targetlist row (first target per column; display only)."""
        row: list[Symbol] = [STAR] * self.schema.width
        for target in self.targets:
            column = self.first_occurrence(target).column
            if is_star(row[column]):
                row[column] = target
        return tuple(row)

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        width = self.schema.width
        if len(set(self.targets)) != len(self.targets):
            raise DbclError("duplicate target symbol in targets")
        for row_index, row in enumerate(self.rows):
            if not self.schema.has_relation(row.tag):
                raise DbclError(f"row {row_index}: unknown relation {row.tag!r}")
            if len(row.entries) != width:
                raise DbclError(
                    f"row {row_index}: width {len(row.entries)} != schema width {width}"
                )
            covered = set(self.schema.columns_of_relation(row.tag))
            for column, entry in enumerate(row.entries):
                if column in covered:
                    if is_star(entry):
                        raise DbclError(
                            f"row {row_index} ({row.tag}): column "
                            f"{self.schema.attribute_names[column]} must be filled"
                        )
                else:
                    if not is_star(entry):
                        raise DbclError(
                            f"row {row_index} ({row.tag}): column "
                            f"{self.schema.attribute_names[column]} does not apply; "
                            f"found {entry}"
                        )
        row_symbols = self._row_symbol_set()
        for target in self.target_symbols():
            if target not in row_symbols:
                raise DbclError(f"target {target} does not occur in any row")
        for comparison in self.comparisons:
            for side in comparison.symbols():
                if is_variable_symbol(side) and side not in row_symbols:
                    raise DbclError(
                        f"comparison {comparison}: {side} does not occur in any row"
                    )

    def _row_symbol_set(self) -> set[JoinableSymbol]:
        symbols: set[JoinableSymbol] = set()
        for row in self.rows:
            for entry in row.entries:
                if not is_star(entry):
                    symbols.add(entry)  # type: ignore[arg-type]
        return symbols

    # -- inspection -------------------------------------------------------------

    def target_symbols(self) -> list[TargetSymbol]:
        """The output symbols, in goal-argument order."""
        return list(self.targets)

    def target_columns(self) -> list[int]:
        """Schema column of each target's first occurrence, in target order."""
        return [self.first_occurrence(target).column for target in self.targets]

    @property
    def arity(self) -> int:
        """Number of output columns of the query."""
        return len(self.targets)

    def occurrences(self) -> dict[JoinableSymbol, list[Occurrence]]:
        """Map each non-star symbol to its cells, in row-major order."""
        if self._occurrences is None:
            table: dict[JoinableSymbol, list[Occurrence]] = {}
            for row_index, row in enumerate(self.rows):
                for column, entry in enumerate(row.entries):
                    if not is_star(entry):
                        table.setdefault(entry, []).append(  # type: ignore[arg-type]
                            Occurrence(row_index, column)
                        )
            self._occurrences = table
        return self._occurrences

    def first_occurrence(self, symbol: JoinableSymbol) -> Occurrence:
        """First cell containing ``symbol`` (SQL rules 2, 4, 5 need this)."""
        cells = self.occurrences().get(symbol)
        if not cells:
            raise DbclError(f"symbol {symbol} does not occur in Relreferences")
        return cells[0]

    def occurs_in_rows(self, symbol: JoinableSymbol) -> bool:
        return symbol in self.occurrences()

    def occurrence_count(self, symbol: JoinableSymbol) -> int:
        """Number of cells containing ``symbol``."""
        return len(self.occurrences().get(symbol, ()))

    def var_symbols(self) -> list[VarSymbol]:
        """All distinct ``v_`` symbols, in first-occurrence order."""
        return [s for s in self.occurrences() if isinstance(s, VarSymbol)]

    def attribute_of_column(self, column: int) -> str:
        return self.schema.attribute_names[column]

    def join_count(self) -> int:
        """Number of equijoin terms the SQL translation will contain.

        Each symbol occurring in k cells yields k-1 equijoin terms
        (SQL translation rule 4), plus inequality joins from comparisons
        whose both sides are row variables.
        """
        equijoins = sum(
            len(cells) - 1
            for symbol, cells in self.occurrences().items()
            if is_variable_symbol(symbol)
        )
        inequality_joins = sum(
            1
            for comparison in self.comparisons
            if is_variable_symbol(comparison.left)
            and is_variable_symbol(comparison.right)
        )
        return equijoins + inequality_joins

    def fresh_var(self, base: str) -> VarSymbol:
        """A ``v_`` symbol on ``base`` not yet used in this predicate."""
        used = {
            s.number
            for s in self.occurrences()
            if isinstance(s, VarSymbol) and s.base == base
        }
        number = 0
        while number in used:
            number += 1
        return VarSymbol(base, number)

    # -- functional updates -------------------------------------------------------

    def replace(
        self,
        name: Optional[str] = None,
        targets: Optional[Sequence[Symbol]] = None,
        rows: Optional[Sequence[RelRow]] = None,
        comparisons: Optional[Sequence[Comparison]] = None,
        validate: bool = True,
    ) -> "DbclPredicate":
        """A copy with the given components replaced."""
        return DbclPredicate(
            self.schema,
            self.name if name is None else name,
            self.targets if targets is None else targets,
            self.rows if rows is None else rows,
            self.comparisons if comparisons is None else comparisons,
            validate=validate,
        )

    def rename(self, mapping: Mapping[JoinableSymbol, JoinableSymbol]) -> "DbclPredicate":
        """Apply a symbol substitution to rows and comparisons.

        The targetlist is *not* renamed: target symbols name output columns
        and must be preserved (renaming a target symbol would change the
        query's interface).  Mapping a target symbol raises.

        A constants-for-constants mapping (a plan binding its markers)
        skips re-validation: every check there is invariant under it.
        """
        constants_only = True
        for source, image in mapping.items():
            if isinstance(source, TargetSymbol):
                raise DbclError(f"cannot rename target symbol {source}")
            if not (isinstance(source, ConstSymbol) and isinstance(image, ConstSymbol)):
                constants_only = False

        def rewrite(symbol: Symbol) -> Symbol:
            if is_star(symbol):
                return symbol
            return mapping.get(symbol, symbol)  # type: ignore[arg-type]

        new_rows = [
            row.with_entries([rewrite(entry) for entry in row.entries])
            for row in self.rows
        ]
        new_comparisons = [
            Comparison(c.op, rewrite(c.left), rewrite(c.right))  # type: ignore[arg-type]
            for c in self.comparisons
        ]
        return self.replace(
            rows=new_rows, comparisons=new_comparisons, validate=not constants_only
        )

    def drop_rows(self, indices: Iterable[int], validate: bool = True) -> "DbclPredicate":
        """A copy without the rows at ``indices``.

        ``validate=False`` allows building candidate sub-tableaux that may
        dangle a comparison or target symbol — the minimizer probes such
        candidates and discards invalid ones itself.
        """
        dropped = set(indices)
        remaining = [row for i, row in enumerate(self.rows) if i not in dropped]
        return self.replace(rows=remaining, validate=validate)

    def dedupe_rows(self) -> "DbclPredicate":
        """Remove exactly-identical rows (the ``A AND A <=> A`` rule).

        Dropping an exact duplicate keeps every validity invariant, so the
        copy is not re-validated (nor is :meth:`dedupe_comparisons`').
        """
        keep = list(dict.fromkeys(self.rows))
        if len(keep) == len(self.rows):
            return self
        return self.replace(rows=keep, validate=False)

    def dedupe_comparisons(self) -> "DbclPredicate":
        """Remove duplicate comparisons (including mirrored duplicates)."""
        seen: set[tuple] = set()
        keep: list[Comparison] = []
        for comparison in self.comparisons:
            key = (comparison.op, comparison.left, comparison.right)
            mirrored = comparison.mirrored()
            mirror_key = (mirrored.op, mirrored.left, mirrored.right)
            if key in seen or mirror_key in seen:
                continue
            seen.add(key)
            keep.append(comparison)
        if len(keep) == len(self.comparisons):
            return self
        return self.replace(comparisons=keep, validate=False)

    # -- canonical form ------------------------------------------------------------

    def canonical_key(self) -> tuple:
        """A hashable key invariant under consistent ``v_`` renaming.

        Rows are sorted by a rename-independent signature, then variables
        are numbered in first-occurrence order over the sorted rows.  Equal
        keys imply isomorphic predicates (the rename is a bijection); some
        isomorphic pairs may produce different keys when row signatures tie,
        which is acceptable for its use in caching and common-subexpression
        detection (false negatives only).
        """
        def cell_signature(entry: Symbol) -> tuple:
            if is_star(entry):
                return (0,)
            if isinstance(entry, ConstSymbol):
                return (1, str(entry.value))
            if isinstance(entry, TargetSymbol):
                return (2, entry.name)
            return (3,)

        indexed = sorted(
            range(len(self.rows)),
            key=lambda i: (
                self.rows[i].tag,
                tuple(cell_signature(e) for e in self.rows[i].entries),
            ),
        )
        numbering: dict[JoinableSymbol, int] = {}

        def encode(entry: Symbol) -> tuple:
            if is_star(entry):
                return ("*",)
            if isinstance(entry, ConstSymbol):
                return ("c", entry.value)
            if isinstance(entry, TargetSymbol):
                return ("t", entry.name)
            assert isinstance(entry, VarSymbol)
            if entry not in numbering:
                numbering[entry] = len(numbering)
            return ("v", numbering[entry])

        encoded_rows = tuple(
            (self.rows[i].tag, tuple(encode(e) for e in self.rows[i].entries))
            for i in indexed
        )
        encoded_targets = tuple(encode(e) for e in self.targets)
        encoded_comparisons = tuple(
            sorted(
                (c.op, encode(c.left), encode(c.right)) for c in self.comparisons
            )
        )
        return (self.schema.name, encoded_targets, encoded_rows, encoded_comparisons)

    def canonical_form(self) -> "DbclPredicate":
        """A copy with ``v_`` symbols renamed to a canonical numbering.

        Two predicates with equal :meth:`canonical_key` have *identical*
        canonical forms, which lets the multiple-query optimizer align
        symbols across queries from different origins.
        """
        def cell_signature(entry: Symbol) -> tuple:
            if is_star(entry):
                return (0,)
            if isinstance(entry, ConstSymbol):
                return (1, str(entry.value))
            if isinstance(entry, TargetSymbol):
                return (2, entry.name)
            return (3,)

        indexed = sorted(
            range(len(self.rows)),
            key=lambda i: (
                self.rows[i].tag,
                tuple(cell_signature(e) for e in self.rows[i].entries),
            ),
        )
        mapping: dict[JoinableSymbol, JoinableSymbol] = {}
        for i in indexed:
            for entry in self.rows[i].entries:
                if isinstance(entry, VarSymbol) and entry not in mapping:
                    mapping[entry] = VarSymbol("C", len(mapping) + 1)
        renamed = self.rename(mapping)
        # Reorder rows into the canonical order as well.
        ordered_rows = [renamed.rows[i] for i in indexed]
        ordered_comparisons = sorted(
            renamed.comparisons, key=lambda c: (c.op, str(c.left), str(c.right))
        )
        return renamed.replace(rows=ordered_rows, comparisons=ordered_comparisons)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DbclPredicate):
            return NotImplemented
        return (
            self.schema.name == other.schema.name
            and self.name == other.name
            and self.targets == other.targets
            and self.rows == other.rows
            and self.comparisons == other.comparisons
        )

    def __hash__(self) -> int:
        return hash((self.name, self.targets, self.rows, self.comparisons))

    def __repr__(self) -> str:
        return (
            f"DbclPredicate({self.name!r}, rows={len(self.rows)}, "
            f"comparisons={len(self.comparisons)})"
        )

    def __str__(self) -> str:
        from .grammar import format_dbcl

        return format_dbcl(self)
