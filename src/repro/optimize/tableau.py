"""The integer-coded working tableau Algorithm 2 rewrites in place.

:func:`repro.optimize.pipeline.simplify` codes its input once: each
distinct symbol becomes a small integer (``STAR_CODE`` for ``*``), each
row its tag plus a tuple of codes, each comparison an ``(op, left,
right)`` triple.  The stages and the cost order rewrite this structure —
consistent renamings, dropped duplicates and rows whose symbols survive
elsewhere keep every predicate invariant — and :meth:`Tableau.predicate`
builds and validates the one :class:`DbclPredicate` at the end.
"""

from __future__ import annotations

from ..dbcl.predicate import MIRRORED_OPS, Comparison, DbclPredicate, RelRow
from ..dbcl.symbols import STAR, ConstSymbol, JoinableSymbol, TargetSymbol, VarSymbol

STAR_CODE = -1
#: Symbol kinds, ordered as the chase ranks class representatives.
VAR, TARGET, CONST = 0, 1, 2
_KINDS = {VarSymbol: VAR, TargetSymbol: TARGET, ConstSymbol: CONST}


class Tableau:
    """One DBCL predicate's rows and comparisons over symbol codes."""

    __slots__ = (
        "schema", "name", "targets", "target_codes", "symbols", "kinds", "rows",
        "comparisons", "_codes", "_source", "_coded",
    )

    def __init__(self, predicate: DbclPredicate):
        self.schema = predicate.schema
        self.name = predicate.name
        self.targets = predicate.targets
        #: code → symbol, and code → VAR / TARGET / CONST
        self.symbols: list[JoinableSymbol] = []
        self.kinds: list[int] = []
        self._codes: dict = {STAR: STAR_CODE}
        code = self.code
        self.rows: list[tuple[str, tuple[int, ...]]] = [
            (row.tag, tuple([code(entry) for entry in row.entries]))
            for row in predicate.rows
        ]
        self.target_codes = [code(target) for target in self.targets]
        self.comparisons: list[tuple[str, int, int]] = [
            (c.op, code(c.left), code(c.right)) for c in predicate.comparisons
        ]
        self._source = predicate
        self._coded = (list(self.rows), list(self.comparisons))

    def code(self, symbol: JoinableSymbol) -> int:
        """The symbol's code, allocating one at first sight."""
        symbols = self.symbols
        code = self._codes.setdefault(symbol, len(symbols))
        if code == len(symbols):
            symbols.append(symbol)
            self.kinds.append(_KINDS[type(symbol)])
        return code

    def comparison_variables(self) -> set[int]:
        """Codes of the target and variable symbols used in comparisons."""
        kinds = self.kinds
        return {c for _, l, r in self.comparisons for c in (l, r) if kinds[c] != CONST}

    def comparison_list(self) -> list[Comparison]:
        symbols = self.symbols
        return [Comparison(op, symbols[l], symbols[r]) for op, l, r in self.comparisons]

    def substitute(self, mapping: dict[int, int]) -> None:
        """Apply a code renaming to rows and comparisons (targets are never keys)."""
        get = mapping.get
        self.rows = [(tag, tuple([get(c, c) for c in cells])) for tag, cells in self.rows]
        self.comparisons = [(op, get(l, l), get(r, r)) for op, l, r in self.comparisons]

    def unique_rows(self) -> int:
        """Drop exactly-identical rows (``A AND A <=> A``); how many went."""
        before = len(self.rows)
        self.rows = list(dict.fromkeys(self.rows))
        return before - len(self.rows)

    def unique_comparisons(self) -> None:
        """Drop duplicate comparisons, mirrored duplicates included."""
        keep: dict[tuple[str, int, int], None] = {}
        for op, left, right in self.comparisons:
            if (MIRRORED_OPS[op], right, left) not in keep:
                keep.setdefault((op, left, right))
        self.comparisons = list(keep)

    def predicate(self) -> DbclPredicate:
        """The tableau as a validated predicate (the input one if unchanged)."""
        if (self.rows, self.comparisons) == self._coded:
            return self._source
        symbols = self.symbols
        rows = [
            RelRow(tag, tuple([STAR if c < 0 else symbols[c] for c in cells]))
            for tag, cells in self.rows
        ]
        return DbclPredicate(
            self.schema, self.name, self.targets, rows, self.comparison_list()
        )
