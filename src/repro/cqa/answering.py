"""Certain answers as a *mode* of the ask pipeline (ROADMAP E19).

The session's one ask pipeline compiles and executes consistent-mode
goals like any other; :class:`CertainAnswers` supplies the steps that
differ from the plain mode:

* before lookup — :meth:`dirty`: which of the goal's relations hold key
  violations (none: the plain pipeline answers, byte-identically);
* finishing a compilation — :meth:`certainty_order` decides rewriting
  versus enumeration, :meth:`rewritten` appends the certainty condition;
* executing a non-rewritable plan — :meth:`enumerate` intersects the
  goal's answers over every repair.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Optional

from ..dbcl.predicate import DbclPredicate
from ..sql.ast import SqlQuery
from ..sql.translate import certainty_suffix
from .detector import RelationViolations, ViolationDetector
from .repairs import certain_answers, split_blocks
from .rewrite import peel_order
from .stats import CqaStats


class CertainAnswers:
    """Detector, rewriter hooks and repair enumeration for one session."""

    def __init__(self, schema, constraints, database):
        self.schema = schema
        self.constraints = constraints
        self.database = database
        self.stats = CqaStats()
        self.detector = ViolationDetector(database, constraints, stats=self.stats)
        #: Certain-answer sets from repair enumeration, keyed by
        #: (predicate canonical key, involved data generations) — any
        #: mutation of an involved relation changes the key.
        self._memo: dict[tuple, frozenset] = {}
        self._memo_lock = threading.Lock()

    def dirty(self, relations: Iterable[str]) -> dict[str, RelationViolations]:
        """The relations holding key violations, with their blocks."""
        found: dict[str, RelationViolations] = {}
        for name in sorted(relations):
            snapshot = self.detector.violations(name)
            if not snapshot.is_clean:
                found[name] = snapshot
        return found

    # -- compile-time finish ------------------------------------------------------

    def certainty_order(self, final: DbclPredicate):
        """The attack-graph peel order, or None when not FO-rewritable."""
        keys_of = {row.tag: self.detector.key_of(row.tag) for row in final.rows}
        return peel_order(final, keys_of)

    @staticmethod
    def rewritten(
        final: DbclPredicate,
        order,
        sql: SqlQuery,
        plain_text: str,
        parameter_map: Mapping[str, int],
    ) -> tuple[str, tuple[int, ...]]:
        """The plain statement plus its certainty condition.

        Returns the rewritten text and its bind order: the plain query's
        parameters followed by the suffix's markers.
        """
        suffix, suffix_markers = certainty_suffix(
            final, order, parameters=parameter_map
        )
        connector = (
            " AND "
            if (sql.where or sql.batch_conditions or sql.extra_conditions)
            else " WHERE "
        )
        bind_order = tuple(sql.parameter_order()) + tuple(
            parameter_map[marker] for marker in suffix_markers
        )
        return plain_text + connector + suffix, bind_order

    # -- execution of non-rewritable plans ----------------------------------------

    def enumerate(
        self,
        predicate: DbclPredicate,
        dirty: Mapping[str, RelationViolations],
    ) -> list[tuple]:
        """The predicate's certain rows, intersected over every repair.

        Certain-answer rows never enter the session's result cache, which
        memoizes prepared statements and enumeration runs none, so they
        memoize here instead, keyed by predicate plus the data
        generations of every involved relation.
        """
        tags = sorted({row.tag for row in predicate.rows})
        generations = tuple(
            (tag, self.database.data_generation(tag)) for tag in tags
        )
        memo_key = (predicate.canonical_key(), generations)
        with self._memo_lock:
            certain = self._memo.get(memo_key)
        if certain is not None:
            self.stats.incr("memo_hits")
        else:
            fixed: dict[str, list] = {}
            blocks: dict[str, list] = {}
            for tag in tags:
                rows = [
                    tuple(row) for row in self.database.fetch_relation(tag)
                ]
                snapshot = dirty.get(tag)
                if snapshot is None or snapshot.is_clean:
                    fixed[tag] = list(dict.fromkeys(rows))
                    blocks[tag] = []
                    continue
                attributes = tuple(self.schema.relation(tag).attributes)
                key_positions = [
                    attributes.index(a) for a in snapshot.key
                ]
                fixed[tag], blocks[tag] = split_blocks(rows, key_positions)
            certain = certain_answers(
                predicate, fixed, blocks, stats=self.stats
            )
            with self._memo_lock:
                if len(self._memo) >= 256:
                    self._memo.clear()
                self._memo[memo_key] = certain
        self.stats.incr("fallback_asks")
        return sorted(certain, key=repr)

    # -- diagnostics --------------------------------------------------------------

    def integrity_report(self) -> dict:
        """Per-relation key/FD violation counts with sample blocks.

        Key violations come from the detector's cached probes (so a
        clean relation re-reports for free); violations of the declared
        functional dependencies beyond the primary key are counted in
        Python over one deduplicated fetch per relation that declares
        any.  Diagnostic view — nothing here feeds the ask paths.
        """
        report: dict[str, dict] = {}
        for name in sorted(self.schema.relations):
            snapshot = self.detector.violations(name)
            attributes = tuple(self.schema.relation(name).attributes)
            entry: dict = {
                "key": list(snapshot.key),
                "key_violations": snapshot.block_count,
                "violating_rows": snapshot.violating_rows,
                "sample_blocks": [
                    {
                        "key": list(key_value),
                        "rows": [list(row) for row in block[:4]],
                    }
                    for key_value, block in list(
                        zip(snapshot.key_values, snapshot.blocks)
                    )[:3]
                ],
                "funcdeps": [],
            }
            rows: Optional[list[tuple]] = None
            for dependency in self.constraints.funcdeps_of(name):
                if rows is None:
                    rows = list(
                        dict.fromkeys(
                            tuple(row)
                            for row in self.database.fetch_relation(name)
                        )
                    )
                lhs_positions = [attributes.index(a) for a in dependency.lhs]
                rhs_positions = [attributes.index(a) for a in dependency.rhs]
                groups: dict[tuple, set] = {}
                for row in rows:
                    groups.setdefault(
                        tuple(row[i] for i in lhs_positions), set()
                    ).add(tuple(row[i] for i in rhs_positions))
                entry["funcdeps"].append(
                    {
                        "lhs": list(dependency.lhs),
                        "rhs": list(dependency.rhs),
                        "violations": sum(
                            1
                            for images in groups.values()
                            if len(images) > 1
                        ),
                    }
                )
            report[name] = entry
        return report
