"""Merging internal and external database segments (paper section 2).

The paper names two support components: an internal database for query
answers (with garbage collection if results grow stale) and "a merge
procedure ... to combine internal and external database segments".  A
relation may have tuples in the external DBMS *and* facts asserted
internally (e.g. hypothetical data an expert system adds); the merge view
is their union.

:class:`SegmentMerger` implements that union with duplicate elimination,
plus the garbage-collection hook: results asserted under a view name can
be retracted wholesale when the coupling layer decides they are not worth
keeping (large and unlikely to be reused).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import CouplingError
from ..prolog.knowledge_base import KnowledgeBase
from ..prolog.terms import Clause, Struct
from .internal_db import term_to_value, value_to_term
from .sqlite_backend import ExternalDatabase


@dataclass
class MergeReport:
    """What one merge did."""

    relation: str
    external_rows: int
    internal_facts: int
    merged_rows: int

    @property
    def duplicates_removed(self) -> int:
        return self.external_rows + self.internal_facts - self.merged_rows


class SegmentMerger:
    """Unions internal facts with external tuples, per relation."""

    def __init__(self, kb: KnowledgeBase, database: ExternalDatabase):
        self.kb = kb
        self.database = database

    def internal_rows(self, relation_name: str) -> list[tuple]:
        """Ground facts for a relation held in the internal database."""
        relation = self.database.schema.relation(relation_name)
        rows = []
        for clause in self.kb.all_clauses((relation_name, relation.arity)):
            if not clause.is_fact or not isinstance(clause.head, Struct):
                continue
            try:
                rows.append(tuple(term_to_value(a) for a in clause.head.args))
            except CouplingError:
                continue  # non-ground or structured fact: not a tuple
        return rows

    def merged_rows(self, relation_name: str) -> tuple[list[tuple], MergeReport]:
        """Union of both segments with duplicates removed."""
        external = self.database.fetch_relation(relation_name)
        internal = self.internal_rows(relation_name)
        seen: set[tuple] = set()
        merged: list[tuple] = []
        for row in external + internal:
            if row not in seen:
                seen.add(row)
                merged.append(row)
        report = MergeReport(
            relation=relation_name,
            external_rows=len(external),
            internal_facts=len(internal),
            merged_rows=len(merged),
        )
        return merged, report

    def pending(self, relations: Iterable[str]) -> list[str]:
        """The base relations among ``relations`` with unmerged internal facts."""
        schema, kb = self.database.schema, self.kb
        return [
            name
            for name in relations
            if schema.has_relation(name)
            and kb.fact_count((name, schema.relation(name).arity))
        ]

    def materialise_internal(self, relation_name: str) -> MergeReport:
        """Push internal facts for a relation into the external database.

        The paper's "alternative strategy": store results in the external
        system "to keep a clean separation between database and logic
        program data".  Internal facts not yet present externally are
        inserted; the internal copies are retracted.
        """
        merged, report = self.merged_rows(relation_name)
        external = set(self.database.fetch_relation(relation_name))
        new_rows = [row for row in merged if row not in external]
        if new_rows:
            self.database.insert_rows(relation_name, new_rows)
        relation = self.database.schema.relation(relation_name)
        # Relocation, not deletion: the retracted internal copies live on
        # externally, so change listeners (incremental view maintenance)
        # must not observe this as a data change.
        with self.kb.suspend_deltas():
            self.kb.retract_all((relation_name, relation.arity))
        return report

    def pull_external(self, relation_name: str) -> MergeReport:
        """Assert every external tuple as an internal fact (small relations).

        Used when the global optimizer decides a relation is cheaper to
        evaluate tuple-at-a-time in Prolog than to ship queries out.
        """
        merged, report = self.merged_rows(relation_name)
        relation = self.database.schema.relation(relation_name)
        # Also a relocation (external tuples re-homed as internal facts);
        # suppress change listeners and coalesce the generation bumps.
        with self.kb.suspend_deltas(), self.kb.bulk_update():
            self.kb.retract_all((relation_name, relation.arity))
            for row in merged:
                self.kb.assertz(
                    Clause(
                        Struct(relation_name, tuple(value_to_term(v) for v in row))
                    )
                )
        return report

    def collect_garbage(self, indicator: tuple[str, int]) -> int:
        """Drop all facts stored under a view name; returns the count."""
        return self.kb.retract_all(indicator)
