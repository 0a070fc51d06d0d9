"""Merging internal and external database segments (paper section 2).

The paper names two support components: an internal database for query
answers (with garbage collection if results grow stale) and "a merge
procedure ... to combine internal and external database segments".  A
relation may have tuples in the external DBMS *and* facts asserted
internally (hypothetical data an expert system adds while reasoning:
``assertz(empl(...))`` from inside a program, consulted base facts); the
merge view is their union.  That internal segment is the exception, not
the rule — ``PrologDbSession.assert_fact`` on a base relation writes the
store directly — and it is program-clock neutral: asserting it, and
relocating it here, drops no compiled plan.

:class:`SegmentMerger` implements the union with duplicate elimination
by moving exactly the pending rows (each inserted unless the relation
already holds it — the statement every base-relation write uses), plus
the garbage-collection hook: results asserted under a view name can be
retracted wholesale when the coupling layer decides they are not worth
keeping (large and unlikely to be reused).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..prolog.knowledge_base import KnowledgeBase
from .internal_db import fact_row
from .sqlite_backend import ExternalDatabase


@dataclass
class MergeReport:
    """What one merge did."""

    relation: str
    external_rows: int  # in the store before the merge
    internal_facts: int
    rows_added: int

    @property
    def duplicates_removed(self) -> int:
        return self.internal_facts - self.rows_added


class SegmentMerger:
    """Unions internal facts with external tuples, per relation."""

    def __init__(self, kb: KnowledgeBase, database: ExternalDatabase):
        self.kb = kb
        self.database = database

    def internal_rows(self, relation_name: str) -> list[tuple]:
        """Ground facts for a relation held in the internal database."""
        relation = self.database.schema.relation(relation_name)
        clauses = self.kb.all_clauses((relation_name, relation.arity))
        return [row for row in map(fact_row, clauses) if row is not None]

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
        program data".  Only the pending rows move: each is inserted
        unless the relation already holds it, and the internal copies are
        retracted.
        """
        internal = self.internal_rows(relation_name)
        external = self.database.row_count(relation_name)
        added = self.database.insert_absent(relation_name, internal)
        relation = self.database.schema.relation(relation_name)
        # Relocation, not deletion: the retracted internal copies live on
        # externally, so change listeners (incremental view maintenance)
        # must not observe this as a data change.
        with self.kb.suspend_deltas():
            self.kb.retract_all((relation_name, relation.arity))
        return MergeReport(relation_name, external, len(internal), added)

    def collect_garbage(self, indicator: tuple[str, int]) -> int:
        """Drop all facts stored under a view name; returns the count."""
        return self.kb.retract_all(indicator)
