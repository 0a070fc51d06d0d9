"""The internal Prolog database (clause store).

This is the "internal database system in the logic language" of paper
section 2: it stores the expert system's rules and facts, receives query
answers fetched from the external DBMS (via ``assertz``), and supports
``retract`` so large unused results can be garbage-collected by the
coupling layer.

Indexing
--------

Clauses are indexed by predicate indicator and, additionally, by **every
argument position of the head that is a constant in all clauses** of the
procedure (a generalisation of classic first-argument indexing).  A goal
with a constant in any indexed position is answered from the smallest
matching bucket; a goal whose constant has no bucket fails without
touching a single clause.  The engine resolves the goal under the current
substitution *before* the lookup, so arguments bound earlier in the proof
are just as selective as literal constants — this is what keeps a join
proof over a 10k-fact relation linear instead of quadratic.

Ground facts are additionally tracked in a per-procedure hash multiset of
their heads, giving O(1) duplicate detection for the external-answer
merge (:func:`repro.dbms.internal_db.assert_answers`) and an O(1) fast
path for ``retract`` of a ground fact.

Aliasing contract
-----------------

:meth:`Procedure.candidates` (and therefore
:meth:`KnowledgeBase.clauses_for`) returns the **stored** clause sequence
or index bucket, *not* a copy.  Callers must treat it as read-only and
must be prepared to skip ``None`` tombstones left by lazy removal.
All mutations are iteration-safe for a consumer that bounds itself to
``len(seq)`` at call time (as the engine does): removal tombstones in
place (observed as ``None``), front-inserts and compaction replace the
stored list wholesale (invisible to a held reference), and end-appends
only extend the list beyond the captured bound — so a bounded iteration
sees exactly the clauses present when it started, the classic
logical-update view.  The previous implementation guaranteed this by
copying the list on every call, which made ``candidates`` O(n) even for
fully indexed lookups.

Snapshots are copy-on-write: :meth:`KnowledgeBase.snapshot` shares every
procedure with the copy and marks both sides shared; the first mutation
of a procedure on either side clones just that procedure.  Taking a
snapshot is therefore O(#procedures) instead of O(#clauses).

Base facts live in the store
----------------------------

A knowledge base coupled to an external store (a session sets
``data_indicators`` to its schema's base relations and ``base_writer``
to its one base-write function) keeps no ground tuple of a base
relation: ``assertz`` / ``asserta`` / ``assert_fact`` hand such a tuple
to ``base_writer``, which inserts it unless the store already holds it,
and ``retract`` of a ground tuple deletes the store row.  Everything
else — rules, facts of other predicates, non-ground or structured facts
of a base relation — stays here.  A knowledge base with no writer (the
bare engine, every :meth:`KnowledgeBase.snapshot`) keeps every clause.

``generation`` is a *program* clock and advances only for indicators
outside ``data_indicators``: a tuple of a base relation can change an
answer, never how a goal compiles, so base-relation clauses leave
compiled plans and the memoized call graph alone.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from itertools import count
from typing import Iterable, Iterator, Optional, Sequence

from ..concurrency import ReentrantRWLock
from ..errors import PrologError
from .reader import parse_program
from .terms import Atom, Clause, Number, PString, Struct, Term, goal_indicator
from .unify import unify

#: Returned by candidate lookups that can prove emptiness from the index.
_NO_CLAUSES: tuple[Clause, ...] = ()


def _const_key(term: Term) -> Optional[object]:
    """Indexing key for a constant term, or None if unindexable."""
    if isinstance(term, Atom):
        return ("atom", term.name)
    if isinstance(term, Number):
        return ("number", term.value)
    if isinstance(term, PString):
        return ("string", term.value)
    return None


def _remove_identical(entries: list, target: object) -> bool:
    """Remove ``target`` from ``entries`` by identity (no deep equality)."""
    for position, entry in enumerate(entries):
        if entry is target:
            del entries[position]
            return True
    return False


class Procedure:
    """All clauses for one predicate indicator, in assertion order.

    Storage is a list with ``None`` tombstones (compacted once half the
    entries are dead), per-argument-position constant indexes, and a
    hash multiset of ground-fact heads.  See the module docstring for the
    aliasing contract of :meth:`candidates`.
    """

    __slots__ = (
        "indicator",
        "_entries",
        "_live",
        "_ground_count",
        "_indexes",
        "_ground_heads",
        "shared",
    )

    def __init__(self, indicator: tuple[str, int]):
        self.indicator = indicator
        #: Clause storage in assertion order; may contain None tombstones.
        self._entries: list[Optional[Clause]] = []
        self._live = 0
        self._ground_count = 0
        #: One dict per head argument position while *every* clause has a
        #: constant there; an unindexable position is disabled (None).
        arity = indicator[1]
        self._indexes: list[Optional[dict[object, list[Clause]]]] = [
            {} for _ in range(arity)
        ]
        #: Ground-fact head -> clauses with that head (usually one).
        self._ground_heads: dict[Term, list[Clause]] = {}
        #: True while this procedure is shared with a snapshot (copy-on-write).
        self.shared = False

    # -- mutation -----------------------------------------------------------

    def add(self, clause: Clause, front: bool = False) -> None:
        # Front-inserts *replace* the stored lists rather than shifting in
        # place, so iterators over the old list neither skip nor revisit.
        if front:
            self._entries = [clause] + self._entries
        else:
            self._entries.append(clause)
        self._live += 1
        head = clause.head
        args = head.args if isinstance(head, Struct) else ()
        for position, index in enumerate(self._indexes):
            if index is None:
                continue
            key = _const_key(args[position]) if position < len(args) else None
            if key is None:
                # A non-constant at this position makes the index unsound
                # (the clause would have to live in every bucket): disable.
                self._indexes[position] = None
                continue
            bucket = index.get(key)
            if bucket is None:
                index[key] = [clause]
            elif front:
                index[key] = [clause] + bucket
            else:
                bucket.append(clause)
        if clause.is_ground_fact:
            self._ground_count += 1
            owners = self._ground_heads.get(head)
            if owners is None:
                self._ground_heads[head] = [clause]
            elif front:
                owners.insert(0, clause)
            else:
                owners.append(clause)

    def remove(self, clause: Clause) -> None:
        """Remove one stored clause (identified by object identity)."""
        position = None
        for entry_position, entry in enumerate(self._entries):
            if entry is clause:
                position = entry_position
                break
        if position is None:
            raise ValueError("clause not in procedure")
        self._entries[position] = None
        self._live -= 1
        self._unindex(clause)
        if self._live * 2 < len(self._entries) and len(self._entries) > 32:
            self._entries = [entry for entry in self._entries if entry is not None]

    def remove_ground_fact(self, head: Term) -> bool:
        """Remove one ground fact with this exact head; O(1) location."""
        owners = self._ground_heads.get(head)
        if not owners:
            return False
        self.remove(owners[0])
        return True

    def _unindex(self, clause: Clause) -> None:
        head = clause.head
        args = head.args if isinstance(head, Struct) else ()
        for position, index in enumerate(self._indexes):
            if index is None or position >= len(args):
                continue
            key = _const_key(args[position])
            if key is not None:
                bucket = index.get(key)
                if bucket is not None:
                    # Tombstone in place: a live iterator over this bucket
                    # must not have later elements shift under it.
                    for bucket_position, entry in enumerate(bucket):
                        if entry is clause:
                            bucket[bucket_position] = None
                            break
                    live = sum(1 for entry in bucket if entry is not None)
                    if live == 0:
                        del index[key]
                    elif live * 2 < len(bucket) and len(bucket) > 8:
                        index[key] = [e for e in bucket if e is not None]
        if clause.is_ground_fact:
            self._ground_count -= 1
            owners = self._ground_heads.get(head)
            if owners is not None:
                _remove_identical(owners, clause)
                if not owners:
                    del self._ground_heads[head]

    # -- copy-on-write ------------------------------------------------------

    def clone(self) -> "Procedure":
        """An unshared deep-enough copy (clause objects are shared)."""
        copy = Procedure(self.indicator)
        copy._entries = [entry for entry in self._entries if entry is not None]
        copy._live = self._live
        copy._ground_count = self._ground_count
        copy._indexes = [
            None
            if index is None
            else {
                key: [entry for entry in bucket if entry is not None]
                for key, bucket in index.items()
            }
            for index in self._indexes
        ]
        copy._ground_heads = {
            head: list(owners) for head, owners in self._ground_heads.items()
        }
        return copy

    # -- querying -----------------------------------------------------------

    def has_ground_fact(self, head: Term) -> bool:
        """O(1): is there a stored ground fact with exactly this head?"""
        return head in self._ground_heads

    @property
    def all_ground_facts(self) -> bool:
        """True while every live clause is a ground fact.

        Gates the O(1) ``retract`` fast path: only then is "first clause
        unifying with a ground pattern" the same clause as "first clause
        whose head *equals* the pattern head"."""
        return self._ground_count == self._live

    def candidates(self, goal: Term) -> Sequence[Optional[Clause]]:
        """Clauses whose head might unify with ``goal``.

        Picks the smallest index bucket over every position where the
        goal carries a constant; proves emptiness without a scan when any
        such bucket is missing.  Returns the *stored* sequence (bucket or
        entry list) — see the module docstring for the aliasing contract.
        """
        if isinstance(goal, Struct):
            args = goal.args
            best: Optional[list[Clause]] = None
            for position, index in enumerate(self._indexes):
                if index is None:
                    continue
                key = _const_key(args[position])
                if key is None:
                    continue
                bucket = index.get(key)
                if bucket is None:
                    return _NO_CLAUSES
                if best is None or len(bucket) < len(best):
                    best = bucket
            if best is not None:
                return best
        return self._entries

    def iter_clauses(self) -> Iterator[Clause]:
        """Live clauses in assertion order."""
        for entry in self._entries:
            if entry is not None:
                yield entry

    def __len__(self) -> int:
        return self._live


#: Class-wide monotone source of generation stamps.  Shared across all
#: KnowledgeBase instances so two stores can never reach the same
#: generation through different mutation histories — a plan cache handed
#: a restored snapshot either sees the exact generation it compiled
#: against (identical content, plans stay valid) or a fresh stamp.
_generation_source = count(1)


class KnowledgeBase:
    """A mutable store of Prolog clauses with assert/retract semantics.

    ``generation`` identifies the current state of the *program* (the
    assert/retract history outside ``data_indicators``); compiled
    artifacts such as the coupling layer's plan cache key themselves on
    it and drop everything when it moves.  Stamps are drawn from a
    process-wide monotone counter, so equal generations imply identical
    program content even across
    :meth:`snapshot` copies that were mutated independently.  Mutations
    that provably do not change what a compiled plan would look like (the
    session's derived-answer bookkeeping) can be wrapped in
    :meth:`preserve_generation`; batch loads wrap themselves in
    :meth:`bulk_update` so a thousand asserts advance the generation
    once, not a thousand times.
    """

    def __init__(self):
        self._procedures: dict[tuple[str, int], Procedure] = {}
        self.generation = 0
        #: Indicators whose clauses are data, not program.
        self.data_indicators: frozenset = frozenset()
        #: ``base_writer(clause, insert)`` stores (``insert``) or deletes
        #: one ground tuple of a ``data_indicators`` relation and returns
        #: True when it did (False: a deletion found no row), or None for
        #: a clause that is no tuple, which stays here.  None: no store.
        self.base_writer = None
        #: ``write_unit()`` opens the store's write unit around a
        #: :meth:`bulk_update` bracket, so its base tuples commit once.
        #: Set with ``base_writer``; None: no store.
        self.write_unit = None
        self._bulk_depth = 0
        self._bulk_dirty = False
        #: Reader–writer lock for the serving layer.  Every mutation
        #: (assert/retract/retract_all/consult, and the whole of a
        #: ``bulk_update`` bracket) holds the write side, so a base
        #: tuple's store write runs atomically with the mutation from any
        #: reader's point of view.
        #: Read-only consumers (the session's warm ask path) hold the
        #: read side across their whole evaluation; the engine's clause
        #: lookups themselves stay lock-free, relying on the caller's
        #: read/write bracket.
        self.lock = ReentrantRWLock()

    # -- generation bookkeeping ---------------------------------------------

    def _bump(self, indicator: tuple[str, int]) -> None:
        if indicator in self.data_indicators:
            return
        if self._bulk_depth:
            self._bulk_dirty = True
        else:
            self.generation = next(_generation_source)

    @contextmanager
    def preserve_generation(self) -> Iterator[None]:
        """Run mutations without advancing ``generation``.

        Only for *derived* data whose presence cannot change how a goal
        compiles: interface-predicate answer facts the session asserts and
        retracts around engine calls.  Program clauses (views, rules, user
        facts) must never be asserted under this.  Holds the write lock so
        the mutate-then-restore is atomic for concurrent readers.
        """
        with self.lock.write():
            saved = self.generation
            try:
                yield
            finally:
                self.generation = saved

    @contextmanager
    def bulk_update(self) -> Iterator[None]:
        """Coalesce a batch of asserts/retracts into one generation bump.

        A 1000-fact load advances ``generation`` exactly once (at exit,
        and only if something actually changed), so generation-keyed
        caches invalidate once per batch instead of per fact, and its
        base tuples share one store write unit (``write_unit``).
        Nestable.  The whole bracket holds the write lock, so a batch
        load is atomic with respect to concurrent readers and other
        writers.
        """
        with self.lock.write():
            unit = (
                self.write_unit()
                if self.write_unit is not None and not self._bulk_depth
                else nullcontext()
            )
            self._bulk_depth += 1
            try:
                with unit:
                    yield
            finally:
                self._bulk_depth -= 1
                if self._bulk_depth == 0 and self._bulk_dirty:
                    self._bulk_dirty = False
                    self.generation = next(_generation_source)

    # -- loading ------------------------------------------------------------

    def consult(self, source: str) -> list[Clause]:
        """Parse and assert all clauses in ``source``; returns them."""
        clauses = parse_program(source)
        self.load(clauses)
        return clauses

    def load(self, clauses: Sequence[Clause]) -> None:
        """Assert parsed clauses in order, as one generation bump."""
        with self.bulk_update():
            for clause in clauses:
                if clause.head == Atom("?-"):
                    raise PrologError(
                        "directives are not allowed in consulted source; "
                        "use Engine.solve for queries"
                    )
                self.assertz(clause)

    def _written_through(self, clause: Clause, insert: bool) -> Optional[bool]:
        """``base_writer``'s verdict on a base-relation clause, else None."""
        if self.base_writer is None or clause.indicator not in self.data_indicators:
            return None
        return self.base_writer(clause, insert)

    def assertz(self, clause: Clause) -> None:
        """Add a clause at the end of its procedure (a base tuple: the store)."""
        with self.lock.write():
            if self._written_through(clause, True) is None:
                self._procedure(clause.indicator).add(clause)
                self._bump(clause.indicator)

    def asserta(self, clause: Clause) -> None:
        """Add a clause at the front of its procedure (a base tuple: the store)."""
        with self.lock.write():
            if self._written_through(clause, True) is None:
                self._procedure(clause.indicator).add(clause, front=True)
                self._bump(clause.indicator)

    @staticmethod
    def fact_clause(functor: str, values: Iterable[object]) -> Clause:
        """The ground fact ``functor(values...)`` built from Python values."""
        args: list[Term] = []
        for value in values:
            if isinstance(value, bool):
                args.append(Atom("true" if value else "false"))
            elif isinstance(value, (int, float)):
                args.append(Number(value))
            elif isinstance(value, str):
                args.append(Atom(value))
            else:
                raise TypeError(f"unsupported fact argument: {value!r}")
        return Clause(Struct(functor, tuple(args)))

    def assert_fact(self, functor: str, *values: object) -> None:
        """Convenience: assert a ground fact from Python values."""
        self.assertz(self.fact_clause(functor, values))

    def retract(self, pattern: Clause) -> bool:
        """Remove the first clause unifying with ``pattern``; True if found.

        A ground tuple of a base relation deletes its store row first
        (``base_writer``); only when the store has none does the search
        go on here, where a non-ground fact may still unify.  A
        ground-fact pattern against a procedure holding only ground
        facts is located through the ground-head hash set (O(1)
        membership, no unification scan); anything else — including a
        ground pattern that might unify with a stored *non-ground* fact
        like ``p(X).`` — falls back to the first-unifying-clause scan.
        """
        with self.lock.write():
            if self._written_through(pattern, False):
                return True
            procedure = self._procedures.get(pattern.indicator)
            if procedure is None:
                return False
            if pattern.is_ground_fact and procedure.all_ground_facts:
                if not procedure.has_ground_fact(pattern.head):
                    return False
                removed = self._procedure(pattern.indicator).remove_ground_fact(
                    pattern.head
                )
                if removed:
                    self._bump(pattern.indicator)
                return removed
            for clause in list(procedure.iter_clauses()):
                subst = unify(clause.head, pattern.head)
                if subst is None:
                    continue
                if unify(clause.body, pattern.body, subst) is None:
                    continue
                self._procedure(pattern.indicator).remove(clause)
                self._bump(pattern.indicator)
                return True
            return False

    def retract_all(self, indicator: tuple[str, int]) -> int:
        """Drop every clause of a procedure; returns how many were removed."""
        with self.lock.write():
            procedure = self._procedures.pop(indicator, None)
            if procedure is None:
                return 0
            self._bump(indicator)
            return len(procedure)

    # -- querying -----------------------------------------------------------

    def _procedure(self, indicator: tuple[str, int]) -> Procedure:
        """The procedure for ``indicator``, cloned first if snapshot-shared."""
        procedure = self._procedures.get(indicator)
        if procedure is None:
            procedure = Procedure(indicator)
            self._procedures[indicator] = procedure
        elif procedure.shared:
            procedure = procedure.clone()
            self._procedures[indicator] = procedure
        return procedure

    def has_procedure(self, indicator: tuple[str, int]) -> bool:
        procedure = self._procedures.get(indicator)
        return procedure is not None and len(procedure) > 0

    def has_ground_fact(self, head: Term) -> bool:
        """O(1): is ``head`` stored as a ground fact?"""
        procedure = self._procedures.get(goal_indicator(head))
        return procedure is not None and procedure.has_ground_fact(head)

    def clauses_for(self, goal: Term) -> Sequence[Optional[Clause]]:
        """Candidate clauses for resolving ``goal``.

        Returns the stored sequence (may contain ``None`` tombstones);
        see the module docstring for the aliasing contract.  Pass a goal
        already resolved under the current substitution so bound
        arguments participate in index selection.
        """
        procedure = self._procedures.get(goal_indicator(goal))
        if procedure is None:
            return _NO_CLAUSES
        return procedure.candidates(goal)

    def all_clauses(self, indicator: tuple[str, int]) -> list[Clause]:
        """Every clause of a procedure, in order (a fresh list)."""
        procedure = self._procedures.get(indicator)
        if procedure is None:
            return []
        return list(procedure.iter_clauses())

    def indicators(self) -> Iterator[tuple[str, int]]:
        """All defined predicate indicators."""
        return iter(list(self._procedures))

    def fact_count(self, indicator: tuple[str, int]) -> int:
        """Number of stored clauses for a predicate (0 if undefined)."""
        procedure = self._procedures.get(indicator)
        return len(procedure) if procedure else 0

    def snapshot(self) -> "KnowledgeBase":
        """A copy usable for what-if evaluation (copy-on-write).

        Every procedure is shared with the copy and marked ``shared``;
        the first mutation on either side clones just the touched
        procedure.  O(#procedures), not O(#clauses).  The copy gets its
        own fresh lock (a snapshot is an independent store).
        """
        with self.lock.write():
            copy = KnowledgeBase()
            for procedure in self._procedures.values():
                procedure.shared = True
            copy._procedures = dict(self._procedures)
            copy.generation = self.generation
            copy.data_indicators = self.data_indicators
            return copy

    def __len__(self) -> int:
        return sum(len(p) for p in self._procedures.values())
