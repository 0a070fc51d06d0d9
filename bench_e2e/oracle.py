"""Expected answers, computed from raw rows with plain Python.

The oracle never touches a session, a parser or SQLite: it holds the
``empl`` / ``dept`` tuples the generator produced (plus whatever the
benchmark itself inserted — duplicated keys, hires) and answers each
goal family of the workloads with dictionary joins and breadth-first
search.  A mismatch between a session and this file is therefore a
program bug or a benchmark bug, never a shared one.

Every query returns a ``frozenset`` of tuples whose columns follow the
goal's variables in first-occurrence order.
"""

from __future__ import annotations

from collections import defaultdict


class OrgOracle:
    """A Python mirror of the store: rows in, answer sets out."""

    def __init__(self, empl_rows, dept_rows):
        self.empl = [tuple(row) for row in empl_rows]
        self.dept = [tuple(row) for row in dept_rows]
        self.name_of = {eno: nam for eno, nam, _sal, _dno in self.empl}
        self.manager_of = {dno: mgr for dno, _fct, mgr in self.dept}
        #: works_dir_for as two maps: employee name -> boss name, and back.
        self.boss: dict[str, str] = {}
        self.subs: dict[str, set[str]] = defaultdict(set)
        for row in self.empl:
            self._link(row)

    def _link(self, row) -> None:
        """Join one empl tuple through dept to its manager's empl tuple."""
        _eno, nam, _sal, dno = row
        manager = self.name_of.get(self.manager_of.get(dno))
        if manager is not None:
            self.boss[nam] = manager
            self.subs[manager].add(nam)

    # -- the write mirror (write_mix) ------------------------------------------

    def hire(self, row) -> None:
        row = tuple(row)
        self.empl.append(row)
        self.name_of[row[0]] = row[1]
        self._link(row)

    def depart(self, row) -> None:
        row = tuple(row)
        self.empl.remove(row)
        del self.name_of[row[0]]
        manager = self.boss.pop(row[1], None)
        if manager is not None:
            self.subs[manager].discard(row[1])

    # -- flat views --------------------------------------------------------------

    def directs(self, high):
        """works_dir_for(X, high) -> (X)"""
        return frozenset((low,) for low in self.subs.get(high, ()))

    def boss_of(self, low):
        """works_dir_for(low, Y) -> (Y)"""
        return frozenset({(self.boss[low],)} if low in self.boss else ())

    def peers(self, other):
        """same_manager(X, other) -> (X)"""
        manager = self.boss.get(other)
        return frozenset(
            (low,) for low in self.subs.get(manager, ()) if low != other
        )

    def directs_with_peers(self, high):
        """works_dir_for(X, high), same_manager(X, Z) -> (X, Z)"""
        return frozenset(
            (low, peer)
            for low in self.subs.get(high, ())
            for peer in self.subs.get(self.boss[low], ())
            if peer != low
        )

    def paid_above(self, floor):
        """works_dir_for(X, Y), empl(_, X, S, _), greater(S, floor) -> (X, Y, S)"""
        return frozenset(
            (nam, self.boss[nam], sal)
            for _eno, nam, sal, _dno in self.empl
            if sal > floor and nam in self.boss
        )

    def nobody(self, *_constants):
        """Goals whose comparisons contradict each other or a valuebound."""
        return frozenset()

    # -- the recursive view ------------------------------------------------------

    def _reach(self, start, step):
        seen: set[str] = set()
        frontier = set(step(start))
        while frontier:
            seen |= frontier
            frontier = {
                after for node in frontier for after in step(node)
            } - seen
        return frozenset((node,) for node in seen)

    def reports(self, high):
        """works_for(X, high) -> (X): everybody below ``high``."""
        return self._reach(high, lambda node: self.subs.get(node, ()))

    def chain(self, low):
        """works_for(low, Y) -> (Y): everybody above ``low``."""
        return self._reach(
            low, lambda node: (self.boss[node],) if node in self.boss else ()
        )

    # -- certain answers (consistent_ask) ----------------------------------------

    def _certain(self, candidates, answers_of_row):
        """Answers every repair yields, by inspecting key-equal blocks.

        A repair keeps one tuple per ``eno`` block.  Every goal here
        projects ``eno``, so an answer can only come from its own
        block — it is certain exactly when each tuple of that block
        yields it.  ``candidates`` are the tuples that can answer at
        all; only their blocks are inspected.
        """
        blocks: dict[int, list[tuple]] = defaultdict(list)
        wanted = {row[0] for row in candidates}
        for row in self.empl:
            if row[0] in wanted:
                blocks[row[0]].append(row)
        certain: set[tuple] = set()
        for rows in blocks.values():
            certain |= set.intersection(
                *(set(answers_of_row(row)) for row in rows)
            )
        return frozenset(certain)

    def certain_by_name(self, name):
        """empl(E, name, S, D) -> (E, S, D), certain answers."""
        return self._certain(
            [row for row in self.empl if row[1] == name],
            lambda row: [(row[0], row[2], row[3])] if row[1] == name else [],
        )

    def certain_staff_of(self, manager_eno):
        """empl(E, N, S, D), dept(D, F, manager_eno) -> (E, N, S, D, F)."""
        managed = {
            dno: fct for dno, fct, mgr in self.dept if mgr == manager_eno
        }
        return self._certain(
            [row for row in self.empl if row[3] in managed],
            lambda row: [row + (managed[row[3]],)] if row[3] in managed else [],
        )
