"""Interval labels of a hierarchy, held in memory: one tour per data generation.

The XPath-accelerator trick applied to the paper's recursive views: on a
forest, *descendant* is *interval containment*.  A depth-first walk of
the ``works_for``-shaped edge forest lists every node once, in visit
order; a node's ``(first, last)`` positions in that list bracket exactly
its subtree, so::

    d below a   ⇔   first_a < first_d < last_a

and the cone below a seed is one slice, ``order[first + 1:last]``.  The
chain above a seed is its parent walk.  Neither side runs SQL: semantic
knowledge (the data is a tree) turned into a cheaper access path, the
paper's theme.

The labels are the visit order itself: no gaps to absorb, tombstone or
relabel, and nothing written, so no read commits.  A stale index
rebuilds from one fetch of the edge view and swaps the new tour in.
Non-tree data (a multi-parent node, a cycle longer than a self-loop)
**demotes** the index, and the recursion planner reads the CTE pushdown
until the data moves again.

The org generator's self-managed top department (edge ``boss → boss``)
is the one cycle a forest cannot express; such self-loops are kept as a
set and fold the seed back into its own answer, on either side.

Freshness is keyed on the data generations of the base relations the
edge view reads: a steady probe stream pays one comparison per ask, and
no lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from ..concurrency import LockedCounters
from ..errors import IntervalUnavailable


@dataclass
class IntervalStats(LockedCounters):
    """Counters for one interval index (benchmarks and spans read these)."""

    builds: int = 0
    demotions: int = 0


class _Tour(NamedTuple):
    """One generation's labels; replaced whole, never mutated."""

    order: list  # every node once, in depth-first visit order
    first: dict  # node -> its position in ``order``
    last: list  # position -> end of that node's subtree in ``order``
    parent: dict  # node -> its one parent (roots have none)
    selfloops: frozenset  # nodes carrying a self-loop edge
    shape: str  # "N nodes, fanout ≤F" for planner reasons


class IntervalIndex:
    """The in-memory interval labels of one recursive view's edges.

    Owned by the view's :class:`~repro.coupling.recursion_exec.
    TransitiveClosure`, whose planner reads :meth:`current` (and
    :meth:`refresh` when it is stale); :meth:`nodes` answers either
    bound side from the current tour.
    """

    def __init__(self, database, name: str, edge_sql, edge_relations: Sequence[str]):
        self.database = database
        self.name = name
        self.edge_text = database.prepare(edge_sql)
        self.edge_relations = tuple(edge_relations)
        self.stats = IntervalStats()
        self._generation = database.data_generation
        #: ``(generations, standing)``: the data generations the labels
        #: were made at and a :class:`_Tour`, or the demotion reason (a
        #: str).  Replaced whole: a lock-free reader sees one pair.
        self._labels: tuple = (None, None)
        self._lock = threading.Lock()  # serializes rebuilds

    # -- answers ------------------------------------------------------------

    def nodes(self, bound: str, seed) -> list:
        """Sorted nodes below (``bound == "high"``) or above (``"low"``) ``seed``.

        Below is a slice of the tour, above the parent walk; a seed with
        a self-loop also reaches itself.  A seed that is no node of the
        forest reaches nothing.
        """
        tour = self._labels[1]
        if bound == "high":
            at = tour.first.get(seed)
            found = [] if at is None else tour.order[at + 1:tour.last[at]]
        else:
            found = []
            node = tour.parent.get(seed)
            while node is not None:
                found.append(node)
                node = tour.parent.get(node)
        if seed in tour.selfloops:
            found.append(seed)
        return sorted(found)

    # -- freshness ----------------------------------------------------------

    def _stamp(self) -> tuple:
        generation = self._generation
        return tuple([generation(name) for name in self.edge_relations])

    def current(self):
        """The labels' standing at the current data generation, or None.

        One comparison, no lock.  The standing is the tour on a forest,
        the demotion reason (a str) otherwise; None: stale or never built.
        """
        generations, standing = self._labels
        return standing if generations == self._stamp() else None

    def refresh(self):
        """Make the labels current; return their standing (see :meth:`current`).

        Under the index's lock: concurrent rebuilds of one generation run
        once.  The generations are read before the one edge fetch, so a
        write landing during it leaves the labels stale, never wrong.  A
        demotion is kept until the generations move, as a tour is.
        """
        with self._lock:
            generations = self._stamp()
            if self._labels[0] == generations:
                return self._labels[1]
            rows = self.database.execute_prepared(self.edge_text, ())
            try:
                standing = self._build(rows)
            except IntervalUnavailable as error:
                standing = str(error)
                self.stats.incr("demotions")
            else:
                self.stats.incr("builds")
            self._labels = (generations, standing)
            return standing

    def ensure_fresh(self) -> _Tour:
        """The current tour, rebuilt if stale; ``IntervalUnavailable`` if demoted."""
        standing = self.refresh()
        if isinstance(standing, str):
            raise IntervalUnavailable(standing)
        return standing

    def _build(self, rows) -> _Tour:
        """Check the forest shape and walk it once."""
        selfloops = set()
        parent: dict = {}
        children: dict = {}
        for low, high in rows:
            if low == high:
                selfloops.add(low)
                continue
            if low in parent:
                if parent[low] == high:
                    continue  # a repeated edge: the fetch is not DISTINCT
                raise IntervalUnavailable(
                    f"{self.name}: node {low!r} has multiple parents "
                    f"({parent[low]!r}, {high!r}); not a tree"
                )
            parent[low] = high
            kids = children.get(high)
            if kids is None:
                children[high] = [low]
            else:
                kids.append(low)
        order: list = []
        stack = [node for node in children.keys() | selfloops if node not in parent]
        roots = len(stack)
        visit, pop, push, below = order.append, stack.pop, stack.extend, children.get
        while stack:
            node = pop()
            visit(node)
            kids = below(node)
            if kids:
                push(kids)
        if len(order) != roots + len(parent):  # a node no root reaches
            trapped = next(iter(parent.keys() - set(order)))
            raise IntervalUnavailable(
                f"{self.name}: cycle through {trapped!r} (beyond a "
                "self-loop); not a tree"
            )
        first = {node: at for at, node in enumerate(order)}
        # Siblings pop in reverse, so ``kids[0]`` is visited last and its
        # subtree ends where its parent's does; one backward pass meets
        # every child before its parent.
        last = list(range(1, len(order) + 1))
        for at in range(len(order) - 1, -1, -1):
            kids = below(order[at])
            if kids:
                last[at] = last[first[kids[0]]]
        fanout = max(map(len, children.values()), default=0)
        shape = f"{len(order)} nodes, fanout ≤{fanout}"
        return _Tour(order, first, last, parent, frozenset(selfloops), shape)
