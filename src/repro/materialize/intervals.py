"""Interval (nested-set) labeling of a hierarchy — reachability by range probe.

The XPath-accelerator trick applied to the paper's recursive views: label
every node of the ``works_for``-shaped edge forest with a ``(pre, post)``
interval such that *descendant* is equivalent to *interval containment*::

    a above d   ⇔   pre_a < pre_d  AND  post_d < post_a

Stored as an indexed ``ivl_*`` backend table (:meth:`~repro.dbms.
sqlite_backend.ExternalDatabase.create_interval_index`), a closure probe
that previously iterated a fixpoint — per-level setrel rounds, or the
backend's own ``WITH RECURSIVE`` loop — becomes **one indexed range
predicate** with no recursion at all: semantic knowledge (the data is a
tree) pushed into a cheaper physical access path, the paper's theme.

Labels are *gap-scaled* event numbers (entry/exit of a DFS, times
:data:`IntervalIndex.GAP`), so churn is mostly absorbed locally:

* a new leaf under a labeled parent takes a fresh sub-interval out of
  the parent's trailing gap — one upsert, no relabel;
* a deleted leaf tombstones (its row is dropped; the interval becomes
  reusable gap);
* anything else — internal deletes, subtree moves, exhausted gaps —
  triggers a **bulk relabel**: one DFS over the edges already fetched
  for the forest check, written as one swap of the ``ivl_*``
  table (the labels' only home);
* non-tree data (a multi-parent node, a cycle longer than a self-loop)
  **demotes** the index: :meth:`IntervalIndex.ensure_fresh` raises
  :class:`~repro.errors.IntervalUnavailable` and the recursion planner
  falls back to the CTE pushdown until the data moves again.

The org generator's self-managed top department (edge ``boss → boss``)
is the one cycle tree labels cannot express; it is excluded from the
tree and recorded as ``cyc = 1`` on the node's row, which the probe
statements fold back in through a ``UNION`` branch.

Freshness is keyed on the backend's per-relation data generations for
every base relation the edge view reads — the same counters the
statistics service uses — so a steady probe stream pays one dictionary
comparison, not an edge diff, per ask.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from ..concurrency import LockedCounters
from ..errors import IntervalUnavailable
from ..sql.translate import interval_probe


@dataclass
class IntervalStats(LockedCounters):
    """Maintenance counters for one interval index (benchmarks read these)."""

    builds: int = 0
    local_absorbs: int = 0
    tombstones: int = 0
    gap_exhaustions: int = 0
    demotions: int = 0


class IntervalIndex:
    """A pre/post labeling of one recursive view's edges.

    Owned by the view's :class:`~repro.coupling.recursion_exec.
    TransitiveClosure`; the planner calls :meth:`ensure_fresh` before
    choosing the ``interval`` strategy, and the probe texts
    (:attr:`descend_text`, :attr:`ascend_text`, :meth:`batch_text`) are
    prepared once and re-executed with bound seeds forever after.
    """

    #: Labels are DFS event numbers scaled by this gap; a leaf attach
    #: carves thirds out of the parent's trailing gap, so roughly
    #: ``log3(GAP)`` local inserts fit per locality before a relabel.
    GAP = 1024

    def __init__(
        self,
        database,
        name: str,
        edge_sql: object,
        edge_relations: Sequence[str],
    ):
        self.database = database
        self.name = name
        self.table = database.INTERVAL_PREFIX + name
        self.edge_sql = edge_sql
        self.edge_text = database.prepare(edge_sql)
        self.edge_relations = tuple(edge_relations)
        self.stats = IntervalStats()
        self.descend_text = interval_probe(self.table, "high")
        self.ascend_text = interval_probe(self.table, "low")
        self._batch_texts: dict[tuple[str, int], str] = {}
        #: data generations the current labeling (or demotion) was taken
        #: at; ``None`` until the first build attempt.
        self._generations: Optional[dict[str, int]] = None
        self._demoted: Optional[str] = None
        self._created = False
        # In-memory mirror of the edge structure (not the labels — those
        # live in the backend): the churn diff and absorb planner run on
        # these.
        self._edges: set[tuple] = set()
        self._nodes: set = set()
        self._parent: dict = {}
        self._children: dict = {}
        self._selfloops: set = set()
        self._depths: dict = {}
        self.node_count = 0
        self.max_depth = 0
        self.max_fanout = 0
        self._lock = threading.RLock()

    # -- inspection ---------------------------------------------------------

    def describe(self) -> str:
        """One-line shape summary for planner reason strings."""
        return (
            f"{self.node_count} nodes, depth {self.max_depth}, "
            f"fanout ≤{self.max_fanout}"
        )

    @property
    def demoted(self) -> Optional[str]:
        """Why the index cannot serve (None when healthy)."""
        with self._lock:
            return self._demoted

    def batch_text(self, bound: str, batch_size: int) -> str:
        """Cached batch probe text for ``batch_size`` distinct seeds."""
        with self._lock:
            key = (bound, batch_size)
            text = self._batch_texts.get(key)
            if text is None:
                text = interval_probe(self.table, bound, batch_size)
                self._batch_texts[key] = text
            return text

    # -- freshness ----------------------------------------------------------

    def ensure_fresh(self) -> None:
        """Make the stored labeling current, or raise ``IntervalUnavailable``.

        Generation-fresh indexes return after one dictionary comparison.
        Stale ones fetch the edge view once and diff: a pure
        leaf-attach/leaf-delete delta with sufficient gaps absorbs
        locally; anything else bulk-relabels; non-forest data demotes
        (and the demotion is cached until the data generations move, so
        a demoted view costs one comparison per ask, not one diff).
        """
        with self._lock:
            generations = {
                relation: self.database.data_generation(relation)
                for relation in self.edge_relations
            }
            if self._generations == generations:
                if self._demoted is not None:
                    raise IntervalUnavailable(self._demoted)
                return
            rows = self.database.execute_prepared(self.edge_text, ())
            edges = {(row[0], row[1]) for row in rows}
            try:
                absorbed = (
                    self._generations is not None
                    and self._demoted is None
                    and self._absorb(edges)
                )
                if not absorbed:
                    self._relabel(edges)
            except IntervalUnavailable as error:
                self._demoted = str(error)
                self._generations = generations
                self.stats.incr("demotions")
                raise
            self._demoted = None
            self._generations = generations

    # -- bulk relabel -------------------------------------------------------

    def _relabel(self, edges: set[tuple]) -> None:
        """Validate the forest shape and rewrite the whole labeling."""
        selfloops = {lo for lo, hi in edges if lo == hi}
        parent: dict = {}
        children: dict = {}
        for lo, hi in edges:
            if lo == hi:
                continue
            if lo in parent:
                raise IntervalUnavailable(
                    f"{self.name}: node {lo!r} has multiple parents "
                    f"({parent[lo]!r}, {hi!r}); not a tree"
                )
            parent[lo] = hi
            children.setdefault(hi, []).append(lo)
        nodes = {lo for lo, _ in edges} | {hi for _, hi in edges}
        roots = sorted((n for n in nodes if n not in parent), key=str)
        depths: dict = {}
        order: list = []
        stack = [(root, 0) for root in reversed(roots)]
        while stack:
            node, depth = stack.pop()
            depths[node] = depth
            order.append(node)
            for child in sorted(children.get(node, ()), key=str, reverse=True):
                stack.append((child, depth + 1))
        if len(depths) != len(nodes):
            trapped = next(iter(nodes - set(depths)))
            raise IntervalUnavailable(
                f"{self.name}: cycle through {trapped!r} (beyond a "
                "self-loop); not a tree"
            )

        if not self._created:
            self.database.create_interval_index(self.table)
            self._created = True
        self.database.set_interval_rows(
            self.table, self._python_labels(roots, children, selfloops)
        )
        self.stats.incr("builds")

        self._edges = set(edges)
        self._nodes = nodes
        self._parent = parent
        self._children = {h: set(c) for h, c in children.items()}
        self._selfloops = selfloops
        self._depths = depths
        self.node_count = len(nodes)
        self.max_depth = max(depths.values(), default=0)
        self.max_fanout = max(
            (len(c) for c in children.values()), default=0
        )

    def _python_labels(
        self, roots: list, children: dict, selfloops: set
    ) -> list[tuple]:
        """The labeling: gap-scaled DFS entry/exit events."""
        counter = 0
        events: dict = {}  # node -> [entry, exit]
        for root in roots:
            stack: list[tuple] = [(root, False)]
            while stack:
                node, leaving = stack.pop()
                counter += 1
                if leaving:
                    events[node][1] = counter
                    continue
                events[node] = [counter, 0]
                stack.append((node, True))
                for child in sorted(
                    children.get(node, ()), key=str, reverse=True
                ):
                    stack.append((child, False))
        return [
            (
                node,
                self.GAP * entry,
                self.GAP * exit_,
                1 if node in selfloops else 0,
            )
            for node, (entry, exit_) in events.items()
        ]

    # -- local churn absorption ---------------------------------------------

    def _absorb(self, edges: set[tuple]) -> bool:
        """Absorb a leaf-attach/leaf-delete delta into the gaps.

        Returns True when the delta was applied locally (one
        transactional upsert+tombstone batch); False hands control to
        the bulk relabel — including on gap exhaustion, which is counted.
        """
        inserted = edges - self._edges
        deleted = self._edges - edges
        if not inserted and not deleted:
            # same pairs, new generation (e.g. delete+re-insert churn)
            return True
        if any(lo == hi for lo, hi in inserted | deleted):
            return False  # self-loop changes alter cyc flags: relabel
        for lo, hi in deleted:
            if self._children.get(lo):
                return False  # internal delete orphans a subtree
            if self._parent.get(lo) != hi:
                return False
        removed_nodes = {lo for lo, _ in deleted}
        known = self._nodes - removed_nodes
        pending = list(inserted)
        placements: list[tuple] = []
        while pending:
            rest = []
            progress = False
            for lo, hi in pending:
                if lo in known:
                    return False  # an existing node gained a parent
                if hi in known:
                    placements.append((lo, hi))
                    known.add(lo)
                    progress = True
                else:
                    rest.append((lo, hi))
            if not progress:
                return False  # parent outside the labeled forest
            pending = rest

        placed_labels: dict = {}
        placed_child_max: dict = {}
        upserts: list[tuple] = []
        for lo, hi in placements:
            if hi in placed_labels:
                parent_pre, parent_post = placed_labels[hi]
                child_max = placed_child_max.get(hi)
            else:
                fetched = self.database.execute_prepared(
                    f"SELECT pre, post FROM {self.table} WHERE node = ?",
                    (hi,),
                )
                if not fetched:
                    return False
                parent_pre, parent_post = fetched[0]
                stored = self.database.execute_prepared(
                    f"SELECT MAX(post) FROM {self.table} "
                    "WHERE pre > ? AND post < ?",
                    (parent_pre, parent_post),
                )[0][0]
                child_max = max(
                    (value for value in (stored, placed_child_max.get(hi))
                     if value is not None),
                    default=None,
                )
            low = child_max if child_max is not None else parent_pre
            width = parent_post - low
            if width < 4:
                self.stats.incr("gap_exhaustions")
                return False
            pre = low + width // 3
            post = low + 2 * (width // 3)
            placed_labels[lo] = (pre, post)
            placed_child_max[hi] = post
            upserts.append((lo, pre, post, 0))

        self.database.apply_interval_delta(
            self.table,
            upserts=upserts,
            deletes=sorted(removed_nodes, key=str),
        )
        # commit the structural mirror only after the backend committed
        for lo, hi in deleted:
            self._edges.discard((lo, hi))
            self._nodes.discard(lo)
            self._parent.pop(lo, None)
            bucket = self._children.get(hi)
            if bucket is not None:
                bucket.discard(lo)
                if not bucket:
                    self._children.pop(hi, None)
            self._depths.pop(lo, None)
        for lo, hi in placements:
            self._edges.add((lo, hi))
            self._nodes.add(lo)
            self._parent[lo] = hi
            bucket = self._children.setdefault(hi, set())
            bucket.add(lo)
            self._depths[lo] = self._depths.get(hi, 0) + 1
            self.max_depth = max(self.max_depth, self._depths[lo])
            self.max_fanout = max(self.max_fanout, len(bucket))
        self.node_count = len(self._nodes)
        if placements:
            self.stats.incr("local_absorbs", len(placements))
        if removed_nodes:
            self.stats.incr("tombstones", len(removed_nodes))
        return True
