"""The seven workloads: how each is set up, and the operations it runs.

Why each workload exists is recorded once, in ``BENCHMARK.json``.

A workload owns three things: the rows it loads, the session (and tier)
it builds over them — that build is what ``setup_s`` times — and a
deterministic list of operations whose expected answers come from
:mod:`bench_e2e.oracle`.  The seed reaches only this file; the program
under test sees goal strings and rows.

Constants are drawn half from managers and half from staff who manage
nobody, so roughly half the answers are non-empty.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.coupling import PrologDbSession
from repro.coupling.global_opt import CachePolicy
from repro.dbms.sqlite_backend import ExternalDatabase
from repro.schema import ALL_VIEWS_SOURCE
from repro.schema.empdep import empdep_constraints, empdep_schema
from repro.serving import ServingTier

from bench_e2e.oracle import OrgOracle

BATCH = 64

#: goal family -> (goal template, answer columns, oracle method)
FAMILIES = {
    "directs": ("works_dir_for(X, {0})", ("X",), "directs"),
    "peers": ("same_manager(X, {0})", ("X",), "peers"),
    "boss_of": ("works_dir_for({0}, Y)", ("Y",), "boss_of"),
    "empty_range": (
        "empl(E, N, S, D), less(S, {0}), greater(S, {1})",
        ("E", "N", "S", "D"), "nobody",
    ),
    "empty_bound": (
        "empl(E, N, S, D), dept(D, F, M), greater(S, 95000)",
        ("E", "N", "S", "D", "F", "M"), "nobody",
    ),
    "paid_above": (
        "works_dir_for(X, Y), empl(_, X, S, _), greater(S, {0})",
        ("X", "Y", "S"), "paid_above",
    ),
    "directs_with_peers": (
        "works_dir_for(X, {0}), same_manager(X, Z)",
        ("X", "Z"), "directs_with_peers",
    ),
    "reports": ("works_for(X, {0})", ("X",), "reports"),
    "chain": ("works_for({0}, Y)", ("Y",), "chain"),
    "certain_by_name": ("empl(E, {0}, S, D)", ("E", "S", "D"), "certain_by_name"),
    "certain_staff_of": (
        "empl(E, N, S, D), dept(D, F, {0})",
        ("E", "N", "S", "D", "F"), "certain_staff_of",
    ),
}

WARM_FAMILIES = ("directs", "peers", "boss_of")


@dataclass(frozen=True)
class Op:
    """One public call and what the oracle expects back."""

    kind: str  # key into Handle.calls
    payload: object  # goal text, list of goal texts, or an empl row
    expected: object  # answer set; list of sets (ask_many); None/True (writes)
    count: object  # the O(1) form of ``expected`` the timed run compares
    columns: tuple = ()
    family: str = ""
    goals: int = 1
    args: tuple = ()  # the constants in the goal

    @property
    def is_write(self) -> bool:
        return self.kind in ("assert", "retract")


@dataclass
class Handle:
    """A built workload: the session, its calls, and how to tear it down."""

    session: PrologDbSession
    calls: dict
    tier: object = None
    scratch: object = None
    #: set-up phases timed on the way (interval build, tier start)
    marks: dict = field(default_factory=dict)

    def close(self) -> None:
        try:
            if self.tier is not None:
                self.tier.close()
        finally:
            try:
                self.session.close()
            finally:
                if self.scratch is not None:
                    shutil.rmtree(self.scratch, ignore_errors=True)


class Workload:
    """Base: an in-memory session with the result cache off."""

    name = ""
    #: PrologDbSession keyword arguments
    session_options = {"cache_policy": CachePolicy(enabled=False)}
    #: which public stage functions the traced run replays per goal
    stages = "warm"
    #: run the tracing / resilience on-off pairs (cheap set-ups only)
    ablate = True
    file_backed = False
    #: operations in the list the runs cycle through: short enough that a
    #: ten-second run passes over it twenty times or more
    length = 2048

    def __init__(self, org, seed: int, out_dir: Path):
        self.org = org
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.empl_rows = [e.as_row() for e in org.employees]
        self.dept_rows = [d.as_row() for d in org.departments]
        managing = {d.mgr for d in org.departments}
        # Shuffled once and then cycled through: every seed asks about each
        # manager (and so each subtree size) equally often, which keeps the
        # work per operation list independent of the seed.
        self.managers = [e for e in org.employees if e.eno in managing]
        self.staff = [e for e in org.employees if e.eno not in managing]
        self.rng.shuffle(self.managers)
        self.rng.shuffle(self.staff)
        self._drawn: dict = {}
        #: tuples the benchmark puts in ``empl`` beside the generated org
        self.extra_rows = self.make_extra_rows()
        self.oracle = OrgOracle(self.empl_rows + self.extra_rows, self.dept_rows)
        self._memo: dict = {}

    def make_extra_rows(self) -> list:
        return []

    # -- operations --------------------------------------------------------------

    def pick(self, family: str, index: int) -> str:
        """The family's next manager on even draws, next non-manager on odd."""
        pool = (self.managers, self.staff)[index % 2]
        drawn = self._drawn.get((family, index % 2), 0)
        self._drawn[family, index % 2] = drawn + 1
        return pool[drawn % len(pool)].nam

    def ask_about(self, family: str, index: int) -> Op:
        return self.read(family, self.pick(family, index))

    def read(self, family: str, *constants, kind: str = "ask") -> Op:
        template, columns, method = FAMILIES[family]
        key = (family, constants)
        expected = self._memo.get(key)
        if expected is None:
            expected = getattr(self.oracle, method)(*constants)
            self._memo[key] = expected
        return Op(
            kind, template.format(*constants), expected, len(expected),
            columns, family, args=constants,
        )

    def ops(self, limit=None) -> list:
        """The operation list (at most ``limit`` long, for smoke runs)."""
        return self.make_ops(min(self.length, limit or self.length))

    def make_ops(self, count: int) -> list:
        return [
            self.ask_about(WARM_FAMILIES[i % 3], i // 3) for i in range(count)
        ]

    # -- set-up (what setup_s times) -----------------------------------------------

    def build(self, database_cls=ExternalDatabase, policy=None,
              tracing: bool = True, warm=(), extra_rows: bool = True) -> Handle:
        schema = empdep_schema()
        constraints = empdep_constraints(schema)
        scratch = None
        path = ":memory:"
        if self.file_backed:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            scratch = tempfile.mkdtemp(prefix="store-", dir=self.out_dir)
            path = str(Path(scratch) / "org.db")
        database = database_cls(
            schema, path=path, constraints=constraints, policy=policy
        )
        session = PrologDbSession(
            schema=schema, constraints=constraints, database=database,
            tracing=tracing, **self.session_options,
        )
        handle = Handle(session, {}, scratch=scratch)
        try:
            session.load_org(self.org)
            if extra_rows and self.extra_rows:
                # straight into the store: the session never sees these as facts
                database.insert_rows("empl", self.extra_rows)
            session.consult(ALL_VIEWS_SOURCE)
            handle.calls = {
                "ask": session.ask,
                "ask_many": session.ask_many,
                "ask_consistent": session.ask_consistent,
                "assert": lambda row: session.assert_fact("empl", *row),
                "retract": lambda row: session.retract_fact("empl", *row),
            }
            self.prepare(handle, warm)
            for op in warm:
                handle.calls[op.kind](op.payload)
        except BaseException:
            handle.close()
            raise
        return handle

    def prepare(self, handle: Handle, warm) -> None:
        """Workload-specific set-up between consult and plan warming."""


class WarmAsk(Workload):
    """Three flat shapes rotating, every plan warm: the serving hot path."""

    name = "warm_ask"


class ColdAsk(Workload):
    """Seven shapes with the plan cache off: every ask compiles."""

    name = "cold_ask"
    session_options = {
        "plan_cache": False, "cache_policy": CachePolicy(enabled=False),
    }
    stages = "cold"
    length = 7 * 32

    def make_ops(self, count: int) -> list:
        made = []
        for i in range(count):
            family = (
                "directs", "peers", "boss_of", "empty_range", "empty_bound",
                "paid_above", "directs_with_peers",
            )[i % 7]
            turn = i // 7
            if family == "empty_range":
                low = 15000 + 500 * (turn % 50)
                made.append(self.read(family, low, low + 10000))
            elif family == "empty_bound":
                made.append(self.read(family))
            elif family == "paid_above":
                made.append(self.read(family, 79000 + 500 * (turn % 5)))
            else:
                made.append(self.ask_about(family, turn))
        return made


class BatchAsk(Workload):
    """``ask_many`` on 64 same-shape goals per call."""

    name = "batch_ask"
    length = 128 * BATCH

    def make_ops(self, count: int) -> list:
        made = []
        for i in range(max(3, count // BATCH)):
            members = [
                self.ask_about(WARM_FAMILIES[i % 3], j) for j in range(BATCH)
            ]
            made.append(
                Op(
                    "ask_many",
                    [m.payload for m in members],
                    [m.expected for m in members],
                    [m.count for m in members],
                    members[0].columns, members[0].family, BATCH,
                )
            )
        return made


class RecursiveProbe(Workload):
    """``works_for`` downwards and upwards, through the planner."""

    name = "recursive_probe"
    stages = "recursive"
    ablate = False  # each extra session would rebuild the labeling

    def __init__(self, org, seed, out_dir):
        super().__init__(org, seed, out_dir)
        # Subtree sizes span 8 to the whole org: the list asks each family
        # about every manager exactly once, so no seed draws a heavier mix.
        self.length = 4 * len(self.managers)

    def make_ops(self, count: int) -> list:
        return [
            self.ask_about(("reports", "chain")[i % 2], i // 2)
            for i in range(count)
        ]

    def prepare(self, handle: Handle, warm) -> None:
        # The first recursive ask after a load builds the interval labels.
        started = time.perf_counter()
        handle.session.ask(FAMILIES["reports"][0].format(self.managers[0].nam))
        handle.marks["materialize.interval_build_s"] = (
            time.perf_counter() - started
        )


class WriteMix(Workload):
    """One hire or departure, then four reads of maintained views."""

    name = "write_mix"
    session_options = {}
    stages = "maintained"
    ablate = False
    VIEWS = ("works_dir_for(X, Y)", "same_manager(X, Y)", "works_for(X, Y)")
    length = 300

    def make_ops(self, count: int) -> list:
        made = []
        departments = [d.dno for d in self.org.departments]
        hire = None
        # An even number of writes, so the list ends where it started and
        # can be cycled.
        for cycle in range(2 * max(1, count // 10)):
            if hire is None:
                eno = 100000 + cycle
                hire = (
                    eno, f"hire{eno}", self.rng.randrange(10000, 90001, 500),
                    self.rng.choice(departments),
                )
                self.oracle.hire(hire)
                made.append(Op("assert", hire, None, None, family="hire"))
            else:
                self.oracle.depart(hire)
                made.append(Op("retract", hire, True, True, family="depart"))
                hire = None
            self._memo.clear()  # the mirror moved: expectations are stale
            for j, family in enumerate(("directs", "peers", "reports", "boss_of")):
                made.append(self.ask_about(family, cycle + j))
        return made

    def prepare(self, handle: Handle, warm) -> None:
        for goal in self.VIEWS:
            handle.session.materialize.view(goal)


class ConsistentAsk(Workload):
    """``ask_consistent`` over a store with duplicated keys."""

    name = "consistent_ask"
    stages = "consistent"
    DIRTY_SHARE = 0.02

    def make_extra_rows(self) -> list:
        """A second tuple, with another salary, for 2% of the keys."""
        count = max(2, round(len(self.org.employees) * self.DIRTY_SHARE))
        self.duplicated = self.rng.sample(self.org.employees, count)
        return [
            (e.eno, e.nam, 10000 + (e.sal - 10000 + 500) % 80500, e.dno)
            for e in self.duplicated
        ]

    def make_ops(self, count: int) -> list:
        dirty_names = [e.nam for e in self.duplicated]
        clean_names = sorted(
            {e.nam for e in self.org.employees} - set(dirty_names)
        )
        dirty_depts = {e.dno for e in self.duplicated}
        heads = {True: [], False: []}
        for d in self.org.departments:
            heads[d.dno in dirty_depts].append(d.mgr)
        made = []
        self.rng.shuffle(clean_names)
        for i in range(count):
            in_violation = (i // 2) % 2 == 0
            turn = i // 4
            if i % 2 == 0:
                pool = dirty_names if in_violation else clean_names
                family = "certain_by_name"
            else:
                pool = heads[in_violation]
                family = "certain_staff_of"
            made.append(
                self.read(family, pool[turn % len(pool)], kind="ask_consistent")
            )
        return made


class TierAsk(Workload):
    """The warm_ask goals through a one-worker ``ServingTier``."""

    name = "tier_ask"
    ablate = False
    file_backed = True

    def prepare(self, handle: Handle, warm) -> None:
        started = time.perf_counter()
        handle.tier = ServingTier(
            handle.session, workers=1,
            warm_goals=[op.payload for op in warm],
        )
        handle.tier.wait_ready()
        handle.marks["serving.start_s"] = time.perf_counter() - started
        handle.calls["local_ask"] = handle.session.ask
        handle.calls["ask"] = handle.tier.ask


WORKLOADS = {
    cls.name: cls
    for cls in (
        WarmAsk, ColdAsk, BatchAsk, RecursiveProbe, WriteMix,
        ConsistentAsk, TierAsk,
    )
}
