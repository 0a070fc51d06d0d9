"""The worker-process side of the scale-out serving tier.

``worker_main`` is the process entry point: it builds a private
:class:`~repro.coupling.PrologDbSession` over its *own* connections to
the shared file-backed WAL store, consults the shipped program
snapshot, warms the plan cache, and then serves requests from its
pipe until told to stop.

Everything a worker sends back is plain picklable data — answer lists,
stats dicts, ``(error class name, message, detail)`` triples — never
live objects, so the protocol survives any start method and any
exception type.

Request messages (owner → worker, one pipe per worker)::

    ("ask",      req_id, goal_text,  max_solutions, remaining, floor)
    ("ask_many", req_id, goal_texts, max_solutions, remaining, floor)
    ("stats",    req_id)
    ("traces",   req_id)
    ("generation", generation)            # data-only advance (WAL carries it)
    ("refresh",  generation, program)     # program change: rebuild + re-warm
    ("warm",     goal_texts)
    ("stop",)

``remaining`` is the deadline budget serialized as *seconds left*, not
an absolute monotonic stamp — monotonic clocks are per process, so an
absolute ``until`` would be meaningless (or catastrophically wrong)
on the worker's clock.  Responses (worker → owner, the worker's own
pipe) are ``(req_id, worker_index, generation, status, payload)``.
"""

from __future__ import annotations

from ..coupling import PrologDbSession
from ..coupling.global_opt import CachePolicy
from ..dbms.sqlite_backend import ExternalDatabase
from ..errors import DeadlineExceeded, ReproError
from ..observe import Tracer


def _reload_program(session: PrologDbSession, program: str) -> None:
    """Replace the worker's in-memory program with a shipped snapshot.

    Retract-all-then-consult inside one write bracket: the knowledge
    base generation moves, so the plan cache drops every compiled plan
    on its next sync — exactly the coherence the generation stamp
    promises (a worker never answers a new-generation request from an
    old-generation plan).
    """
    with session.kb.lock.write():
        for indicator in list(session.kb.indicators()):
            session.kb.retract_all(indicator)
    session.consult(program)


def worker_main(
    index: int,
    target: str,
    schema,
    constraints,
    program: str,
    generation: int,
    warm_goals,
    requests,
    responses,
    ready,
    slow_query_seconds: float = 0.25,
) -> None:
    """Serve asks from ``requests`` until a ``("stop",)`` message.

    The worker's database handle is its own (fresh connections in this
    process — the pool's PID guard would refuse inherited ones anyway),
    its result cache is disabled (a cached row set cannot observe
    another process's committed writes, so caching here would trade
    correctness for nothing), and its tracer is stamped with a worker
    id so exported traces from a fleet stay attributable.
    """
    label = f"worker-{index}"
    database = ExternalDatabase(schema, path=target, constraints=constraints)
    session = PrologDbSession(
        schema=schema,
        constraints=constraints,
        database=database,
        cache_policy=CachePolicy(enabled=False),
        tracer=Tracer(
            enabled=True,
            slow_query_seconds=slow_query_seconds,
            worker_id=label,
        ),
    )
    warm_goals = list(warm_goals)
    try:
        if program:
            session.consult(program)
        session.warm(warm_goals)
        ready.set()
        while True:
            message = requests.recv()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "generation":
                generation = message[1]
                continue
            if kind == "refresh":
                generation = message[1]
                _reload_program(session, message[2])
                session.warm(warm_goals)
                continue
            if kind == "warm":
                warm_goals = list(message[1])
                session.warm(warm_goals)
                continue
            req_id = message[1]
            try:
                if kind == "ask":
                    _, _, goal, max_solutions, remaining, floor = message
                    _check(generation, floor, remaining, label)
                    payload = session.ask(
                        goal, max_solutions, deadline=remaining
                    )
                elif kind == "ask_many":
                    _, _, goals, max_solutions, remaining, floor = message
                    _check(generation, floor, remaining, label)
                    payload = session.ask_many(
                        goals, max_solutions, deadline=remaining
                    )
                elif kind == "stats":
                    payload = {
                        "worker": label,
                        "stats": session.stats(),
                        "histograms_raw": session.tracer.histogram_export(),
                    }
                elif kind == "traces":
                    payload = session.traces()
                else:
                    raise ReproError(f"unknown worker request {kind!r}")
            except DeadlineExceeded as error:
                detail = dict(error.partial)
                detail["worker"] = label
                responses.send(
                    (req_id, index, generation, "error",
                     ("DeadlineExceeded", str(error), detail))
                )
            except Exception as error:  # noqa: BLE001 - serialized to the owner
                responses.send(
                    (req_id, index, generation, "error",
                     (type(error).__name__, str(error), None))
                )
            else:
                responses.send((req_id, index, generation, "ok", payload))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # pipes closed under us: the owner is shutting down
    finally:
        try:
            responses.close()
        except OSError:
            pass
        try:
            session.close()
        except Exception:  # noqa: BLE001 - nothing to report to anymore
            pass


def _check(
    generation: int, floor: int, remaining, label: str
) -> None:
    """Worker-side admission checks for one request.

    A request stamped with a generation floor above the worker's
    snapshot would be answered from stale state — impossible under the
    tier's publish-before-dispatch ordering, so treat it as the
    protocol violation it is.  A deadline that arrived already spent
    raises ``DeadlineExceeded`` *here*, worker-side, so the caller's
    budget semantics hold across the process boundary even when the
    queue wait consumed the whole budget.
    """
    if floor is not None and floor > generation:
        raise ReproError(
            f"stale snapshot: request floor {floor} > generation {generation}"
        )
    if remaining is not None and remaining <= 0.0:
        raise DeadlineExceeded(
            "deadline budget exhausted before worker execution",
            {"remaining": remaining, "worker": label},
        )
