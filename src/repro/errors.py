"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError`, so
applications embedding the front-end can catch a single base class at the
coupling boundary while tests can assert on precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class PrologError(ReproError):
    """Base class for errors in the Prolog substrate."""


class PrologSyntaxError(PrologError):
    """Raised by the reader when source text is not valid Prolog.

    Carries the offending line/column so interactive callers can point at
    the problem.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        if self.line:
            return f"{base} (line {self.line}, column {self.column})"
        return base


class ExistenceError(PrologError):
    """Raised when a goal refers to an unknown procedure."""


class InstantiationError(PrologError):
    """Raised when a builtin needs a bound argument but got a variable."""


class CutSignal(Exception):
    """Internal control-flow signal implementing the Prolog cut.

    Not a :class:`ReproError`: it must never escape the engine, and making
    it a sibling of the package hierarchy guarantees generic ``except
    ReproError`` handlers cannot swallow it by accident.
    """

    def __init__(self, depth: int):
        super().__init__(f"cut to depth {depth}")
        self.depth = depth


class SchemaError(ReproError):
    """Raised for inconsistent schema or integrity-constraint definitions."""


class DbclError(ReproError):
    """Base class for DBCL construction and validation errors."""


class DbclSyntaxError(DbclError):
    """Raised when textual DBCL cannot be parsed."""


class MetaevaluationError(ReproError):
    """Raised when a Prolog goal cannot be compiled into DBCL."""


class UnsupportedFeatureError(MetaevaluationError):
    """Raised for constructs outside the supported DBCL subset.

    The paper restricts the optimizable subset to function-free conjunctive
    queries; goals outside the subset (embedded function symbols, unknown
    predicates) surface here rather than silently producing wrong SQL.
    """


class OptimizationError(ReproError):
    """Raised when an optimizer stage detects an internal inconsistency."""


class TranslationError(ReproError):
    """Raised when a DBCL predicate cannot be rendered in the target language."""


class UnsupportedDialectError(TranslationError):
    """Raised when a target dialect cannot express a query construct.

    The paper's portability claim (section 1) concentrates everything
    language-specific in the final rendering step; constructs a dialect
    lacks (QUEL has no ``NOT IN`` complement, no parameter-batch
    membership, no recursive query form) surface here explicitly instead
    of falling through to silently wrong text.
    """


class ExecutionError(ReproError):
    """Raised when the external DBMS rejects or fails a generated query."""


class TransientBackendError(ExecutionError):
    """A backend failure that may clear on retry (locked, busy, interrupted).

    The fault policy's retry/backoff machinery consumes exactly this
    class: anything else raised by the backend is *permanent* for the
    statement that raised it (syntax, schema, constraint, full disk) and
    retrying verbatim cannot help — the degradation ladder steps down
    instead.
    """


class BackendPoisonedError(TransientBackendError):
    """The serving connection itself is unusable (closed, corrupted).

    Retryable, but only after the pool retires the poisoned connection
    and replaces it with a fresh one — re-executing on the same
    connection would fail forever.
    """


class DeadlineExceeded(ReproError):
    """An operation ran past its per-ask deadline budget.

    Deliberately *not* a :class:`TransientBackendError`: a deadline is a
    caller-imposed budget, so neither the retry loop nor the degradation
    ladder may swallow it.  ``partial`` carries the work counters
    accumulated before the budget ran out (queries executed, retries,
    elapsed seconds) so callers can account for partial progress.
    """

    def __init__(self, message: str, partial: dict | None = None):
        super().__init__(message)
        self.partial = dict(partial or {})


#: ``sqlite3`` primary result codes the retry policy treats as transient.
#: SQLITE_BUSY (5) and SQLITE_LOCKED (6) clear when the competing
#: transaction finishes; SQLITE_INTERRUPT (9) is our own deadline/cancel
#: machinery; SQLITE_IOERR (10) covers transient device hiccups (the
#: fault injector's "I/O error burst"); SQLITE_PROTOCOL (15) is SQLite's
#: own "retry the operation" locking-protocol code.
TRANSIENT_SQLITE_CODES = frozenset({5, 6, 9, 10, 15})

#: Message fragments identifying the same transient conditions when no
#: result code is attached (synthetic errors, older drivers).
TRANSIENT_SQLITE_MESSAGES = (
    "database is locked",
    "database table is locked",
    "database is busy",
    "interrupted",
    "disk i/o error",
    "locking protocol",
)

#: Message fragments identifying a connection that is beyond saving.
POISONED_SQLITE_MESSAGES = (
    "closed database",
    "database disk image is malformed",
)


def classify_sqlite_error(error: BaseException) -> str:
    """Classify a ``sqlite3`` exception: transient, poisoned, or permanent.

    The single choke point the fault policy consumes — prefers the
    driver's primary result code (``sqlite_errorcode``, masked to drop
    extended-code bits) and falls back to message matching for synthetic
    or code-less errors.  Returns ``"transient"``, ``"poisoned"``, or
    ``"permanent"``.
    """
    message = str(error).lower()
    if any(fragment in message for fragment in POISONED_SQLITE_MESSAGES):
        return "poisoned"
    code = getattr(error, "sqlite_errorcode", None)
    if code is not None and (code & 0xFF) in TRANSIENT_SQLITE_CODES:
        return "transient"
    if any(fragment in message for fragment in TRANSIENT_SQLITE_MESSAGES):
        return "transient"
    return "permanent"


class CouplingError(ReproError):
    """Raised by the session layer for protocol misuse (e.g. closed session)."""


class RecursionLimitExceeded(CouplingError):
    """Raised when recursive evaluation does not converge within its bound."""


class IntervalUnavailable(CouplingError):
    """The interval labeling cannot serve the current hierarchy.

    Raised when the edge view is not a forest (a node with two parents,
    a cycle longer than a self-loop) or a previous labeling attempt left
    the index demoted.  A *semantic* demotion signal, not an operational
    failure: the recursion planner catches exactly this class and falls
    back to the CTE pushdown, while callers who requested
    ``strategy="interval"`` explicitly see it raised as a
    :class:`CouplingError`.
    """


class DatabaseNegationError(CouplingError):
    """``not/1`` over a database relation reached the plain ask pipeline.

    Typed because the compiler's "mixed goal: let the engine resolve it"
    fallback must not catch it: negation as failure there would succeed
    for every binding (the knowledge base holds none of the tuples).
    """


class CqaError(CouplingError):
    """Base class for consistent-query-answering failures.

    Raised when ``ask_consistent`` cannot produce *certain* answers for
    a goal — the one thing the CQA contract forbids is silently
    returning possibly-wrong tuples, so every unservable shape surfaces
    here as a typed refusal instead.
    """


class RepairSpaceExceeded(CqaError):
    """The all-repairs enumeration fallback hit its branching budget.

    The number of repairs is the product of the violating block sizes;
    past the budget an exact intersection is no longer tractable and no
    first-order rewriting exists for the goal's shape, so the ask fails
    closed rather than sampling repairs and risking non-certain answers.
    """


class SingleProcessStoreError(CouplingError):
    """The backing store cannot be shared with worker processes.

    A ``:memory:`` database lives inside one process (the shared-cache
    URI trick only spans *threads*), so a scale-out serving tier built
    over it would hand every worker an empty store.  The tier fails
    fast with this class at construction instead of serving silently
    wrong (empty) answers.
    """


class WorkerUnavailableError(TransientBackendError):
    """A serving worker process died while requests were outstanding.

    Transient by design: the tier restarts the worker from the current
    snapshot generation and replays the outstanding requests, so a
    caller only sees this class when the restart budget itself is
    exhausted.
    """
