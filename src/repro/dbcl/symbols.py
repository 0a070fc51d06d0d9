"""Symbols of the DBCL tableau language (paper section 3).

DBCL is a *variable-free* subset of PROLOG: logic variables of the original
goal are re-encoded as atoms so the metalanguage can manipulate them without
instantiation.  The encoding is the paper's:

* constants translate into themselves (:class:`ConstSymbol`);
* universally quantified variables of the goal clause — the *target
  attributes* of the query — are prefixed with ``t_`` (:class:`TargetSymbol`);
* other variables are prefixed with ``v_`` and carry a number
  distinguishing different variables addressing the same attribute
  (:class:`VarSymbol`);
* ``*`` marks attributes that do not apply to a row (:data:`STAR`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Union

from ..errors import DbclError

Value = Union[int, float, str]


class ParamMarker(str):
    """A placeholder constant standing for a query parameter.

    The plan cache compiles a goal *shape* once by substituting each goal
    constant with a marker; the marker flows through metaevaluation and
    Algorithm 2 like any other string constant and is replaced by a ``?``
    placeholder at SQL translation time.  Being a ``str`` subclass it is
    hashable/comparable exactly like a constant, but stages that must not
    reason about a concrete value (the valuebound constant check) can
    recognise and skip it — any stage that *would* consult its value marks
    the plan constant-sensitive instead.
    """

    __slots__ = ()


def is_param_marker(value: object) -> bool:
    """True when ``value`` is a plan-cache parameter placeholder."""
    return isinstance(value, ParamMarker)


class ConsultationWitness:
    """Records whether a marker's *value* was consulted (see below)."""

    __slots__ = ("consulted",)

    def __init__(self):
        self.consulted = False


_MARKER_WATCHERS: list[ConsultationWitness] = []


@contextmanager
def watch_marker_consultation():
    """Detect value-level reasoning about parameter markers.

    Every ordering decision about constants funnels through
    :func:`compare_values` (ground evaluation, the inequality graph's
    constant ordering, redundancy implication).  While this context is
    active, any such call involving a :class:`ParamMarker` flips the
    yielded witness — proof that the optimization pipeline consulted a
    concrete value the plan cache was trying to abstract, so the plan
    must fall back to exact-constant caching.  Equality-only reasoning
    (chase merges, row dedup, tableau containment) needs no tracking:
    markers behave there like any pair of distinct constants, which at
    worst under-simplifies or proves the marker plan empty — both
    detected structurally.
    """
    witness = ConsultationWitness()
    _MARKER_WATCHERS.append(witness)
    try:
        yield witness
    finally:
        _MARKER_WATCHERS.remove(witness)


def _note_marker_consultation() -> None:
    for witness in _MARKER_WATCHERS:
        witness.consulted = True


@dataclass(frozen=True, slots=True)
class Star:
    """The ``*`` filler for non-applicable attributes."""

    def __str__(self) -> str:
        return "*"

    def __repr__(self) -> str:
        return "STAR"


STAR = Star()


@dataclass(frozen=True, slots=True)
class TargetSymbol:
    """A ``t_``-prefixed symbol: a target (output) attribute of the query."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise DbclError("target symbol needs a name")

    def __str__(self) -> str:
        return f"t_{self.name}"

    def __repr__(self) -> str:
        return f"TargetSymbol({self.name!r})"


@dataclass(frozen=True, slots=True)
class VarSymbol:
    """A ``v_``-prefixed symbol: an existential variable.

    ``base`` typically names the attribute the variable addresses and
    ``number`` distinguishes different variables on the same attribute, as
    the paper prescribes (``v_Eno1``, ``v_Eno4``, …).  ``number`` 0 renders
    without a digit (the paper writes ``v_D`` and ``v_M`` for singletons).
    """

    base: str
    number: int = 0

    def __post_init__(self):
        if not self.base:
            raise DbclError("variable symbol needs a base name")
        if self.number < 0:
            raise DbclError("variable symbol number must be non-negative")

    def __str__(self) -> str:
        if self.number:
            return f"v_{self.base}{self.number}"
        return f"v_{self.base}"

    def __repr__(self) -> str:
        return f"VarSymbol({self.base!r}, {self.number})"


@dataclass(frozen=True, slots=True)
class ConstSymbol:
    """A constant: an atom name, a number, or a string literal."""

    value: Value

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"ConstSymbol({self.value!r})"

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.value, (int, float))


#: Anything that may fill a tableau cell.
Symbol = Union[Star, TargetSymbol, VarSymbol, ConstSymbol]

#: Anything that may join or be compared: a cell value that is not ``*``.
JoinableSymbol = Union[TargetSymbol, VarSymbol, ConstSymbol]


def is_variable_symbol(symbol: Symbol) -> bool:
    """True for ``t_`` and ``v_`` symbols — the joinable variables."""
    return isinstance(symbol, (TargetSymbol, VarSymbol))


def is_star(symbol: Symbol) -> bool:
    return isinstance(symbol, Star)


def is_constant_symbol(symbol: Symbol) -> bool:
    return isinstance(symbol, ConstSymbol)


def compare_values(left: Value, right: Value) -> int:
    """Total order over constants matching SQLite's comparison semantics.

    Numbers compare numerically, strings lexicographically, and *any*
    number sorts before *any* string.  The optimizer must agree with the
    execution substrate on cross-type comparisons (a chase-propagated
    constant can land a text value in a numeric comparison), so this is
    the single ordering used by ground evaluation, the inequality graph,
    and client-side filtering.  Returns -1, 0, or 1.
    """
    if _MARKER_WATCHERS and (
        isinstance(left, ParamMarker) or isinstance(right, ParamMarker)
    ):
        _note_marker_consultation()
    left_numeric = isinstance(left, (int, float))
    right_numeric = isinstance(right, (int, float))
    if left_numeric and not right_numeric:
        return -1
    if right_numeric and not left_numeric:
        return 1
    if left < right:  # type: ignore[operator]
        return -1
    if left > right:  # type: ignore[operator]
        return 1
    return 0


def parse_symbol(text: str) -> Symbol:
    """Parse the textual form of a symbol (inverse of ``str``).

    ``*`` → STAR; ``t_name`` → target; ``v_Base[digits]`` → variable;
    anything else is a constant (numeric if it looks like a number).
    """
    if text == "*":
        return STAR
    if text.startswith("t_") and len(text) > 2:
        return TargetSymbol(text[2:])
    if text.startswith("v_") and len(text) > 2:
        body = text[2:]
        digits = ""
        while body and body[-1].isdigit():
            digits = body[-1] + digits
            body = body[:-1]
        if not body:
            # Pure digits after v_ : treat the digits as the base name.
            return VarSymbol(digits)
        return VarSymbol(body, int(digits) if digits else 0)
    try:
        if "." in text:
            return ConstSymbol(float(text))
        return ConstSymbol(int(text))
    except ValueError:
        return ConstSymbol(text)
