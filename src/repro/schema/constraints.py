"""Semantic integrity constraints (paper section 3).

Three kinds of constraints form the optimizer's knowledge base — the paper
argues these are the most frequent in practice and all an *existing* DBMS
can realistically be assumed to expose:

* ``valuebound(R, A, L, U)`` — every value of attribute ``A`` in relation
  ``R`` lies in ``[L, U]``;
* ``funcdep(R, [A...], [B...])`` — a functional dependency within ``R``;
* ``refint(R1, [A...], R2, [B...])`` — referential integrity: the ``A``
  values of ``R1`` form a subset of the *key* values ``B`` of ``R2``.

The paper imposes two structural rules on referential constraints (§3):
(a) the right-hand side refers to the key of some relation, and (b) no
attribute appears in more than one left-hand side.  :class:`ConstraintSet`
enforces both at construction time, because Algorithm 1's termination and
"at most one applicable rule" property depend on them.

Constraints can also be read from Prolog facts in exactly the paper's
notation, see :func:`constraints_from_prolog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ..errors import SchemaError
from ..prolog.reader import parse_program
from ..prolog.terms import Atom, Number, Struct, list_items
from .catalog import DatabaseSchema

BoundValue = Union[int, float, str]


@dataclass(frozen=True, slots=True)
class ValueBound:
    """``valuebound(R, A, L, U)``: L <= x <= U for all values x of R.A."""

    relation: str
    attribute: str
    low: BoundValue
    high: BoundValue

    def __post_init__(self):
        low_numeric = isinstance(self.low, (int, float))
        high_numeric = isinstance(self.high, (int, float))
        if low_numeric != high_numeric:
            raise SchemaError(
                f"valuebound({self.relation}.{self.attribute}): "
                "bounds must both be numeric or both strings"
            )
        if self.low > self.high:  # type: ignore[operator]
            raise SchemaError(
                f"valuebound({self.relation}.{self.attribute}): "
                f"empty interval [{self.low}, {self.high}]"
            )

    def contains(self, value: BoundValue) -> bool:
        """Is ``value`` inside the bound? Non-comparable types are outside."""
        value_numeric = isinstance(value, (int, float))
        bound_numeric = isinstance(self.low, (int, float))
        if value_numeric != bound_numeric:
            return False
        return self.low <= value <= self.high  # type: ignore[operator]

    def to_prolog(self) -> str:
        return (
            f"valuebound({self.relation}, {self.attribute}, "
            f"{_render_value(self.low)}, {_render_value(self.high)})."
        )


@dataclass(frozen=True, slots=True)
class FuncDep:
    """``funcdep(R, [A...], [B...])``: within R, equal A-values force equal B-values."""

    relation: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __post_init__(self):
        if not self.lhs or not self.rhs:
            raise SchemaError(
                f"funcdep on {self.relation}: both sides must be non-empty"
            )

    @property
    def is_trivial(self) -> bool:
        """Reflexive FDs (RHS ⊆ LHS) carry no information."""
        return set(self.rhs) <= set(self.lhs)

    def to_prolog(self) -> str:
        lhs = ", ".join(self.lhs)
        rhs = ", ".join(self.rhs)
        return f"funcdep({self.relation}, [{lhs}], [{rhs}])."


@dataclass(frozen=True, slots=True)
class RefInt:
    """``refint(R1, [A...], R2, [B...])``: R1.A values ⊆ key values R2.B."""

    from_relation: str
    from_attributes: tuple[str, ...]
    to_relation: str
    to_attributes: tuple[str, ...]

    def __post_init__(self):
        if len(self.from_attributes) != len(self.to_attributes):
            raise SchemaError(
                f"refint {self.from_relation}->{self.to_relation}: "
                "attribute lists must have equal length"
            )
        if not self.from_attributes:
            raise SchemaError(
                f"refint {self.from_relation}->{self.to_relation}: empty attribute list"
            )

    def to_prolog(self) -> str:
        lhs = ", ".join(self.from_attributes)
        rhs = ", ".join(self.to_attributes)
        return (
            f"refint({self.from_relation}, [{lhs}], "
            f"{self.to_relation}, [{rhs}])."
        )


class ConstraintSet:
    """A validated collection of integrity constraints over one schema."""

    def __init__(
        self,
        schema: DatabaseSchema,
        value_bounds: Iterable[ValueBound] = (),
        funcdeps: Iterable[FuncDep] = (),
        refints: Iterable[RefInt] = (),
        validate_refint_keys: bool = True,
    ):
        self.schema = schema
        self.value_bounds: list[ValueBound] = list(value_bounds)
        self.funcdeps: list[FuncDep] = list(funcdeps)
        self.refints: list[RefInt] = list(refints)
        self._bounds_index: dict[tuple[str, str], ValueBound] = {
            (b.relation, b.attribute): b for b in self.value_bounds
        }
        self._funcdeps_by_relation: dict[str, list[FuncDep]] = {}
        for fd in self.funcdeps:
            self._funcdeps_by_relation.setdefault(fd.relation, []).append(fd)
        self._refints_by_source: dict[str, list[RefInt]] = {}
        for ri in self.refints:
            self._refints_by_source.setdefault(ri.from_relation, []).append(ri)
        # Validation last: key checks need the FD index in place.
        self._validate(validate_refint_keys)
        self._compiled: Optional[CompiledConstraints] = None

    # -- validation -----------------------------------------------------------

    def _validate(self, validate_refint_keys: bool) -> None:
        for bound in self.value_bounds:
            relation = self.schema.relation(bound.relation)
            if not relation.has_attribute(bound.attribute):
                raise SchemaError(
                    f"valuebound: {bound.relation} has no attribute {bound.attribute}"
                )
        for fd in self.funcdeps:
            relation = self.schema.relation(fd.relation)
            for attribute in (*fd.lhs, *fd.rhs):
                if not relation.has_attribute(attribute):
                    raise SchemaError(
                        f"funcdep: {fd.relation} has no attribute {attribute}"
                    )
        seen_lhs: set[tuple[str, str]] = set()
        for ri in self.refints:
            source = self.schema.relation(ri.from_relation)
            target = self.schema.relation(ri.to_relation)
            for attribute in ri.from_attributes:
                if not source.has_attribute(attribute):
                    raise SchemaError(
                        f"refint: {ri.from_relation} has no attribute {attribute}"
                    )
                # Paper rule (b): an attribute appears in at most one LHS.
                key = (ri.from_relation, attribute)
                if key in seen_lhs:
                    raise SchemaError(
                        f"refint: attribute {ri.from_relation}.{attribute} "
                        "appears in more than one referential left-hand side"
                    )
                seen_lhs.add(key)
            for attribute in ri.to_attributes:
                if not target.has_attribute(attribute):
                    raise SchemaError(
                        f"refint: {ri.to_relation} has no attribute {attribute}"
                    )
            if validate_refint_keys and not self.is_key(
                ri.to_relation, ri.to_attributes
            ):
                # Paper rule (a): the RHS must be a key of the target.
                raise SchemaError(
                    f"refint: {ri.to_relation}.({', '.join(ri.to_attributes)}) "
                    "is not a key of the target relation"
                )

    # -- lookups ---------------------------------------------------------------

    def bound_for(self, relation: str, attribute: str) -> Optional[ValueBound]:
        """The value bound on ``relation.attribute``, if declared."""
        return self._bounds_index.get((relation, attribute))

    def funcdeps_of(self, relation: str) -> list[FuncDep]:
        """Functional dependencies declared within ``relation``."""
        return list(self._funcdeps_by_relation.get(relation, ()))

    def refints_from(self, relation: str) -> list[RefInt]:
        """Referential constraints whose left-hand side lives in ``relation``."""
        return list(self._refints_by_source.get(relation, ()))

    def refint_on(self, relation: str, attributes: Sequence[str]) -> Optional[RefInt]:
        """The unique refint with exactly this LHS, if any (paper rule b)."""
        wanted = tuple(attributes)
        for ri in self.refints_from(relation):
            if ri.from_attributes == wanted:
                return ri
        return None

    def compiled(self, schema: DatabaseSchema) -> "CompiledConstraints":
        """This set resolved to ``schema``'s columns, built once and cached
        on the set (which is never mutated after construction)."""
        index = self._compiled
        if index is None or index.schema is not schema:
            index = self._compiled = CompiledConstraints(self, schema)
        return index

    # -- key reasoning (delegated closure lives in inference.py) ---------------

    def closure(self, relation: str, attributes: Sequence[str]) -> frozenset[str]:
        """Attribute-set closure under this set's FDs (Armstrong axioms)."""
        from .inference import fd_closure

        return fd_closure(set(attributes), self.funcdeps_of(relation))

    def is_key(self, relation: str, attributes: Sequence[str]) -> bool:
        """Do ``attributes`` functionally determine all of ``relation``?"""
        all_attributes = set(self.schema.relation(relation).attributes)
        return self.closure(relation, attributes) >= all_attributes

    def primary_key(self, relation: str) -> tuple[str, ...]:
        """A minimal key of ``relation``, derived from the declared FDs.

        Deterministic greedy reduction: starting from the full attribute
        set, attributes are dropped in *reverse* schema order whenever
        the remainder still determines the whole relation.  Reverse
        order keeps the leading schema attributes (the conventional key
        position) in preference to trailing ones, so ``empl`` yields
        ``(eno,)`` rather than ``(nam,)`` even though both are keys.
        When the FDs admit no proper key the full attribute tuple is
        returned — under it every tuple is its own block, so the
        relation can never hold a key violation.
        """
        attributes = list(self.schema.relation(relation).attributes)
        keep = list(attributes)
        for attribute in reversed(attributes):
            trial = [a for a in keep if a != attribute]
            if trial and self.is_key(relation, trial):
                keep = trial
        return tuple(keep)

    def implies_funcdep(self, fd: FuncDep) -> bool:
        """Is ``fd`` derivable from the declared FDs of its relation?"""
        return set(fd.rhs) <= self.closure(fd.relation, fd.lhs)

    def to_prolog(self) -> str:
        """Render all constraints in the paper's Prolog notation."""
        lines = [b.to_prolog() for b in self.value_bounds]
        lines += [fd.to_prolog() for fd in self.funcdeps]
        lines += [ri.to_prolog() for ri in self.refints]
        return "\n".join(lines)


class CompiledConstraints:
    """What Algorithm 2 reads of a :class:`ConstraintSet`, per relation:
    ``funcdeps`` — the non-trivial FDs as (LHS columns, RHS columns);
    ``bounds`` — ``(column, attribute, bound)`` per bounded attribute, in
    relation order; and :meth:`refint_holds`, Algorithm 1's verdicts."""

    def __init__(self, constraints: ConstraintSet, schema: DatabaseSchema):
        self.schema = schema
        self._refints = constraints.refints
        self._verdicts: dict[tuple, bool] = {}
        column = schema.column_of
        self.funcdeps: dict[str, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for fd in constraints.funcdeps:
            if not fd.is_trivial and schema.has_relation(fd.relation):
                self.funcdeps.setdefault(fd.relation, []).append(
                    (tuple(map(column, fd.lhs)), tuple(map(column, fd.rhs)))
                )
        self.bounds: dict[str, list[tuple[int, str, ValueBound]]] = {}
        for name, relation in schema.relations.items():
            for attribute in relation.attributes:
                bound = constraints.bound_for(name, attribute)
                if bound is not None:
                    self.bounds.setdefault(name, []).append(
                        (column(attribute), attribute, bound)
                    )

    def refint_holds(self, hypothesis: tuple) -> bool:
        """Is the refint ``(from relation, from attributes, to relation, to
        attributes)`` derivable?  Derived at first use: the verdict is a pure
        function of schema, hypothesis and stored refints."""
        verdict = self._verdicts.get(hypothesis)
        if verdict is None:
            from .inference import RefIntHypothesis, derive_refint

            derivation = derive_refint(
                self.schema, RefIntHypothesis(*hypothesis), self._refints
            )
            verdict = self._verdicts[hypothesis] = derivation.success
        return verdict


def _render_value(value: BoundValue) -> str:
    if isinstance(value, str):
        return value
    return str(value)


def _term_to_value(term) -> BoundValue:
    if isinstance(term, Number):
        return term.value
    if isinstance(term, Atom):
        return term.name
    raise SchemaError(f"constraint argument must be a constant, got {term}")


def _term_to_attributes(term) -> tuple[str, ...]:
    try:
        items = list_items(term)
    except ValueError:
        raise SchemaError(f"expected an attribute list, got {term}") from None
    names = []
    for item in items:
        if not isinstance(item, Atom):
            raise SchemaError(f"attribute names must be atoms, got {item}")
        names.append(item.name)
    return tuple(names)


def constraints_from_prolog(schema: DatabaseSchema, source: str) -> ConstraintSet:
    """Parse constraints written as Prolog facts (the paper's notation).

    Example::

        valuebound(empl, sal, 10000, 90000).
        funcdep(empl, [nam], [eno]).
        refint(empl, [dno], dept, [dno]).
    """
    bounds: list[ValueBound] = []
    funcdeps: list[FuncDep] = []
    refints: list[RefInt] = []
    for clause in parse_program(source):
        if not clause.is_fact or not isinstance(clause.head, Struct):
            raise SchemaError(f"constraints must be facts, got {clause}")
        head = clause.head
        if head.indicator == ("valuebound", 4):
            relation, attribute = head.args[0], head.args[1]
            if not isinstance(relation, Atom) or not isinstance(attribute, Atom):
                raise SchemaError(f"bad valuebound: {head}")
            bounds.append(
                ValueBound(
                    relation.name,
                    attribute.name,
                    _term_to_value(head.args[2]),
                    _term_to_value(head.args[3]),
                )
            )
        elif head.indicator == ("funcdep", 3):
            relation = head.args[0]
            if not isinstance(relation, Atom):
                raise SchemaError(f"bad funcdep: {head}")
            funcdeps.append(
                FuncDep(
                    relation.name,
                    _term_to_attributes(head.args[1]),
                    _term_to_attributes(head.args[2]),
                )
            )
        elif head.indicator == ("refint", 4):
            from_rel, to_rel = head.args[0], head.args[2]
            if not isinstance(from_rel, Atom) or not isinstance(to_rel, Atom):
                raise SchemaError(f"bad refint: {head}")
            refints.append(
                RefInt(
                    from_rel.name,
                    _term_to_attributes(head.args[1]),
                    to_rel.name,
                    _term_to_attributes(head.args[3]),
                )
            )
        else:
            raise SchemaError(f"unknown constraint form: {head}")
    return ConstraintSet(schema, bounds, funcdeps, refints)
