"""Relational schema catalog.

The paper (section 3) describes a database schema as a flat list —
``[empdep, eno, nam, sal, dno, fct, mgr]`` — naming the database followed by
the union of all attribute names.  Relations share columns by name: both
``empl`` and ``dept`` have a ``dno`` attribute, and it occupies a single
column of the tableau.  Attributes are numbered by their (arbitrary but
fixed) position in this list; Algorithm 1 relies on that numbering.

:class:`DatabaseSchema` implements this model and adds what a practical
front-end needs on top: per-attribute types (for SQL DDL and value-bound
checking) and lookup tables from relation-local positions to global columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..errors import SchemaError

#: Attribute type names accepted by the catalog, mapped to SQLite types.
ATTRIBUTE_TYPES: dict[str, str] = {
    "int": "INTEGER",
    "float": "REAL",
    "text": "TEXT",
}

#: A text SQLite's numeric affinity reads as a number (it ignores the
#: surrounding blanks, and hex or ``1_0`` stay text).
_NUMERAL = re.compile(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\s*")


@dataclass(frozen=True, slots=True)
class Attribute:
    """A named, typed attribute of the global schema."""

    name: str
    type: str = "text"

    def __post_init__(self):
        if self.type not in ATTRIBUTE_TYPES:
            raise SchemaError(
                f"attribute {self.name!r}: unknown type {self.type!r}; "
                f"expected one of {sorted(ATTRIBUTE_TYPES)}"
            )

    @property
    def sql_type(self) -> str:
        return ATTRIBUTE_TYPES[self.type]

    @property
    def is_numeric(self) -> bool:
        return self.type in ("int", "float")

    def coerce(self, value):
        """``value`` as SQLite compares it with a column of this attribute.

        Column affinity turns a numeral text into a number before
        comparing it with a numeric column (``"2"`` equals 2) and a
        number into its text against a text column (30000 equals
        ``'30000'``); Python equality does neither.
        """
        if isinstance(value, str):
            if self.is_numeric and _NUMERAL.fullmatch(value):
                try:
                    return int(value)
                except ValueError:  # a fraction or an exponent
                    number = float(value)
                    return int(number) if number.is_integer() else number
        elif self.type == "text" and isinstance(value, (int, float)):
            return str(value)
        return value


@dataclass(frozen=True)
class Relation:
    """A base relation: a name plus an ordered list of global attribute names."""

    name: str
    attributes: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"relation {self.name!r} repeats an attribute name")

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def position_of(self, attribute: str) -> int:
        """Relation-local position (0-based) of an attribute."""
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self.attributes


class DatabaseSchema:
    """The catalog: database name, global attribute order, base relations.

    The global attribute list is derived from relation definitions in
    first-appearance order (matching the paper's ``empdep`` example, where
    ``empl(eno, nam, sal, dno)`` then ``dept(dno, fct, mgr)`` yields
    ``[eno, nam, sal, dno, fct, mgr]``), unless an explicit order is given.
    """

    def __init__(
        self,
        name: str,
        relations: Sequence[Relation],
        attribute_types: Optional[Mapping[str, str]] = None,
        attribute_order: Optional[Sequence[str]] = None,
    ):
        if not relations:
            raise SchemaError("a schema needs at least one relation")
        self.name = name
        self.relations: dict[str, Relation] = {}
        for relation in relations:
            if relation.name in self.relations:
                raise SchemaError(f"duplicate relation {relation.name!r}")
            self.relations[relation.name] = relation

        ordered: list[str] = []
        seen: set[str] = set()
        for relation in relations:
            for attribute in relation.attributes:
                if attribute not in seen:
                    seen.add(attribute)
                    ordered.append(attribute)
        if attribute_order is not None:
            extra = seen - set(attribute_order)
            missing = set(attribute_order) - seen
            if extra or missing:
                raise SchemaError(
                    f"attribute_order mismatch: unknown {sorted(missing)}, "
                    f"unlisted {sorted(extra)}"
                )
            ordered = list(attribute_order)

        types = dict(attribute_types or {})
        unknown = set(types) - seen
        if unknown:
            raise SchemaError(f"types given for unknown attributes {sorted(unknown)}")
        self.attributes: tuple[Attribute, ...] = tuple(
            Attribute(name, types.get(name, "text")) for name in ordered
        )
        self._attribute_index: dict[str, int] = {
            attribute.name: index for index, attribute in enumerate(self.attributes)
        }
        # Never mutated after construction: per-cell lookups computed once.
        self.attribute_names: tuple[str, ...] = tuple(ordered)
        self._relation_columns: dict[str, list[int]] = {
            relation.name: [self._attribute_index[a] for a in relation.attributes]
            for relation in relations
        }

    # -- lookups -------------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of global attributes (tableau columns)."""
        return len(self.attributes)

    def schema_list(self) -> list[str]:
        """The paper's flat schema list: ``[dbname, attr1, ..., attrn]``."""
        return [self.name, *self.attribute_names]

    def relation(self, name: str) -> Relation:
        relation = self.relations.get(name)
        if relation is None:
            raise SchemaError(f"unknown relation {name!r}")
        return relation

    def has_relation(self, name: str) -> bool:
        return name in self.relations

    def attribute(self, name: str) -> Attribute:
        index = self._attribute_index.get(name)
        if index is None:
            raise SchemaError(f"unknown attribute {name!r}")
        return self.attributes[index]

    def column_of(self, attribute: str) -> int:
        """Global column index (0-based, not counting the db-name slot)."""
        index = self._attribute_index.get(attribute)
        if index is None:
            raise SchemaError(f"unknown attribute {attribute!r}")
        return index

    def attribute_number(self, attribute: str) -> int:
        """The fixed attribute number Algorithm 1 sorts by (1-based)."""
        return self.column_of(attribute) + 1

    def columns_of_relation(self, relation_name: str) -> list[int]:
        """Global column indexes of a relation, in relation order (shared)."""
        columns = self._relation_columns.get(relation_name)
        if columns is None:
            self.relation(relation_name)  # raises SchemaError
        return columns

    def relations_with_attribute(self, attribute: str) -> list[Relation]:
        """All relations having the given global attribute."""
        return [r for r in self.relations.values() if r.has_attribute(attribute)]

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{r.name}({', '.join(r.attributes)})" for r in self.relations.values()
        )
        return f"DatabaseSchema({self.name!r}: {rels})"


def make_schema(
    name: str,
    relations: Mapping[str, Sequence[str]],
    attribute_types: Optional[Mapping[str, str]] = None,
) -> DatabaseSchema:
    """Convenience constructor from a ``{relation: [attributes]}`` mapping."""
    return DatabaseSchema(
        name,
        [Relation(rel, tuple(attrs)) for rel, attrs in relations.items()],
        attribute_types=attribute_types,
    )
