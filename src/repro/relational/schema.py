"""Schemas and bag-semantics relations.

A :class:`Schema` is an ordered list of attribute names, optionally qualified
(``table.attribute``).  A :class:`Relation` is a bag of tuples over a schema,
stored as a mapping from tuple to multiplicity exactly as in the paper's
formalisation (a function ``U^n -> N``, Sec. 4).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.core.errors import SchemaError

Row = tuple
"""A database tuple; values are plain Python objects (int, float, str, None)."""


class Schema:
    """An ordered list of attribute names with qualified-name resolution.

    Attribute names may be qualified (``sales.price``) or bare (``price``).
    Lookups accept either form: a bare lookup matches a qualified attribute as
    long as the bare name is unambiguous within the schema.
    """

    __slots__ = ("_attributes", "_index", "_bare_index")

    def __init__(self, attributes: Iterable[str]) -> None:
        self._attributes = tuple(attributes)
        if len(set(self._attributes)) != len(self._attributes):
            raise SchemaError(f"duplicate attribute names in schema {self._attributes}")
        self._index = {name: i for i, name in enumerate(self._attributes)}
        bare: dict[str, list[int]] = {}
        for i, name in enumerate(self._attributes):
            bare.setdefault(self.bare_name(name), []).append(i)
        self._bare_index = bare

    @staticmethod
    def bare_name(name: str) -> str:
        """Strip a ``table.`` qualifier from an attribute name."""
        return name.rsplit(".", 1)[-1]

    @property
    def attributes(self) -> tuple[str, ...]:
        """The attribute names in order."""
        return self._attributes

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({list(self._attributes)})"

    def has(self, name: str) -> bool:
        """Return True when ``name`` (bare or qualified) resolves uniquely."""
        try:
            self.index_of(name)
        except SchemaError:
            return False
        return True

    def index_of(self, name: str) -> int:
        """Resolve an attribute reference to its position.

        Qualified names must match exactly.  Bare names match any attribute
        with the same bare name, but the match must be unique.
        """
        if name in self._index:
            return self._index[name]
        candidates = self._bare_index.get(self.bare_name(name), [])
        if "." in name:
            # A qualified name that is not present verbatim: try matching on
            # the bare part only when exactly one attribute carries it.
            candidates = [
                i
                for i in candidates
                if self._attributes[i] == name or self.bare_name(self._attributes[i]) == self.bare_name(name)
            ]
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise SchemaError(f"unknown attribute {name!r} in schema {list(self._attributes)}")
        raise SchemaError(f"ambiguous attribute {name!r} in schema {list(self._attributes)}")

    def qualify(self, prefix: str) -> "Schema":
        """Return a schema where every bare attribute is prefixed with ``prefix.``."""
        return Schema(
            f"{prefix}.{self.bare_name(name)}" for name in self._attributes
        )

    def unqualified(self) -> "Schema":
        """Return a schema with all qualifiers stripped.

        Raises :class:`SchemaError` when stripping creates duplicates.
        """
        return Schema(self.bare_name(name) for name in self._attributes)

    def concat(self, other: "Schema") -> "Schema":
        """Return the concatenation of two schemas (used for joins)."""
        return Schema(self._attributes + other._attributes)


class Relation:
    """A bag of tuples over a schema.

    The bag is stored as a mapping ``row -> multiplicity``.  Multiplicities are
    always positive; adding a row with multiplicity zero is a no-op and
    negative multiplicities are rejected (deltas use explicit +/- tags instead,
    see :mod:`repro.storage.delta`).
    """

    __slots__ = ("schema", "_rows")

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Row] | Mapping[Row, int] | None = None,
    ) -> None:
        self.schema = schema
        self._rows: dict[Row, int] = {}
        if rows is None:
            return
        if isinstance(rows, Mapping):
            for row, multiplicity in rows.items():
                self.add(row, multiplicity)
        else:
            for row in rows:
                self.add(row)

    # -- construction ----------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        """An empty relation over ``schema``."""
        return cls(schema)

    @classmethod
    def from_counts(cls, schema: Schema, counts: dict) -> "Relation":
        """Adopt an already-merged ``row -> multiplicity`` mapping.

        Internal fast path for the columnar engine's batch-to-relation
        boundary: the caller guarantees rows are tuples of the schema's arity
        with positive multiplicities, so the per-row checks of :meth:`add`
        are skipped and the mapping is taken over without copying.
        """
        relation = cls(schema)
        relation._rows = counts
        return relation

    def copy(self) -> "Relation":
        """Return an independent copy."""
        clone = Relation(self.schema)
        clone._rows = dict(self._rows)
        return clone

    # -- mutation ----------------------------------------------------------------

    def add(self, row: Row, multiplicity: int = 1) -> None:
        """Add ``multiplicity`` copies of ``row`` to the bag."""
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity {len(self.schema)}"
            )
        if multiplicity < 0:
            raise ValueError("multiplicity must be non-negative")
        if multiplicity == 0:
            return
        # Every operator loop funnels through here; rows are almost always
        # tuples already, so skip the (identity) conversion for them.
        if type(row) is not tuple:
            row = tuple(row)
        self._rows[row] = self._rows.get(row, 0) + multiplicity

    def remove(self, row: Row, multiplicity: int = 1) -> int:
        """Remove up to ``multiplicity`` copies of ``row``; return removed count."""
        row = tuple(row)
        current = self._rows.get(row, 0)
        if current == 0 or multiplicity <= 0:
            return 0
        removed = min(current, multiplicity)
        remaining = current - removed
        if remaining:
            self._rows[row] = remaining
        else:
            del self._rows[row]
        return removed

    # -- bag queries --------------------------------------------------------------

    def multiplicity(self, row: Row) -> int:
        """Multiplicity of ``row`` in the bag (zero when absent)."""
        return self._rows.get(tuple(row), 0)

    def __contains__(self, row: Row) -> bool:
        return self.multiplicity(row) > 0

    def __len__(self) -> int:
        """Total number of tuples, counting duplicates."""
        return sum(self._rows.values())

    def distinct_count(self) -> int:
        """Number of distinct tuples."""
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def items(self) -> Iterator[tuple[Row, int]]:
        """Iterate over ``(row, multiplicity)`` pairs."""
        return iter(self._rows.items())

    def rows(self) -> Iterator[Row]:
        """Iterate over rows, repeating duplicates according to multiplicity."""
        for row, multiplicity in self._rows.items():
            for _ in range(multiplicity):
                yield row

    def distinct_rows(self) -> Iterator[Row]:
        """Iterate over distinct rows once each."""
        return iter(self._rows)

    def to_set(self) -> set[Row]:
        """The set of distinct rows."""
        return set(self._rows)

    def to_sorted_list(self) -> list[Row]:
        """Rows with duplicates, deterministically sorted (for tests/reports)."""
        return sorted(self.rows(), key=lambda row: tuple(map(order_component, row)))

    # -- bag algebra ----------------------------------------------------------------

    def union(self, other: "Relation") -> "Relation":
        """Bag union (multiplicities add)."""
        self._check_compatible(other)
        result = self.copy()
        for row, multiplicity in other.items():
            result.add(row, multiplicity)
        return result

    def difference(self, other: "Relation") -> "Relation":
        """Bag difference (multiplicities subtract, floored at zero)."""
        self._check_compatible(other)
        result = self.copy()
        for row, multiplicity in other.items():
            result.remove(row, multiplicity)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and self._rows == other._rows

    def __hash__(self) -> int:  # pragma: no cover - relations are not hashed
        raise TypeError("Relation objects are mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sample = list(self._rows.items())[:5]
        return f"Relation(schema={list(self.schema)}, rows~{len(self)}, sample={sample})"

    def _check_compatible(self, other: "Relation") -> None:
        if len(self.schema) != len(other.schema):
            raise SchemaError(
                "bag operation on relations with different arities: "
                f"{len(self.schema)} vs {len(other.schema)}"
            )


def order_component(value: object) -> tuple[int, object]:
    """The ``(tag, comparable)`` ordering component of one heterogeneous value.

    None sorts first; booleans are numerics (SQL boolean ordering: False <
    True, comparable with ints/floats); NaN, whose own comparisons are all
    false, gets a tag of its own right after the numbers (distinct NaN
    objects tie); everything else falls back to its string form.  Single
    source of truth for the ordering rules -- row sorting, the canonical
    snapshot order, ORDER BY and top-k keys all derive from it, and all of
    them are total orders determined by content.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        if value != value:
            return (3, 0)
        return (2, value)
    return (4, str(value))


def descending_component(value: object) -> tuple[int, object]:
    """:func:`order_component` for an ``ORDER BY ... DESC`` item.

    Tags and numbers are negated and strings compare reversed, so the
    ascending sort of these components is the descending order of the
    values -- except that NaN keeps its place after every number.
    """
    tag, component = order_component(value)
    if tag == 4:
        return (-4, _Reversed(component))
    if tag == 3:
        return (-1, 0)
    return (-tag, -component)  # type: ignore[operator]


class _Reversed:
    """Wrapper that reverses comparison order for non-numeric sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value

    def __hash__(self) -> int:  # top-k state keys its buckets by sort key
        return hash(self.value)
