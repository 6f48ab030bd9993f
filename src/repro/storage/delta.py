"""Deltas between database versions.

A delta is the symmetric difference between two database states (paper
Sec. 4.2): tuples tagged ``Δ+`` must be inserted and tuples tagged ``Δ-``
deleted to move from the old state to the new state.  Deltas are bags --
each signed tuple carries a multiplicity.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, KeysView
from operator import neg

from repro.core.errors import SchemaError
from repro.relational.schema import Row, Schema


class Delta:
    """A bag of signed tuples for a single relation.

    Insertions and deletions are kept in separate bags so that applying the
    delta and feeding it to the incremental engine are both straightforward.
    The class does *not* cancel opposite-signed occurrences of the same tuple:
    the paper treats the delta as the symmetric difference produced by the
    backend, which never reports both signs for one tuple, but IMP's operator
    rules are correct either way.
    """

    __slots__ = ("schema", "_inserts", "_deletes")

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._inserts: dict[Row, int] = {}
        self._deletes: dict[Row, int] = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        inserts: Iterable[Row] = (),
        deletes: Iterable[Row] = (),
    ) -> "Delta":
        """Build a delta from plain row iterables."""
        delta = cls(schema)
        for row in inserts:
            delta.add_insert(row)
        for row in deletes:
            delta.add_delete(row)
        return delta

    # -- mutation ----------------------------------------------------------------

    def add_insert(self, row: Row, multiplicity: int = 1) -> None:
        """Record ``multiplicity`` insertions of ``row``."""
        self._check(row, multiplicity)
        row = tuple(row)
        self._inserts[row] = self._inserts.get(row, 0) + multiplicity

    def add_delete(self, row: Row, multiplicity: int = 1) -> None:
        """Record ``multiplicity`` deletions of ``row``."""
        self._check(row, multiplicity)
        row = tuple(row)
        self._deletes[row] = self._deletes.get(row, 0) + multiplicity

    def merge(self, other: "Delta") -> None:
        """Append another delta of the same schema (used for batching)."""
        if len(other.schema) != len(self.schema):
            raise SchemaError("cannot merge deltas with different arities")
        for row, multiplicity in other._inserts.items():
            self.add_insert(row, multiplicity)
        for row, multiplicity in other._deletes.items():
            self.add_delete(row, multiplicity)

    def compacted(self) -> "Delta":
        """Cancel matching insert/delete pairs, keeping only the net effect.

        A row inserted by one update and deleted again by a later update in
        the same merged window contributes nothing to the net delta; a
        sequence of updates compacts to one signed occurrence per row.  The
        incremental operators are linear in the delta, so feeding them the
        compacted delta yields the same state and sketch as replaying every
        intermediate change -- in time proportional to the *net* delta
        (DBToaster-style shared delta processing).
        """
        compact = Delta(self.schema)
        for row, inserted in self._inserts.items():
            net = inserted - self._deletes.get(row, 0)
            if net > 0:
                compact._inserts[row] = net
        for row, deleted in self._deletes.items():
            net = deleted - self._inserts.get(row, 0)
            if net > 0:
                compact._deletes[row] = net
        return compact

    def inverted(self) -> "Delta":
        """The delta that undoes this one (inserts and deletes swapped).

        Applying ``delta.inverted()`` to a state that ``delta`` produced
        yields the pre-delta state; snapshot materialization uses it to roll
        the current table contents back to a pinned version.
        """
        inverse = Delta(self.schema)
        inverse._inserts = dict(self._deletes)
        inverse._deletes = dict(self._inserts)
        return inverse

    def _check(self, row: Row, multiplicity: int) -> None:
        if len(row) != len(self.schema):
            raise SchemaError(
                f"delta row arity {len(row)} does not match schema arity {len(self.schema)}"
            )
        if multiplicity <= 0:
            raise ValueError("multiplicity must be positive")

    # -- queries -----------------------------------------------------------------

    def inserts(self) -> Iterator[tuple[Row, int]]:
        """Iterate over inserted rows with multiplicities."""
        return iter(self._inserts.items())

    def deletes(self) -> Iterator[tuple[Row, int]]:
        """Iterate over deleted rows with multiplicities."""
        return iter(self._deletes.items())

    def signed_entries(self) -> tuple[list[Row], list[int]]:
        """Parallel lists of rows and signed counts: the inserts (positive),
        then the deletes (negative), each bag in its own order."""
        rows = [*self._inserts, *self._deletes]
        counts = [*self._inserts.values(), *map(neg, self._deletes.values())]
        return rows, counts

    def inserted_rows(self) -> KeysView[Row]:
        """The distinct inserted rows (a view, not a copy)."""
        return self._inserts.keys()

    @property
    def insert_count(self) -> int:
        """Total number of inserted tuples (with multiplicities)."""
        return sum(self._inserts.values())

    @property
    def delete_count(self) -> int:
        """Total number of deleted tuples (with multiplicities)."""
        return sum(self._deletes.values())

    def __len__(self) -> int:
        return self.insert_count + self.delete_count

    def __bool__(self) -> bool:
        return bool(self._inserts or self._deletes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delta(+{self.insert_count}/-{self.delete_count})"


class DatabaseDelta:
    """A delta database: one :class:`Delta` per affected relation."""

    def __init__(self) -> None:
        self._deltas: dict[str, Delta] = {}

    def set_delta(self, table: str, delta: Delta) -> None:
        """Register the delta for ``table`` (replacing any previous delta)."""
        self._deltas[table] = delta

    def items(self) -> Iterator[tuple[str, Delta]]:
        """Iterate over ``(table, delta)`` pairs."""
        return iter(self._deltas.items())

    def get(self, table: str) -> Delta | None:
        """The delta for ``table`` or None."""
        return self._deltas.get(table)

    def __contains__(self, table: str) -> bool:
        return table in self._deltas

    def __len__(self) -> int:
        """Total number of delta tuples across all tables."""
        return sum(len(delta) for delta in self._deltas.values())

    def __bool__(self) -> bool:
        return any(self._deltas.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{table}: {delta!r}" for table, delta in self._deltas.items())
        return f"DatabaseDelta({inner})"
