"""Deltas between database versions.

A delta is the symmetric difference between two database states (paper
Sec. 4.2): tuples tagged ``Δ+`` must be inserted and tuples tagged ``Δ-``
deleted to move from the old state to the new state.  Deltas are bags --
each signed tuple carries a multiplicity.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, KeysView
from operator import neg

from repro.core.errors import SchemaError, StorageError
from repro.relational.schema import Row, Schema


class Delta:
    """A bag of signed tuples for a single relation.

    Insertions and deletions are kept in separate bags so that applying the
    delta and feeding it to the incremental engine are both straightforward.
    Each bag maps a row to its multiplicity and iterates the rows in first
    occurrence order.  The class does *not* cancel opposite-signed
    occurrences of the same tuple: the paper treats the delta as the
    symmetric difference produced by the backend, which never reports both
    signs for one tuple, but IMP's operator rules are correct either way.

    A commit freezes its delta (:meth:`freeze`) and the table's pending
    queue, the audit log and a one-record maintenance window share it: its
    mutators raise :class:`StorageError`, and its counts and
    :meth:`signed_entries` are computed once.
    """

    __slots__ = ("schema", "_inserts", "_deletes", "_counts", "_signed")

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._inserts: dict[Row, int] = {}
        self._deletes: dict[Row, int] = {}
        # (insert_count, delete_count) once frozen; None while mutable.
        self._counts: tuple[int, int] | None = None
        self._signed: tuple[list[Row], list[int]] | None = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        inserts: Iterable[Row] = (),
        deletes: Iterable[Row] = (),
    ) -> "Delta":
        """Build a delta from plain row iterables: each bag is counted at C
        speed, in first-occurrence order, and its arity checked once."""
        delta = cls(schema)
        delta._inserts = _counted(schema, inserts)
        delta._deletes = _counted(schema, deletes)
        return delta

    @classmethod
    def union(cls, schema: Schema, deltas: Iterable["Delta"]) -> "Delta":
        """The bag sum of ``deltas`` (a window of commits), frozen: each bag
        is one ``dict.update`` per delta, which reuses the stored row hashes;
        no row is checked again, only each delta's arity.

        A row held by several deltas' bags keeps its first position and gets
        the sum of its counts.  The union sees one by a length check and only
        then sums that bag row by row.
        """
        deltas = list(deltas)
        arity = len(schema)
        if any(len(delta.schema) != arity for delta in deltas):
            raise SchemaError("cannot combine deltas with different arities")
        union = cls(schema)
        union._inserts = _bag_sum([delta._inserts for delta in deltas])
        union._deletes = _bag_sum([delta._deletes for delta in deltas])
        return union.freeze()

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

    def freeze(self) -> "Delta":
        """Make this delta immutable (idempotent); return it."""
        if self._counts is None:
            self._counts = (sum(self._inserts.values()), sum(self._deletes.values()))
        return self

    def compacted(self) -> "Delta":
        """Cancel matching insert/delete pairs, keeping only the net effect.

        A row inserted by one update and deleted again by a later update in
        the same merged window contributes nothing to the net delta; a
        sequence of updates compacts to one signed occurrence per row.  The
        incremental operators are linear in the delta, so feeding them the
        compacted delta yields the same state and sketch as replaying every
        intermediate change -- in time proportional to the *net* delta
        (DBToaster-style shared delta processing).

        Only the rows in both bags change: one ``keys() & keys()`` finds
        them, looking each row of the smaller bag up in the larger, and they
        are fixed on C-level copies of the bags, so every other entry keeps
        its count and its position.  The result is a new, frozen delta; when
        no row is in both bags it shares the bags of a frozen ``self``
        instead of copying them.
        """
        compact = Delta(self.schema)
        inserts, deletes = self._inserts, self._deletes
        both = inserts.keys() & deletes.keys()
        if both or self._counts is None:
            inserts, deletes = dict(inserts), dict(deletes)
        for row in both:
            net = inserts[row] - deletes[row]
            if net > 0:
                inserts[row] = net
                del deletes[row]
            elif net < 0:
                deletes[row] = -net
                del inserts[row]
            else:
                del inserts[row], deletes[row]
        compact._inserts, compact._deletes = inserts, deletes
        return compact.freeze()

    def _check(self, row: Row, multiplicity: int) -> None:
        self._check_mutable()
        if len(row) != len(self.schema):
            raise SchemaError(
                f"delta row arity {len(row)} does not match schema arity {len(self.schema)}"
            )
        if multiplicity <= 0:
            raise ValueError("multiplicity must be positive")

    def _check_mutable(self) -> None:
        if self._counts is not None:
            raise StorageError("a committed delta is frozen: build a new Delta instead")

    # -- queries -----------------------------------------------------------------

    def inserts(self) -> Iterator[tuple[Row, int]]:
        """Iterate over inserted rows with multiplicities."""
        return iter(self._inserts.items())

    def deletes(self) -> Iterator[tuple[Row, int]]:
        """Iterate over deleted rows with multiplicities."""
        return iter(self._deletes.items())

    def signed_entries(self) -> tuple[list[Row], list[int]]:
        """Parallel lists of rows and signed counts: the inserts (positive),
        then the deletes (negative), each bag in its own order.

        A frozen delta builds them once and hands every caller the same two
        lists, which callers must not modify."""
        signed = self._signed
        if signed is None:
            signed = (
                [*self._inserts, *self._deletes],
                [*self._inserts.values(), *map(neg, self._deletes.values())],
            )
            if self._counts is not None:
                self._signed = signed
        return signed

    def inserted_rows(self) -> KeysView[Row]:
        """The distinct inserted rows (a view, not a copy)."""
        return self._inserts.keys()

    @property
    def insert_count(self) -> int:
        """Total number of inserted tuples (with multiplicities)."""
        if self._counts is not None:
            return self._counts[0]
        return sum(self._inserts.values())

    @property
    def delete_count(self) -> int:
        """Total number of deleted tuples (with multiplicities)."""
        if self._counts is not None:
            return self._counts[1]
        return sum(self._deletes.values())

    def __len__(self) -> int:
        return self.insert_count + self.delete_count

    def __bool__(self) -> bool:
        return bool(self._inserts or self._deletes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delta(+{self.insert_count}/-{self.delete_count})"


def _bag_sum(bags: list[dict[Row, int]]) -> dict[Row, int]:
    """The sum of ``bags``, each row at its first position: one C-level
    ``update`` per bag, then a per-row sum only if a row repeats."""
    total: dict[Row, int] = {}
    for bag in bags:
        total.update(bag)
    if len(total) == sum(map(len, bags)):
        return total
    total = {}
    held = total.get
    for bag in bags:
        for row, count in bag.items():
            total[row] = held(row, 0) + count
    return total


def _counted(schema: Schema, rows: Iterable[Row]) -> dict[Row, int]:
    """``rows`` as a bag: the first occurrence of each row keyed to its count.

    Raises :class:`SchemaError` -- naming the first offending row -- for a
    row of another arity than ``schema`` or one holding an unhashable value.
    """
    rows = list(map(tuple, rows))
    try:
        bag = dict(Counter(rows))
    except TypeError:
        for row in rows:
            try:
                hash(row)
            except TypeError:
                raise SchemaError(f"row {row!r} holds an unhashable value") from None
        raise
    arity = len(schema)
    if bag and set(map(len, bag)) != {arity}:
        bad = next(len(row) for row in bag if len(row) != arity)
        raise SchemaError(f"delta row arity {bad} does not match schema arity {arity}")
    return bag


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
