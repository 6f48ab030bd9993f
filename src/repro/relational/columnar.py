"""Columnar batches: the data representation of the query engine.

A :class:`ColumnBatch` holds the same bag of tuples as a
:class:`~repro.relational.schema.Relation`, but pivoted: one Python list per
attribute (parallel value columns) plus a parallel multiplicity list.  The
operator kernels (:mod:`repro.relational.kernels`) and the batch-compiled
expressions (``Expression.compile_batch``) run whole-column loops over this
layout instead of dispatching per row; every plan node runs on it, and a
:class:`Relation` is only made from the root batch of a query.

Batches are immutable by convention: kernels never mutate the column lists of
an input batch, they build new lists (or share input lists unchanged, e.g. a
projection of plain column references).  This is what allows
:meth:`repro.storage.table.StoredTable.as_column_batch` to keep one batch per
table version and hand the *same* object to every scan; the next version's
batch is a copy of the lists brought forward by the committed deltas
(:class:`SlotMap`), never an edit of lists a reader may still hold.

Those per-version table batches (and snapshots) are fully materialised.  The
batches one query evaluation derives and owns -- the pivot of an index range
scan, the output of a filter -- are *lazy*: entry count, order, multiplicities
and the ``consolidated`` flag are fixed at construction, but a value column is
built when something first reads it (:class:`LazyColumns`), so an aggregate
over two attributes of an eleven-column table builds two columns.

Entries are ``(row, multiplicity)`` pairs exactly like ``Relation.items()``;
a batch may carry duplicate rows (e.g. after a projection).  A batch whose
entries are known to be distinct is flagged ``consolidated`` -- conversions
and grouping kernels use the flag to skip the duplicate-merge pass.  The
entry *order* of a batch is part of its value: float aggregates accumulate in
entry order and LIMIT ties are cut in it.  A table batch lists the rows in
arrival order, each kernel states the order of its output, and consolidation
keeps first occurrences in place -- which is the order the row oracle's
``Relation`` dicts take on, so the two agree bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import count
from operator import itemgetter

from repro.relational.schema import Relation, Row, Schema


class LazyColumns:
    """The columns of a per-query batch, each built when first read.

    ``build(position)`` produces one column from whatever the batch was
    derived from (the row tuples an index scan fetched, the columns and mask
    of a filter); it runs at most once per position.  Indexing builds that
    column, iterating builds the missing ones, and once the last column
    exists ``build`` -- and with it the source it closes over -- is dropped,
    so a fully read batch holds its own lists and nothing else.

    Building is not synchronised: a lazy batch belongs to the one query
    evaluation that made it.  Batches shared between threads (the per-version
    table batch, snapshots) are built eagerly and never use this class.
    """

    __slots__ = ("_built", "_build")

    def __init__(self, arity: int, build: Callable[[int], list]) -> None:
        self._built: list[list | None] = [None] * arity
        self._build = build if arity else None

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, position: int) -> list:
        column = self._built[position]
        if column is None:
            column = self._built[position] = self._build(position)
            if None not in self._built:
                self._build = None
        return column

    def __iter__(self) -> Iterator[list]:
        if self._build is not None:
            for position in range(len(self._built)):
                self[position]
        return iter(self._built)


class ColumnBatch:
    """A bag of tuples stored column-wise with a parallel multiplicity list."""

    __slots__ = ("schema", "columns", "multiplicities", "consolidated")

    def __init__(
        self,
        schema: Schema,
        columns: Iterable[list],
        multiplicities: list[int],
        consolidated: bool = False,
    ) -> None:
        self.schema = schema
        self.columns: Sequence[list] = (
            columns if type(columns) is LazyColumns else tuple(columns)
        )
        self.multiplicities = multiplicities
        self.consolidated = consolidated

    # -- construction ----------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "ColumnBatch":
        """An empty batch over ``schema``."""
        return cls(schema, ([] for _ in range(len(schema))), [], consolidated=True)

    @classmethod
    def from_items(
        cls,
        schema: Schema,
        items: Iterable[tuple[Row, int]],
        consolidated: bool = False,
    ) -> "ColumnBatch":
        """Pivot ``(row, multiplicity)`` pairs into a batch.

        Pass ``consolidated=True`` only when the rows are known distinct
        (e.g. items of a :class:`Relation` bag).
        """
        pairs = items if isinstance(items, list) else list(items)
        if pairs:
            rows, multiplicities = zip(*pairs)
            columns: Iterable[list] = (list(column) for column in zip(*rows))
            return cls(schema, columns, list(multiplicities), consolidated)
        return cls(schema, ([] for _ in range(len(schema))), [], consolidated)

    @classmethod
    def from_fetched_rows(
        cls,
        schema: Schema,
        rows: list[Row],
        multiplicities: list[int],
        consolidated: bool = False,
    ) -> "ColumnBatch":
        """The per-query pivot of fetched rows and their parallel multiplicities.

        The entries of :meth:`from_items` over ``zip(rows, multiplicities)``,
        but the row tuples are kept and a column is extracted only when
        something reads it (see :class:`LazyColumns`), so a plan that touches
        two attributes of a wide table never builds the others.  For batches
        one evaluation owns (the index range scan's); a batch that is cached
        or shared uses :meth:`from_items`.
        """
        columns = LazyColumns(
            len(schema), lambda position: list(map(itemgetter(position), rows))
        )
        return cls(schema, columns, multiplicities, consolidated)

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        """Number of entries (distinct only when ``consolidated``)."""
        return len(self.multiplicities)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnBatch(schema={list(self.schema)}, entries={len(self)}, "
            f"consolidated={self.consolidated})"
        )

    def row_tuples(self) -> list[Row]:
        """The entries as row tuples, in entry order (one C-level pivot)."""
        if not self.columns:
            return [()] * len(self.multiplicities)
        return list(zip(*self.columns))

    # -- conversion ------------------------------------------------------------

    def relabel(self, schema: Schema) -> "ColumnBatch":
        """The same entries under a different schema (columns are shared).

        Used by table scans to alias-qualify the cached per-table batch
        without copying it; arities must match.
        """
        return ColumnBatch(schema, self.columns, self.multiplicities, self.consolidated)

    def consolidate(self) -> "ColumnBatch":
        """A batch with duplicate rows merged (multiplicities summed).

        First-occurrence order is kept: a merged row stays where it first
        appeared.  Without duplicates the result shares this batch's lists.
        """
        if self.consolidated:
            return self
        counts = self._merged_counts()
        if len(counts) == len(self.multiplicities):
            # Nothing merged: the same entries, now known to be distinct.
            return ColumnBatch(self.schema, self.columns, self.multiplicities, consolidated=True)
        if counts:
            columns: Iterable[list] = (list(column) for column in zip(*counts))
        else:
            columns = ([] for _ in range(len(self.schema)))
        return ColumnBatch(self.schema, columns, list(counts.values()), consolidated=True)

    def to_relation(self) -> Relation:
        """The batch as a :class:`Relation` (the result of a query)."""
        if self.consolidated:
            counts = dict(zip(self.row_tuples(), self.multiplicities))
        else:
            counts = self._merged_counts()
        return Relation.from_counts(self.schema, counts)

    def _merged_counts(self) -> dict[Row, int]:
        """Entries merged into a ``row -> multiplicity`` mapping, each row at
        its first occurrence.

        When every multiplicity is 1 (say, a projection of a table's distinct
        rows), ``Counter`` counts the rows at C speed, duplicates or not.
        Otherwise the dict is built in one C-level ``dict(zip(...))``, and only
        when its length reveals duplicate rows (whose multiplicities the zip
        overwrote) are they merged by a per-row loop.  Either way a dict keeps
        each row at its first occurrence, under its first spelling.
        """
        rows = self.row_tuples()
        multiplicities = self.multiplicities
        if multiplicities.count(1) == len(multiplicities):
            return dict(Counter(rows))
        counts = dict(zip(rows, multiplicities))
        if len(counts) != len(rows):
            counts = {}
            get = counts.get
            for row, multiplicity in zip(rows, multiplicities):
                counts[row] = get(row, 0) + multiplicity
        return counts


class SlotMap:
    """Which entry of a consolidated batch holds which row.

    Rows are numbered in arrival order (``sequence_of[row]``) and
    ``sequences`` lists the numbers of the live entries, ascending: entry
    ``i`` of the batch is the row numbered ``sequences[i]``, so a row's slot is
    one bisect away and removing an entry renumbers no other.  This is the
    private, mutable companion of an immutable :class:`ColumnBatch`:
    :meth:`apply` brings column lists the caller owns (fresh copies of a
    published batch's lists) forward by one bag delta and keeps the map in
    step.
    """

    __slots__ = ("sequence_of", "sequences", "next_sequence")

    def __init__(self, rows: Iterable[Row]) -> None:
        """Number the distinct ``rows`` of a batch in entry order."""
        self.sequence_of: dict[Row, int] = dict(zip(rows, count()))
        self.next_sequence = len(self.sequence_of)
        self.sequences = list(range(self.next_sequence))

    def rows(self) -> list[Row]:
        """The rows in entry order."""
        return list(self.sequence_of)

    def apply(
        self,
        columns: Sequence[list],
        multiplicities: list[int],
        deletes: Iterable[tuple[Row, int]],
        inserts: Iterable[tuple[Row, int]],
    ) -> None:
        """Apply a bag delta in place: deletes first, then inserts.

        A delete lowers the entry's multiplicity and removes the entry once
        it reaches zero; an insert raises the multiplicity of the row's entry
        or appends a new one.  Removal closes the gap (``del list[slot]``, a
        C-level shift of the tail), so entries stay in arrival order -- the
        order of the stored table's row dict and of its index buckets, which
        is what keeps every access path bit-identical on float aggregates.
        Python-level work is per delta tuple, never per table row.  Every
        delete must be covered by the entries, as committed deltas are.
        ``columns`` may be empty when only rows and multiplicities are wanted.
        """
        sequence_of = self.sequence_of
        sequences = self.sequences
        for row, amount in deletes:
            slot = bisect_left(sequences, sequence_of[row])
            remaining = multiplicities[slot] - amount
            if remaining > 0:
                multiplicities[slot] = remaining
                continue
            del sequence_of[row]
            del sequences[slot]
            del multiplicities[slot]
            for column in columns:
                del column[slot]
        for row, amount in inserts:
            sequence = sequence_of.get(row)
            if sequence is None:
                sequence_of[row] = self.next_sequence
                sequences.append(self.next_sequence)
                self.next_sequence += 1
                multiplicities.append(amount)
                for column, value in zip(columns, row):
                    column.append(value)
            else:
                multiplicities[bisect_left(sequences, sequence)] += amount
