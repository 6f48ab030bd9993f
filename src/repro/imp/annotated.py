"""Sketch-annotated delta relations.

The incremental operators exchange *annotated deltas*: bags of signed tuples
``Δ+/Δ- ⟨t, P⟩`` where ``P`` is the partial provenance sketch of ``t`` over the
global fragment identifiers of the database partition (paper Sec. 4.3).  The
layout is IMP's (Sec. 7.1): data in one column, the sketch annotations in a
separate column of bit sets -- here three parallel lists per delta.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import compress
from operator import itemgetter

from repro.relational.columnar import LazyColumns
from repro.relational.schema import Row, Schema


class AnnotatedDelta:
    """A bag of signed annotated tuples over one schema, stored column-wise.

    Entry ``i`` is the tuple ``rows[i]`` annotated with the fragment bit mask
    ``annotations[i]`` (a plain ``int``, like a sketch's ``mask``) occurring
    ``counts[i]`` times: positive counts are insertions (``Δ+``), negative
    counts deletions (``Δ-``).  Entries are not merged -- every operator is
    linear in the counts; only the join calls :meth:`consolidated` -- and their
    order is the order the child produced them in, which is what float
    accumulators add in.
    """

    __slots__ = ("schema", "rows", "annotations", "counts")

    def __init__(
        self,
        schema: Schema,
        rows: list[Row] | None = None,
        annotations: list[int] | None = None,
        counts: list[int] | None = None,
    ) -> None:
        self.schema = schema
        self.rows = [] if rows is None else rows
        self.annotations = [] if annotations is None else annotations
        self.counts = [] if counts is None else counts

    def append(self, row: Row, annotation: int, count: int) -> None:
        """Add ``count`` (signed, non-zero) occurrences of an annotated tuple."""
        self.rows.append(row)
        self.annotations.append(annotation)
        self.counts.append(count)

    def entries(self) -> Iterator[tuple[Row, int, int]]:
        """Iterate over ``(row, annotation mask, signed count)`` triples."""
        return zip(self.rows, self.annotations, self.counts)

    def columns(self) -> LazyColumns:
        """The rows pivoted into value columns (input of batch expressions),
        each column built when an expression first reads it."""
        rows = self.rows
        return LazyColumns(
            len(self.schema), lambda position: list(map(itemgetter(position), rows))
        )

    def filter(self, keep: Iterable[object]) -> "AnnotatedDelta":
        """The entries whose ``keep`` value is truthy."""
        keep = list(keep)
        return AnnotatedDelta(
            self.schema,
            list(compress(self.rows, keep)),
            list(compress(self.annotations, keep)),
            list(compress(self.counts, keep)),
        )

    def with_rows(self, schema: Schema, rows: list[Row]) -> "AnnotatedDelta":
        """Copies of the annotations and counts beside new (projected) rows."""
        return AnnotatedDelta(schema, rows, list(self.annotations), list(self.counts))

    def consolidated(self) -> "AnnotatedDelta":
        """One entry per ``(row, annotation)`` holding the summed count, in
        first-occurrence order; entries whose counts cancel are dropped."""
        totals: dict[tuple[Row, int], int] = {}
        for key, count in zip(zip(self.rows, self.annotations), self.counts):
            total = totals.get(key, 0) + count
            if total:
                totals[key] = total
            else:
                del totals[key]
        if not totals:
            return AnnotatedDelta(self.schema)
        rows, annotations = map(list, zip(*totals))
        return AnnotatedDelta(self.schema, rows, annotations, list(totals.values()))

    @property
    def insert_count(self) -> int:
        """Number of inserted tuples (with multiplicities)."""
        return sum(count for count in self.counts if count > 0)

    @property
    def delete_count(self) -> int:
        """Number of deleted tuples (with multiplicities)."""
        return -sum(count for count in self.counts if count < 0)

    def __len__(self) -> int:
        """Number of delta tuples (with multiplicities, both signs)."""
        return sum(map(abs, self.counts))

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnnotatedDelta(+{self.insert_count}/-{self.delete_count})"
