"""Sketch-annotated delta relations.

The incremental operators exchange *annotated deltas*: bags of signed tuples
``Δ+/Δ- ⟨t, P⟩`` where ``P`` is the partial provenance sketch of ``t`` over the
global fragment identifiers of the database partition (paper Sec. 4.3).  The
layout is IMP's (Sec. 7.1): data in columns, the sketch annotations in a
separate column of bit sets.  An annotated delta is therefore a
:class:`~repro.relational.columnar.ColumnBatch` -- the query engine's bag --
whose multiplicities are the signed counts and whose last column holds the
annotations, so the engine's filter and projection kernels, ``consolidate``
and lazy columns carry the annotations with no code of their own.

Merging follows the batch's one rule
(:func:`~repro.relational.columnar.merged_counts`): entries with equal rows
*and* annotations sum their counts under the first occurrence, and a pair
whose total reaches zero is dropped and re-enters at its next occurrence.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from operator import itemgetter

from repro.relational.columnar import ColumnBatch, LazyColumns
from repro.relational.schema import Row, Schema


class AnnotatedDelta(ColumnBatch):
    """A bag of signed annotated tuples over one schema, stored column-wise.

    ``columns`` holds one value column per attribute of ``schema`` and then
    the annotation column: entry ``i`` is the tuple of the value columns at
    ``i``, annotated with the fragment bit mask ``annotations[i]`` (a plain
    ``int``, like a sketch's ``mask``), occurring ``multiplicities[i]`` times:
    positive counts are insertions (``Δ+``), negative counts deletions
    (``Δ-``).  ``len()`` is the number of entries, as for any batch, and
    :attr:`tuple_count` the number of tuples.  Entries are not merged --
    every operator is linear in the counts; only the join consolidates -- and
    their order is the order the child produced them in, which is what float
    accumulators add in.
    """

    __slots__ = ()

    @classmethod
    def empty(cls, schema: Schema) -> "AnnotatedDelta":
        """An empty delta over ``schema``."""
        return cls(schema, ([] for _ in range(len(schema) + 1)), [], consolidated=True)

    @classmethod
    def annotate(
        cls,
        schema: Schema,
        value_column: Callable[[int], list],
        annotations: list[int],
        counts: list[int],
        consolidated: bool = False,
    ) -> "AnnotatedDelta":
        """The entries of signed ``counts``, annotated with the parallel
        ``annotations``, whose value column at ``position`` is
        ``value_column(position)``, built when first read
        (:class:`~repro.relational.columnar.LazyColumns`)."""
        width = len(schema)
        columns = LazyColumns(
            width + 1, lambda at: annotations if at == width else value_column(at)
        )
        return cls(schema, columns, counts, consolidated)

    @classmethod
    def from_rows(
        cls, schema: Schema, rows: list[Row], annotations: list[int], counts: list[int]
    ) -> "AnnotatedDelta":
        """Parallel lists of rows, annotations and signed counts as a delta,
        each value column pivoted from the rows when first read."""
        return cls.annotate(
            schema, lambda position: list(map(itemgetter(position), rows)), annotations, counts
        )

    @property
    def annotations(self) -> list[int]:
        """The annotation column."""
        return self.columns[len(self.schema)]

    def rows(self) -> list[Row]:
        """The value tuples of the entries, in entry order."""
        width = len(self.schema)
        if not width:
            return [()] * len(self)
        return list(zip(*(self.columns[position] for position in range(width))))

    def entries(self) -> Iterator[tuple[Row, int, int]]:
        """Iterate over ``(row, annotation mask, signed count)`` triples."""
        return zip(self.rows(), self.annotations, self.multiplicities)

    @property
    def tuple_count(self) -> int:
        """Number of delta tuples (with multiplicities, both signs)."""
        return sum(map(abs, self.multiplicities))
