"""Provenance sketches and sketch deltas.

A provenance sketch (paper Def. 4.2) is a subset of the ranges of a database
partition ``Φ`` whose fragments cover the provenance of a query.  Sketches are
encoded as bitvectors over the global fragment identifiers of the partition
(Sec. 7.1) which keeps them small -- hundreds of bytes even for partitions
with tens of thousands of ranges (Fig. 18).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.core.errors import SketchError
from repro.sketch.ranges import DatabasePartition, Range


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask`` in ascending order.

    Peels the lowest set bit per step, so the cost is proportional to the
    number of set bits, not to the position of the highest one.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SketchDelta:
    """Changes to a sketch: global fragment ids to insert and to delete."""

    added: frozenset[int] = frozenset()
    removed: frozenset[int] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    def __len__(self) -> int:
        return len(self.added) + len(self.removed)

    @staticmethod
    def empty() -> "SketchDelta":
        """A delta that changes nothing."""
        return SketchDelta()

    def merge(self, other: "SketchDelta") -> "SketchDelta":
        """Compose two deltas applied in sequence (later wins on conflicts)."""
        added = (set(self.added) - set(other.removed)) | set(other.added)
        removed = (set(self.removed) - set(other.added)) | set(other.removed)
        return SketchDelta(frozenset(added), frozenset(removed))


class ProvenanceSketch:
    """A provenance sketch over a :class:`DatabasePartition`.

    The sketch is the bitvector ``mask``: bit ``i`` is set iff the fragment
    with global id ``i`` belongs to it (Sec. 7.1).  Sketches are treated as
    immutable by IMP's middleware (new versions are created by
    :meth:`apply_delta`), but the class also offers in-place mutation for the
    internal bookkeeping of the incremental engine.
    """

    def __init__(self, partition: DatabasePartition, fragments: Iterable[int] = ()) -> None:
        self.partition = partition
        self.mask = 0
        for global_id in fragments:
            self.add(global_id)

    # -- constructors -------------------------------------------------------------

    @classmethod
    def empty(cls, partition: DatabasePartition) -> "ProvenanceSketch":
        """An empty sketch (covers no data)."""
        return cls(partition)

    @classmethod
    def full(cls, partition: DatabasePartition) -> "ProvenanceSketch":
        """A sketch containing every range (covers every non-NULL, non-NaN
        value of the partitioned tables)."""
        return cls.of_mask(partition, (1 << partition.total_fragments) - 1)

    @classmethod
    def of_mask(cls, partition: DatabasePartition, mask: int) -> "ProvenanceSketch":
        """The sketch whose fragments are the set bits of ``mask``."""
        sketch = cls(partition)
        sketch.mask = mask
        return sketch

    def copy(self) -> "ProvenanceSketch":
        """An independent copy."""
        return ProvenanceSketch.of_mask(self.partition, self.mask)

    # -- membership ----------------------------------------------------------------

    def add(self, global_id: int) -> None:
        """Add a fragment by global id (a range's or a table's outside id)."""
        ids = self.partition.total_fragments + len(self.partition)
        if not 0 <= global_id < ids:
            raise SketchError(f"fragment id {global_id} outside the partition with {ids} ids")
        self.mask |= 1 << global_id

    def discard(self, global_id: int) -> None:
        """Remove a fragment by global id (no error when absent)."""
        if global_id >= 0:
            self.mask &= ~(1 << global_id)

    def __contains__(self, global_id: int) -> bool:
        return global_id >= 0 and bool(self.mask >> global_id & 1)

    def contains_fragment(self, table: str, fragment_index: int) -> bool:
        """Whether the fragment of ``table`` with local index is in the sketch."""
        return self.partition.global_id(table, fragment_index) in self

    def __len__(self) -> int:
        """Number of fragments in the sketch."""
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvenanceSketch):
            return NotImplemented
        return self.partition is other.partition and self.mask == other.mask

    def __hash__(self) -> int:  # pragma: no cover - sketches are not dict keys
        return hash((id(self.partition), self.mask))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProvenanceSketch({list(self.fragment_ids())})"

    def fragment_ids(self) -> Iterator[int]:
        """Iterate over global fragment ids in the sketch, ascending."""
        return iter_bits(self.mask)

    # -- per-table views ---------------------------------------------------------------

    def ranges_for(self, table: str) -> list[Range]:
        """The ranges of ``table`` contained in the sketch."""
        if not self.partition.has_table(table):
            return []
        partition = self.partition.partition_of(table)
        result = []
        for local_index in range(partition.num_fragments):
            if self.contains_fragment(table, local_index):
                result.append(partition.range_at(local_index))
        return result

    def merged_ranges_for(self, table: str) -> list[tuple[float, float, bool]]:
        """Sketch ranges of ``table`` with adjacent ranges coalesced.

        Returns ``(low, high, closed_high)`` triples; the use rewrite turns
        each into one BETWEEN condition (footnote 2 of the paper).
        """
        ranges = self.ranges_for(table)
        if not ranges:
            return []
        merged: list[tuple[float, float, bool]] = []
        current_low, current_high, current_closed = (
            ranges[0].low,
            ranges[0].high,
            ranges[0].closed_high,
        )
        previous_index = ranges[0].index
        for entry in ranges[1:]:
            if entry.index == previous_index + 1:
                current_high = entry.high
                current_closed = entry.closed_high
            else:
                merged.append((current_low, current_high, current_closed))
                current_low, current_high, current_closed = (
                    entry.low,
                    entry.high,
                    entry.closed_high,
                )
            previous_index = entry.index
        merged.append((current_low, current_high, current_closed))
        return merged

    # -- set relations -------------------------------------------------------------------

    def union(self, other: "ProvenanceSketch") -> "ProvenanceSketch":
        """Union of two sketches over the same partition."""
        self._check_same_partition(other)
        return ProvenanceSketch.of_mask(self.partition, self.mask | other.mask)

    def is_superset_of(self, other: "ProvenanceSketch") -> bool:
        """Whether this sketch over-approximates ``other``."""
        self._check_same_partition(other)
        return other.mask & ~self.mask == 0

    def covers(self, table: str, value: float) -> bool:
        """Whether the tuple with ``value`` in the partition attribute is covered."""
        return self.partition.fragment_of(table, value) in self

    def _check_same_partition(self, other: "ProvenanceSketch") -> None:
        if self.partition is not other.partition:
            raise SketchError("sketches are defined over different partitions")

    # -- deltas --------------------------------------------------------------------------

    def delta_to(self, other: "ProvenanceSketch") -> SketchDelta:
        """The delta that transforms this sketch into ``other``."""
        self._check_same_partition(other)
        added = frozenset(iter_bits(other.mask & ~self.mask))
        removed = frozenset(iter_bits(self.mask & ~other.mask))
        return SketchDelta(added, removed)

    def apply_delta(self, delta: SketchDelta) -> "ProvenanceSketch":
        """Return a new sketch with ``delta`` applied (sketches are immutable)."""
        result = self.copy()
        for fragment in delta.removed:
            result.discard(fragment)
        for fragment in delta.added:
            result.add(fragment)
        return result

    # -- memory ---------------------------------------------------------------------------

    def byte_size(self) -> int:
        """Physical size of the sketch bitvector in bytes (Fig. 18)."""
        width = (self.partition.total_fragments + 7) // 8
        return max(width, 1) + 8
