"""Range partitions of tables and databases.

A range partition (paper Def. 4.1) divides the domain of a partition attribute
into disjoint intervals that together cover the whole domain.  Tuples belong to
the fragment whose interval contains their attribute value; provenance sketches
record which fragments overlap a query's provenance.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from operator import eq

from repro.core.errors import SketchError


@dataclass(frozen=True)
class Range:
    """A half-open interval ``[low, high)``; the last range of a partition is
    closed on both ends so the partition covers the full domain."""

    low: float
    high: float
    index: int
    closed_high: bool = False

    def contains(self, value: float) -> bool:
        """Whether ``value`` falls into this range."""
        if value < self.low:
            return False
        if self.closed_high:
            return value <= self.high
        return value < self.high

    def __str__(self) -> str:
        bracket = "]" if self.closed_high else ")"
        return f"[{self.low}, {self.high}{bracket}"


class RangePartition:
    """A range partition of one table attribute (``φ`` in the paper).

    Ranges are stored as an ordered boundary list (``n + 1`` boundaries for
    ``n`` ranges) which is also how the paper reports the memory footprint of
    ranges (Fig. 18).  Fragment lookup uses binary search, mirroring the
    specialised binary-search function the capture queries of [37] rely on.
    """

    def __init__(self, table: str, attribute: str, boundaries: Sequence[float]) -> None:
        if len(boundaries) < 2:
            raise SketchError("a range partition requires at least two boundaries")
        cleaned: list[float] = []
        for boundary in boundaries:
            value = float(boundary)
            if cleaned and value < cleaned[-1]:
                raise SketchError("partition boundaries must be non-decreasing")
            if not cleaned or value > cleaned[-1]:
                cleaned.append(value)
        if len(cleaned) < 2:
            raise SketchError("partition boundaries collapse to a single point")
        self.table = table.lower()
        self.attribute = attribute
        self._boundaries = cleaned

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_boundaries(
        cls,
        table: str,
        attribute: str,
        boundaries: Sequence[float],
        cover_domain: bool = True,
    ) -> "RangePartition":
        """Build a partition from histogram boundaries.

        With ``cover_domain`` the first and last boundary are stretched to the
        whole attribute domain (the paper generates ranges covering the full
        domain, not just the active domain, Sec. 7.4).
        """
        values = [float(b) for b in boundaries]
        if cover_domain and values:
            values[0] = -math.inf
            values[-1] = math.inf
        return cls(table, attribute, values)

    @classmethod
    def equi_width(
        cls,
        table: str,
        attribute: str,
        low: float,
        high: float,
        num_fragments: int,
        cover_domain: bool = True,
    ) -> "RangePartition":
        """An equi-width partition of ``[low, high]`` into ``num_fragments`` ranges."""
        if num_fragments <= 0:
            raise SketchError("num_fragments must be positive")
        width = (high - low) / num_fragments if high > low else 1.0
        boundaries = [low + i * width for i in range(num_fragments)] + [high]
        return cls.from_boundaries(table, attribute, boundaries, cover_domain)

    # -- inspection -----------------------------------------------------------------

    @property
    def boundaries(self) -> list[float]:
        """The ordered boundary list (``num_fragments + 1`` values)."""
        return list(self._boundaries)

    @property
    def num_fragments(self) -> int:
        """Number of ranges in the partition."""
        return len(self._boundaries) - 1

    def __len__(self) -> int:
        return self.num_fragments

    def ranges(self) -> Iterator[Range]:
        """Iterate over the ranges in order."""
        last = self.num_fragments - 1
        for i in range(self.num_fragments):
            yield Range(
                self._boundaries[i],
                self._boundaries[i + 1],
                index=i,
                closed_high=(i == last),
            )

    def range_at(self, index: int) -> Range:
        """The range with the given fragment index."""
        if not 0 <= index < self.num_fragments:
            raise SketchError(f"fragment index {index} out of bounds")
        return Range(
            self._boundaries[index],
            self._boundaries[index + 1],
            index=index,
            closed_high=(index == self.num_fragments - 1),
        )

    def fragment_of(self, value: float) -> int:
        """Fragment index containing ``value`` (binary search over boundaries)."""
        if value is None:
            raise SketchError(
                f"NULL value has no fragment in partition on {self.table}.{self.attribute}"
            )
        if value < self._boundaries[0] or value > self._boundaries[-1]:
            raise self._outside_domain(value)
        index = bisect.bisect_right(self._boundaries, value) - 1
        return min(index, self.num_fragments - 1)

    def _outside_domain(self, value: float) -> SketchError:
        return SketchError(
            f"value {value!r} outside the domain of partition on "
            f"{self.table}.{self.attribute}"
        )

    def fragments_of(self, values: Iterable[float | None], offset: int = 0) -> list[int | None]:
        """Batch :meth:`fragment_of`: ``offset`` + fragment index per value.

        A NULL value belongs to no fragment (``None``); a value outside the
        partition's domain raises like the per-value lookup.
        """
        values = list(values)
        present = [v for v in values if v is not None] if None in values else values
        boundaries = self._boundaries
        end = len(boundaries)
        positions = list(map(partial(bisect.bisect_right, boundaries), present))
        # A position is 0 below the domain and ``end`` from its upper bound on,
        # which the last fragment includes.
        if 0 in positions:
            raise self._outside_domain(present[positions.index(0)])
        high = boundaries[-1]
        for value in compress(present, map(eq, positions, repeat(end))):
            if value > high:
                raise self._outside_domain(value)
        shift, last = offset - 1, offset + self.num_fragments - 1
        fragments = [position + shift if position < end else last for position in positions]
        if present is values:
            return fragments
        next_fragment = iter(fragments).__next__
        return [None if value is None else next_fragment() for value in values]

    def byte_size(self) -> int:
        """Memory footprint of the boundary list (Fig. 18, "Memory of Ranges")."""
        return sys.getsizeof(self._boundaries) + sum(
            sys.getsizeof(b) for b in self._boundaries
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RangePartition({self.table}.{self.attribute}, "
            f"fragments={self.num_fragments})"
        )

    def split_range(self, index: int) -> "RangePartition":
        """Return a new partition where fragment ``index`` is split in half.

        Supports the adaptive re-partitioning discussed in Sec. 7.4; sketches
        referencing the split range must be updated to contain both halves
        (see :meth:`repro.sketch.sketch.ProvenanceSketch.rebase`).
        """
        target = self.range_at(index)
        low = target.low if math.isfinite(target.low) else self._boundaries[1] - 1.0
        high = target.high if math.isfinite(target.high) else self._boundaries[-2] + 1.0
        midpoint = (low + high) / 2
        boundaries = list(self._boundaries)
        boundaries.insert(index + 1, midpoint)
        return RangePartition(self.table, self.attribute, boundaries)

    def merge_ranges(self, index: int) -> "RangePartition":
        """Return a new partition where fragments ``index`` and ``index + 1`` merge."""
        if index + 1 >= self.num_fragments:
            raise SketchError("cannot merge the last fragment with its successor")
        boundaries = list(self._boundaries)
        del boundaries[index + 1]
        return RangePartition(self.table, self.attribute, boundaries)


class DatabasePartition:
    """A set of per-table range partitions (``Φ`` in the paper).

    Every range of every member partition is assigned a global fragment
    identifier, so a provenance sketch over ``Φ`` can be stored as a single
    bitvector even when the query accesses several partitioned tables.
    """

    def __init__(self, partitions: Iterable[RangePartition] = ()) -> None:
        self._partitions: dict[str, RangePartition] = {}
        self._offsets: dict[str, int] = {}
        self._total = 0
        for partition in partitions:
            self.add(partition)

    def add(self, partition: RangePartition) -> None:
        """Register the partition of one table."""
        if partition.table in self._partitions:
            raise SketchError(f"table {partition.table!r} already has a partition")
        self._partitions[partition.table] = partition
        self._offsets[partition.table] = self._total
        self._total += partition.num_fragments

    # -- lookup ---------------------------------------------------------------------

    def tables(self) -> list[str]:
        """Names of partitioned tables."""
        return list(self._partitions)

    def has_table(self, table: str) -> bool:
        """Whether ``table`` has a partition registered."""
        return table.lower() in self._partitions

    def partition_of(self, table: str) -> RangePartition:
        """The partition of ``table``."""
        try:
            return self._partitions[table.lower()]
        except KeyError as exc:
            raise SketchError(f"no partition registered for table {table!r}") from exc

    def __iter__(self) -> Iterator[RangePartition]:
        return iter(self._partitions.values())

    def __len__(self) -> int:
        return len(self._partitions)

    @property
    def total_fragments(self) -> int:
        """Total number of fragments across all tables."""
        return self._total

    # -- global fragment ids -----------------------------------------------------------

    def global_id(self, table: str, fragment_index: int) -> int:
        """Global identifier of fragment ``fragment_index`` of ``table``."""
        table = table.lower()
        partition = self.partition_of(table)
        if not 0 <= fragment_index < partition.num_fragments:
            raise SketchError(f"fragment index {fragment_index} out of bounds for {table}")
        return self._offsets[table] + fragment_index

    def resolve(self, global_id: int) -> tuple[str, int]:
        """Map a global fragment id back to ``(table, fragment_index)``."""
        for table, partition in self._partitions.items():
            offset = self._offsets[table]
            if offset <= global_id < offset + partition.num_fragments:
                return table, global_id - offset
        raise SketchError(f"unknown global fragment id {global_id}")

    def fragment_of(self, table: str, value: float) -> int:
        """Global fragment id of ``value`` in the partition of ``table``."""
        partition = self.partition_of(table)
        return self._offsets[partition.table] + partition.fragment_of(value)

    def fragments_of(self, table: str, values: Iterable[float | None]) -> list[int | None]:
        """Global fragment id per value (``None`` for NULL) in one pass."""
        partition = self.partition_of(table)
        return partition.fragments_of(values, self._offsets[partition.table])

    def byte_size(self) -> int:
        """Memory footprint of all boundary lists."""
        return sum(partition.byte_size() for partition in self._partitions.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{p.table}.{p.attribute}[{p.num_fragments}]" for p in self._partitions.values()
        )
        return f"DatabasePartition({inner})"
