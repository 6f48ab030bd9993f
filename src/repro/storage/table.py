"""Base table storage for the in-memory backend.

A :class:`StoredTable` is a named, mutable bag of rows with a fixed schema.
It tracks basic statistics (row count, per-attribute min/max) that the sketch
range-selection heuristics and the backend "optimizer" consult, and exposes
its contents as a :class:`~repro.relational.schema.Relation` for evaluation.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterable, Iterator
from itertools import chain

from repro.core.errors import SchemaError, StorageError
from repro.relational.columnar import ColumnBatch, SlotMap
from repro.relational.predicates import Interval
from repro.relational.schema import Relation, Row, Schema, order_component
from repro.storage.delta import Delta


def canonical_items(items: Iterable[tuple[Row, int]]) -> list[tuple[Row, int]]:
    """Sort ``(row, multiplicity)`` pairs into a content-determined order.

    Snapshot batches -- and durable checkpoints -- are built in this
    canonical order so they are a pure function of the *content* of a
    version, not of the insertion history that produced it: float aggregates
    accumulate in batch order, so without canonicalization two
    materializations of the same version could answer SUM queries with
    different low bits.  The differential concurrency harness and the
    crash-recovery harness both assert bit-identical reads; this is what
    makes that hold.  :func:`order_component` is a total order even over NaN;
    rows it cannot tell apart keep their insertion order (``sorted`` is
    stable).
    """
    return sorted(items, key=lambda item: tuple(map(order_component, item[0])))


class AttributeIndex:
    """An ordered secondary index on one attribute of a stored table.

    The index keeps the distinct attribute values in a sorted list and, per
    value, the bag of rows carrying it.  Range lookups use binary search over
    the value list, which is the physical-design capability (B-tree index /
    zone map) that provenance-based data skipping exploits: a selection whose
    predicate bounds the indexed attribute only touches the qualifying rows.
    """

    __slots__ = ("attribute", "position", "_values", "_buckets", "_tombstones")

    _COMPACT_MIN_TOMBSTONES = 64

    def __init__(self, attribute: str, position: int) -> None:
        self.attribute = attribute
        self.position = position
        self._values: list[float] = []
        self._buckets: dict[float, dict[Row, int]] = {}
        self._tombstones = 0

    def insert(self, row: Row, multiplicity: int) -> None:
        """Register ``multiplicity`` copies of ``row``.

        NULL and NaN are not indexed: no interval predicate is true of
        either, and NaN compares false with everything, so ``insort`` would
        leave the value list unsorted and later range scans would miss rows.
        """
        value = row[self.position]
        if value is None:
            return
        bucket = self._buckets.get(value)
        if bucket is None:
            if value != value:
                return
            bucket = {}
            self._buckets[value] = bucket
            bisect.insort(self._values, value)
        elif not bucket:
            # Re-populating a tombstoned value revives it.
            self._tombstones -= 1
        bucket[row] = bucket.get(row, 0) + multiplicity

    def delete(self, row: Row, multiplicity: int) -> None:
        """Remove up to ``multiplicity`` copies of ``row``."""
        value = row[self.position]
        if value is None:
            return
        bucket = self._buckets.get(value)
        if not bucket:
            # Also a NaN: it never got a bucket.
            return
        remaining = bucket.get(row, 0) - multiplicity
        if remaining > 0:
            bucket[row] = remaining
        else:
            bucket.pop(row, None)
        # Empty buckets are kept in the value list (tombstones); range scans
        # skip them.  This keeps deletes O(1) amortised.  Once tombstones
        # outnumber live values the sorted list is compacted in one pass.
        if not bucket:
            self._tombstones += 1
            if (
                self._tombstones >= self._COMPACT_MIN_TOMBSTONES
                and self._tombstones * 2 > len(self._values)
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop tombstoned values from the sorted list and bucket map."""
        self._values = [value for value in self._values if self._buckets.get(value)]
        self._buckets = {value: self._buckets[value] for value in self._values}
        self._tombstones = 0

    def rows_in_intervals(self, intervals: Iterable[Interval]) -> Iterator[tuple[Row, int]]:
        """Rows whose indexed value falls into any of ``intervals``.

        Every qualifying row comes exactly once, ascending by indexed value
        and in bucket (arrival) order within one value, whatever the order or
        overlap of the intervals: they are turned into disjoint ascending
        spans of the value list first (one bisect pair each, overlapping
        spans merged).  The buckets of the spans are then streamed whole at C
        speed, so the Python-level work is per interval, not per row; a
        tombstoned bucket is empty and contributes nothing.
        """
        values = self._values
        spans: list[tuple[int, int]] = []
        for interval in intervals:
            if interval.low_inclusive:
                low = bisect.bisect_left(values, interval.low)
            else:
                low = bisect.bisect_right(values, interval.low)
            if interval.high_inclusive:
                high = bisect.bisect_right(values, interval.high)
            else:
                high = bisect.bisect_left(values, interval.high)
            if low < high:
                spans.append((low, high))
        spans.sort()
        merged: list[tuple[int, int]] = []
        for low, high in spans:
            if merged and low <= merged[-1][1]:
                if high > merged[-1][1]:
                    merged[-1] = (merged[-1][0], high)
            else:
                merged.append((low, high))
        in_spans = chain.from_iterable(values[low:high] for low, high in merged)
        return chain.from_iterable(
            map(dict.items, map(self._buckets.__getitem__, in_spans))
        )

    def distinct_value_count(self) -> int:
        """Number of distinct indexed values currently carrying live rows.

        Tombstoned values (all of whose rows were deleted) are excluded so the
        selectivity heuristics consulting this count see the live data, not
        the deletion history.
        """
        return len(self._values) - self._tombstones


class StoredTable:
    """A named base table."""

    _MAX_PENDING_DELETES = 128
    """Bringing the batch forward removes an entry by shifting the tail of
    every column: C-level, but about 1-2% of copying the table each, where a
    re-pivot costs four to eight copies.  Beyond this many queued deletes the
    re-pivot wins, whatever the table's size."""

    def __init__(
        self,
        name: str,
        schema: Schema | Iterable[str],
        primary_key: str | None = None,
    ) -> None:
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        if primary_key is not None and not self.schema.has(primary_key):
            raise SchemaError(f"primary key {primary_key!r} is not in schema")
        self.primary_key = primary_key
        self._rows: dict[Row, int] = {}
        self._key_index: dict[object, Row] = {}
        self._indexes: dict[str, AttributeIndex] = {}
        self._row_count = 0
        # The live columnar batch is *maintained*, not re-derived: a commit
        # leaves ``_batch`` (the batch of the last version a scan asked for)
        # in place and queues its delta in ``_pending``; the next scan
        # publishes the new version's batch as the old lists copied at C speed
        # plus the queued deltas, applied per delta tuple through ``_slots``.
        # All three exist only while a batch does, so a table that is never
        # scanned column-wise queues and holds nothing.
        self._batch: ColumnBatch | None = None
        self._slots: SlotMap | None = None
        self._pending: list[Delta] = []
        self._pending_tuples = 0
        self._pending_deletes = 0
        # Version history for snapshot-isolated readers.  ``_modified_versions``
        # records every database version whose commit touched this table (a
        # plain int list, never pruned, so effective-version lookups stay
        # stable even after the audit log reclaims old records).  A pinned
        # version ``v`` maps to the *effective* version: the largest commit
        # <= v that modified the table; ``_snapshots`` caches one immutable
        # columnar batch per effective version, materialized lazily on first
        # read and pruned when no active session can reach it anymore.
        self._modified_versions: list[int] = []
        self._snapshots: dict[int, ColumnBatch] = {}

    # -- inspection --------------------------------------------------------------

    def __len__(self) -> int:
        """Number of rows (counting duplicates)."""
        return self._row_count

    def __bool__(self) -> bool:
        return self._row_count > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoredTable({self.name}, rows={self._row_count})"

    def rows(self) -> Iterator[Row]:
        """Iterate over rows with duplicates."""
        for row, multiplicity in self._rows.items():
            for _ in range(multiplicity):
                yield row

    def multiplicity(self, row: Row) -> int:
        """Number of stored copies of ``row`` (zero when absent)."""
        return self._rows.get(tuple(row), 0)

    def items(self) -> Iterator[tuple[Row, int]]:
        """Iterate over ``(row, multiplicity)`` pairs."""
        return iter(self._rows.items())

    def as_relation(self) -> Relation:
        """The table contents as a relation (a copy; safe to mutate).

        Enumerates the rows in the order :meth:`as_column_batch` does (see
        the order invariant there).
        """
        return Relation.from_counts(self.schema, dict(self._rows))

    def as_column_batch(self) -> ColumnBatch:
        """The table contents as a columnar batch, one object per version.

        Repeated scans of one version are served the same batch.  After
        commits the batch of the new version is *brought forward*: the
        previous batch's lists are copied (C speed, the only O(table) work)
        and the deltas committed since are applied per delta tuple
        (:meth:`SlotMap.apply`).  The whole-table pivot is the cold start
        only: the first scan, and the first scan after :meth:`_forget_batch`.

        Two invariants:

        1. A batch this method has returned is never mutated afterwards.
           ``relabel()`` shares its lists and a reader in another thread may
           still hold it, so every version publishes fresh lists; callers
           must treat the batch as read-only in turn.
        2. At every version the batch enumerates the rows in the order of the
           row dict (arrival order, gaps closed) -- exactly what a cold pivot
           yields, and the order of :meth:`as_relation`, :meth:`items` and the
           index buckets.  The row oracle, index scans and the batch engine
           are bit-identical on float aggregates only because they all
           accumulate in this one order, so bringing a batch forward must
           never reorder it.
        """
        batch = self._batch
        if batch is None:
            batch = ColumnBatch.from_items(
                self.schema, self._rows.items(), consolidated=True
            )
            self._slots = SlotMap(self._rows)
        elif self._pending:
            assert self._slots is not None
            columns = [column.copy() for column in batch.columns]
            multiplicities = batch.multiplicities.copy()
            for delta in self._pending:
                self._slots.apply(
                    columns, multiplicities, delta.deletes(), delta.inserts()
                )
            batch = ColumnBatch(self.schema, columns, multiplicities, consolidated=True)
            self._pending = []
            self._pending_tuples = self._pending_deletes = 0
        self._batch = batch
        return batch

    @property
    def pending_batch_tuples(self) -> int:
        """Committed delta tuples the live batch has not been brought forward
        by yet (always 0 while no batch exists)."""
        return self._pending_tuples

    def _forget_batch(self) -> None:
        """Drop the maintained batch, its slot map and the queued deltas; the
        next column scan is a cold pivot."""
        if self._batch is None:
            return
        self._batch = None
        self._slots = None
        self._pending = []
        self._pending_tuples = self._pending_deletes = 0

    def column_values(self, attribute: str) -> list[object]:
        """All values of ``attribute`` (duplicates included, NULLs skipped)."""
        index = self.schema.index_of(attribute)
        values: list[object] = []
        for row, multiplicity in self._rows.items():
            value = row[index]
            if value is None:
                continue
            values.extend([value] * multiplicity)
        return values

    def attribute_bounds(self, attribute: str) -> tuple[object, object] | None:
        """The ``(min, max)`` of an attribute, or None for an empty table."""
        index = self.schema.index_of(attribute)
        minimum: object | None = None
        maximum: object | None = None
        for row in self._rows:
            value = row[index]
            if value is None:
                continue
            if minimum is None or value < minimum:  # type: ignore[operator]
                minimum = value
            if maximum is None or value > maximum:  # type: ignore[operator]
                maximum = value
        if minimum is None:
            return None
        return minimum, maximum

    # -- version history (snapshot-isolated readers) ------------------------------

    @property
    def last_modified_version(self) -> int:
        """The newest database version whose commit touched this table (0 when
        the table has never been modified through a versioned commit)."""
        return self._modified_versions[-1] if self._modified_versions else 0

    def record_modified(self, version: int) -> None:
        """Note that the commit producing ``version`` modified this table."""
        if not self._modified_versions or version > self._modified_versions[-1]:
            self._modified_versions.append(version)

    def modifications_after(self, version: int) -> int:
        """How many committed modifications of this table are newer than
        ``version`` (used to detect pruned snapshot history)."""
        return len(self._modified_versions) - bisect.bisect_right(
            self._modified_versions, version
        )

    def effective_version(self, version: int) -> int:
        """Map a pinned database version to this table's content version.

        Contents only change at modification versions, so every pinned version
        between two of them reads the same snapshot; keying the snapshot cache
        by the effective version lets all of them share one materialization.
        """
        position = bisect.bisect_right(self._modified_versions, version)
        return self._modified_versions[position - 1] if position else 0

    def snapshot_batch(self, effective: int) -> ColumnBatch | None:
        """The cached snapshot for an effective version, if materialized."""
        return self._snapshots.get(effective)

    def store_snapshot(self, effective: int, batch: ColumnBatch) -> None:
        """Cache an immutable snapshot batch for an effective version."""
        self._snapshots[effective] = batch

    def prune_snapshots(self, min_effective: int) -> int:
        """Drop cached snapshots below ``min_effective``; return how many.

        Called by the database once the session registry guarantees no active
        (or future) session can pin a version mapping below ``min_effective``.
        """
        stale = [key for key in self._snapshots if key < min_effective]
        for key in stale:
            del self._snapshots[key]
        return len(stale)

    def snapshot_memory_entries(self) -> int:
        """Number of materialized snapshot versions currently cached."""
        return len(self._snapshots)

    def lookup_by_key(self, key: object) -> Row | None:
        """Find the row with the given primary key value (if a key is defined)."""
        if self.primary_key is None:
            raise StorageError(f"table {self.name!r} has no primary key")
        return self._key_index.get(key)

    # -- secondary indexes --------------------------------------------------------

    def create_index(self, attribute: str) -> AttributeIndex:
        """Create (or return the existing) ordered index on ``attribute``."""
        bare = Schema.bare_name(attribute)
        existing = self._indexes.get(bare)
        if existing is not None:
            return existing
        index = AttributeIndex(bare, self.schema.index_of(attribute))
        for row, multiplicity in self._rows.items():
            index.insert(row, multiplicity)
        self._indexes[bare] = index
        return index

    def has_index(self, attribute: str) -> bool:
        """Whether an ordered index exists on ``attribute``."""
        return Schema.bare_name(attribute) in self._indexes

    def index_on(self, attribute: str) -> AttributeIndex:
        """The index on ``attribute`` (raises when missing)."""
        bare = Schema.bare_name(attribute)
        if bare not in self._indexes:
            raise StorageError(f"no index on {self.name}.{bare}")
        return self._indexes[bare]

    def indexed_attributes(self) -> list[str]:
        """Attributes that currently carry an ordered index."""
        return sorted(self._indexes)

    def rows_in_intervals(
        self, attribute: str, intervals: Iterable[Interval]
    ) -> Iterator[tuple[Row, int]]:
        """Index range scan: rows whose ``attribute`` value lies in the intervals."""
        return self.index_on(attribute).rows_in_intervals(intervals)

    # -- mutation ----------------------------------------------------------------

    def insert(self, row: Row, multiplicity: int = 1) -> None:
        """Insert ``multiplicity`` copies of ``row``.

        A direct mutation (outside :meth:`apply_delta`) leaves no delta to
        bring the batch forward by, so it drops the batch.
        """
        self._insert(row, multiplicity)
        self._forget_batch()

    def _insert(self, row: Row, multiplicity: int) -> None:
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row arity {len(row)} does not match table {self.name!r} "
                f"arity {len(self.schema)}"
            )
        if multiplicity <= 0:
            raise ValueError("multiplicity must be positive")
        row = tuple(row)
        if self.primary_key is not None:
            key = row[self.schema.index_of(self.primary_key)]
            existing = self._key_index.get(key)
            if existing is not None and existing != row:
                # Overwriting the index entry would orphan the existing row:
                # deleting the newcomer later would drop the key entirely even
                # though the old row is still stored.
                raise StorageError(
                    f"duplicate primary key {key!r} in table {self.name!r}: "
                    f"row {existing!r} already holds it"
                )
            self._key_index[key] = row
        self._rows[row] = self._rows.get(row, 0) + multiplicity
        self._row_count += multiplicity
        for index in self._indexes.values():
            index.insert(row, multiplicity)

    def insert_many(self, rows: Iterable[Row]) -> int:
        """Insert every row of ``rows``; return the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def delete(self, row: Row, multiplicity: int = 1) -> int:
        """Delete up to ``multiplicity`` copies of ``row``; return removed count.

        Drops the maintained batch, like :meth:`insert`.
        """
        removed = self._delete(row, multiplicity)
        self._forget_batch()
        return removed

    def _delete(self, row: Row, multiplicity: int) -> int:
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
            if self.primary_key is not None:
                key = row[self.schema.index_of(self.primary_key)]
                if self._key_index.get(key) == row:
                    del self._key_index[key]
        for index in self._indexes.values():
            index.delete(row, removed)
        self._row_count -= removed
        return removed

    def delete_where(self, predicate: Callable[[Row], bool]) -> list[Row]:
        """Delete all rows satisfying ``predicate``; return them (with duplicates)."""
        victims = [
            (row, multiplicity)
            for row, multiplicity in self._rows.items()
            if predicate(row)
        ]
        deleted: list[Row] = []
        for row, multiplicity in victims:
            self.delete(row, multiplicity)
            deleted.extend([row] * multiplicity)
        return deleted

    def apply_delta(self, delta: Delta) -> None:
        """Apply a delta (deletions first, then insertions).

        This is the commit path.  It does not touch the maintained batch:
        while one exists the delta is queued (by reference -- committed
        deltas are immutable, the audit log shares them too) for the next
        :meth:`as_column_batch` to bring the batch forward by.  Batch and
        queue are dropped together once a re-pivot is the cheaper way forward:
        when the queued tuples outnumber the table's rows, or the queued
        deletes exceed :attr:`_MAX_PENDING_DELETES`.
        """
        try:
            for row, multiplicity in delta.deletes():
                removed = self._delete(row, multiplicity)
                if removed < multiplicity:
                    raise StorageError(
                        f"delta deletes {multiplicity} copies of a row but table "
                        f"{self.name!r} only holds {removed}"
                    )
            for row, multiplicity in delta.inserts():
                self._insert(row, multiplicity)
        except BaseException:
            # Half a delta is applied: nothing whole to bring the batch forward by.
            self._forget_batch()
            raise
        if self._batch is not None:
            deletes = delta.delete_count
            self._pending.append(delta)
            self._pending_tuples += delta.insert_count + deletes
            self._pending_deletes += deletes
            if (
                self._pending_tuples > self._row_count
                or self._pending_deletes > self._MAX_PENDING_DELETES
            ):
                self._forget_batch()

    def truncate(self) -> None:
        """Remove all rows (indexes are rebuilt empty)."""
        self._rows.clear()
        self._key_index.clear()
        self._row_count = 0
        self._forget_batch()
        for attribute in list(self._indexes):
            self._indexes[attribute] = AttributeIndex(
                attribute, self.schema.index_of(attribute)
            )
