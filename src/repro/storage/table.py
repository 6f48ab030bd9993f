"""Base table storage for the in-memory backend.

A :class:`StoredTable` is a named, mutable bag of rows with a fixed schema.
A checked :class:`~repro.storage.delta.Delta` is its only mutation; it keeps
the table's :class:`AttributeIndex` objects and its maintained
:class:`~repro.relational.columnar.ColumnBatch` current, and caches one
batch per version a pinned reader asked for.  A :class:`Catalog` is the
database's ``name -> StoredTable`` map as of one DDL commit.
"""

from __future__ import annotations

import bisect
from collections.abc import Collection, Iterable, Iterator
from itertools import chain
from operator import itemgetter

from repro.core.errors import SchemaError, StorageError
from repro.relational.columnar import ColumnBatch, SlotMap
from repro.relational.predicates import Interval
from repro.relational.schema import Relation, Row, Schema, order_component
from repro.storage.delta import Delta


def canonical_items(items: Iterable[tuple[Row, int]]) -> list[tuple[Row, int]]:
    """Sort ``(row, multiplicity)`` pairs into a content-determined order.

    Snapshot batches are built in this canonical order so they are a pure
    function of the *content* of a version, not of the insertion history
    that produced it: float aggregates accumulate in batch order, so two
    snapshots of one version answer SUM queries with the same low bits.
    ``recovery.state_fingerprint`` hashes tables in this order too.  A
    durable checkpoint does not: it writes the live entry order
    (``StoredTable.items()``), so a restart answers as the live database
    did.  :func:`order_component` is a total order even over NaN; rows it
    cannot tell apart keep their insertion order (``sorted`` is stable).
    """
    return sorted(items, key=lambda item: tuple(map(order_component, item[0])))


class Catalog:
    """The tables of one catalog version: a ``name -> StoredTable`` map that
    is never changed after it is published (a DDL commit publishes a copy).
    It is a schema provider, so a plan translates against it."""

    __slots__ = ("version", "tables", "__weakref__")

    def __init__(self, version: int, tables: dict[str, "StoredTable"]) -> None:
        self.version = version
        self.tables = tables

    def table(self, name: str) -> "StoredTable":
        """The table ``name`` of this catalog."""
        try:
            return self.tables[name.lower()]
        except KeyError as exc:
            raise StorageError(f"unknown table {name!r}") from exc

    def schema_of(self, name: str) -> Schema:
        """The schema of ``name`` in this catalog."""
        return self.table(name).schema


class AttributeIndex:
    """An ordered secondary index on one attribute of a stored table.

    The index keeps the distinct attribute values in a sorted list and, per
    value, the bag of rows carrying it.  Range lookups use binary search over
    the value list, which is the physical-design capability (B-tree index /
    zone map) that provenance-based data skipping exploits: a selection whose
    predicate bounds the indexed attribute only touches the qualifying rows.
    A new index over a table's rows is bulk-loaded (:meth:`load`): one bucket
    store per row and one sort of the distinct values; commits then keep it
    current value by value (:meth:`insert_items`, :meth:`delete_items`).
    """

    __slots__ = ("attribute", "position", "_values", "_buckets", "_tombstones")

    _COMPACT_MIN_TOMBSTONES = 64

    def __init__(self, attribute: str, position: int) -> None:
        self.attribute = attribute
        self.position = position
        self._values: list[float] = []
        self._buckets: dict[float, dict[Row, int]] = {}
        self._tombstones = 0

    def load(self, items: Iterable[tuple[Row, int]]) -> None:
        """Fill this empty index from a table's ``(row, multiplicity)``
        pairs, each row distinct, as :meth:`insert_items` would -- the same
        value list, bucket order and multiplicities -- without its second
        hash of each row and its ``insort`` per new value (quadratic over
        unsorted values): one store per row into its value's bucket, then one
        :meth:`check_orderable` pass and one sort over the distinct values.
        A refused load leaves the index empty."""
        position = self.position
        buckets: dict[float, dict[Row, int]] = {}
        for row, multiplicity in items:
            value = row[position]
            bucket = buckets.get(value)
            if bucket is None:
                bucket = buckets[value] = {}
            bucket[row] = multiplicity
        # NULL and NaN are not indexed (see insert_items).
        buckets.pop(None, None)
        for value in [value for value in buckets if value != value]:
            del buckets[value]
        # One row per distinct value: the first to carry it.
        self.check_orderable(next(iter(bucket)) for bucket in buckets.values())
        self._values = sorted(buckets)
        self._buckets = buckets

    def insert_items(self, items: Iterable[tuple[Row, int]]) -> None:
        """Register ``(row, multiplicity)`` pairs, each row appended to its
        value's bucket.

        NULL and NaN are not indexed: no interval predicate is true of
        either, and NaN compares false with everything, so ``insort`` would
        leave the value list unsorted and later range scans would miss rows.
        """
        position = self.position
        buckets = self._buckets
        for row, multiplicity in items:
            value = row[position]
            if value is None:
                continue
            bucket = buckets.get(value)
            if bucket is None:
                if value != value:
                    continue
                bucket = buckets[value] = {}
                bisect.insort(self._values, value)
            elif not bucket:
                # Re-populating a tombstoned value revives it.
                self._tombstones -= 1
            bucket[row] = bucket.get(row, 0) + multiplicity

    def check_orderable(self, rows: Iterable[Row]) -> None:
        """Raise :class:`StorageError` unless the values ``rows`` would add
        order against the indexed ones and each other (NULL and NaN are not
        indexed, so never refused).  Run before a commit or an index build
        logs or changes anything: ``insort`` failing half way would leave rows
        stored that no delta carries.  A value of the reference's type costs
        one identity test (a plain loop: with a commit's cold caches it beat
        a ``set(map(type, ...))`` pass twice over); others are compared."""
        position = self.position
        reference = self._values[0] if self._values else None
        kind = type(reference)
        for row in rows:
            value = row[position]
            if type(value) is kind or value is None or value != value:
                continue
            if reference is None:
                reference, kind = value, type(value)
                continue
            try:
                value < reference  # noqa: B015 - only whether it raises
            except TypeError:
                raise StorageError(
                    f"value {value!r} does not order against {reference!r} "
                    f"in the index on {self.attribute!r}"
                ) from None

    def delete_items(self, items: Iterable[tuple[Row, int]]) -> None:
        """Remove ``(row, multiplicity)`` pairs the index holds (rows with a
        NULL or NaN value never got a bucket and are skipped).

        Empty buckets are kept in the value list (tombstones); range scans
        skip them.  This keeps deletes O(1) amortised.  Once tombstones
        outnumber live values the sorted list is compacted in one pass.
        """
        position = self.position
        buckets = self._buckets
        for row, multiplicity in items:
            bucket = buckets.get(row[position])
            if not bucket:
                continue
            remaining = bucket.get(row, 0) - multiplicity
            if remaining > 0:
                bucket[row] = remaining
                continue
            bucket.pop(row, None)
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

    def rows_in_intervals(self, intervals: Iterable[Interval]) -> tuple[list[Row], list[int]]:
        """Rows whose indexed value falls into any of ``intervals``, and their
        multiplicities, as two parallel lists.

        Every qualifying row comes exactly once, ascending by indexed value
        and in bucket (arrival) order within one value, whatever the order or
        overlap of the intervals: they are turned into disjoint ascending
        spans of the value list first (one bisect pair each, overlapping
        spans merged).  The buckets of the spans are then read whole at C
        speed -- their keys into one list, their values into the other -- so
        the Python-level work is per interval, not per row, and no pair is
        built per row; a tombstoned bucket is empty and contributes nothing.
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
        buckets = list(map(self._buckets.__getitem__, in_spans))
        return (
            list(chain.from_iterable(buckets)),
            list(chain.from_iterable(map(dict.values, buckets))),
        )

    def rows_with_values(
        self, values: Iterable[object], limit: float
    ) -> tuple[list[Row], list[int]] | None:
        """Rows whose indexed value equals one of ``values``, and their
        multiplicities, as two parallel lists -- or None when those rows are
        more than ``limit``, decided on the bucket sizes before a row is read.

        One bucket per value, in the order of ``values``, each in bucket
        (arrival) order; ``values`` must be distinct by dict equality, which
        is also how a value finds its bucket (``1``, ``1.0`` and ``True``
        share one).  NULL, NaN and values of another type have no bucket and
        fetch nothing.
        """
        buckets = [bucket for bucket in map(self._buckets.get, values) if bucket]
        if sum(map(len, buckets)) > limit:
            return None
        return (
            list(chain.from_iterable(buckets)),
            list(chain.from_iterable(map(dict.values, buckets))),
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
        self._key_position = None if primary_key is None else self.schema.index_of(primary_key)
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
        # The versions of the DDL commits that created and dropped this
        # incarnation of the name (``dropped_version`` is None while it is
        # live): its audit deltas are the name's records between the two.
        self.created_version = 0
        self.dropped_version: int | None = None

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

    def items(self) -> Iterator[tuple[Row, int]]:
        """Iterate over ``(row, multiplicity)`` pairs."""
        return iter(self._rows.items())

    def column(self, index: int) -> tuple[list[object], Collection[int]]:
        """The value at ``index`` of every distinct row, and the rows'
        multiplicities in the same order."""
        rows = self._rows
        return list(map(itemgetter(index), rows)), rows.values()

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
        """Create (or return the existing) ordered index on ``attribute``,
        bulk-loaded from the table's rows (:meth:`build_index`: no
        ``insort``) and then registered (:meth:`add_index`)."""
        existing = self._indexes.get(Schema.bare_name(attribute))
        if existing is not None:
            return existing
        return self.add_index(self.build_index(attribute))

    def build_index(self, attribute: str) -> AttributeIndex:
        """A new index on ``attribute`` bulk-loaded with the table's rows
        (:meth:`AttributeIndex.load`: no ``insort``), not yet registered.
        Raises :class:`StorageError` if the column's values do not order."""
        index = AttributeIndex(Schema.bare_name(attribute), self.schema.index_of(attribute))
        index.load(self._rows.items())
        return index

    def add_index(self, index: AttributeIndex) -> AttributeIndex:
        """Register ``index``, built by :meth:`build_index` with no commit
        since, so that commits keep it current."""
        self._indexes[index.attribute] = index
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
    ) -> tuple[list[Row], list[int]]:
        """Index range scan: rows whose ``attribute`` value lies in the intervals."""
        return self.index_on(attribute).rows_in_intervals(intervals)

    def rows_with_values(
        self, attribute: str, values: Iterable[object], max_share: float
    ) -> tuple[list[Row], list[int]] | None:
        """Index point lookup: rows whose ``attribute`` value is one of
        ``values``, or None when they are more than ``max_share`` of the
        table's distinct rows (see :meth:`AttributeIndex.rows_with_values`)."""
        return self.index_on(attribute).rows_with_values(values, max_share * len(self._rows))

    # -- mutation ----------------------------------------------------------------

    def check_delta(self, delta: Delta) -> None:
        """Reject a delta that cannot apply whole, before a commit logs or
        changes anything.

        :meth:`apply_delta` trusts what this checks, so a commit never stops
        half way with table contents diverged from the audit log.  Checks:
        (1) every delete is covered by stored copies, (2) inserted rows have
        the table's arity, (3) every inserted value an index takes orders
        against its values, (4) no insert reuses a primary key -- deletes are
        applied before inserts, so a key whose current holder is fully
        deleted by the same delta is free for reuse.  Each bag is read once;
        the per-row key loop runs only when some inserted key repeats or is
        already held.
        """
        held = self._rows.get
        for row, multiplicity in delta.deletes():
            if multiplicity > held(row, 0):
                raise StorageError(
                    f"delta deletes {multiplicity} copies of a row but table "
                    f"{self.name!r} only holds {held(row, 0)}"
                )
        inserted = delta.inserted_rows()
        if not inserted:
            return
        if len(delta.schema) != len(self.schema):
            raise SchemaError(
                f"row arity {len(delta.schema)} does not match table {self.name!r} "
                f"arity {len(self.schema)}"
            )
        for index in self._indexes.values():
            index.check_orderable(inserted)
        position = self._key_position
        if position is None:
            return
        keys = list(map(itemgetter(position), inserted))
        if len(set(keys)) == len(keys) and self._key_index.keys().isdisjoint(keys):
            return
        deleted = dict(delta.deletes())
        batch: dict[object, Row] = {}
        for key, row in zip(keys, inserted):
            other = batch.get(key)
            if other is not None and other != row:
                raise StorageError(
                    f"duplicate primary key {key!r} within one update batch "
                    f"for table {self.name!r}"
                )
            batch[key] = row
            existing = self._key_index.get(key)
            if (
                existing is not None
                and existing != row
                and deleted.get(existing, 0) < self._rows[existing]
            ):
                raise StorageError(
                    f"duplicate primary key {key!r} in table {self.name!r}: "
                    f"row {existing!r} already holds it"
                )

    def apply_delta(self, delta: Delta) -> None:
        """Apply a delta :meth:`check_delta` accepted (deletions first, then
        insertions) and freeze it.

        This is the commit path and the only way rows change: one pass per
        bag over the row dict, then the key index and each attribute index
        take each bag whole, with the key position and dict methods resolved
        once per delta.  A row whose count stays positive keeps its place
        (get, then set): row order is batch order.  Only an over-delete is
        still caught here; on any failure the maintained batch is dropped.

        It does not touch the maintained batch: while one exists the delta is
        queued (by reference -- committed deltas are frozen, the audit log
        shares them too) for the next :meth:`as_column_batch` to bring the
        batch forward by.  Batch and queue are dropped together once a
        re-pivot is the cheaper way forward: when the queued tuples outnumber
        the table's rows, or the queued deletes exceed
        :attr:`_MAX_PENDING_DELETES`.
        """
        delta.freeze()
        rows = self._rows
        held = rows.get
        key_position = self._key_position
        key_index = self._key_index
        try:
            for row, multiplicity in delta.deletes():
                remaining = held(row, 0) - multiplicity
                if remaining > 0:
                    rows[row] = remaining
                    continue
                if remaining < 0:
                    raise StorageError(
                        f"delta deletes {multiplicity} copies of a row but table "
                        f"{self.name!r} only holds {held(row, 0)}"
                    )
                del rows[row]
                if key_position is not None:
                    del key_index[row[key_position]]
            for row, multiplicity in delta.inserts():
                rows[row] = held(row, 0) + multiplicity
            if key_position is not None:
                inserted = delta.inserted_rows()
                key_index.update(zip(map(itemgetter(key_position), inserted), inserted))
            for index in self._indexes.values():
                index.delete_items(delta.deletes())
                index.insert_items(delta.inserts())
        except BaseException:
            # Half a delta is applied: nothing whole to bring the batch forward by.
            self._forget_batch()
            raise
        deletes = delta.delete_count
        self._row_count += delta.insert_count - deletes
        if self._batch is not None:
            self._pending.append(delta)
            self._pending_tuples += delta.insert_count + deletes
            self._pending_deletes += deletes
            if (
                self._pending_tuples > self._row_count
                or self._pending_deletes > self._MAX_PENDING_DELETES
            ):
                self._forget_batch()
