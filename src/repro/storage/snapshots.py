"""Snapshot identifiers and the audit log.

The paper assumes the backend uses snapshot isolation and that sketch versions
are identified by snapshot identifiers (Sec. 2 and 7.3).  In this backend every
committed update produces a new monotonically increasing version number and an
:class:`AuditRecord` describing the per-table delta of the update.  The
:class:`AuditLog` answers "what changed between version v1 and v2 in table R?"
-- exactly the query IMP issues when it maintains a stale sketch.

Versions are strictly increasing, so the log keeps two indexes alongside the
record list: a sorted version array for binary-searching any ``(since, until]``
window, and a per-table version array so ``delta_between`` visits only the
records that actually touched the requested table.  Both turn delta extraction
from a scan over the full history into work proportional to the answered
window -- the property the shared-delta maintenance scheduler relies on when
many sketches ask for deltas every round.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.core.errors import StorageError
from repro.relational.schema import Schema
from repro.storage.delta import DatabaseDelta, Delta


@dataclass(frozen=True)
class AuditRecord:
    """One committed update: the version it produced and its per-table deltas."""

    version: int
    deltas: dict[str, Delta] = field(default_factory=dict)

    def tables(self) -> Iterator[str]:
        return iter(self.deltas)


class AuditLog:
    """Append-only log of committed updates, ordered by version."""

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []
        self._versions: list[int] = []
        # table -> parallel (sorted versions, deltas) arrays of the records
        # that touched it; lets delta_between skip unrelated records entirely.
        self._table_versions: dict[str, list[int]] = {}
        self._table_deltas: dict[str, list[Delta]] = {}

    def append(self, record: AuditRecord) -> None:
        """Append a record; versions must be strictly increasing."""
        if self._records and record.version <= self._records[-1].version:
            raise StorageError(
                f"audit record version {record.version} is not greater than "
                f"the latest recorded version {self._records[-1].version}"
            )
        self._records.append(record)
        self._versions.append(record.version)
        for table, delta in record.deltas.items():
            self._table_versions.setdefault(table, []).append(record.version)
            self._table_deltas.setdefault(table, []).append(delta)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Iterator[AuditRecord]:
        """All records, oldest first."""
        return iter(self._records)

    def delta_between(
        self, table: str, schema: Schema, since: int, until: int
    ) -> Delta:
        """Combined delta of ``table`` for all updates in ``(since, until]``.

        The result accumulates every recorded change without cancelling
        insert/delete pairs of the same row -- the incremental operators handle
        both signs and the over-approximation stays sound either way.  Callers
        that want the net effect compact the result (:meth:`Delta.compacted`).
        Served from the per-table version index, so cost is proportional to the
        records of ``table`` inside the window, not the full history.
        """
        versions = self._table_versions.get(table)
        combined = Delta(schema)
        if not versions:
            return combined
        deltas = self._table_deltas[table]
        low = bisect.bisect_right(versions, since)
        high = bisect.bisect_right(versions, until)
        for position in range(low, high):
            combined.merge(deltas[position])
        return combined

    def database_delta_between(
        self, schemas: dict[str, Schema], since: int, until: int
    ) -> DatabaseDelta:
        """Combined per-table deltas for all tables mentioned in ``schemas``."""
        result = DatabaseDelta()
        for table, schema in schemas.items():
            delta = self.delta_between(table, schema, since, until)
            if delta:
                result.set_delta(table, delta)
        return result

    def table_deltas_after(self, table: str, version: int) -> list[tuple[int, Delta]]:
        """``(version, delta)`` pairs of ``table`` newer than ``version``.

        Snapshot materialization rolls the current contents back through these
        records (inverted, newest first) to reach a pinned version; the pairs
        are returned oldest first, callers reverse them.
        """
        versions = self._table_versions.get(table)
        if not versions:
            return []
        deltas = self._table_deltas[table]
        low = bisect.bisect_right(versions, version)
        return list(zip(versions[low:], deltas[low:]))

    def tables_changed_between(self, since: int, until: int) -> set[str]:
        """Names of tables touched by any update in ``(since, until]``."""
        changed: set[str] = set()
        for table, versions in self._table_versions.items():
            low = bisect.bisect_right(versions, since)
            if low < bisect.bisect_right(versions, until):
                changed.add(table)
        return changed

    def forget_table(self, table: str) -> None:
        """Drop the per-table history indexes of ``table``.

        Called when a table is dropped: a later table created under the same
        name is a *different* table, and rolling its snapshots back through
        the old table's deltas would produce garbage (or schema errors).
        The flat record list keeps the old deltas for archaeology; every
        per-table query path (``delta_between``, ``table_deltas_after``,
        ``tables_changed_between``) serves from the forgotten indexes.
        """
        self._table_versions.pop(table, None)
        self._table_deltas.pop(table, None)

    def prune_before(self, version: int, protect_after: int | None = None) -> int:
        """Drop records with ``version <= version``; return how many were dropped.

        Mirrors the backend reclaiming audit history once every sketch has been
        maintained past that point.  ``protect_after`` clamps the prune floor:
        records *newer* than it are kept regardless of ``version``.  Durable
        databases pass their last checkpoint version here -- the in-memory
        audit tail must never become shorter than the on-disk WAL tail, or a
        crash immediately after pruning would recover commits the running
        process had already forgotten (recovered state ≠ pre-crash state).
        """
        if protect_after is not None:
            version = min(version, protect_after)
        keep_from = bisect.bisect_right(self._versions, version)
        dropped = keep_from
        if dropped:
            self._records = self._records[keep_from:]
            self._versions = self._versions[keep_from:]
            for table in list(self._table_versions):
                versions = self._table_versions[table]
                cut = bisect.bisect_right(versions, version)
                if cut == len(versions):
                    del self._table_versions[table]
                    del self._table_deltas[table]
                elif cut:
                    self._table_versions[table] = versions[cut:]
                    self._table_deltas[table] = self._table_deltas[table][cut:]
        return dropped
