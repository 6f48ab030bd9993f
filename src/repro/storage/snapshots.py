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
from repro.storage.delta import Delta


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
        """Append a record; versions must be strictly increasing.  Its deltas
        are frozen: reads share them (:meth:`delta_between`)."""
        if self._records and record.version <= self._records[-1].version:
            raise StorageError(
                f"audit record version {record.version} is not greater than "
                f"the latest recorded version {self._records[-1].version}"
            )
        self._records.append(record)
        self._versions.append(record.version)
        for table, delta in record.deltas.items():
            self._table_versions.setdefault(table, []).append(record.version)
            self._table_deltas.setdefault(table, []).append(delta.freeze())

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

        The result is frozen.  A window of one record returns that record's
        own (committed, frozen) delta; a longer one is their union
        (:meth:`Delta.union`): one ``dict.update`` per record and bag, which
        reuses the stored row hashes, and a per-row sum only for a bag in
        which some row repeats.
        """
        window = self.deltas_between(table, since, until)
        if len(window) == 1:
            return window[0]
        return Delta.union(schema, window)

    def deltas_between(self, table: str, since: int, until: int | None = None) -> list[Delta]:
        """The deltas of ``table``'s records in ``(since, until]``, oldest
        first (``until=None``: every newer record).

        The records of a name span every table created under it; a caller
        reading one incarnation bounds the window by its creation and drop
        versions.  Snapshot materialization rolls a table back through this
        window (inverted, newest first) to reach a pinned version.
        """
        versions = self._table_versions.get(table)
        if not versions:
            return []
        low = bisect.bisect_right(versions, since)
        high = len(versions) if until is None else bisect.bisect_right(versions, until)
        return self._table_deltas[table][low:high]

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
