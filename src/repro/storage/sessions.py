"""Concurrent serving sessions with snapshot isolation.

The paper assumes the backend runs under snapshot isolation and identifies
sketch versions by snapshot identifiers (Sec. 2, 7.3); this module makes that
versioning real MVCC for the serving layer.  A :class:`Session` is one client
connection pinned to a database snapshot: every query it runs sees exactly
the state of the version it pinned, no matter how many writers commit
concurrently.  The moving parts:

* :class:`SessionRegistry` tracks which versions are pinned by open sessions.
  It is the retention authority: the database keeps enough version history
  (snapshot caches, audit records) to serve the oldest pin and prunes the
  rest when sessions close.
* :class:`SnapshotView` adapts one pinned version to the evaluator's
  ``RelationProvider`` protocol (plus the duck-typed statistics interface the
  plan optimizer probes for).  It resolves table names in the catalog of its
  version, so DDL committed after the pin is invisible too.  Reads are
  lock-free after the first materialization because committed versions are
  immutable; the view deliberately does *not* expose the live secondary
  indexes -- those track the current version only -- so snapshot queries run
  vectorized full scans over the cached immutable batch.
* :class:`Session` wraps a view with a query API (plans from the database's
  one SQL-text cache at the pin, optimized plans per pin), autocommit write
  passthroughs that re-pin the session at its own commit (read-your-writes),
  explicit :meth:`Session.refresh`, and a context-manager lifecycle whose
  close unpins the version and lets the database prune.

Concurrency contract: any number of sessions may run queries in parallel
from different threads, and writers commit under the database's single write
lock; one *individual* session object is owned by one thread at a time (it
memoizes lazily and is not internally locked).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import StorageError
from repro.relational.algebra import PlanNode
from repro.relational.evaluator import Evaluator
from repro.relational.schema import Relation, Row, Schema
from repro.storage.statistics import ColumnStatistics, ColumnSummaries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.relational.columnar import ColumnBatch
    from repro.storage.database import Database


class SessionRegistry:
    """Thread-safe refcounts of the snapshot versions pinned by sessions.

    The registry is the source of truth for retention: the database may prune
    any history strictly below :meth:`oldest_pinned` (or below the current
    version when no session is open), because future sessions always pin at
    or above the current version.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pins: dict[int, int] = {}
        self._ids = itertools.count(1)
        self._opened = 0
        self._closed = 0

    def next_session_id(self) -> int:
        """A fresh session identifier."""
        return next(self._ids)

    def pin(self, version: int) -> None:
        """Register one session reading at ``version``."""
        with self._lock:
            self._pins[version] = self._pins.get(version, 0) + 1
            self._opened += 1

    def unpin(self, version: int) -> None:
        """Drop one session's pin of ``version``."""
        with self._lock:
            count = self._pins.get(version, 0)
            if count <= 1:
                self._pins.pop(version, None)
            else:
                self._pins[version] = count - 1
            self._closed += 1

    def repin(self, old: int, new: int) -> None:
        """Atomically move one pin from ``old`` to ``new`` (session refresh)."""
        with self._lock:
            count = self._pins.get(old, 0)
            if count <= 1:
                self._pins.pop(old, None)
            else:
                self._pins[old] = count - 1
            self._pins[new] = self._pins.get(new, 0) + 1

    def oldest_pinned(self) -> int | None:
        """The smallest pinned version, or None when no session is open."""
        with self._lock:
            return min(self._pins) if self._pins else None

    def summary(self) -> dict[str, int]:
        """Compact report (sessions opened/closed/active, pin spread)."""
        with self._lock:
            return {
                "opened": self._opened,
                "closed": self._closed,
                "active": sum(self._pins.values()),
                "distinct_pins": len(self._pins),
            }


class SnapshotView:
    """Relation, schema and statistics provider over one pinned version.

    Names resolve in the catalog of the version (:meth:`Database.catalog_at`).
    Batches and statistics are memoized per view: once a table is
    materialized (see :meth:`Database.snapshot_batch`), every read is a plain
    attribute access on immutable data with no shared-state synchronization.
    """

    def __init__(self, database: "Database", version: int) -> None:
        self._database = database
        self.version = version
        self._catalog = database.catalog_at(version)
        self._batches: dict[str, "ColumnBatch"] = {}
        self._summaries = ColumnSummaries()

    def _batch(self, table: str) -> "ColumnBatch":
        table = table.lower()
        batch = self._batches.get(table)
        if batch is None:
            batch = self._database.snapshot_batch(table, self.version)
            self._batches[table] = batch
        return batch

    # -- RelationProvider protocol -------------------------------------------------

    def relation(self, table: str) -> Relation:
        """The snapshot contents of ``table`` (a fresh caller-owned copy)."""
        return self._batch(table).to_relation()

    def column_batch(self, table: str) -> "ColumnBatch":
        """The snapshot contents as a shared immutable columnar batch."""
        return self._batch(table)

    def schema_of(self, table: str) -> Schema:
        """The schema of ``table`` as of the pinned version (no batch is
        materialized)."""
        return self._catalog.schema_of(table)

    # -- duck-typed statistics interface (plan optimizer) --------------------------

    def _column(self, table: str, attribute: str) -> tuple[list[object], list[int]]:
        """The snapshot column of every batch entry, and their multiplicities."""
        batch = self._batch(table)
        return batch.columns[batch.schema.index_of(attribute)], batch.multiplicities

    def row_count(self, table: str) -> int:
        """Snapshot row count of ``table`` (duplicates included).

        Snapshot batches are consolidated -- one entry per distinct row -- so
        the bag size is the multiplicity sum, not ``len(batch)``; the
        optimizer's cardinality estimates must match what the live
        :meth:`Database.row_count` would report for the same data.
        """
        return sum(self._batch(table).multiplicities)

    def column_statistics(self, table: str, attribute: str) -> ColumnStatistics:
        """Summary statistics of one snapshot column (memoized per view)."""
        return self._summaries.column_statistics(self._column, table.lower(), attribute)

    def equi_depth_ranges(
        self, table: str, attribute: str, num_buckets: int
    ) -> list[float]:
        """Equi-depth histogram boundaries over the snapshot column."""
        return self._summaries.equi_depth_ranges(
            self._column, table.lower(), attribute, num_buckets
        )


@dataclass
class SessionStatistics:
    """Per-session counters (sessions do not touch the shared database
    counters, so concurrent readers never contend on instrumentation)."""

    queries: int = 0
    writes: int = 0
    refreshes: int = 0
    query_seconds: float = 0.0


class Session:
    """One client connection pinned to a database snapshot.

    Lifecycle: opened via :meth:`Database.connect` (pinning the current
    version), optionally refreshed to newer versions, and closed -- which
    unpins the version and triggers snapshot-cache pruning.  Usable as a
    context manager.  Writes are autocommit: they take the database write
    lock, commit a new version, and re-pin this session at that version so
    the session always reads its own writes.
    """

    def __init__(
        self,
        database: "Database",
        registry: SessionRegistry,
        version: int,
        name: str | None = None,
    ) -> None:
        self._database = database
        self._registry = registry
        self.id = registry.next_session_id()
        self.name = name or f"session-{self.id}"
        self._view = SnapshotView(database, version)
        # Valid for the pinned version only and cleared on re-pin: optimized
        # plans bake in the snapshot's statistics.
        self._optimized_cache: dict[str, PlanNode] = {}
        self._evaluator = Evaluator(self._view)
        self._closed = False
        self.statistics = SessionStatistics()
        registry.pin(version)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def pinned_version(self) -> int:
        """The snapshot version this session reads."""
        return self._view.version

    @property
    def is_closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unpin the snapshot and let the database prune unreachable history."""
        if self._closed:
            return
        self._closed = True
        self._registry.unpin(self._view.version)
        self._database._on_session_closed()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"pinned@{self.pinned_version}"
        return f"Session({self.name}, {state})"

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"session {self.name!r} is closed")

    # -- reads -------------------------------------------------------------------

    def plan(self, sql: str) -> PlanNode:
        """The plan of ``sql`` against the catalog of the pinned version, from
        the database's SQL-text cache (:meth:`Database.translation_at`):
        sessions pinned under one catalog, and the live database under it,
        share one translation.  Never modify it."""
        return self._database.translation_at(self._view.version, sql)[0]

    def query(self, query: str | PlanNode) -> Relation:
        """Evaluate a query against the pinned snapshot.

        Accepts SQL text or a logical plan, like
        :meth:`Database.query`, but every base-table read comes from the
        immutable snapshot -- concurrent commits are invisible until
        :meth:`refresh`.  The answer's ``version`` is the pin.
        """
        self._check_open()
        started = time.perf_counter()
        evaluator = self._evaluator
        if isinstance(query, str):
            # Serving-layer fast path: optimize once per (SQL, pinned
            # version); the evaluator runs an optimized plan as is on every
            # repeat of the query.
            plan = self._optimized_cache.get(query)
            if plan is None:
                plan = evaluator.optimized(self.plan(query))
                self._optimized_cache[query] = plan
        else:
            plan = query
        result = evaluator.evaluate(plan)
        result.version = self._view.version
        self.statistics.queries += 1
        self.statistics.query_seconds += time.perf_counter() - started
        return result

    # -- writes (autocommit, read-your-writes) -----------------------------------

    def insert(self, table: str, rows) -> int:
        """Commit an insert batch and re-pin at the produced version."""
        self._check_open()
        version = self._database.insert(table, rows)
        self._after_write(version)
        return version

    def delete_rows(self, table: str, rows) -> int:
        """Commit a delete batch and re-pin at the produced version."""
        self._check_open()
        version = self._database.delete_rows(table, rows)
        self._after_write(version)
        return version

    def execute(self, sql: str) -> Relation | int:
        """Execute any supported statement in this session.

        A SELECT runs through :meth:`query`, against the pinned snapshot and
        with its cached plans; INSERT/DELETE commit through
        the database write lock and re-pin the session at the new version.
        """
        self._check_open()
        from repro.sql.parser import parse_statement, starts_with_select

        if starts_with_select(sql):
            return self.query(sql)
        version = self._database.execute_statement(parse_statement(sql))
        self._after_write(version)
        return version

    def _after_write(self, version: int) -> None:
        self.statistics.writes += 1
        if version != self._view.version:
            self._repin(version)

    # -- refresh -----------------------------------------------------------------

    def refresh(self, version: int | None = None) -> int:
        """Re-pin the session at ``version`` (default: the current version).

        Returns the new pinned version.  Pinned reads already materialized by
        other sessions at the target version are reused immediately.
        """
        self._check_open()
        # Validation and the re-pin happen under the database lock, so a
        # concurrent prune_history(prune_audit=True) -- which runs under the
        # same lock -- can never reclaim the target version's history between
        # the floor check and the pin landing in the registry.
        with self._database.lock:
            if version is None:
                version = self._database.version
            if version < 0 or version > self._database.version:
                raise StorageError(f"cannot pin unknown version {version}")
            if version < self._database.audit_floor:
                # History at or below the audit floor has been reclaimed;
                # pinning there would leave the session permanently unable to
                # materialize anything -- fail the refresh, not every later
                # query.
                raise StorageError(
                    f"cannot pin version {version}: audit history below version "
                    f"{self._database.audit_floor} has been pruned"
                )
            if version != self._view.version:
                self._repin(version)
        self.statistics.refreshes += 1
        return self._view.version

    def _repin(self, version: int) -> None:
        # The view first: it raises for a version whose catalog is gone,
        # before the registry moves the pin.
        view = SnapshotView(self._database, version)
        self._registry.repin(self._view.version, version)
        self._view = view
        self._evaluator = Evaluator(self._view)
        self._optimized_cache.clear()
        # Moving a pin up can strand snapshot batches below the new retention
        # floor; pruning here keeps a long-lived refreshing session (the
        # serving layer's steady state) from accumulating one full-table
        # batch per superseded version.
        self._database.prune_history()
