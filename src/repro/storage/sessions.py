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
  plan optimizer probes for).  Reads are lock-free after the first
  materialization because committed versions are immutable; the view
  deliberately does *not* expose the live secondary indexes -- those track
  the current version only -- so snapshot queries run vectorized full scans
  over the cached immutable batch.
* :class:`Session` wraps a view with a query API (plan caching per session),
  autocommit write passthroughs that re-pin the session at its own commit
  (read-your-writes), explicit :meth:`Session.refresh`, and a context-manager
  lifecycle whose close unpins the version and lets the database prune.

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
from repro.sql.ast import SelectStatement
from repro.sql.translator import Translator
from repro.storage.statistics import (
    ColumnStatistics,
    collect_column_statistics,
    equi_depth_boundaries,
)

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

    def active_sessions(self) -> int:
        """Number of currently open sessions."""
        with self._lock:
            return sum(self._pins.values())

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

    Batches, schemas and statistics are memoized per view: once a table is
    materialized (see :meth:`Database.snapshot_batch`), every read is a plain
    attribute access on immutable data with no shared-state synchronization.
    """

    def __init__(self, database: "Database", version: int) -> None:
        self._database = database
        self.version = version
        self._batches: dict[str, "ColumnBatch"] = {}
        self._statistics: dict[tuple[str, str], ColumnStatistics] = {}
        self._ranges: dict[tuple[str, str, int], list[float]] = {}

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
        """The schema of ``table`` as of the pinned version."""
        return self._batch(table).schema

    # -- duck-typed statistics interface (plan optimizer) --------------------------

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
        key = (table.lower(), attribute)
        cached = self._statistics.get(key)
        if cached is None:
            batch = self._batch(table)
            position = batch.schema.index_of(attribute)
            values: list[object] = []
            for value, multiplicity in zip(
                batch.columns[position], batch.multiplicities
            ):
                values.extend([value] * multiplicity)
            cached = collect_column_statistics(attribute, values)
            self._statistics[key] = cached
        return cached

    def equi_depth_ranges(
        self, table: str, attribute: str, num_buckets: int
    ) -> list[float]:
        """Equi-depth histogram boundaries over the snapshot column."""
        key = (table.lower(), attribute, num_buckets)
        cached = self._ranges.get(key)
        if cached is None:
            batch = self._batch(table)
            position = batch.schema.index_of(attribute)
            values: list[float] = []
            for value, multiplicity in zip(
                batch.columns[position], batch.multiplicities
            ):
                if value is None:
                    continue
                values.extend([float(value)] * multiplicity)
            cached = equi_depth_boundaries(values, num_buckets)
            self._ranges[key] = cached
        return list(cached)


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
        # Both caches are valid per pinned version only and are cleared on
        # re-pin: optimized plans bake in the snapshot's statistics, and raw
        # plans bind column positions of the catalog as seen at translation
        # time (a drop+recreate with a different schema must re-translate).
        self._plan_cache: dict[str, PlanNode] = {}
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
        """Parse and translate ``sql`` against the snapshot's catalog.

        Plans are cached per SQL text for the life of the *pin*: the cache is
        cleared on every re-pin, so a table dropped and recreated with a
        different schema between refreshes can never be read through a plan
        translated against the old schema.
        """
        plan = self._plan_cache.get(sql)
        if plan is None:
            plan = Translator(self._view).translate_sql(sql)
            self._plan_cache[sql] = plan
        return plan

    def query(self, query: str | PlanNode | SelectStatement) -> Relation:
        """Evaluate a query against the pinned snapshot.

        Accepts SQL text, a parsed SELECT statement, or a logical plan, like
        :meth:`Database.query`, but every base-table read comes from the
        immutable snapshot -- concurrent commits are invisible until
        :meth:`refresh`.
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
        elif isinstance(query, SelectStatement):
            plan = Translator(self._view).translate(query)
        else:
            plan = query
        result = evaluator.evaluate(plan)
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

        SELECTs run against the pinned snapshot; INSERT/DELETE commit through
        the database write lock and re-pin the session at the new version.
        """
        self._check_open()
        from repro.sql.parser import parse_statement

        statement = parse_statement(sql)
        if isinstance(statement, SelectStatement):
            return self.query(statement)
        result = self._database.execute_statement(statement)
        if isinstance(result, int):
            self._after_write(result)
        return result

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
        self._registry.repin(self._view.version, version)
        self._view = SnapshotView(self._database, version)
        self._evaluator = Evaluator(self._view)
        self._plan_cache.clear()
        self._optimized_cache.clear()
        # Moving a pin up can strand snapshot batches below the new retention
        # floor; pruning here keeps a long-lived refreshing session (the
        # serving layer's steady state) from accumulating one full-table
        # batch per superseded version.
        self._database.prune_history()
