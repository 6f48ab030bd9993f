"""The in-memory versioned backend database.

:class:`Database` plays the role of the Postgres backend in the paper's
architecture (Fig. 2): it stores base tables, answers SQL / relational algebra
queries under bag semantics, applies updates transactionally -- each commit
producing a new snapshot identifier -- and serves deltas between versions from
its audit log.  IMP talks to it for

* full query evaluation (the non-sketch baseline and sketch-instrumented
  queries),
* full sketch capture (full-maintenance baseline),
* delta extraction for incremental maintenance, and
* evaluating ``ΔR ⋈ S`` join deltas that IMP outsources to the backend.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Sequence

from repro.core.errors import StorageError
from repro.relational.algebra import PlanNode
from repro.relational.columnar import ColumnBatch, SlotMap
from repro.relational.evaluator import Evaluator
from repro.relational.expressions import compile_batch_expression, strict_boolean
from repro.relational.kernels import filter_batch
from repro.relational.schema import Relation, Row, Schema
from repro.sql.ast import DeleteStatement, InsertStatement, SelectStatement
from repro.sql.parser import parse_statement
from repro.sql.translator import Translator
from repro.storage.delta import DatabaseDelta, Delta
from repro.storage.recovery import DurabilityManager, RecoveryReport
from repro.storage.sessions import Session, SessionRegistry
from repro.storage.snapshots import AuditLog, AuditRecord
from repro.storage.statistics import (
    ColumnStatistics,
    collect_column_statistics,
    equi_depth_boundaries,
)
from repro.storage.table import StoredTable, canonical_items
from repro.storage.wal import FSYNC_ALWAYS, FileFactory


class Database:
    """An in-memory, versioned, bag-semantics relational database.

    Thread safety (MVCC-style): a single reentrant write lock serializes
    commits (delta validation, table mutation, version advance, audit-log
    append, cache invalidation) and the legacy read paths that touch live
    mutable state (:meth:`relation`, :meth:`column_batch`, :meth:`index_scan`,
    the statistics caches).  Concurrent sessions (:meth:`connect`) instead
    read *pinned snapshots*: committed versions are immutable, so once a
    snapshot batch is materialized (briefly under the lock) every subsequent
    read of that version is lock-free.
    """

    def __init__(
        self,
        name: str = "imp",
        data_dir: str | None = None,
        fsync: str = FSYNC_ALWAYS,
        checkpoint_interval: int | None = None,
        batch_interval: int = 32,
        files: FileFactory | None = None,
    ) -> None:
        """Create an in-memory database, optionally backed by a data directory.

        With the default ``data_dir=None`` nothing touches disk and behavior
        is exactly as before.  With a directory, every commit and DDL change
        is appended to a write-ahead log *before* it applies in memory
        (``fsync`` controls the durability/latency tradeoff: ``"always"``,
        ``"batch"`` -- every ``batch_interval`` commits -- or ``"off"``), and
        an existing directory is first recovered: newest valid checkpoint,
        then WAL tail replay, torn trailing record truncated.
        ``checkpoint_interval`` commits between automatic checkpoints
        (``None`` = only explicit :meth:`checkpoint` calls).
        """
        self.name = name
        self._tables: dict[str, StoredTable] = {}
        self._version = 0
        self._audit_log = AuditLog()
        self._scan_counter = 0
        self._index_scan_counter = 0
        self._delta_fetch_counter = 0
        # Statistics are cached per (table, attribute) for the *current*
        # version; every committed update invalidates the whole cache, so a
        # cached entry is always as fresh as the data it summarises.
        self._statistics_cache: dict[tuple, object] = {}
        # The single write lock.  Reentrant so compound update paths
        # (delete_where: collect victims, then commit) stay atomic without
        # special-casing the nested _commit acquisition.
        self._lock = threading.RLock()
        self._sessions = SessionRegistry()
        # Highest version whose audit records have been reclaimed
        # (prune_history(prune_audit=True)); sessions may not re-pin below it
        # because those versions can no longer be rematerialized.
        self._audit_floor = 0
        # Durability: None (the default) keeps the database purely in-memory.
        # ``_durability`` is assigned only after recovery finishes, so the
        # _restore_* hooks recovery drives never write back to the WAL.
        self._durability: DurabilityManager | None = None
        self._recovery_report: RecoveryReport | None = None
        if data_dir is not None:
            manager = DurabilityManager(
                data_dir,
                fsync=fsync,
                batch_interval=batch_interval,
                checkpoint_interval=checkpoint_interval,
                files=files,
            )
            self._recovery_report = manager.attach(self)
            self._durability = manager

    @property
    def lock(self) -> threading.RLock:
        """The database write lock (exposed for coarse external critical
        sections, e.g. the serving benchmark's lock-everything baseline)."""
        return self._lock

    # -- catalog -------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[str] | Schema,
        primary_key: str | None = None,
    ) -> StoredTable:
        """Create an empty table; raises when the name is already taken."""
        name = name.lower()
        with self._lock:
            if name in self._tables:
                raise StorageError(f"table {name!r} already exists")
            table = StoredTable(
                name, columns if isinstance(columns, Schema) else Schema(columns), primary_key
            )
            # Log-before-apply: a failed WAL append raises here and the
            # catalog is untouched, so memory never runs ahead of the log.
            if self._durability is not None:
                self._durability.log_create_table(name, table.schema, table.primary_key)
            self._tables[name] = table
            return table

    def drop_table(self, name: str) -> None:
        """Remove a table, its data and its audit history.

        Dropping destroys version history: snapshot sessions that already
        materialized the table keep reading their immutable batches, but
        un-materialized snapshot reads of a dropped table raise, and a table
        later *recreated* under the same name is a brand-new table -- its
        snapshots never roll back through the old table's deltas (the audit
        log forgets the name), so old pins read the new table's history only.
        """
        name = name.lower()
        with self._lock:
            if name not in self._tables:
                raise StorageError(f"unknown table {name!r}")
            if self._durability is not None:
                self._durability.log_drop_table(name)
            del self._tables[name]
            self._audit_log.forget_table(name)
            self._statistics_cache.clear()

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name.lower() in self._tables

    def table(self, name: str) -> StoredTable:
        """The stored table object for ``name``."""
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise StorageError(f"unknown table {name!r}") from exc

    def table_names(self) -> list[str]:
        """Names of all tables."""
        return sorted(self._tables)

    # -- RelationProvider / SchemaProvider protocol -----------------------------------

    def relation(self, table: str) -> Relation:
        """The current contents of ``table`` as a relation.

        Takes the write lock: reading live table state while a multi-table
        commit is mid-apply would observe a torn database.  Sessions read
        pinned snapshots instead and skip this lock entirely.  The rows come
        in the order :meth:`column_batch` enumerates them at this version.
        """
        with self._lock:
            self._scan_counter += 1
            return self.table(table).as_relation()

    def column_batch(self, table: str):
        """The current contents of ``table`` as a shared columnar batch.

        Serves the evaluator's table scans.  One batch object per
        version: repeated scans share it, and the first scan after a commit
        gets the previous batch brought forward by the committed deltas
        (:meth:`StoredTable.as_column_batch`), not a re-pivot.  Counts as a
        full scan exactly like :meth:`relation` (it reads the whole table),
        keeping the scan-count instrumentation comparable between the engine
        and the row oracle.  The batch is shared and must not be mutated.
        """
        with self._lock:
            self._scan_counter += 1
            return self.table(table).as_column_batch()

    def schema_of(self, table: str) -> Schema:
        """The schema of ``table``."""
        return self.table(table).schema

    # -- physical design (secondary indexes) ----------------------------------------------

    def create_index(self, table: str, attribute: str) -> None:
        """Create an ordered index on ``table.attribute`` (idempotent)."""
        with self._lock:
            stored = self.table(table)
            if self._durability is not None and not stored.has_index(attribute):
                self._durability.log_create_index(stored.name, attribute)
            stored.create_index(attribute)

    def has_index(self, table: str, attribute: str) -> bool:
        """Whether ``table.attribute`` carries an ordered index."""
        return self.table(table).has_index(attribute)

    def indexed_attributes(self, table: str) -> list[str]:
        """Attributes of ``table`` that carry an ordered index."""
        return self.table(table).indexed_attributes()

    def index_scan(self, table: str, attribute: str, intervals) -> list[tuple[Row, int]]:
        """Index range scan over ``table.attribute`` (used by the evaluator)."""
        with self._lock:
            self._index_scan_counter += 1
            return list(self.table(table).rows_in_intervals(attribute, intervals))

    @property
    def index_scan_count(self) -> int:
        """Number of selections served by an index range scan."""
        return self._index_scan_counter

    def row_count(self, table: str) -> int:
        """Current number of rows of ``table`` (duplicates included)."""
        return len(self.table(table))

    # -- versions & deltas --------------------------------------------------------------

    @property
    def version(self) -> int:
        """The current snapshot identifier (0 for a freshly created database)."""
        return self._version

    @property
    def audit_log(self) -> AuditLog:
        """The append-only audit log of committed updates."""
        return self._audit_log

    @property
    def scan_count(self) -> int:
        """Number of base-table scans served (a rough I/O cost proxy)."""
        return self._scan_counter

    @property
    def delta_fetch_count(self) -> int:
        """Number of per-table audit-log delta extractions served.

        The maintenance scheduler's shared-delta rounds are judged by this
        counter: one fetch per distinct (table, version-range) group instead of
        one per registered sketch.
        """
        return self._delta_fetch_counter

    def delta_since(self, table: str, since: int, until: int | None = None) -> Delta:
        """The combined delta of ``table`` between versions ``since`` and ``until``."""
        with self._lock:
            until = self._version if until is None else until
            self._validate_versions(since, until)
            self._delta_fetch_counter += 1
            return self._audit_log.delta_between(table, self.schema_of(table), since, until)

    def database_delta_since(
        self, tables: Iterable[str], since: int, until: int | None = None
    ) -> DatabaseDelta:
        """Per-table deltas for ``tables`` between two versions."""
        with self._lock:
            until = self._version if until is None else until
            self._validate_versions(since, until)
            schemas = {table: self.schema_of(table) for table in tables}
            self._delta_fetch_counter += len(schemas)
            return self._audit_log.database_delta_between(schemas, since, until)

    def tables_changed_since(self, since: int, until: int | None = None) -> set[str]:
        """Tables touched by any committed update in ``(since, until]``."""
        with self._lock:
            until = self._version if until is None else until
            self._validate_versions(since, until)
            return self._audit_log.tables_changed_between(since, until)

    def _validate_versions(self, since: int, until: int) -> None:
        if since < 0 or until > self._version or since > until:
            raise StorageError(
                f"invalid version range ({since}, {until}] for database at version "
                f"{self._version}"
            )
        if since < self._audit_floor:
            # Records in (since, audit_floor] were reclaimed: answering from
            # the remaining tail would silently truncate the delta (a sketch
            # maintained with it would drop every change in the pruned gap).
            # Loud failure here is the contract that makes
            # prune_history(prune_audit=True) safe to expose.
            raise StorageError(
                f"cannot read deltas since version {since}: audit history at "
                f"or below version {self._audit_floor} has been pruned"
            )

    # -- updates ------------------------------------------------------------------------

    def insert(self, table: str, rows: Iterable[Row]) -> int:
        """Insert rows into ``table``; returns the new snapshot identifier."""
        stored = self.table(table)
        delta = Delta(stored.schema)
        count = 0
        for row in rows:
            delta.add_insert(tuple(row))
            count += 1
        if count == 0:
            return self._version
        return self._commit({stored.name: delta})

    @staticmethod
    def _validate_delta(stored: StoredTable, delta: Delta) -> None:
        """Reject infeasible deltas before any row of a commit is applied.

        ``StoredTable`` raises on duplicate keys and over-deletes too, but by
        then earlier rows of the batch are already applied while the commit
        never lands in the audit log; validating up front keeps commits
        atomic.  Checks: (1) every delete is covered by stored copies,
        (2) no insert reuses a primary key -- deletes are applied before
        inserts, so a key whose current holder is fully deleted by the same
        delta is free for reuse.
        """
        deleted: dict[Row, int] = {}
        for row, multiplicity in delta.deletes():
            deleted[row] = deleted.get(row, 0) + multiplicity
        for row, multiplicity in deleted.items():
            held = stored.multiplicity(row)
            if multiplicity > held:
                raise StorageError(
                    f"delta deletes {multiplicity} copies of a row but table "
                    f"{stored.name!r} only holds {held}"
                )
        if stored.primary_key is None:
            return
        position = stored.schema.index_of(stored.primary_key)
        batch: dict[object, Row] = {}
        for row, _multiplicity in delta.inserts():
            key = row[position]
            other = batch.get(key)
            if other is not None and other != row:
                raise StorageError(
                    f"duplicate primary key {key!r} within one update batch "
                    f"for table {stored.name!r}"
                )
            batch[key] = row
            existing = stored.lookup_by_key(key)
            if (
                existing is not None
                and existing != row
                and deleted.get(existing, 0) < stored.multiplicity(existing)
            ):
                raise StorageError(
                    f"duplicate primary key {key!r} in table {stored.name!r}: "
                    f"row {existing!r} already holds it"
                )

    def delete_rows(self, table: str, rows: Iterable[Row]) -> int:
        """Delete specific rows from ``table``; returns the new snapshot identifier."""
        stored = self.table(table)
        delta = Delta(stored.schema)
        count = 0
        for row in rows:
            delta.add_delete(tuple(row))
            count += 1
        if count == 0:
            return self._version
        return self._commit({stored.name: delta})

    def delete_where(self, table: str, predicate: Callable[[Row], bool]) -> int:
        """Delete rows satisfying ``predicate``; returns the new snapshot identifier.

        Victim collection and the commit happen under one lock acquisition
        (the lock is reentrant), so a concurrent writer cannot delete the
        victims first and fail this commit's validation.
        """
        with self._lock:
            stored = self.table(table)
            victims: list[Row] = []
            for row, multiplicity in stored.items():
                if predicate(row):
                    victims.extend([row] * multiplicity)
            return self.delete_rows(table, victims)

    def apply_database_delta(self, delta: DatabaseDelta) -> int:
        """Apply a multi-table delta as a single committed update."""
        per_table = {table: d for table, d in delta.items() if d}
        if not per_table:
            return self._version
        return self._commit(per_table)

    def _commit(self, deltas: dict[str, Delta]) -> int:
        # The entire commit -- validation, table mutation, version advance,
        # audit append, cache invalidation -- happens under the write lock so
        # concurrent readers and writers never observe a torn state.
        with self._lock:
            # Validate before mutating anything: a mid-apply error would leave
            # table contents diverged from the audit log.
            for table, delta in deltas.items():
                self._validate_delta(self.table(table), delta)
            # Write-ahead: the commit record must be in the log before any
            # in-memory effect.  A failed append (disk full, I/O error) raises
            # StorageError here, the commit is cleanly aborted, and the WAL has
            # rolled itself back to the previous record boundary.
            if self._durability is not None:
                self._durability.log_commit(self._version + 1, deltas)
            for table, delta in deltas.items():
                self.table(table).apply_delta(delta)
            self._version += 1
            for table in deltas:
                self.table(table).record_modified(self._version)
            self._audit_log.append(AuditRecord(self._version, dict(deltas)))
            self._statistics_cache.clear()
            if self._durability is not None and self._durability.auto_checkpoint_due():
                try:
                    self._durability.checkpoint(self)
                except StorageError:
                    # The commit itself is durable and applied; a failed
                    # *automatic* checkpoint must not turn it into an error.
                    # The interval counter was not reset, so the next commit
                    # retries (the failure stays visible on
                    # ``self._durability.last_checkpoint_error``).
                    pass
            return self._version

    # -- durability -----------------------------------------------------------------------

    @property
    def is_durable(self) -> bool:
        """Whether this database is backed by a data directory."""
        return self._durability is not None

    @property
    def data_dir(self) -> str | None:
        """The backing data directory (``None`` for in-memory databases)."""
        return self._durability.data_dir if self._durability is not None else None

    @property
    def recovery_report(self) -> RecoveryReport | None:
        """What recovery found when this database opened its data directory."""
        return self._recovery_report

    @property
    def last_checkpoint_version(self) -> int:
        """Version of the last durable checkpoint (0 when none exists)."""
        return self._durability.checkpoint_version if self._durability is not None else 0

    def checkpoint(self) -> str:
        """Write a full durable snapshot now; returns the checkpoint path.

        Rotates the WAL, so recovery time stops growing with history length;
        also establishes the new retention floor audit pruning respects.
        """
        if self._durability is None:
            raise StorageError("checkpoint requires a durable database (pass data_dir)")
        with self._lock:
            return self._durability.checkpoint(self)

    def close(self) -> None:
        """Flush and close the write-ahead log (no-op for in-memory databases).

        The data directory remains recoverable whether or not this is called;
        closing only releases the file handle and flushes ``fsync="batch"``
        tails.
        """
        with self._lock:
            if self._durability is not None:
                self._durability.close()

    # Restore hooks -- driven only by DurabilityManager.attach() during
    # recovery, before ``_durability`` is assigned, so nothing here writes
    # back to the WAL.

    def _restore_table(self, stored: StoredTable) -> None:
        self._tables[stored.name] = stored

    def _restore_drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise StorageError(f"WAL replays DROP of unknown table {name!r}")
        del self._tables[name]
        self._audit_log.forget_table(name)

    def _restore_version(self, version: int) -> None:
        # The checkpoint is the oldest state recovery can reconstruct: audit
        # records at or below its version exist only in rotated-away WAL
        # segments, so delta reads reaching below it must fail loudly.
        self._version = version
        self._audit_floor = version

    def _restore_commit(self, version: int, deltas: dict[str, Delta]) -> None:
        for table, delta in deltas.items():
            self.table(table).apply_delta(delta)
        self._version = version
        for table in deltas:
            self.table(table).record_modified(version)
        # Reseeding the audit log makes replayed history first-class: sessions
        # can pin and roll back to any replayed version, and incremental
        # maintainers resume delta extraction across the crash.
        self._audit_log.append(AuditRecord(version, dict(deltas)))

    # -- query evaluation -----------------------------------------------------------------

    def evaluator(self) -> Evaluator:
        """The query engine bound to this database.

        Plans are optimized (predicate pushdown to the scans, join
        reordering, projection pruning) and executed on the columnar batch
        kernels.
        """
        return Evaluator(self)

    def translator(self) -> Translator:
        """A SQL-to-algebra translator bound to this database's catalog."""
        return Translator(self)

    def plan(self, sql: str) -> PlanNode:
        """Parse and translate a SQL query into a logical plan."""
        return self.translator().translate_sql(sql)

    def query(
        self,
        query: str | PlanNode | SelectStatement,
        optimize_plans: bool = True,
        vectorize: bool = True,
    ) -> Relation:
        """Evaluate a SQL string, parsed statement, or logical plan.

        ``vectorize=False`` selects the reference oracle
        (:class:`~repro.relational.oracle.RowEvaluator`, row-at-a-time
        operators; with ``optimize_plans=False`` on the literal plan shape)
        that the differential tests and the benchmark's verify pass compare
        the engine against.  Nothing else should pass it.
        """
        if isinstance(query, str):
            plan = self.plan(query)
        elif isinstance(query, SelectStatement):
            plan = self.translator().translate(query)
        else:
            plan = query
        if vectorize:
            return Evaluator(self, optimize_plans).evaluate(plan)
        from repro.relational.oracle import RowEvaluator

        return RowEvaluator(self, optimize_plans).evaluate(plan)

    def execute(self, sql: str) -> Relation | int:
        """Execute any supported statement.

        SELECT statements return a relation; INSERT/DELETE return the new
        snapshot identifier.
        """
        return self.execute_statement(parse_statement(sql))

    def execute_statement(
        self, statement: SelectStatement | InsertStatement | DeleteStatement
    ) -> Relation | int:
        """Execute an already-parsed statement (sessions parse once and
        dispatch here instead of re-parsing through :meth:`execute`)."""
        if isinstance(statement, SelectStatement):
            return self.query(statement)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement)
        raise StorageError(f"unsupported statement {type(statement).__name__}")

    def _execute_insert(self, statement: InsertStatement) -> int:
        stored = self.table(statement.table)
        rows = []
        for values in statement.rows:
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise StorageError("INSERT arity does not match the column list")
                by_name = dict(zip(statement.columns, values))
                row = tuple(
                    by_name.get(Schema.bare_name(attribute)) for attribute in stored.schema
                )
            else:
                row = tuple(values)
            rows.append(row)
        return self.insert(stored.name, rows)

    def _execute_delete(self, statement: DeleteStatement) -> int:
        stored = self.table(statement.table)
        if statement.where is None:
            return self.delete_rows(stored.name, list(stored.rows()))
        where = statement.where
        # As in :meth:`delete_where`, victims are collected and committed
        # under one lock acquisition.
        with self._lock:
            batch = stored.as_column_batch()
            values = compile_batch_expression(where, stored.schema)(batch.columns, len(batch))
            victims = filter_batch(batch, values, strict_boolean(where)).to_relation()
            return self.delete_rows(stored.name, victims.rows())

    # -- statistics ---------------------------------------------------------------------------

    def column_statistics(self, table: str, attribute: str) -> ColumnStatistics:
        """Summary statistics for one column.

        Cached per (table, attribute) until the next committed update, so
        repeated sketch-range selection and the plan optimizer's cardinality
        estimator do not rescan whole columns.
        """
        with self._lock:
            stored = self.table(table)
            key = ("column", stored.name, attribute)
            cached = self._statistics_cache.get(key)
            if cached is not None:
                return cached  # type: ignore[return-value]
            index = stored.schema.index_of(attribute)
            values = [row[index] for row in stored.rows()]
            statistics = collect_column_statistics(attribute, values)
            self._statistics_cache[key] = statistics
            return statistics

    def equi_depth_ranges(self, table: str, attribute: str, num_buckets: int) -> list[float]:
        """Equi-depth histogram boundaries for ``table.attribute``.

        These boundaries are the ranges used when creating sketches
        (paper Sec. 7.4) and the interval-selectivity source of the plan
        optimizer.  Cached like :meth:`column_statistics`; a copy is returned
        so callers cannot corrupt the cached list.
        """
        with self._lock:
            stored = self.table(table)
            key = ("equi-depth", stored.name, attribute, num_buckets)
            cached = self._statistics_cache.get(key)
            if cached is None:
                values = stored.column_values(attribute)
                cached = equi_depth_boundaries([float(v) for v in values], num_buckets)
                self._statistics_cache[key] = cached
            return list(cached)  # type: ignore[arg-type]

    # -- sessions & snapshots ------------------------------------------------------------------

    @property
    def session_registry(self) -> SessionRegistry:
        """The registry of active snapshot sessions (drives retention)."""
        return self._sessions

    def connect(self, name: str | None = None) -> Session:
        """Open a session pinned at the current snapshot version.

        Pinning happens under the write lock, so the session's version cannot
        be pruned between reading it and registering the pin.  Sessions are
        cheap: nothing is materialized until the session's first read.
        """
        with self._lock:
            return Session(self, self._sessions, self._version, name=name)

    def snapshot_batch(self, table: str, version: int) -> ColumnBatch:
        """The contents of ``table`` as of ``version``, as an immutable batch.

        The first read of a (table, effective-version) pair materializes the
        batch under the write lock by rolling the current contents back
        through the inverted audit deltas newer than the pinned version; the
        result is cached in the stored table, so every later read of the same
        snapshot -- by any session -- is a lock-free dictionary hit on
        immutable data.
        """
        # Validate before the lock-free fast path too: an out-of-range
        # version must never be silently served from a cache hit (reading
        # ``_version`` without the lock is sound -- it only grows, so a stale
        # read can only over-reject a version committed this very instant).
        if version < 0 or version > self._version:
            raise StorageError(f"unknown version {version}")
        stored = self.table(table)
        effective = stored.effective_version(version)
        cached = stored.snapshot_batch(effective)
        if cached is not None:
            return cached
        with self._lock:
            # Re-check under the lock: another session may have materialized
            # the same snapshot while this one waited.
            cached = stored.snapshot_batch(effective)
            if cached is not None:
                return cached
            if effective == stored.last_modified_version:
                entries = stored.items()
            else:
                history = self._audit_log.table_deltas_after(stored.name, effective)
                if len(history) < stored.modifications_after(effective):
                    # All newer modifications must still be in the audit log
                    # to roll back to ``effective``; retention (prune floor =
                    # oldest pinned version) guarantees this for registered
                    # sessions.
                    raise StorageError(
                        f"snapshot history of table {stored.name!r} below version "
                        f"{version} has been pruned"
                    )
                # The same apply that brings the live batch forward, run
                # backwards; no columns, the canonical sort re-pivots anyway.
                counts = dict(stored.items())
                slots, multiplicities = SlotMap(counts), list(counts.values())
                for _newer, delta in reversed(history):
                    undo = delta.inverted()
                    slots.apply((), multiplicities, undo.deletes(), undo.inserts())
                entries = zip(slots.rows(), multiplicities)
            # Canonical order makes the snapshot a function of the version's
            # content alone (recovered and pinned reads are bit-identical).
            batch = ColumnBatch.from_items(
                stored.schema, canonical_items(entries), consolidated=True
            )
            stored.store_snapshot(effective, batch)
            return batch

    def prune_history(self, prune_audit: bool = False) -> dict[str, int]:
        """Reclaim snapshot caches (and optionally audit records) no active
        session can reach.

        The retention floor is the oldest pinned version of the session
        registry (the current version when no session is open): snapshot
        batches keyed below the floor's effective version are unreachable --
        future sessions pin at or above the current version -- and are always
        safe to drop.  Audit records at or below the floor are only dropped on
        request (``prune_audit=True``), because incremental sketch maintainers
        may still need deltas older than any session pin.

        Durable databases additionally clamp the audit prune floor to the
        last checkpoint version: the in-memory audit tail must stay at least
        as long as the on-disk WAL tail, or a crash right after pruning would
        recover commits the live process had already forgotten.  Run
        :meth:`checkpoint` first to advance that floor.
        """
        with self._lock:
            floor = self._sessions.oldest_pinned()
            if floor is None:
                floor = self._version
            dropped_snapshots = 0
            for stored in self._tables.values():
                dropped_snapshots += stored.prune_snapshots(
                    stored.effective_version(floor)
                )
            dropped_records = 0
            if prune_audit:
                protect_after = (
                    self._durability.checkpoint_version
                    if self._durability is not None
                    else None
                )
                dropped_records = self._audit_log.prune_before(
                    floor, protect_after=protect_after
                )
                if protect_after is not None:
                    floor = min(floor, protect_after)
                self._audit_floor = max(self._audit_floor, floor)
            return {
                "floor": floor,
                "snapshots": dropped_snapshots,
                "audit_records": dropped_records,
            }

    @property
    def audit_floor(self) -> int:
        """Oldest version still materializable after audit pruning.

        Sessions use it to reject re-pins at versions whose history is gone
        (:meth:`Session.refresh`); 0 until ``prune_history(prune_audit=True)``
        first reclaims records.
        """
        return self._audit_floor

    def _on_session_closed(self) -> None:
        """Session-close hook: drop snapshot caches made unreachable."""
        self.prune_history(prune_audit=False)

    # -- maintenance helpers -------------------------------------------------------------------

    def snapshot_relation(self, table: str, version: int) -> Relation:
        """The contents of ``table`` as of ``version`` (a fresh mutable copy).

        That is the live table when no commit after ``version`` touched it --
        checked and copied under the write lock, so a racing commit falls
        wholly before the check or wholly after the copy -- and otherwise the
        per-version snapshot cache, which rolls the table back through the
        audit log.  Counts as one scan like :meth:`relation`.
        """
        if version > self._version or version < 0:
            raise StorageError(f"unknown version {version}")
        with self._lock:
            if self.table(table).last_modified_version <= version:
                return self.relation(table)
            self._scan_counter += 1
        return self.snapshot_batch(table, version).to_relation()
