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

import bisect
import functools
import threading
import weakref
from collections.abc import Collection, Iterable, Sequence
from operator import attrgetter

from repro.core.errors import StorageError
from repro.relational.algebra import PlanNode
from repro.relational.columnar import ColumnBatch, SlotMap
from repro.relational.evaluator import Evaluator
from repro.relational.expressions import compile_batch_expression, strict_boolean
from repro.relational.kernels import filter_batch
from repro.relational.schema import Relation, Row, Schema
from repro.sql import translator as sql_translator
from repro.sql.ast import DeleteStatement, InsertStatement
from repro.sql.parser import parse_statement, starts_with_select
from repro.sql.template import QueryTemplate, template_of
from repro.sql.translator import Translator
from repro.storage.delta import DatabaseDelta, Delta
from repro.storage.recovery import DurabilityManager, RecoveryReport
from repro.storage.sessions import Session, SessionRegistry
from repro.storage.snapshots import AuditLog, AuditRecord
from repro.storage.statistics import ColumnStatistics, ColumnSummaries
from repro.storage.table import Catalog, StoredTable, canonical_items
from repro.storage.wal import FSYNC_ALWAYS, FileFactory


# SQL texts whose translation a database keeps; the least recently used one
# goes first beyond it.
PLAN_CACHE_SIZE = 256


class _CatalogKey:
    """The catalog half of a plan-cache key: equal to every key of the same
    catalog version.  It names its catalog weakly, so a cached plan keeps no
    pruned catalog, and no dropped table, alive."""

    __slots__ = ("version", "catalog")

    def __init__(self, catalog: Catalog) -> None:
        self.version = catalog.version
        self.catalog = weakref.ref(catalog)

    def __hash__(self) -> int:
        return hash(self.version)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _CatalogKey) and other.version == self.version


def _translate(key: _CatalogKey, sql: str) -> tuple[PlanNode, QueryTemplate]:
    """One parse feeds both the plan and the template, translated against
    the key's catalog (alive: the caller holds it).  The parser and
    translator are reached by their module names, so tracing that wraps
    those names sees a miss."""
    statement = sql_translator.parse_select(sql)
    return Translator(key.catalog()).translate(statement), template_of(statement)


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
        # The live catalog.  Every DDL commit replaces it by a copy and
        # appends that copy to ``_catalogs``, the catalog history (one
        # :class:`Catalog` per DDL version, oldest first), so a map once
        # published never changes and a pinned reader resolves names in the
        # catalog of its version.  The history starts at the catalog in
        # effect at the retention floor (see :meth:`prune_history`);
        # ``_dropped`` holds the dropped tables it still reaches, and no
        # catalog below ``_catalog_floor`` (the newest drop it let go, or the
        # checkpoint a recovery loaded) can be rebuilt (:meth:`catalog_at`).
        self._tables: dict[str, StoredTable] = {}
        self._catalogs = [Catalog(0, self._tables)]
        self._dropped: list[StoredTable] = []
        self._catalog_floor = 0
        self._version = 0
        self._audit_log = AuditLog()
        self._scan_counter = 0
        self._index_scan_counter = 0
        self._delta_fetch_counter = 0
        # table -> delta tuples ever committed to it (multiplicities counted),
        # a running total: the tuples committed between two moments are the
        # difference of two readings (:meth:`tuple_counts`).
        self._committed_tuples: dict[str, int] = {}
        # Column summaries of the *current* version; every committed update
        # and every drop clears them, so a kept one is always as fresh as
        # the data it summarises.
        self._summaries = ColumnSummaries()
        # (catalog version, SQL text) -> (translated plan, template) (see
        # :meth:`translation_at`).
        self._translations = functools.lru_cache(maxsize=PLAN_CACHE_SIZE)(_translate)
        # The single write lock.  Reentrant so compound update paths (a
        # DELETE statement collects its victims, then commits) stay atomic
        # without special-casing the nested _commit acquisition.
        self._lock = threading.RLock()
        self._sessions = SessionRegistry()
        # Highest version whose audit records have been reclaimed
        # (prune_history(prune_audit=True)); sessions may not re-pin below it
        # because those versions can no longer be rematerialized.
        self._audit_floor = 0
        # Durability: None (the default) keeps the database purely in-memory.
        # ``_durability`` is assigned only after recovery finishes, so the
        # commits and DDL recovery replays through the live methods never
        # write back to the WAL or checkpoint.
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

    @property
    def catalog_version(self) -> int:
        """The version of the newest DDL commit (``create_table`` or
        ``drop_table``; a checkpoint load counts as one at the checkpoint's
        version), read from the catalog history."""
        return self._catalogs[-1].version

    def catalog_at(self, version: int) -> Catalog:
        """The catalog as of ``version``: that of the newest DDL commit at or
        before it.

        Below the oldest catalog the history keeps, every DDL commit down to
        ``version`` is a ``create_table`` as long as ``version`` is at or
        above the newest drop the history let go: that catalog is rebuilt
        from the oldest one, without the tables created after ``version``.
        Further down it is gone, and :class:`StorageError` says so.
        """
        catalogs = self._catalogs
        position = bisect.bisect_right(catalogs, version, key=attrgetter("version"))
        if position:
            return catalogs[position - 1]
        if version < self._catalog_floor:
            raise StorageError(f"the catalog of version {version} has been pruned")
        tables = {
            name: stored
            for name, stored in catalogs[0].tables.items()
            if stored.created_version <= version
        }
        created = [stored.created_version for stored in tables.values()]
        return Catalog(max([self._catalog_floor, *created]), tables)

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
            table.created_version = version = self._version + 1
            # Log-before-apply: a failed WAL append raises here and the
            # catalog is untouched, so memory never runs ahead of the log.
            if self._durability is not None:
                self._durability.log_create_table(
                    name, table.schema, table.primary_key, version
                )
            self._commit_catalog({**self._tables, name: table})
            return table

    def drop_table(self, name: str) -> None:
        """Remove ``name`` from the catalog, as a commit of its own version.

        The dropped table stays in the catalogs of the versions before the
        drop: a session pinned there, or ``snapshot_relation`` at such a
        version, reads its schema and rows, rolled back through its own audit
        deltas only.  A table later *recreated* under the name is another
        table, which versions before its creation do not see.  The table
        goes when no session pins a version before the drop any more
        (:meth:`prune_history`, which also runs right after the drop), and
        a version before it is then one whose catalog has been pruned.
        """
        name = name.lower()
        with self._lock:
            stored = self.table(name)
            version = self._version + 1
            if self._durability is not None:
                self._durability.log_drop_table(name, version)
            stored.dropped_version = version
            self._dropped.append(stored)
            self._commit_catalog({key: t for key, t in self._tables.items() if key != name})
            self._summaries.clear()

    def _commit_catalog(self, tables: dict[str, StoredTable]) -> None:
        """Publish ``tables`` as the catalog of the next version and advance
        the version to it (under the write lock, after the WAL record).  A
        lock-free reader that reads the version first never sees a catalog
        newer than it."""
        self._tables = tables
        self._catalogs.append(Catalog(self._version + 1, tables))
        self._version += 1
        self.prune_history()

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
            if stored.has_index(attribute):
                return
            # Built (and refused) before the record is logged: a logged index
            # that cannot be built would stop the data directory from opening.
            index = stored.build_index(attribute)
            if self._durability is not None:
                self._durability.log_create_index(stored.name, attribute)
            stored.add_index(index)

    def has_index(self, table: str, attribute: str) -> bool:
        """Whether ``table.attribute`` carries an ordered index."""
        return self.table(table).has_index(attribute)

    def indexed_attributes(self, table: str) -> list[str]:
        """Attributes of ``table`` that carry an ordered index."""
        return self.table(table).indexed_attributes()

    def index_scan(self, table: str, attribute: str, intervals) -> ColumnBatch | None:
        """Index range scan over ``table.attribute`` (used by the evaluator):
        a lazy per-query batch over the table's schema, one entry per fetched
        row, in index order (:meth:`ColumnBatch.from_fetched_rows`) -- or
        None where the bounds do not order against the indexed values (a
        number against text), for the caller to filter a full scan."""
        with self._lock:
            stored = self.table(table)
            try:
                rows, multiplicities = stored.rows_in_intervals(attribute, intervals)
            except TypeError:
                return None
            self._index_scan_counter += 1
        return ColumnBatch.from_fetched_rows(
            stored.schema, rows, multiplicities, consolidated=True
        )

    def index_lookup(
        self, table: str, attribute: str, values: Iterable[object], max_share: float
    ) -> ColumnBatch | None:
        """Index point lookup (the evaluator's lookup join): a lazy per-query
        batch over the table's schema of the rows whose ``attribute`` value is
        one of ``values`` -- one index bucket per value, in the order of
        ``values``, arrival order within one -- or None, reading no row, when
        those rows are more than ``max_share`` of the table's.  ``values``
        must be distinct by dict equality.  A lookup taken counts as an index
        scan."""
        with self._lock:
            stored = self.table(table)
            fetched = stored.rows_with_values(attribute, values, max_share)
            if fetched is None:
                return None
            self._index_scan_counter += 1
        rows, multiplicities = fetched
        return ColumnBatch.from_fetched_rows(
            stored.schema, rows, multiplicities, consolidated=True
        )

    @property
    def index_scan_count(self) -> int:
        """Number of selections served by an index range scan, and of join
        inputs served by an index lookup."""
        return self._index_scan_counter

    def row_count(self, table: str) -> int:
        """Current number of rows of ``table`` (duplicates included)."""
        return len(self.table(table))

    # -- versions & deltas --------------------------------------------------------------

    @property
    def version(self) -> int:
        """The current snapshot identifier (0 for a freshly created database):
        every data commit and every DDL commit (``create_table``,
        ``drop_table``) advances it by one."""
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
        """The combined delta of ``table`` between versions ``since`` and
        ``until``: the data commits of the live table, none of a table
        dropped before it was created."""
        with self._lock:
            until = self._version if until is None else until
            self._validate_versions(since, until)
            self._delta_fetch_counter += 1
            return self._live_delta(self.table(table), since, until)

    def database_delta_since(
        self, tables: Iterable[str], since: int, until: int | None = None
    ) -> DatabaseDelta:
        """Per-table deltas for ``tables`` between two versions (each as
        :meth:`delta_since` reads it)."""
        with self._lock:
            until = self._version if until is None else until
            self._validate_versions(since, until)
            stored = {table: self.table(table) for table in tables}
            self._delta_fetch_counter += len(stored)
            result = DatabaseDelta()
            for table, live in stored.items():
                delta = self._live_delta(live, since, until)
                if delta:
                    result.set_delta(table, delta)
            return result

    def _live_delta(self, stored: StoredTable, since: int, until: int) -> Delta:
        since = max(since, stored.created_version)
        return self._audit_log.delta_between(stored.name, stored.schema, since, until)

    def tables_changed_since(self, since: int, until: int | None = None) -> set[str]:
        """Live tables touched by any data commit in ``(since, until]``."""
        with self._lock:
            until = self._version if until is None else until
            self._validate_versions(since, until)
            return {
                name
                for name, stored in self._tables.items()
                if self._audit_log.deltas_between(
                    name, max(since, stored.created_version), until
                )
            }

    def tuple_counts(self, tables: Iterable[str]) -> tuple[int, int]:
        """The delta tuples ever committed to ``tables`` and the rows they
        hold now (duplicates counted)."""
        with self._lock:
            committed = self._committed_tuples
            return (
                sum(committed.get(table, 0) for table in tables),
                sum(len(self.table(table)) for table in tables),
            )

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
        delta = Delta.from_rows(stored.schema, inserts=rows)
        if not delta:
            return self._version
        return self._commit({stored.name: delta})

    def delete_rows(self, table: str, rows: Iterable[Row]) -> int:
        """Delete specific rows from ``table``; returns the new snapshot identifier."""
        stored = self.table(table)
        delta = Delta.from_rows(stored.schema, deletes=rows)
        if not delta:
            return self._version
        return self._commit({stored.name: delta})

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
            # table contents diverged from the audit log.  Applying freezes
            # each delta, which the table's queue and the audit log then share.
            for table, delta in deltas.items():
                self.table(table).check_delta(delta)
            # Write-ahead: the commit record must be in the log before any
            # in-memory effect.  A failed append (disk full, I/O error) raises
            # StorageError here, the commit is cleanly aborted, and the WAL has
            # rolled itself back to the previous record boundary.
            if self._durability is not None:
                self._durability.log_commit(self._version + 1, deltas)
            for table, delta in deltas.items():
                self.table(table).apply_delta(delta)
            self._version += 1
            committed = self._committed_tuples
            for table, delta in deltas.items():
                self.table(table).record_modified(self._version)
                committed[table] = committed.get(table, 0) + len(delta)
            # WAL replay commits here too, so the audit log holds replayed
            # history: sessions pin it and maintainers resume across a crash.
            self._audit_log.append(AuditRecord(self._version, dict(deltas)))
            self._summaries.clear()
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

    def _restore(self, version: int, tables: list[StoredTable]) -> None:
        """Checkpoint-load hook, driven only by DurabilityManager.attach()
        during recovery, before ``_durability`` is assigned: ``tables`` are
        the catalog from ``version`` on."""
        # The checkpoint is the oldest state recovery can reconstruct: audit
        # records at or below its version exist only in rotated-away WAL
        # segments, so delta reads reaching below it must fail loudly.
        for stored in tables:
            stored.created_version = version
        self._tables = {stored.name: stored for stored in tables}
        self._catalogs = [Catalog(version, self._tables)]
        self._catalog_floor = version
        self._version = version
        self._audit_floor = version

    # -- query evaluation -----------------------------------------------------------------

    def evaluator(self) -> Evaluator:
        """The query engine bound to this database.

        Plans are optimized (predicate pushdown to the scans, join
        reordering, projection pruning) and executed on the columnar batch
        kernels.
        """
        return Evaluator(self)

    def translation(self, sql: str) -> tuple[PlanNode, QueryTemplate]:
        """The logical plan and the sketch template of a SQL query against
        the newest catalog (:meth:`translation_at`)."""
        catalog = self._catalogs[-1]  # held: the key names it weakly
        return self._translations(_CatalogKey(catalog), sql)

    def translation_at(self, version: int, sql: str) -> tuple[PlanNode, QueryTemplate]:
        """The logical plan and the sketch template of a SQL query against
        the catalog of ``version``.

        A text is parsed, translated and templated once per catalog: the pair
        is cached under ``(catalog version, text)`` (at most
        :data:`PLAN_CACHE_SIZE` entries, least recently used evicted), errors
        are not, and a miss translates against the catalog it looked up.
        The live database and every session read this one cache.  Every
        caller shares the returned plan: never modify it.
        """
        catalog = self.catalog_at(version)  # held: the key names it weakly
        return self._translations(_CatalogKey(catalog), sql)

    def plan(self, sql: str) -> PlanNode:
        """The logical plan of a SQL query, from :meth:`translation`'s cache."""
        return self.translation(sql)[0]

    def query(
        self,
        query: str | PlanNode,
        optimize_plans: bool = True,
        vectorize: bool = True,
    ) -> Relation:
        """Evaluate a SQL string or a logical plan.

        ``vectorize=False`` selects the reference oracle
        (:class:`~repro.relational.oracle.RowEvaluator`, row-at-a-time
        operators; with ``optimize_plans=False`` on the literal plan shape)
        that the engine is compared against.  The two keyword arguments have
        four callers: ``tests/reference.py`` (``oracle`` and ``engine``),
        ``bench/run.py::verify``, and the two figures that time the engine
        against the oracle, ``benchmarks/test_fig21_optimizer.py`` and
        ``benchmarks/test_fig22_vectorized.py``; nothing else should pass
        them.  No lock is held, so the answer names no ``version``.
        """
        plan = self.plan(query) if isinstance(query, str) else query
        if vectorize:
            return Evaluator(self, optimize_plans).evaluate(plan)
        from repro.relational.oracle import RowEvaluator

        return RowEvaluator(self, optimize_plans).evaluate(plan)

    def execute(self, sql: str) -> Relation | int:
        """Execute any supported statement.

        SELECT statements return a relation; INSERT/DELETE return the new
        snapshot identifier.  A SELECT text is answered by :meth:`query`, so
        a repeat is not parsed or translated again.
        """
        if starts_with_select(sql):
            return self.query(sql)
        return self.execute_statement(parse_statement(sql))

    def execute_statement(self, statement: InsertStatement | DeleteStatement) -> int:
        """Execute an already-parsed INSERT or DELETE (sessions parse once and
        dispatch here instead of re-parsing through :meth:`execute`); a
        SELECT goes through :meth:`query`."""
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
        where = statement.where
        with self._lock:
            if where is None:
                return self.delete_rows(stored.name, list(stored.rows()))
            batch = stored.as_column_batch()
            values = compile_batch_expression(where, stored.schema)(batch.columns, len(batch))
            victims = filter_batch(batch, values, strict_boolean(where)).to_relation()
            return self.delete_rows(stored.name, victims.rows())

    # -- statistics ---------------------------------------------------------------------------

    def _column(self, table: str, attribute: str) -> tuple[list[object], Collection[int]]:
        """``table.attribute`` of every distinct row, and the rows' multiplicities."""
        stored = self.table(table)
        return stored.column(stored.schema.index_of(attribute))

    def column_statistics(self, table: str, attribute: str) -> ColumnStatistics:
        """Summary statistics for one column.

        Kept per (table, attribute) until the next committed update, so
        repeated sketch-range selection and the plan optimizer's cardinality
        estimator do not rescan whole columns.
        """
        with self._lock:
            return self._summaries.column_statistics(self._column, table.lower(), attribute)

    def equi_depth_ranges(self, table: str, attribute: str, num_buckets: int) -> list[float]:
        """Equi-depth histogram boundaries for ``table.attribute``.

        These boundaries are the ranges used when creating sketches
        (paper Sec. 7.4) and the interval-selectivity source of the plan
        optimizer.  Kept like :meth:`column_statistics`; a copy is returned.
        """
        with self._lock:
            return self._summaries.equi_depth_ranges(
                self._column, table.lower(), attribute, num_buckets
            )

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

        ``table`` is the table of that name in the catalog of ``version``
        (:meth:`catalog_at`), dropped since or not; a name absent there is an
        unknown table.  The first read of a (table, effective-version) pair
        materializes the batch under the write lock by rolling the table's
        last contents back through its inverted audit deltas newer than the
        pinned version; the result is cached in the stored table, so every
        later read of the same snapshot -- by any session -- is a lock-free
        dictionary hit on immutable data.
        """
        # Validate before the lock-free fast path too: an out-of-range
        # version must never be silently served from a cache hit (reading
        # ``_version`` without the lock is sound -- it only grows, so a stale
        # read can only over-reject a version committed this very instant).
        if version < 0 or version > self._version:
            raise StorageError(f"unknown version {version}")
        stored = self.catalog_at(version).table(table)
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
                # The table's own records: none from before its creation or
                # after its drop, when other tables held the name.
                history = self._audit_log.deltas_between(
                    stored.name,
                    max(effective, stored.created_version),
                    stored.dropped_version,
                )
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
                # backwards (a delta's inserts undone as deletes and its
                # deletes as inserts); no columns, the canonical sort
                # re-pivots anyway.
                counts = dict(stored.items())
                slots, multiplicities = SlotMap(counts), list(counts.values())
                for delta in reversed(history):
                    slots.apply((), multiplicities, delta.inserts(), delta.deletes())
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
        safe to drop.  So are the catalogs older than the one in effect at
        the floor, and with them every table dropped at or below it: the
        history keeps neither its rows nor its batches, and a version before
        such a drop has no catalog any more (:meth:`catalog_at`).  Audit
        records at or below the floor are only dropped on request
        (``prune_audit=True``), because incremental sketch maintainers may
        still need deltas older than any session pin.

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
                dropped_snapshots += stored.prune_snapshots(stored.effective_version(floor))
            first = bisect.bisect_right(self._catalogs, floor, key=attrgetter("version")) - 1
            if first > 0:
                self._catalogs = self._catalogs[first:]
            kept = []
            for stored in self._dropped:
                if stored.dropped_version <= floor:
                    # Every key is at most its last modification, before the drop.
                    dropped_snapshots += stored.prune_snapshots(stored.dropped_version)
                    self._catalog_floor = max(self._catalog_floor, stored.dropped_version)
                else:
                    dropped_snapshots += stored.prune_snapshots(stored.effective_version(floor))
                    kept.append(stored)
            self._dropped = kept
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
        """The contents of ``table`` as of ``version`` (a fresh mutable copy),
        ``table`` resolved in the catalog of ``version``.

        That is the live table when it is the one of that version and no
        commit after ``version`` touched it -- checked and copied under the
        write lock, so a racing commit falls wholly before the check or wholly
        after the copy -- and otherwise the per-version snapshot cache, which
        rolls the table back through the audit log.  Counts as one scan like
        :meth:`relation`.
        """
        if version > self._version or version < 0:
            raise StorageError(f"unknown version {version}")
        with self._lock:
            stored = self.catalog_at(version).table(table)
            if stored.dropped_version is None and stored.last_modified_version <= version:
                return self.relation(table)
            self._scan_counter += 1
            batch = self.snapshot_batch(table, version)
        return batch.to_relation()
