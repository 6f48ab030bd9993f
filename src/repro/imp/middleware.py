"""The IMP middleware and the baseline systems.

:class:`IMPSystem` realises the architecture of Fig. 2: it sits between the
application and the backend database, parses incoming SQL, decides whether a
query can be answered from an existing sketch (maintaining it first when
stale, unless the sketch skips nothing and its backlog is still small),
captures new sketches when needed, rewrites queries to skip data using
sketches, and routes updates to the database while triggering eager or lazy
maintenance.  Every maintenance runs through the system's
:class:`~repro.imp.scheduler.MaintenanceScheduler`, which alone counts and
times it: ``SystemStatistics.sketch_maintenances`` and
``maintenance_seconds`` read the scheduler's statistics.

Two baselines mirror the paper's experiments:

* :class:`NoSketchSystem` (NS) runs every query directly against the backend.
* :class:`FullMaintenanceSystem` (FM) uses sketches but recaptures them from
  scratch whenever they become stale.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.errors import IMPError, PlanError, SketchError
from repro.imp.engine import IMPConfig
from repro.imp.maintenance import BaseMaintainer, FullMaintainer, IncrementalMaintainer
from repro.imp.scheduler import MaintenanceScheduler, SchedulerStatistics
from repro.imp.sketch_store import SketchEntry, SketchStore
from repro.imp.strategies import LazyStrategy, MaintenanceStrategy
from repro.relational.algebra import PlanNode
from repro.relational.optimizer import PlanOptimizer
from repro.relational.schema import Relation, Row
from repro.sketch.selection import build_database_partition
from repro.sketch.use import instrument_plan, skips_nothing
# Unused here (``Database.translation`` templates a text), but
# ``bench/spans.py`` wraps ``template_of`` under this module's name.
from repro.sql.template import QueryTemplate, template_of  # noqa: F401
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta, Delta


def _same_plan(entry: SketchEntry, plan: PlanNode) -> bool:
    """Whether ``entry``'s plan is ``plan``, the same binding.  One text at
    one catalog version is one cached object; an entry kept across DDL on
    another table holds an older catalog's, so renderings are compared, and
    when they agree the entry takes ``plan`` for the identity check next."""
    if entry.plan is plan:
        return True
    if entry.plan.explain() != plan.explain():
        return False
    entry.plan = plan
    return True


@dataclass
class SystemStatistics:
    """End-to-end counters of a query/update processing system; those of
    maintenance are the ``scheduler``'s (zero for a system without one).
    ``deferred_ensures`` counts sketch-answered queries that left their
    stale sketch unmaintained because it skips nothing."""

    queries: int = 0
    updates: int = 0
    update_tuples: int = 0
    sketch_hits: int = 0
    sketch_captures: int = 0
    fallback_queries: int = 0
    deferred_ensures: int = 0
    query_seconds: float = 0.0
    update_seconds: float = 0.0
    capture_seconds: float = 0.0
    scheduler: SchedulerStatistics = field(default_factory=SchedulerStatistics)

    @property
    def sketch_maintenances(self) -> int:
        """Sketches maintained that changed or read a delta."""
        return self.scheduler.changed

    @property
    def maintenance_seconds(self) -> float:
        """Time spent in maintenance rounds and lazy ensures: part of
        ``query_seconds`` and ``update_seconds``, except background rounds."""
        return self.scheduler.seconds

    def total_seconds(self) -> float:
        """Wall time spent in queries and updates; captures, lazy ensures
        and eager rounds run inside them."""
        return self.query_seconds + self.update_seconds


class WorkloadSystem:
    """Common interface of the three systems compared in the experiments."""

    name = "abstract"

    def __init__(self, database: Database) -> None:
        self.database = database
        self.statistics = SystemStatistics()
        # Aggregate counters are mutated by query threads, the update path
        # and the background maintenance thread; CPython ``+=`` on attributes
        # is not atomic, so every mutation happens under this lock.
        self._statistics_lock = threading.Lock()

    # -- workload API -----------------------------------------------------------------

    def run_query(self, sql: str) -> Relation:
        """Answer a SQL query."""
        raise NotImplementedError

    def apply_update(
        self,
        table: str,
        inserts: Iterable[Row] = (),
        deletes: Iterable[Row] = (),
    ) -> int:
        """Apply an update (insert and/or delete batches) to the database;
        ``update_seconds`` times the call, eager maintenance included."""
        started = time.perf_counter()
        stored = self.database.table(table)
        delta = Delta.from_rows(stored.schema, inserts, deletes)
        version = self.database.version
        if delta:
            database_delta = DatabaseDelta()
            database_delta.set_delta(stored.name, delta)
            version = self.database.apply_database_delta(database_delta)
        try:
            if delta:
                # An empty update commits nothing: it must not advance
                # statement-counted eager batches or trigger maintenance rounds.
                self._after_update(stored.name, len(delta))
        finally:
            with self._statistics_lock:
                self.statistics.updates += 1
                self.statistics.update_tuples += len(delta)
                self.statistics.update_seconds += time.perf_counter() - started
        return version

    def _after_update(self, table: str, delta_tuples: int) -> None:
        """Hook for sketch-based systems (eager maintenance)."""
        return None

    def summary(self) -> dict[str, object]:
        """Aggregate report used by the benchmark harness."""
        return {
            "system": self.name,
            "queries": self.statistics.queries,
            "updates": self.statistics.updates,
            "total_seconds": self.statistics.total_seconds(),
        }


class NoSketchSystem(WorkloadSystem):
    """Baseline NS: every query is evaluated on the full database."""

    name = "no-sketch"

    def run_query(self, sql: str) -> Relation:
        started = time.perf_counter()
        # Under the write lock so multi-table plans read one committed state,
        # the version the answer names.
        with self.database.lock:
            result = self.database.query(sql)
            result.version = self.database.version
        with self._statistics_lock:
            self.statistics.queries += 1
            self.statistics.query_seconds += time.perf_counter() - started
        return result


class SketchBasedSystem(WorkloadSystem):
    """Shared logic of IMP and the full-maintenance baseline."""

    def __init__(
        self,
        database: Database,
        num_fragments: int = 100,
        strategy: MaintenanceStrategy | None = None,
        store_max_bytes: int | None = None,
    ) -> None:
        super().__init__(database)
        self.num_fragments = num_fragments
        self.strategy = strategy or LazyStrategy()
        # One optimizer per system: its cardinality estimator shares the
        # database's per-version statistics cache across queries.
        self._plan_optimizer = PlanOptimizer(database)
        self.store = SketchStore(max_bytes=store_max_bytes)
        # Both the eager (after-update) and lazy (query-time) maintenance
        # paths run through the shared-delta scheduler: one audit-log fetch
        # per distinct (table, version) group per round, compacted before
        # fan-out to the stale maintainers.
        self.scheduler = MaintenanceScheduler(database, self.store)
        self.statistics.scheduler = self.scheduler.statistics
        self._maintenance_stop = threading.Event()
        self._maintenance_thread: threading.Thread | None = None
        # Guards start/stop of the maintenance thread: without it two
        # concurrent starts could each spawn a loop and orphan the first
        # (its stop event would be overwritten, making it unstoppable).
        self._maintenance_control = threading.Lock()
        self.maintenance_errors: list[BaseException] = []

    # -- maintainer factory (differs between IMP and FM) ----------------------------------

    def _make_maintainer(self, plan: PlanNode, partition) -> BaseMaintainer:
        raise NotImplementedError

    # -- query path -------------------------------------------------------------------------

    def run_query(self, sql: str) -> Relation:
        """Answer ``sql`` in one critical section: the round lock, which
        guards the store, the engines and the scheduler, then the database
        write lock, the order rounds take them in.  Inside, the text is
        translated, the store retires what a DDL change left behind, the
        template is looked up (and captured on a miss), and the query is
        answered from the sketch or without one.  A sketch's skip ranges are
        sound only at the version it was maintained to, so no commit may
        land between maintaining and evaluating; the answer's ``version`` is
        that one version.  Snapshot sessions never touch these locks."""
        started = time.perf_counter()
        try:
            with self.scheduler.round_lock, self.database.lock:
                # The plan and the store key come from the database's one
                # SQL-text cache: a repeated text is not parsed again.
                plan, template = self.database.translation(sql)
                self.store.retire(self.database.catalog_at(self.database.version))
                entry = self.store.get(template)
                if entry is None:
                    entry = self._capture_entry(sql, template, plan)
                # The store is keyed by constant-free template, but an
                # entry's sketch and plan belong to the constants it was
                # captured with: another binding is not answered from them.
                if entry is not None and _same_plan(entry, plan):
                    result = self._answer_with_sketch(entry)
                    with self._statistics_lock:
                        self.statistics.sketch_hits += 1
                else:
                    # No usable sketch (no safe sketch attribute, unsupported
                    # operator or other constants): answer the query without
                    # provenance-based data skipping.
                    with self._statistics_lock:
                        self.statistics.fallback_queries += 1
                    result = self.database.query(plan)
                result.version = self.database.version
                return result
        finally:
            with self._statistics_lock:
                self.statistics.queries += 1
                self.statistics.query_seconds += time.perf_counter() - started

    def _capture_entry(
        self, sql: str, template: QueryTemplate, plan: PlanNode
    ) -> SketchEntry | None:
        """Capture and register ``template``'s entry for ``plan`` (None when
        the plan has no sketch).  The caller holds the round lock and the
        database lock: the store may hand the new engine a node other entries
        read, built at this version, and the capture then reads the node's
        result back, so from that hand-over through registration no commit
        may move the version and no round the node."""
        try:
            partition = build_database_partition(self.database, plan, self.num_fragments)
            # Sketch attributes are chosen so that an efficient access path
            # exists (Sec. 7.4); create the backend index the use rewrite
            # will exploit for data skipping.
            for table_partition in partition:
                self.database.create_index(table_partition.table, table_partition.attribute)
            maintainer = self._make_maintainer(plan, partition)
        except (SketchError, PlanError):
            return None
        entry = SketchEntry(
            template=template, sql=sql, plan=plan, partition=partition, maintainer=maintainer
        )
        self.store.intern(entry, self.database.version)
        try:
            capture_seconds = maintainer.capture().seconds
        except (SketchError, PlanError):
            return None
        self.store.put(entry)
        with self._statistics_lock:
            self.statistics.sketch_captures += 1
            self.statistics.capture_seconds += capture_seconds
        return entry

    def _answer_with_sketch(self, entry: SketchEntry) -> Relation:
        """``entry``'s answer, maintained first unless it may be deferred;
        the caller holds the round lock and the database lock."""
        backlog = self._deferred_backlog(entry)
        if backlog is None:
            self.scheduler.ensure_entry(entry)
        elif backlog:
            with self._statistics_lock:
                self.statistics.deferred_ensures += 1
        self.store.touch(entry)
        sketch = entry.sketch
        assert sketch is not None
        # Optimizing the instrumented plan merges the injected sketch
        # disjunction with pushed-down user predicates at each scan, so the
        # backend serves both from one index range scan; the plan kept in the
        # store entry stays unoptimized (capture and incremental maintenance
        # operate on the translator's shape).  The rewritten plan is a
        # function of the entry's plan and the sketch, so it is cached on the
        # entry beside the sketch it was built for and reused until
        # maintenance actually changes the sketch.
        plan = entry.instrumented_plan
        if plan is None or entry.instrumented_sketch != sketch:
            plan = self._plan_optimizer.optimize(instrument_plan(entry.plan, sketch))
            entry.set_instrumented(plan, sketch, skips_nothing(entry.plan, sketch))
        if backlog is None and entry.skips_nothing:
            entry.caught_up = (
                entry.valid_at_version,
                *self.database.tuple_counts(entry.referenced_tables()),
            )
        return self.database.query(plan)

    def _deferred_backlog(self, entry: SketchEntry) -> int | None:
        """The delta tuples a query may leave unmaintained in ``entry``, or
        None when it must ensure the entry first.

        A sketch that skips nothing adds no predicate, so its cached plan is
        the plain plan and right at every version (a superset of a safe
        sketch is safe, Sec. 2).  Such an entry is answered as it stands
        until the tuples committed to its tables since it was last current
        reach the rows those tables held then; one ensure then catches up on
        the compacted backlog, which costs about what the updates in it
        would have.  A round that moved the entry since (its
        ``valid_at_version`` differs) makes the query ensure it again.  The
        entry stays stale and due meanwhile, so rounds and share groups move
        it as before.
        """
        mark = entry.caught_up
        if not entry.skips_nothing or mark is None or mark[0] != entry.valid_at_version:
            return None
        _version, committed_then, rows_then = mark
        backlog = self.database.tuple_counts(entry.referenced_tables())[0] - committed_then
        return backlog if backlog < rows_then else None

    # -- update path (eager maintenance hook) ----------------------------------------------------

    def _after_update(self, table: str, delta_tuples: int) -> None:
        self.strategy.register_update(table, delta_tuples)
        tables = self.strategy.tables_to_maintain()
        if tables:
            self.scheduler.run_round(tables)
            self.strategy.acknowledge_maintenance(tables)

    # -- background maintenance thread -----------------------------------------------------------

    @property
    def background_maintenance_active(self) -> bool:
        """Whether the background maintenance thread is currently running."""
        thread = self._maintenance_thread
        return thread is not None and thread.is_alive()

    def start_background_maintenance(self, interval: float = 0.05) -> None:
        """Run shared-delta maintenance rounds on a daemon thread.

        Rounds execute every ``interval`` seconds until
        :meth:`stop_background_maintenance`.  Queries are serialized with
        rounds (each holds the round lock from translation to answer, so a
        query may wait for an in-flight round -- though one whose sketch the
        round already repaired then finds an empty ensure); snapshot-session
        reads never touch these locks.
        Exceptions inside a round are recorded in ``maintenance_errors``
        (re-raised by ``stop_background_maintenance``) instead of silently
        killing the thread.  Idempotent while a thread is active.
        """
        with self._maintenance_control:
            if self.background_maintenance_active:
                return
            self._maintenance_stop = threading.Event()
            stop = self._maintenance_stop

            def loop() -> None:
                while not stop.wait(interval):
                    try:
                        self.scheduler.run_round()
                    except Exception as exc:  # noqa: BLE001 - surfaced on stop()
                        self.maintenance_errors.append(exc)

            self._maintenance_thread = threading.Thread(
                target=loop, name=f"{self.name}-maintenance", daemon=True
            )
            self._maintenance_thread.start()

    def stop_background_maintenance(self, drain: bool = False) -> None:
        """Stop the background thread (joining it) and surface its errors.

        With ``drain=True`` one final synchronous round runs after the join,
        so every registered sketch is current when this method returns.
        """
        with self._maintenance_control:
            thread = self._maintenance_thread
            if thread is None:
                return
            self._maintenance_stop.set()
            thread.join()
            self._maintenance_thread = None
        if drain:
            self.scheduler.run_round()
        if self.maintenance_errors:
            errors, self.maintenance_errors = self.maintenance_errors, []
            raise IMPError(
                f"background maintenance failed {len(errors)} time(s); first: "
                f"{errors[0]!r}"
            ) from errors[0]

    # -- reporting --------------------------------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """The base report plus the store's and the scheduler's, read under
        the round lock: no round changes the operator state it sizes."""
        with self.scheduler.round_lock:
            report = super().summary()
            report.update(
                {
                    "sketches": len(self.store),
                    "captures": self.statistics.sketch_captures,
                    "maintenances": self.statistics.sketch_maintenances,
                    "fallback_queries": self.statistics.fallback_queries,
                    "strategy": self.strategy.describe(),
                    "sketch_memory_bytes": self.store.memory_bytes(),
                    "store_evictions": self.store.statistics.evictions,
                    "scheduler": self.scheduler.summary(),
                }
            )
        return report


class IMPSystem(SketchBasedSystem):
    """The IMP middleware: PBDS with incremental sketch maintenance."""

    name = "imp"

    def _make_maintainer(self, plan: PlanNode, partition) -> BaseMaintainer:
        return IncrementalMaintainer(self.database, plan, partition, IMPConfig())


class FullMaintenanceSystem(SketchBasedSystem):
    """Baseline FM: sketches are recaptured from scratch whenever stale."""

    name = "full-maintenance"

    def _make_maintainer(self, plan: PlanNode, partition) -> BaseMaintainer:
        return FullMaintainer(self.database, plan, partition)
