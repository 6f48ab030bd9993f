"""The IMP middleware and the baseline systems.

:class:`IMPSystem` realises the architecture of Fig. 2: it sits between the
application and the backend database, parses incoming SQL, decides whether a
query can be answered from an existing sketch (maintaining it first when
stale), captures new sketches when needed, rewrites queries to skip data using
sketches, and routes updates to the database while triggering eager or lazy
maintenance.

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
from repro.imp.scheduler import MaintenanceScheduler
from repro.imp.sketch_store import SketchEntry, SketchStore
from repro.imp.strategies import LazyStrategy, MaintenanceStrategy
from repro.relational.algebra import PlanNode
from repro.relational.optimizer import PlanOptimizer
from repro.relational.schema import Relation, Row
from repro.sketch.selection import build_database_partition
from repro.sketch.use import instrument_plan
from repro.sql import translator as sql_translator
from repro.sql.template import QueryTemplate, template_of
from repro.storage.database import Database
from repro.storage.delta import Delta


@dataclass
class SystemStatistics:
    """End-to-end counters of a query/update processing system."""

    queries: int = 0
    updates: int = 0
    update_tuples: int = 0
    sketch_hits: int = 0
    sketch_captures: int = 0
    sketch_maintenances: int = 0
    fallback_queries: int = 0
    query_seconds: float = 0.0
    update_seconds: float = 0.0
    maintenance_seconds: float = 0.0
    capture_seconds: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    def total_seconds(self) -> float:
        """Total time spent across queries, updates and maintenance."""
        return (
            self.query_seconds
            + self.update_seconds
            + self.maintenance_seconds
            + self.capture_seconds
        )


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
        """Apply an update (insert and/or delete batches) to the database."""
        started = time.perf_counter()
        stored = self.database.table(table)
        delta = Delta(stored.schema)
        for row in inserts:
            delta.add_insert(tuple(row))
        for row in deletes:
            delta.add_delete(tuple(row))
        version = self.database.version
        if delta:
            from repro.storage.delta import DatabaseDelta

            database_delta = DatabaseDelta()
            database_delta.set_delta(stored.name, delta)
            version = self.database.apply_database_delta(database_delta)
        with self._statistics_lock:
            self.statistics.updates += 1
            self.statistics.update_tuples += len(delta)
            self.statistics.update_seconds += time.perf_counter() - started
        if delta:
            # An empty update commits nothing: it must not advance
            # statement-counted eager batches or trigger maintenance rounds.
            self._after_update(stored.name, len(delta))
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
        # Under the write lock so multi-table plans read one committed state.
        with self.database.lock:
            result = self.database.query(sql)
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
        partition_method: str = "equi-depth",
        strategy: MaintenanceStrategy | None = None,
        store_capacity: int | None = None,
        store_max_bytes: int | None = None,
    ) -> None:
        super().__init__(database)
        self.num_fragments = num_fragments
        self.partition_method = partition_method
        self.strategy = strategy or LazyStrategy()
        # One optimizer per system: its cardinality estimator shares the
        # database's per-version statistics cache across queries.
        self._plan_optimizer = PlanOptimizer(database)
        self.store = SketchStore(capacity=store_capacity, max_bytes=store_max_bytes)
        # Both the eager (after-update) and lazy (query-time) maintenance
        # paths run through the shared-delta scheduler: one audit-log fetch
        # per distinct (table, version) group per round, compacted before
        # fan-out to the stale maintainers.
        self.scheduler = MaintenanceScheduler(database, self.store)
        # Serializes first-capture of a template: two sessions racing on the
        # same cold query must not both build partitions, indexes and
        # operator state.
        self._capture_lock = threading.Lock()
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
        started = time.perf_counter()
        try:
            # One parse feeds both the plan and the store key; it goes
            # through the translator module's name, as Database.plan does.
            statement = sql_translator.parse_select(sql)
            plan = self.database.translator().translate(statement)
            template = template_of(statement)
            entry = self.store.get(template)
            if entry is None:
                entry = self._capture_entry(sql, template, plan)
            if (
                entry is not None
                and entry.sql != sql
                and entry.plan.explain() != plan.explain()
            ):
                # The store is keyed by constant-free template, but an entry's
                # sketch and plan belong to the constants it was captured
                # with: another binding of the template is not answered from
                # them.
                entry = None
            if entry is None:
                # No usable sketch (no safe sketch attribute, unsupported
                # operator, or other constants): answer the query without
                # provenance-based data skipping.  Held under the write lock
                # so a multi-table plan cannot observe half of a concurrent
                # commit across its scans.
                with self._statistics_lock:
                    self.statistics.fallback_queries += 1
                with self.database.lock:
                    result = self.database.query(plan)
                return result
            with self._statistics_lock:
                self.statistics.sketch_hits += 1
            result = self._answer_with_sketch(entry)
            return result
        finally:
            with self._statistics_lock:
                self.statistics.queries += 1
                self.statistics.query_seconds += time.perf_counter() - started

    def _capture_entry(
        self, sql: str, template: QueryTemplate, plan: PlanNode
    ) -> SketchEntry | None:
        with self._capture_lock:
            # Double-checked: another session may have captured this template
            # while we waited for the lock (peek keeps hit/miss stats exact).
            existing = self.store.peek(template)
            if existing is not None:
                return existing
            return self._capture_entry_locked(sql, template, plan)

    def _capture_entry_locked(
        self, sql: str, template: QueryTemplate, plan: PlanNode
    ) -> SketchEntry | None:
        try:
            partition = build_database_partition(
                self.database, plan, self.num_fragments, self.partition_method
            )
            # Sketch attributes are chosen so that an efficient access path
            # exists (Sec. 7.4); create the backend index the use rewrite will
            # exploit for data skipping.
            for table_partition in partition:
                self.database.create_index(table_partition.table, table_partition.attribute)
            maintainer = self._make_maintainer(plan, partition)
            capture_started = time.perf_counter()
            result = maintainer.capture()
            capture_seconds = time.perf_counter() - capture_started
        except (SketchError, PlanError):
            return None
        entry = SketchEntry(
            template=template,
            sql=sql,
            plan=plan,
            partition=partition,
            maintainer=maintainer,
            capture_seconds=capture_seconds,
        )
        entry.maintenance_seconds += result.seconds
        self.store.put(entry)
        with self._statistics_lock:
            self.statistics.sketch_captures += 1
            self.statistics.capture_seconds += capture_seconds
        return entry

    def _answer_with_sketch(self, entry: SketchEntry) -> Relation:
        # Maintain-then-evaluate must be atomic against commits: the
        # instrumented plan's skip ranges are only sound for the version the
        # sketch was just brought to, so a commit between ensure and query
        # would produce a torn result (new rows in covered fragments visible,
        # new rows in skipped fragments silently dropped).  Lock order is
        # round lock then database lock -- the same order the background
        # maintenance rounds use -- so the two paths cannot deadlock.
        # Sessions are unaffected: their reads never touch these locks.
        with self.scheduler.round_lock, self.database.lock:
            return self._answer_with_sketch_locked(entry)

    def _answer_with_sketch_locked(self, entry: SketchEntry) -> Relation:
        maintenance_started = time.perf_counter()
        result = self.scheduler.ensure_entry(entry)
        maintenance_seconds = time.perf_counter() - maintenance_started
        # The staleness check and audit-log scan cost time even when they find
        # an empty delta; dropping no-op runs would understate maintenance.
        entry.maintenance_seconds += maintenance_seconds
        with self._statistics_lock:
            self.statistics.maintenance_seconds += maintenance_seconds
            if result.changed or result.delta_tuples:
                entry.maintenance_count += 1
                self.statistics.sketch_maintenances += 1
                self.store.statistics.maintenances += 1
        self.store.record_use(entry)
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
            entry.set_instrumented(plan, sketch)
        return self.database.query(plan)

    # -- update path (eager maintenance hook) ----------------------------------------------------

    def _after_update(self, table: str, delta_tuples: int) -> None:
        self.strategy.register_update(table, delta_tuples)
        tables = self.strategy.tables_to_maintain()
        if not tables:
            return
        started = time.perf_counter()
        report = self.scheduler.run_round(tables)
        self.strategy.acknowledge_round(tables, report)
        # Recorded regardless of whether the round changed anything: a round
        # that only discovers empty deltas still spent maintenance time.
        with self._statistics_lock:
            self.statistics.sketch_maintenances += report.changed
            self.statistics.maintenance_seconds += time.perf_counter() - started

    # -- background maintenance thread -----------------------------------------------------------

    @property
    def background_maintenance_active(self) -> bool:
        """Whether the background maintenance thread is currently running."""
        thread = self._maintenance_thread
        return thread is not None and thread.is_alive()

    def start_background_maintenance(self, interval: float = 0.05) -> None:
        """Run shared-delta maintenance rounds on a daemon thread.

        Rounds execute every ``interval`` seconds until
        :meth:`stop_background_maintenance`.  Sketch-answered queries are
        serialized with rounds (they hold the round lock across
        maintain+evaluate, so a query may wait for an in-flight round --
        though one whose sketch the round already repaired then finds an
        empty ensure); snapshot-session reads never touch these locks.
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
                        report = self.scheduler.run_round()
                    except Exception as exc:  # noqa: BLE001 - surfaced on stop()
                        self.maintenance_errors.append(exc)
                        continue
                    with self._statistics_lock:
                        self.statistics.sketch_maintenances += report.changed
                        self.statistics.maintenance_seconds += report.seconds

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
            report = self.scheduler.run_round()
            with self._statistics_lock:
                self.statistics.sketch_maintenances += report.changed
                self.statistics.maintenance_seconds += report.seconds
        if self.maintenance_errors:
            errors, self.maintenance_errors = self.maintenance_errors, []
            raise IMPError(
                f"background maintenance failed {len(errors)} time(s); first: "
                f"{errors[0]!r}"
            ) from errors[0]

    # -- reporting --------------------------------------------------------------------------------

    def summary(self) -> dict[str, object]:
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

    def __init__(
        self,
        database: Database,
        config: IMPConfig | None = None,
        num_fragments: int = 100,
        partition_method: str = "equi-depth",
        strategy: MaintenanceStrategy | None = None,
        store_capacity: int | None = None,
        store_max_bytes: int | None = None,
    ) -> None:
        self.config = config or IMPConfig()
        super().__init__(
            database,
            num_fragments=num_fragments,
            partition_method=partition_method,
            strategy=strategy,
            store_capacity=store_capacity,
            store_max_bytes=store_max_bytes,
        )

    def _make_maintainer(self, plan: PlanNode, partition) -> BaseMaintainer:
        return IncrementalMaintainer(self.database, plan, partition, self.config)


class FullMaintenanceSystem(SketchBasedSystem):
    """Baseline FM: sketches are recaptured from scratch whenever stale."""

    name = "full-maintenance"

    def _make_maintainer(self, plan: PlanNode, partition) -> BaseMaintainer:
        return FullMaintainer(self.database, plan, partition)


def make_system(kind: str, database: Database, **kwargs) -> WorkloadSystem:
    """Factory used by the benchmark harness (``imp``, ``fm`` or ``ns``)."""
    kind = kind.lower()
    if kind in ("imp", "incremental"):
        return IMPSystem(database, **kwargs)
    if kind in ("fm", "full", "full-maintenance"):
        return FullMaintenanceSystem(database, **kwargs)
    if kind in ("ns", "none", "no-sketch"):
        return NoSketchSystem(database, **kwargs)
    raise IMPError(f"unknown system kind {kind!r}")
