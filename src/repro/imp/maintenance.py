"""Maintainers: incremental (IMP) and full maintenance (the FM baseline).

A maintainer owns the sketch of a single query: it captures the sketch, keeps
track of the database version the sketch is valid for, and brings the sketch up
to date when the database has moved on.  The incremental maintainer feeds
deltas through an :class:`~repro.imp.engine.IncrementalEngine`; the full
maintainer simply re-runs the capture query, which is the baseline IMP is
compared against throughout Sec. 8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.imp.engine import IMPConfig, IncrementalEngine, capture_sketch
from repro.imp.operators import EngineStatistics
from repro.relational.algebra import PlanNode
from repro.sketch.ranges import DatabasePartition
from repro.sketch.sketch import ProvenanceSketch, SketchDelta
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta

DEFAULT_VERSION_RETENTION = 4
"""How many past sketch versions a maintainer keeps by default.

Retention exists so concurrent readers can keep using the version their
transaction started on (Sec. 2); an unbounded history would grow with every
maintenance round, so only the most recent versions are kept."""


@dataclass
class MaintenanceResult:
    """Outcome of bringing a sketch up to date."""

    sketch: ProvenanceSketch
    sketch_delta: SketchDelta = field(default_factory=SketchDelta.empty)
    delta_tuples: int = 0
    recaptured: bool = False
    seconds: float = 0.0

    @property
    def changed(self) -> bool:
        """Whether the maintained sketch differs from the previous version."""
        return bool(self.sketch_delta) or self.recaptured


class BaseMaintainer:
    """Shared bookkeeping of incremental and full maintainers."""

    consumes_deltas = False
    """Whether :meth:`maintain_with` reads the delta it is handed.  The
    scheduler skips audit-log fetches for groups only referenced by
    maintainers that repair without deltas (the full-maintenance baseline)."""

    def __init__(
        self,
        database: Database,
        plan: PlanNode,
        partition: DatabasePartition,
        retain_versions: int = DEFAULT_VERSION_RETENTION,
    ) -> None:
        if retain_versions < 1:
            raise ValueError("retain_versions must be at least 1")
        self.database = database
        self.plan = plan
        self.partition = partition
        self.retain_versions = retain_versions
        self.sketch: ProvenanceSketch | None = None
        self.valid_at_version: int | None = None
        self.sketch_versions: list[tuple[int, ProvenanceSketch]] = []

    @property
    def is_captured(self) -> bool:
        """Whether an initial sketch exists."""
        return self.sketch is not None

    def is_stale(self) -> bool:
        """Whether the database has been updated since the sketch was maintained."""
        if self.sketch is None or self.valid_at_version is None:
            return True
        if self.database.version == self.valid_at_version:
            return False
        changed = self.database.tables_changed_since(self.valid_at_version)
        return bool(changed & self.plan.referenced_tables())

    def _record_version(
        self, sketch: ProvenanceSketch, version: int | None = None
    ) -> None:
        # Sketches are immutable: IMP retains past versions to avoid write
        # conflicts between concurrent transactions (Sec. 2).  Retention is
        # bounded: keeping every version forever would leak one sketch per
        # maintenance round.
        if version is None:
            version = self.database.version
        self.sketch = sketch
        self.valid_at_version = version
        self.sketch_versions.append((version, sketch))
        if len(self.sketch_versions) > self.retain_versions:
            del self.sketch_versions[: -self.retain_versions]

    def capture(self) -> MaintenanceResult:
        """Create the initial sketch."""
        raise NotImplementedError

    def maintain(self) -> MaintenanceResult:
        """Bring the sketch up to date with the current database version."""
        raise NotImplementedError

    def maintain_with(
        self, db_delta: DatabaseDelta, target_version: int
    ) -> MaintenanceResult:
        """Bring the sketch up to date using a delta fetched by the caller.

        Entry point of the shared-delta maintenance scheduler: the scheduler
        extracts each table's delta from the audit log once per round and fans
        it out to every stale maintainer.  The base implementation ignores the
        delta and performs a regular :meth:`maintain` -- correct for the
        full-maintenance baseline, whose repair never looks at deltas.
        """
        return self.maintain()

    def ensure_current(self) -> MaintenanceResult:
        """Capture or maintain as needed and return the current sketch."""
        if not self.is_captured:
            return self.capture()
        if self.is_stale():
            return self.maintain()
        assert self.sketch is not None
        return MaintenanceResult(sketch=self.sketch)

    def retained_version_bytes(self) -> int:
        """Memory held by retained past sketch versions (the current one is
        accounted by the store entry that owns this maintainer)."""
        return sum(sketch.byte_size() for _version, sketch in self.sketch_versions[:-1])

    def memory_bytes(self) -> int:
        """Memory used to keep the sketch maintainable.

        Counts retained past versions; subclasses add their operator state.
        """
        return self.retained_version_bytes()


class IncrementalMaintainer(BaseMaintainer):
    """Maintains a sketch with the IMP incremental engine."""

    consumes_deltas = True

    def __init__(
        self,
        database: Database,
        plan: PlanNode,
        partition: DatabasePartition,
        config: IMPConfig | None = None,
        retain_versions: int = DEFAULT_VERSION_RETENTION,
    ) -> None:
        super().__init__(database, plan, partition, retain_versions=retain_versions)
        self.config = config or IMPConfig()
        self.engine = IncrementalEngine(plan, partition, database, self.config)

    @property
    def statistics(self) -> EngineStatistics:
        """Counters collected by the engine across maintenance runs."""
        return self.engine.statistics

    def capture(self) -> MaintenanceResult:
        started = time.perf_counter()
        # Capture must be atomic with respect to commits: the engine scans
        # live tables, so the version the sketch is recorded at has to be the
        # version those scans observed.  Without the lock a commit landing
        # mid-capture (or between the scans and the version read) would label
        # a pre-commit sketch with a post-commit version and its delta would
        # never be applied.
        with self.database.lock:
            sketch = self.engine.initialize()
            self._record_version(sketch)
        return MaintenanceResult(
            sketch=sketch, recaptured=True, seconds=time.perf_counter() - started
        )

    def maintain(self) -> MaintenanceResult:
        if not self.is_captured:
            return self.capture()
        assert self.valid_at_version is not None
        started = time.perf_counter()
        tables = self.plan.referenced_tables()
        # Read the target version *before* fetching the delta and bound the
        # fetch explicitly: a commit interleaving after the version read is
        # then simply outside the window and handled by the next maintenance,
        # instead of silently widening the delta past the recorded version.
        target = self.database.version
        db_delta = self.database.database_delta_since(
            tables, self.valid_at_version, target
        )
        return self._maintain_from(db_delta, target, started)

    def maintain_with(
        self, db_delta: DatabaseDelta, target_version: int
    ) -> MaintenanceResult:
        """Maintain from a delta the caller already fetched (shared rounds).

        ``db_delta`` must cover all changes of the plan's referenced tables in
        ``(valid_at_version, target_version]``; deltas of unrelated tables are
        ignored.  ``target_version`` is the version the caller fetched the
        delta up to -- required, because the live version may already be
        newer and the sketch must not be marked valid past what it saw.
        """
        if not self.is_captured:
            return self.capture()
        started = time.perf_counter()
        return self._maintain_from(db_delta, target_version, started)

    def _maintain_from(
        self, db_delta: DatabaseDelta, target_version: int, started: float
    ) -> MaintenanceResult:
        assert self.sketch is not None
        relevant = self.engine.restrict_delta(db_delta)
        delta_tuples = len(relevant)
        if not relevant:
            self.valid_at_version = target_version
            return MaintenanceResult(
                sketch=self.sketch, seconds=time.perf_counter() - started
            )
        outcome = self.engine.maintain(relevant, target_version)
        if outcome.needs_recapture:
            # Deletions exhausted a min/max or top-k buffer: fall back to a
            # full recapture (Sec. 7.2).  The recapture scans *live* tables,
            # which may already be newer than ``target_version``, so it is
            # recorded at the version its scans actually observed (read
            # atomically under the write lock), not at the round's target.
            with self.database.lock:
                self.engine.reset()
                sketch = self.engine.initialize()
                self._record_version(sketch, self.database.version)
            return MaintenanceResult(
                sketch=sketch,
                delta_tuples=delta_tuples,
                recaptured=True,
                seconds=time.perf_counter() - started,
            )
        sketch = self.sketch.apply_delta(outcome.sketch_delta)
        self._record_version(sketch, target_version)
        return MaintenanceResult(
            sketch=sketch,
            sketch_delta=outcome.sketch_delta,
            delta_tuples=delta_tuples,
            seconds=time.perf_counter() - started,
        )

    def memory_bytes(self) -> int:
        return self.engine.memory_bytes() + self.retained_version_bytes()


class FullMaintainer(BaseMaintainer):
    """The full-maintenance baseline: re-run the capture query when stale."""

    def capture(self) -> MaintenanceResult:
        started = time.perf_counter()
        # Atomic capture+version read, for the same reason as the
        # incremental maintainer: the recorded version must be the one the
        # capture query actually scanned.
        with self.database.lock:
            sketch = capture_sketch(self.plan, self.partition, self.database)
            self._record_version(sketch)
        return MaintenanceResult(
            sketch=sketch, recaptured=True, seconds=time.perf_counter() - started
        )

    def maintain(self) -> MaintenanceResult:
        previous = self.sketch
        result = self.capture()
        if previous is not None:
            result.sketch_delta = previous.delta_to(result.sketch)
        return result
