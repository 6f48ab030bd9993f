"""Maintainers: incremental (IMP) and full maintenance (the FM baseline).

A maintainer owns the sketch of a single query: it captures the sketch, keeps
the one database version the sketch is valid for, and brings the sketch up to
date when the database has moved on.  :meth:`BaseMaintainer.maintain` is the
standalone path -- capture when uncaptured, nothing when current, otherwise
one bounded delta fetch handed to :meth:`~BaseMaintainer.maintain_with`, the
entry point the shared-delta scheduler feeds.  The incremental maintainer
feeds deltas through an :class:`~repro.imp.engine.IncrementalEngine`; the full
maintainer simply re-runs the capture query, which is the baseline IMP is
compared against throughout Sec. 8.  Counting and timing maintenance is the
scheduler's (:class:`~repro.imp.scheduler.SchedulerStatistics`), not the
maintainer's.
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

    engine: IncrementalEngine | None = None
    """The incremental engine whose state the maintainer keeps (None for
    full maintenance, which keeps none and never reads a delta)."""

    def __init__(
        self, database: Database, plan: PlanNode, partition: DatabasePartition
    ) -> None:
        self.database = database
        self.plan = plan
        self.partition = partition
        self.sketch: ProvenanceSketch | None = None
        self.valid_at_version: int | None = None

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

    def _from_scratch(self) -> ProvenanceSketch:
        """Run the capture query over the current database."""
        raise NotImplementedError

    def _capture(self) -> ProvenanceSketch:
        """Capture, recapture or fully maintain: one from-scratch pass,
        recorded at the version it scanned.

        Atomic with respect to commits: the pass scans live tables, so the
        version the sketch is recorded at has to be the version those scans
        observed.  Without the lock a commit landing mid-capture (or between
        the scans and the version read) would label a pre-commit sketch with a
        post-commit version and its delta would never be applied.
        """
        with self.database.lock:
            self.sketch = self._from_scratch()
            self.valid_at_version = self.database.version
        return self.sketch

    def capture(self) -> MaintenanceResult:
        """Create the initial sketch."""
        started = time.perf_counter()
        sketch = self._capture()
        return MaintenanceResult(
            sketch=sketch, recaptured=True, seconds=time.perf_counter() - started
        )

    def maintain(self) -> MaintenanceResult:
        """Bring the sketch up to date with the current database version."""
        if not self.is_captured:
            return self.capture()
        if not self.is_stale():
            assert self.sketch is not None
            return MaintenanceResult(sketch=self.sketch)
        # Read the target version *before* fetching the delta and bound the
        # fetch explicitly: a commit interleaving after the version read is
        # then simply outside the window and handled by the next maintenance,
        # instead of silently widening the delta past the recorded version.
        target = self.database.version
        db_delta = (
            DatabaseDelta()
            if self.engine is None
            else self.database.database_delta_since(
                self.plan.referenced_tables(), self.valid_at_version, target
            )
        )
        return self.maintain_with(db_delta, target)

    def maintain_with(
        self, db_delta: DatabaseDelta, target_version: int, memo: dict | None = None
    ) -> MaintenanceResult:
        """Bring the sketch up to date using a delta fetched by the caller.

        Entry point of the shared-delta maintenance scheduler: the scheduler
        extracts each table's delta from the audit log once per round and fans
        it out to every stale maintainer, with the round's annotation ``memo``
        (:attr:`~repro.imp.operators.Pass.memo`).  ``db_delta`` must cover all
        changes of the plan's referenced tables in ``(valid_at_version,
        target_version]``; deltas of unrelated tables are ignored.
        ``target_version`` is the version the caller fetched the delta up to
        -- required, because the live version may already be newer and the
        sketch must not be marked valid past what it saw.
        """
        raise NotImplementedError

    def memory_bytes(self) -> int:
        """Memory used to keep the sketch maintainable: the operator state."""
        return 0 if self.engine is None else self.engine.memory_bytes()


class IncrementalMaintainer(BaseMaintainer):
    """Maintains a sketch with the IMP incremental engine."""

    def __init__(
        self,
        database: Database,
        plan: PlanNode,
        partition: DatabasePartition,
        config: IMPConfig | None = None,
    ) -> None:
        super().__init__(database, plan, partition)
        self.config = config or IMPConfig()
        self.engine = IncrementalEngine(plan, partition, database, self.config)

    @property
    def statistics(self) -> EngineStatistics:
        """Counters collected by the engine across maintenance runs."""
        return self.engine.statistics

    @property
    def is_captured(self) -> bool:
        """Whether an initial sketch exists and the engine holds the state to
        maintain it (a sketch store resets the engine of an entry it drops
        while other entries read its state)."""
        return self.sketch is not None and self.engine.is_initialized

    def _from_scratch(self) -> ProvenanceSketch:
        if self.engine.is_initialized:
            self.engine.reset()
        return self.engine.initialize()

    def maintain_with(
        self, db_delta: DatabaseDelta, target_version: int, memo: dict | None = None
    ) -> MaintenanceResult:
        if not self.is_captured:
            return self.capture()
        assert self.sketch is not None
        started = time.perf_counter()
        relevant = self.engine.restrict_delta(db_delta)
        delta_tuples = len(relevant)
        if not relevant:
            self.valid_at_version = target_version
            return MaintenanceResult(
                sketch=self.sketch, seconds=time.perf_counter() - started
            )
        outcome = self.engine.maintain(relevant, target_version, memo)
        if outcome.needs_recapture:
            # Deletions exhausted a min/max or top-k buffer: fall back to a
            # full recapture (Sec. 7.2).  The recapture scans *live* tables,
            # which may already be newer than ``target_version``, so it is
            # recorded at the version its scans actually observed, not at the
            # round's target.
            return MaintenanceResult(
                sketch=self._capture(),
                delta_tuples=delta_tuples,
                recaptured=True,
                seconds=time.perf_counter() - started,
            )
        self.sketch = self.sketch.apply_delta(outcome.sketch_delta)
        self.valid_at_version = target_version
        return MaintenanceResult(
            sketch=self.sketch,
            sketch_delta=outcome.sketch_delta,
            delta_tuples=delta_tuples,
            seconds=time.perf_counter() - started,
        )


class FullMaintainer(BaseMaintainer):
    """The full-maintenance baseline: re-run the capture query when stale."""

    def _from_scratch(self) -> ProvenanceSketch:
        return capture_sketch(self.plan, self.partition, self.database)

    def maintain_with(
        self, db_delta: DatabaseDelta, target_version: int, memo: dict | None = None
    ) -> MaintenanceResult:
        """Recapture, ignoring the delta (the repair never looks at one)."""
        previous = self.sketch
        result = self.capture()
        if previous is not None:
            result.sketch_delta = previous.delta_to(result.sketch)
        return result
