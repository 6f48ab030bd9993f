"""Shared-delta maintenance rounds for many registered sketches.

The IMP middleware (Fig. 2, Sec. 7) manages *many* sketches over a shared set
of base tables.  Maintaining each stale sketch independently makes every one
of them extract its own copy of the same base-table delta from the audit log:
an update batch with N registered sketches over one table costs N delta
fetches over the same records -- the opposite of the paper's
"cost proportional to the delta" promise.

:class:`MaintenanceScheduler` amortises this the way higher-order incremental
view maintenance systems (DBToaster-style shared delta processing) do:

1. stale :class:`~repro.imp.sketch_store.SketchEntry`\\ s are grouped by
   (referenced table, ``valid_at_version``) -- each group is one distinct
   version window of one base table;
2. each group's delta is fetched from the audit log **once per round**
   (served by the version-indexed fast path of
   :class:`~repro.storage.snapshots.AuditLog`);
3. consecutive updates inside the window are compacted
   (:meth:`~repro.storage.delta.Delta.compacted`): a row inserted and deleted
   again within the window cancels, so every engine downstream processes the
   *net* delta only;
4. the shared per-table deltas are fanned out to each stale maintainer through
   :meth:`~repro.imp.maintenance.BaseMaintainer.maintain_with`;
5. each shared delta is annotated once per partition: the round's one memo
   (:attr:`~repro.imp.operators.Pass.memo`, dropped with the round) hands
   every engine whose partition agrees on a table the same signed entries
   and fragment masks;
6. each stateful subplan the store shares between engines
   (:class:`~repro.imp.operators.SharedNode`) processes the delta once, into
   the same memo, and every consumer's own selection and ``μ`` read that
   output.  A node's consumers are maintained in the same round -- a lazy
   ensure of one of them too -- so the node never moves on without one.

The resulting sketches are identical to maintaining each sketch on its own --
the incremental operators are linear in the delta -- but the audit-log work
per round is bounded by the number of distinct (table, version-range) groups,
the annotation work by the distinct (delta, partition) pairs and the
group-level work by the distinct (subplan, partition) pairs, not by the
number of registered sketches.

Every maintenance of a stored sketch -- eager round, background round or lazy
ensure -- runs here, so the scheduler alone counts and times maintenance
(:class:`SchedulerStatistics`); the middleware's ``sketch_maintenances`` and
``maintenance_seconds`` read it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.errors import StorageError
from repro.imp.maintenance import MaintenanceResult
from repro.imp.operators import memo_counts
from repro.imp.sketch_store import SketchEntry, SketchStore
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta, Delta


@dataclass
class RoundReport:
    """Outcome of one shared-delta maintenance round; ``annotations`` counts
    its annotation passes, one per distinct (shared delta, partition), and
    ``folds`` its stateful-operator passes, one per stateful operator of each
    shared node processed."""

    examined: int = 0
    maintained: int = 0
    changed: int = 0
    recaptured: int = 0
    groups: int = 0
    delta_fetches: int = 0
    fetched_tuples: int = 0
    compacted_tuples: int = 0
    annotations: int = 0
    folds: int = 0
    seconds: float = 0.0


@dataclass
class SchedulerStatistics:
    """Aggregate counters across all rounds of a scheduler: the one record
    of how many sketches were maintained (``maintained``), how many of them
    changed or read a delta (``changed``), and how long it took
    (``seconds``).

    ``rounds`` counts shared-delta rounds only; lazy query-time single-entry
    maintenance is counted separately in ``ensures`` so per-round ratios
    (fetches vs groups) stay meaningful under a lazy strategy.
    """

    rounds: int = 0
    ensures: int = 0
    maintained: int = 0
    changed: int = 0
    recaptured: int = 0
    delta_fetches: int = 0
    fetched_tuples: int = 0
    compacted_tuples: int = 0
    annotations: int = 0
    folds: int = 0
    seconds: float = 0.0

    def absorb(self, report: RoundReport, as_round: bool = True) -> None:
        """Fold one round's (or one lazy ensure's) report into the totals."""
        if as_round:
            self.rounds += 1
        else:
            self.ensures += 1
        self.maintained += report.maintained
        self.changed += report.changed
        self.recaptured += report.recaptured
        self.delta_fetches += report.delta_fetches
        self.fetched_tuples += report.fetched_tuples
        self.compacted_tuples += report.compacted_tuples
        self.annotations += report.annotations
        self.folds += report.folds
        self.seconds += report.seconds


class MaintenanceScheduler:
    """Runs shared-delta maintenance rounds over a sketch store."""

    def __init__(self, database: Database, store: SketchStore) -> None:
        self.database = database
        self.store = store
        self.statistics = SchedulerStatistics()
        # IMP's one lock: it guards the store, the engines' operator state
        # and this scheduler.  Commits may interleave freely with a round:
        # it reads one target version up front and fetches every delta with
        # an explicit ``until=target``, so updates landing mid-round are
        # picked up by the next round.
        self._round_lock = threading.RLock()

    @property
    def round_lock(self) -> threading.RLock:
        """The lock that guards IMP's state (reentrant): the sketch store,
        every engine and this scheduler.

        Rounds and lazy ensures hold it, and so does a middleware query from
        translation to answer, with the database write lock inside it --
        always round lock first, then database lock, the order
        :meth:`run_round` takes them in too.
        """
        return self._round_lock

    # -- rounds --------------------------------------------------------------------------

    def run_round(self, tables: set[str] | None = None) -> RoundReport:
        """Maintain every stale sketch with shared, compacted deltas.

        All maintained sketches end the round valid at the same target version
        (the database version when the round started; later commits are left
        for the next round, which keeps the staleness protocol correct under
        interleaved writers).
        """
        with self._round_lock:
            started = time.perf_counter()
            report = RoundReport()
            target = self._target()
            wanted = None if tables is None else {table.lower() for table in tables}
            stale = self._lockstep(
                [
                    entry
                    for entry in self.store.entries()
                    if (wanted is None or entry.referenced_tables() & wanted)
                    and self._due(entry)
                ],
                target,
            )
            report.examined = len(stale)
            if stale:
                try:
                    self._maintain_together(stale, target, report)
                except StorageError:
                    # A table dropped since the round began: the next query
                    # or round retires every entry it maintained.
                    if self.database.catalog_version == self.store.catalog_version:
                        raise
                self.store.enforce_memory_budget()
            report.seconds = time.perf_counter() - started
            self.statistics.absorb(report)
            return report

    def ensure_entry(self, entry: SketchEntry) -> MaintenanceResult:
        """Capture or maintain a single entry (the lazy query-time path).

        Uses the same fetch-once-and-compact pipeline as :meth:`run_round`,
        restricted to the entry and the other consumers of its shared node
        (which must move on with it), so the lazy path also benefits from
        net-delta processing and the version-indexed audit log.  Serialized
        against shared rounds by the round lock: maintainer state must never
        be fed two deltas concurrently.
        """
        with self._round_lock:
            maintainer = entry.maintainer
            if not maintainer.is_captured:
                return maintainer.capture()
            if not maintainer.is_stale():
                assert maintainer.sketch is not None
                return MaintenanceResult(sketch=maintainer.sketch)
            started = time.perf_counter()
            target = self._target()
            group = self._lockstep([entry], target)
            report = RoundReport(examined=len(group))
            result = self._maintain_together(group, target, report)[0]
            # Maintenance grows operator state, so the lazy path must re-check
            # the memory budget too -- but never by evicting the entry that is
            # about to answer the query.
            self.store.enforce_memory_budget(protect=entry)
            report.seconds = time.perf_counter() - started
            self.statistics.absorb(report, as_round=False)
            return result

    # -- internals ------------------------------------------------------------------------

    def _target(self) -> int:
        """The version a round or ensure maintains to, read under the database
        lock with the catalog :meth:`SketchStore.retire` checks: no DDL
        change falls between, so no entry gets a recreated table's rows."""
        with self.database.lock:
            version = self.database.version
            self.store.retire(self.database.catalog_at(version))
            return version

    @staticmethod
    def _due(entry: SketchEntry) -> bool:
        """Whether a round maintains ``entry``: captured and stale.  Every
        entry was captured or maintained under the round lock, so none is
        newer than a round's target."""
        return entry.maintainer.is_captured and entry.maintainer.is_stale()

    def _lockstep(self, entries: list[SketchEntry], target: int) -> list[SketchEntry]:
        """``entries`` and, after them, every other due consumer of their
        shared nodes: a node moves on with all its consumers or with none."""
        group = {entry.template.text: entry for entry in entries}
        for entry in entries:
            for member in self.store.share_group(entry):
                if member.template.text not in group and self._due(member):
                    group[member.template.text] = member
        return list(group.values())

    def _maintain_together(
        self, entries: list[SketchEntry], target: int, report: RoundReport
    ) -> list[MaintenanceResult]:
        """Maintain ``entries`` to ``target`` with one fetch per (table,
        since) group and one memo, so each delta is annotated once per
        partition and each shared node processes it once."""
        shared = self._fetch_shared_deltas(entries, target, report)
        memo: dict = {}
        results = []
        for entry in entries:
            result = self._fan_out(entry, shared, target, memo)
            report.maintained += 1
            if result.changed or result.delta_tuples:
                report.changed += 1
            if result.recaptured:
                report.recaptured += 1
                # A fresh node: the other recaptured consumers of the old one
                # share it again.
                self.store.intern(entry)
            results.append(result)
        report.annotations, report.folds = memo_counts(memo)
        return results

    def _fetch_shared_deltas(
        self, stale: list[SketchEntry], target: int, report: RoundReport
    ) -> dict[tuple[str, int], Delta]:
        """One audit-log fetch per distinct (table, since-version) group.

        Groups only referenced by maintainers that repair without reading
        deltas (full maintenance) are never fetched.
        """
        groups: set[tuple[str, int]] = set()
        for entry in stale:
            if entry.maintainer.engine is None:
                continue
            since = entry.valid_at_version
            assert since is not None
            for table in entry.referenced_tables():
                groups.add((table, since))
        shared: dict[tuple[str, int], Delta] = {}
        for table, since in sorted(groups):
            delta = self.database.delta_since(table, since, target)
            report.delta_fetches += 1
            report.fetched_tuples += len(delta)
            delta = delta.compacted()
            report.compacted_tuples += len(delta)
            shared[(table, since)] = delta
        report.groups = len(groups)
        return shared

    def _fan_out(
        self,
        entry: SketchEntry,
        shared: dict[tuple[str, int], Delta],
        target: int,
        memo: dict,
    ) -> MaintenanceResult:
        """Feed the shared deltas for one entry through its maintainer, with
        the round's annotation memo."""
        since = entry.valid_at_version
        db_delta = DatabaseDelta()
        for table in entry.referenced_tables():
            delta = shared.get((table, since))
            if delta:
                db_delta.set_delta(table, delta)
        return entry.maintainer.maintain_with(db_delta, target, memo)

    # -- reporting ------------------------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """Compact report used by the middleware summary and benchmarks."""
        stats = self.statistics
        return {
            "rounds": stats.rounds,
            "ensures": stats.ensures,
            "maintained": stats.maintained,
            "delta_fetches": stats.delta_fetches,
            "fetched_tuples": stats.fetched_tuples,
            "compacted_tuples": stats.compacted_tuples,
            "annotations": stats.annotations,
            "folds": stats.folds,
            "recaptures": stats.recaptured,
            "seconds": stats.seconds,
        }
