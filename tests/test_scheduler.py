"""Tests for the shared-delta maintenance scheduler and the store's memory
budget, plus regressions for the middleware/store bugfix sweep that shipped
with it."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.imp.engine import IMPConfig
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.middleware import IMPSystem
from repro.imp.scheduler import MaintenanceScheduler
from repro.imp.sketch_store import SketchEntry, SketchStore
from repro.imp.strategies import EagerStrategy
from repro.sketch.selection import build_database_partition
from repro.sql.template import template_of
from repro.storage.database import Database
from repro.storage.delta import Delta
from repro.relational.schema import Schema
from repro.workloads.mixed import multi_sketch_templates
from repro.workloads.queries import q_groups
from repro.workloads.synthetic import load_synthetic

NUM_GROUPS = 12


def _make_row(row_id: int) -> tuple:
    """Deterministic synthetic-schema row (11 columns) for mirrored updates."""
    return (
        row_id,
        row_id % NUM_GROUPS,
        *[round(((row_id * 7 + k * 13) % 97) / 3.0, 3) for k in range(9)],
    )


class _Mirror:
    """Two identical databases with the same sketches registered twice:
    once behind a scheduler, once as independent per-sketch maintainers."""

    def __init__(self, num_templates: int = 6, num_rows: int = 240) -> None:
        self.scheduler_db = Database()
        self.per_sketch_db = Database()
        for database in (self.scheduler_db, self.per_sketch_db):
            load_synthetic(
                database, name="r", num_rows=num_rows, num_groups=NUM_GROUPS, seed=5
            )
            load_synthetic(
                database, name="s", num_rows=num_rows // 2, num_groups=NUM_GROUPS, seed=9
            )
        half = (num_templates + 1) // 2
        self.templates = multi_sketch_templates(half, table="r") + (
            multi_sketch_templates(num_templates - half, table="s")
        )
        self.store = SketchStore()
        self.scheduler = MaintenanceScheduler(self.scheduler_db, self.store)
        self.per_sketch: list[IncrementalMaintainer] = []
        for sql in self.templates:
            self.store.put(self._entry(self.scheduler_db, sql))
            maintainer = self._maintainer(self.per_sketch_db, sql)
            maintainer.capture()
            self.per_sketch.append(maintainer)
        # Live-row mirrors so deletes always target existing rows.
        self.live = {
            "r": [_r for _r in self._rows_of(self.scheduler_db, "r")],
            "s": [_r for _r in self._rows_of(self.scheduler_db, "s")],
        }
        self.next_id = 1_000_000

    @staticmethod
    def _rows_of(database: Database, table: str) -> list[tuple]:
        return list(database.table(table).rows())

    @staticmethod
    def _maintainer(database: Database, sql: str) -> IncrementalMaintainer:
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 6)
        return IncrementalMaintainer(database, plan, partition)

    def _entry(self, database: Database, sql: str) -> SketchEntry:
        maintainer = self._maintainer(database, sql)
        maintainer.capture()
        return SketchEntry(
            template=template_of(sql),
            sql=sql,
            plan=maintainer.plan,
            partition=maintainer.partition,
            maintainer=maintainer,
        )

    # -- mirrored updates ---------------------------------------------------------------

    def commit(self, table: str, inserts: int, deletes: int, rng: random.Random) -> None:
        """Apply one identical commit (deletes then inserts) to both databases."""
        victims: list[tuple] = []
        live = self.live[table]
        for _ in range(min(deletes, len(live))):
            victims.append(live.pop(rng.randrange(len(live))))
        new_rows = []
        for _ in range(inserts):
            new_rows.append(_make_row(self.next_id))
            self.next_id += 1
        live.extend(new_rows)
        for database in (self.scheduler_db, self.per_sketch_db):
            if victims:
                database.delete_rows(table, victims)
            if new_rows:
                database.insert(table, new_rows)

    # -- maintenance + comparison --------------------------------------------------------

    def maintain_scheduler(self, tables: set[str] | None = None):
        return self.scheduler.run_round(tables)

    def maintain_per_sketch(self, tables: set[str] | None = None) -> None:
        for maintainer in self.per_sketch:
            if tables is None or maintainer.plan.referenced_tables() & tables:
                maintainer.ensure_current()

    def assert_sketches_identical(self) -> None:
        for index, entry in enumerate(self.store.entries()):
            ours = entry.maintainer
            theirs = self.per_sketch[index]
            assert ours.sketch is not None and theirs.sketch is not None
            assert set(ours.sketch.fragment_ids()) == set(theirs.sketch.fragment_ids()), (
                f"sketch {index} ({self.templates[index]!r}) diverged between the "
                "scheduler and per-sketch maintenance"
            )


class TestSchedulerRounds:
    def test_one_fetch_per_group_not_per_sketch(self):
        mirror = _Mirror(num_templates=6)
        rng = random.Random(0)
        mirror.commit("r", inserts=10, deletes=4, rng=rng)
        fetches_before = mirror.scheduler_db.delta_fetch_count
        report = mirror.maintain_scheduler()
        fetches = mirror.scheduler_db.delta_fetch_count - fetches_before
        # Three sketches over "r" are stale at the same version: one group.
        assert report.groups == 1
        assert fetches == report.delta_fetches == 1
        assert report.maintained == 3

    def test_groups_follow_distinct_version_windows(self):
        mirror = _Mirror(num_templates=6)
        rng = random.Random(1)
        # Stagger versions: maintain r-sketches, then update both tables.
        mirror.commit("r", inserts=6, deletes=2, rng=rng)
        mirror.maintain_scheduler(tables={"r"})
        mirror.commit("s", inserts=6, deletes=2, rng=rng)
        mirror.commit("r", inserts=4, deletes=1, rng=rng)
        fetches_before = mirror.scheduler_db.delta_fetch_count
        report = mirror.maintain_scheduler()
        fetches = mirror.scheduler_db.delta_fetch_count - fetches_before
        # r-sketches and s-sketches are stale since different versions: two
        # distinct (table, version) groups, two fetches -- not six.
        assert report.groups == 2
        assert fetches == 2
        assert report.maintained == 6

    def test_round_resolves_staleness_and_matches_per_sketch(self):
        mirror = _Mirror(num_templates=6)
        rng = random.Random(2)
        for _ in range(3):
            mirror.commit("r", inserts=8, deletes=3, rng=rng)
            mirror.commit("s", inserts=5, deletes=2, rng=rng)
        mirror.maintain_scheduler()
        mirror.maintain_per_sketch()
        assert mirror.scheduler.stale_entries() == []
        mirror.assert_sketches_identical()

    def test_compaction_cancels_churn_before_fan_out(self):
        mirror = _Mirror(num_templates=4)
        rows = [_make_row(2_000_000 + i) for i in range(20)]
        for database in (mirror.scheduler_db, mirror.per_sketch_db):
            database.insert("r", rows)
            database.delete_rows("r", rows[:15])
        report = mirror.maintain_scheduler()
        assert report.fetched_tuples == 35  # 20 inserts + 15 deletes recorded
        assert report.compacted_tuples == 5  # net effect after cancellation
        mirror.maintain_per_sketch()
        mirror.assert_sketches_identical()

    def test_ensure_entry_lazy_path(self):
        mirror = _Mirror(num_templates=2)
        rng = random.Random(3)
        mirror.commit("r", inserts=6, deletes=2, rng=rng)
        entry = next(iter(mirror.store.entries()))
        result = mirror.scheduler.ensure_entry(entry)
        assert result.changed or result.delta_tuples
        assert not entry.maintainer.is_stale()
        # A second call finds the sketch current and does nothing.
        again = mirror.scheduler.ensure_entry(entry)
        assert not again.changed and again.delta_tuples == 0


class TestSchedulerDifferential:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["r", "s", "rs"]),
                st.integers(min_value=1, max_value=3),  # commits in the step
                st.integers(min_value=0, max_value=6),  # inserts per commit
                st.integers(min_value=0, max_value=4),  # deletes per commit
            ),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_scheduler_rounds_match_independent_maintenance(self, steps, seed):
        """Shared-delta rounds and independent per-sketch ``ensure_current``
        produce identical sketches across randomized update sequences."""
        mirror = _Mirror(num_templates=4, num_rows=120)
        rng = random.Random(seed)
        for tables_key, commits, inserts, deletes in steps:
            tables = {"r", "s"} if tables_key == "rs" else {tables_key}
            for _ in range(commits):
                for table in sorted(tables):
                    mirror.commit(table, inserts, deletes, rng)
            mirror.maintain_scheduler(tables)
            mirror.maintain_per_sketch(tables)
        # Close any remaining staleness (steps may have skipped tables).
        mirror.maintain_scheduler()
        mirror.maintain_per_sketch()
        mirror.assert_sketches_identical()


class TestEngineRestrictDelta:
    def test_engine_restricts_shared_delta_before_maintaining(self):
        """restrict_delta + maintain on a shared delta ignores unrelated tables."""
        from repro.storage.delta import DatabaseDelta

        database = Database()
        load_synthetic(database, num_rows=200, num_groups=8, seed=2)
        database.create_table("unrelated", ["x"])
        sql = multi_sketch_templates(1)[0]
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 4)
        maintainer = IncrementalMaintainer(database, plan, partition)
        maintainer.capture()
        version = database.version
        database.insert("r", [_make_row(8_000_000 + i) for i in range(10)])
        database.insert("unrelated", [(1,), (2,)])
        shared = DatabaseDelta()
        shared.set_delta("r", database.delta_since("r", version))
        shared.set_delta("unrelated", database.delta_since("unrelated", version))
        restricted = maintainer.engine.restrict_delta(shared)
        assert list(restricted.tables()) == ["r"]
        outcome = maintainer.engine.maintain(restricted, database.version)
        assert not outcome.needs_recapture
        sketch = maintainer.sketch.apply_delta(outcome.sketch_delta)
        # Ground truth: an identically-captured engine fed the restricted delta.
        other = IncrementalMaintainer(database, plan, partition)
        truth = other.capture().sketch
        assert set(sketch.fragment_ids()) == set(truth.fragment_ids())


class TestDeltaCompaction:
    def _schema(self) -> Schema:
        return Schema(["x", "y"])

    def test_insert_delete_pairs_cancel(self):
        delta = Delta(self._schema())
        delta.add_insert((1, "a"), 3)
        delta.add_delete((1, "a"), 2)
        delta.add_insert((2, "b"))
        delta.add_delete((3, "c"))
        compact = delta.compacted()
        assert dict(compact.inserts()) == {(1, "a"): 1, (2, "b"): 1}
        assert dict(compact.deletes()) == {(3, "c"): 1}

    def test_full_cancellation_yields_empty_delta(self):
        delta = Delta(self._schema())
        delta.add_insert((1, "a"), 2)
        delta.add_delete((1, "a"), 2)
        assert not delta.compacted()
        assert len(delta.compacted()) == 0


class TestStoreMemoryBudget:
    def _entry(self, database: Database, sql: str) -> SketchEntry:
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 6)
        maintainer = IncrementalMaintainer(database, plan, partition)
        maintainer.capture()
        return SketchEntry(
            template=template_of(sql),
            sql=sql,
            plan=plan,
            partition=partition,
            maintainer=maintainer,
        )

    def _database(self) -> Database:
        database = Database()
        load_synthetic(database, num_rows=400, num_groups=16, seed=4)
        return database

    def test_budget_evicts_down_to_max_bytes(self):
        database = self._database()
        entries = [
            self._entry(database, sql) for sql in multi_sketch_templates(4)
        ]
        budget = entries[0].memory_bytes() * 2 + entries[0].memory_bytes() // 2
        store = SketchStore(max_bytes=budget)
        for entry in entries:
            store.put(entry)
        assert store.memory_bytes() <= budget
        assert 0 < len(store) < 4
        assert store.statistics.bytes_evictions >= 1

    def test_budget_prefers_recently_used_entries(self):
        database = self._database()
        first, second, third = (
            self._entry(database, sql) for sql in multi_sketch_templates(3)
        )
        # Budget fits exactly `first` and `third` together, so registering
        # `third` must evict one of the residents.
        store = SketchStore(max_bytes=first.memory_bytes() + third.memory_bytes() + 1)
        store.put(first)
        store.put(second)
        store.get(first.template)  # first is now the most recently used
        store.put(third)
        remaining = {entry.template.text for entry in store.entries()}
        assert first.template.text in remaining
        assert third.template.text in remaining  # just-put entry is protected
        assert second.template.text not in remaining

    def test_budget_smaller_than_one_sketch_keeps_newest(self):
        database = self._database()
        first, second = (self._entry(database, sql) for sql in multi_sketch_templates(2))
        store = SketchStore(max_bytes=1)
        store.put(first)
        store.put(second)
        assert len(store) == 1
        assert next(iter(store.entries())) is second

    def test_scheduler_round_reenforces_budget(self):
        database = self._database()
        table = database.table("r")
        entries = [self._entry(database, sql) for sql in multi_sketch_templates(3)]
        store = SketchStore(max_bytes=sum(e.memory_bytes() for e in entries) + 64)
        for entry in entries:
            store.put(entry)
        assert len(store) == 3
        scheduler = MaintenanceScheduler(database, store)
        # Growing the table grows operator state; the round must re-check the
        # budget afterwards and shed entries if maintenance pushed it over.
        database.insert("r", [_make_row(3_000_000 + i) for i in range(300)])
        scheduler.run_round()
        assert store.memory_bytes() <= store.max_bytes or len(store) == 0
        assert table is not None


class TestBugfixSweep:
    def test_sketch_version_retention_is_bounded(self, sales_db, sales_partition):
        plan = sales_db.plan(
            "SELECT brand, SUM(price * numsold) AS rev FROM sales "
            "GROUP BY brand HAVING SUM(price * numsold) > 5000"
        )
        maintainer = IncrementalMaintainer(
            sales_db, plan, sales_partition, retain_versions=2
        )
        maintainer.capture()
        for i in range(5):
            sales_db.insert(
                "sales", [(100 + i, "HP", f"HP Omnibook {i}", 700 + i, 1)]
            )
            maintainer.maintain()
        assert len(maintainer.sketch_versions) == 2
        # Retained past versions are part of the maintainer's footprint.
        assert maintainer.memory_bytes() >= maintainer.retained_version_bytes() > 0

    def test_retention_must_be_positive(self, sales_db, sales_partition):
        plan = sales_db.plan("SELECT brand, SUM(price) AS sp FROM sales GROUP BY brand")
        with pytest.raises(ValueError):
            IncrementalMaintainer(sales_db, plan, sales_partition, retain_versions=0)

    def test_noop_maintenance_time_is_recorded(self):
        database = Database()
        load_synthetic(database, num_rows=400, num_groups=16, seed=4)
        system = IMPSystem(database, num_fragments=8)
        sql = q_groups(threshold=900)
        system.run_query(sql)
        # Churn that compacts to an empty net delta: the maintenance run scans
        # the audit log and finds nothing to do, but the time still counts.
        rows = [_make_row(4_000_000 + i) for i in range(10)]
        database.insert("r", rows)
        database.delete_rows("r", rows)
        before = system.statistics.maintenance_seconds
        system.run_query(sql)
        assert system.statistics.maintenance_seconds > before

    def test_mixed_case_table_names_do_not_skip_eager_maintenance(self):
        database = Database()
        load_synthetic(database, num_rows=300, num_groups=10, seed=6)
        system = IMPSystem(
            database, num_fragments=8, strategy=EagerStrategy(batch_size=1)
        )
        # Mixed case everywhere: the plan, the store key, and the update must
        # all agree on the normalized table name.
        system.run_query("SELECT a, avg(b) AS ab FROM R GROUP BY a HAVING avg(c) < 900")
        assert system.statistics.sketch_captures == 1
        system.apply_update("R", inserts=[_make_row(5_000_000)])
        assert system.statistics.sketch_maintenances >= 1
        entry = next(iter(system.store.entries()))
        assert entry.referenced_tables() == {"r"}
        assert not entry.maintainer.is_stale()

    def test_table_scan_normalizes_name_but_keeps_alias_spelling(self):
        from repro.relational.algebra import TableScan

        scan = TableScan("Sales")
        assert scan.table == "sales"
        # The implicit alias keeps the caller's spelling: it qualifies columns
        # and must match how programmatic plans reference them.
        assert scan.alias == "Sales"
        assert TableScan("Sales", "s").alias == "s"
        assert scan.referenced_tables() == {"sales"}

    def test_put_does_not_count_replacement_as_capture(self):
        database = Database()
        load_synthetic(database, num_rows=200, num_groups=8, seed=2)
        sql = multi_sketch_templates(1)[0]
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 4)
        maintainer = IncrementalMaintainer(database, plan, partition)
        maintainer.capture()
        entry = SketchEntry(
            template=template_of(sql), sql=sql, plan=plan,
            partition=partition, maintainer=maintainer,
        )
        store = SketchStore()
        store.put(entry)
        store.put(entry)  # re-putting the same template is a replacement
        assert store.statistics.captures == 1
        assert len(store) == 1

    def test_eviction_breaks_use_count_ties_by_recency(self):
        database = Database()
        load_synthetic(database, num_rows=200, num_groups=8, seed=2)
        entries = []
        for sql in multi_sketch_templates(3):
            plan = database.plan(sql)
            partition = build_database_partition(database, plan, 4)
            maintainer = IncrementalMaintainer(database, plan, partition)
            maintainer.capture()
            entries.append(
                SketchEntry(
                    template=template_of(sql), sql=sql, plan=plan,
                    partition=partition, maintainer=maintainer,
                )
            )
        store = SketchStore(capacity=2)
        store.put(entries[0])
        store.put(entries[1])
        store.get(entries[0].template)  # equal use_count=0? get() bumps hits only
        # Both entries have use_count == 0; entry 0 was touched more recently,
        # so entry 1 is the least-recently-used victim.
        store.put(entries[2])
        remaining = {entry.template.text for entry in store.entries()}
        assert entries[0].template.text in remaining
        assert entries[1].template.text not in remaining

    def test_empty_update_does_not_advance_eager_batches(self):
        database = Database()
        load_synthetic(database, num_rows=200, num_groups=8, seed=2)
        strategy = EagerStrategy(batch_size=2)
        system = IMPSystem(database, num_fragments=8, strategy=strategy)
        system.run_query(q_groups(threshold=900))
        system.apply_update("r")  # no rows: must not count as a statement
        assert strategy.pending("r") == 0
        system.apply_update("r", inserts=[_make_row(6_000_000)])
        # One real statement against a batch of two: no round yet.
        assert strategy.pending("r") == 1
        assert system.statistics.sketch_maintenances == 0

    def test_eager_round_acknowledges_per_round_work(self):
        database = Database()
        load_synthetic(database, num_rows=300, num_groups=10, seed=6)
        strategy = EagerStrategy(batch_size=1)
        system = IMPSystem(database, num_fragments=8, strategy=strategy)
        for sql in multi_sketch_templates(3):
            system.run_query(sql)
        system.apply_update("r", inserts=[_make_row(7_000_000)])
        assert strategy.rounds == 1
        assert strategy.sketches_maintained == 3
        assert system.scheduler.statistics.rounds == 1
        assert system.scheduler.statistics.delta_fetches == 1
