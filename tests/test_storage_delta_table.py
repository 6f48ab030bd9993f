"""Tests for deltas, stored tables and the audit log."""

import math

import pytest

from repro.core.errors import SchemaError, StorageError
from repro.relational.columnar import ColumnBatch, SlotMap
from repro.relational.predicates import Interval
from repro.relational.schema import Schema
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta, Delta
from repro.storage.snapshots import AuditLog, AuditRecord
from repro.storage.table import StoredTable


class TestDelta:
    def test_add_and_counts(self):
        delta = Delta(Schema(["a"]))
        delta.add_insert((1,), 2)
        delta.add_delete((2,))
        assert delta.insert_count == 2
        assert delta.delete_count == 1
        assert len(delta) == 3
        assert bool(delta)

    def test_arity_checked(self):
        with pytest.raises(SchemaError):
            Delta(Schema(["a"])).add_insert((1, 2))

    def test_union_sums_the_bags(self):
        schema = Schema(["a"])
        first = Delta.from_rows(schema, inserts=[(1,)])
        second = Delta.from_rows(schema, inserts=[(3,), (1,)], deletes=[(2,)])
        union = Delta.union(schema, [first, second])
        assert union.insert_count == 3 and union.delete_count == 1
        assert list(union.inserts()) == [((1,), 2), ((3,), 1)]
        assert list(union.deletes()) == [((2,), 1)]

    def test_union_checks_arity(self):
        schema = Schema(["a"])
        with pytest.raises(SchemaError):
            Delta.union(schema, [Delta(schema), Delta(Schema(["a", "b"]))])

    def test_multiplicity_must_be_positive(self):
        delta = Delta(Schema(["a"]))
        for multiplicity in (0, -1):
            with pytest.raises(ValueError):
                delta.add_insert((1,), multiplicity)
            with pytest.raises(ValueError):
                delta.add_delete((1,), multiplicity)
        assert not delta

    def test_signed_entries_list_inserts_then_deletes(self):
        delta = Delta.from_rows(Schema(["a"]), inserts=[(1,), (1,), (3,)], deletes=[(2,)])
        assert delta.signed_entries() == ([(1,), (3,), (2,)], [2, 1, -1])
        assert set(delta.inserted_rows()) == {(1,), (3,)}


class TestFrozenDelta:
    """A committed delta is frozen: the table's pending queue, the audit log
    and a one-record maintenance window share it."""

    @staticmethod
    def _database() -> Database:
        database = Database()
        database.create_table("t", ["k", "v"])
        database.insert("t", [(1, 1.0)])
        database.column_batch("t")  # a live batch, so commits are queued
        return database

    def test_the_caller_cannot_change_a_committed_delta(self):
        database = self._database()
        since = database.version
        delta = Delta.from_rows(database.schema_of("t"), inserts=[(2, 2.0)])
        update = DatabaseDelta()
        update.set_delta("t", delta)
        database.apply_database_delta(update)
        for mutate in (
            lambda: delta.add_insert((99, 99.0)),
            lambda: delta.add_delete((1, 1.0)),
            lambda: delta.add_delete((2, 2.0), 2),
        ):
            with pytest.raises(StorageError, match="frozen"):
                mutate()
        assert database.table("t").pending_batch_tuples == 1
        assert database.query("SELECT k, v FROM t").to_sorted_list() == [(1, 1.0), (2, 2.0)]
        assert list(database.table("t").items()) == [((1, 1.0), 1), ((2, 2.0), 1)]
        assert dict(database.delta_since("t", since).inserts()) == {(2, 2.0): 1}

    def test_windows_share_or_merge_the_committed_deltas(self):
        database = self._database()
        since = database.version
        database.insert("t", [(2, 2.0), (2, 2.0)])
        first = database.delta_since("t", since)
        assert database.delta_since("t", since) is first  # the record's own delta
        assert (first.insert_count, first.delete_count, len(first)) == (2, 0, 2)
        assert first.signed_entries() is first.signed_entries()
        database.delete_rows("t", [(1, 1.0), (2, 2.0)])
        window = database.delta_since("t", since)
        assert dict(window.inserts()) == {(2, 2.0): 2}
        assert dict(window.deletes()) == {(1, 1.0): 1, (2, 2.0): 1}
        with pytest.raises(StorageError):
            window.add_insert((3, 3.0))
        # Merging left the record's own delta as it was.
        assert dict(first.inserts()) == {(2, 2.0): 2} and not dict(first.deletes())
        compact = window.compacted()
        assert dict(compact.inserts()) == {(2, 2.0): 1}
        assert dict(compact.deletes()) == {(1, 1.0): 1}

    def test_from_rows_counts_in_first_occurrence_order(self):
        rows = [(3,), (1,), (3,), (True,), (2,), (1.0,)]
        delta = Delta.from_rows(Schema(["a"]), inserts=rows, deletes=[(5,), (4,), (5,)])
        # 1, 1.0 and True are one key, spelled as it first came.
        assert list(delta.inserts()) == [((3,), 2), ((1,), 3), ((2,), 1)]
        assert list(delta.deletes()) == [((5,), 2), ((4,), 1)]
        assert [type(row[0]) for row in delta.inserted_rows()] == [int, int, int]

    def test_from_rows_checks_arity_naming_the_first_offending_row(self):
        with pytest.raises(SchemaError, match="delta row arity 3 does not match schema arity 2"):
            Delta.from_rows(Schema(["a", "b"]), inserts=[(1, 2), (1, 2, 3), (4,)])
        with pytest.raises(SchemaError, match="delta row arity 1"):
            Delta.from_rows(Schema(["a", "b"]), deletes=[[1, 2], [1]])


class TestDatabaseDelta:
    def test_set_and_get(self):
        dd = DatabaseDelta()
        delta = Delta.from_rows(Schema(["a"]), inserts=[(1,)])
        dd.set_delta("r", delta)
        assert dd.get("r") is delta
        assert dd.get("unknown") is None
        assert "r" in dd and "unknown" not in dd
        assert len(dd) == 1

    def test_a_database_delta_of_empty_deltas_is_empty(self):
        dd = DatabaseDelta()
        dd.set_delta("r", Delta(Schema(["a"])))
        assert "r" in dd and not dd and len(dd) == 0
        dd.set_delta("s", Delta.from_rows(Schema(["b"]), deletes=[(1,), (2,)]))
        assert dd and len(dd) == 2
        assert [table for table, _delta in dd.items()] == ["r", "s"]


def commit(table: StoredTable, inserts=(), deletes=()) -> None:
    """Check and apply one delta, as a database commit does."""
    delta = Delta.from_rows(table.schema, inserts, deletes)
    table.check_delta(delta)
    table.apply_delta(delta)


class TestStoredTable:
    def test_insert_delete_roundtrip(self):
        table = StoredTable("t", ["id", "v"], primary_key="id")
        commit(table, inserts=[(1, "a"), (2, "b"), (2, "b")])
        assert len(table) == 3
        assert table.lookup_by_key(2) == (2, "b")
        commit(table, deletes=[(2, "b")])
        assert len(table) == 2
        assert list(table.items()) == [((1, "a"), 1), ((2, "b"), 1)]

    def test_apply_delta_checks_existence(self):
        table = StoredTable("t", ["id"])
        commit(table, inserts=[(1,)])
        bad = Delta.from_rows(Schema(["id"]), deletes=[(9,)])
        with pytest.raises(StorageError, match="only holds 0"):
            table.check_delta(bad)
        with pytest.raises(StorageError, match="only holds 0"):
            table.apply_delta(bad)

    def test_check_delta_refuses_another_arity(self):
        table = StoredTable("t", ["id", "v"])
        with pytest.raises(SchemaError, match="row arity 1 does not match table 't' arity 2"):
            table.check_delta(Delta.from_rows(Schema(["id"]), inserts=[(1,)]))
        assert len(table) == 0

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            StoredTable("t", ["a"], primary_key="nope")

    def test_duplicate_key_insert_rejected(self):
        table = StoredTable("t", ["id", "v"], primary_key="id")
        commit(table, inserts=[(1, "a")])
        with pytest.raises(StorageError, match="row \\(1, 'a'\\) already holds it"):
            commit(table, inserts=[(1, "b")])
        # The original row is untouched and still findable by key.
        assert table.lookup_by_key(1) == (1, "a")
        assert len(table) == 1

    def test_duplicate_key_rejection_keeps_lookup_consistent(self):
        # Regression: overwriting _key_index[key] used to orphan the first
        # row -- deleting the newer duplicate made lookup_by_key return None
        # even though a row with that key remained stored.
        table = StoredTable("t", ["id", "v"], primary_key="id")
        commit(table, inserts=[(1, "a")])
        with pytest.raises(StorageError):
            commit(table, inserts=[(1, "b")])
        with pytest.raises(StorageError):
            commit(table, deletes=[(1, "b")])
        assert table.lookup_by_key(1) == (1, "a")

    def test_same_row_duplicate_copies_allowed(self):
        # Bag semantics: extra copies of the identical row share the key entry.
        table = StoredTable("t", ["id", "v"], primary_key="id")
        commit(table, inserts=[(2, "b"), (2, "b")])
        commit(table, inserts=[(2, "b")])
        assert len(table) == 3
        assert table.lookup_by_key(2) == (2, "b")
        commit(table, deletes=[(2, "b"), (2, "b")])
        assert table.lookup_by_key(2) == (2, "b")
        commit(table, deletes=[(2, "b")])
        assert table.lookup_by_key(2) is None

    def test_key_reusable_after_delete(self):
        table = StoredTable("t", ["id", "v"], primary_key="id")
        commit(table, inserts=[(1, "a")])
        commit(table, deletes=[(1, "a")])
        commit(table, inserts=[(1, "b")])
        assert table.lookup_by_key(1) == (1, "b")

    def test_duplicate_key_in_insert_batch_is_atomic(self):
        from repro.storage.database import Database

        database = Database()
        database.create_table("t", ["id", "v"], primary_key="id")
        database.insert("t", [(1, 10)])
        version = database.version
        with pytest.raises(StorageError):
            database.insert("t", [(7, 70), (7, 71)])
        with pytest.raises(StorageError):
            database.insert("t", [(8, 80), (1, 11)])
        # Nothing from the failed batches was applied.
        assert database.version == version
        assert sorted(database.table("t").rows()) == [(1, 10)]

    def test_duplicate_key_in_database_delta_is_atomic(self):
        from repro.storage.database import Database
        from repro.storage.delta import DatabaseDelta

        database = Database()
        database.create_table("t", ["id", "v"], primary_key="id")
        database.insert("t", [(1, "a"), (2, "b")])
        version = database.version
        schema = database.schema_of("t")
        bad = DatabaseDelta()
        bad.set_delta(
            "t", Delta.from_rows(schema, inserts=[(3, "c"), (1, "DUP")], deletes=[(2, "b")])
        )
        with pytest.raises(StorageError):
            database.apply_database_delta(bad)
        # The delete and the first insert were NOT applied.
        assert database.version == version
        assert sorted(database.table("t").rows()) == [(1, "a"), (2, "b")]

    def test_over_delete_is_atomic(self):
        from repro.storage.database import Database

        database = Database()
        database.create_table("t", ["id"])
        database.insert("t", [(1,), (2,)])
        version = database.version
        with pytest.raises(StorageError):
            database.delete_rows("t", [(2,), (1,), (1,)])
        # Nothing was applied: the infeasible delete is rejected up front.
        assert database.version == version
        assert sorted(database.table("t").rows()) == [(1,), (2,)]

    def test_delta_may_reuse_key_freed_by_its_own_delete(self):
        from repro.storage.database import Database
        from repro.storage.delta import DatabaseDelta

        database = Database()
        database.create_table("t", ["id", "v"], primary_key="id")
        database.insert("t", [(1, "a")])
        schema = database.schema_of("t")
        update = DatabaseDelta()
        update.set_delta(
            "t", Delta.from_rows(schema, inserts=[(1, "a2")], deletes=[(1, "a")])
        )
        database.apply_database_delta(update)
        assert database.table("t").lookup_by_key(1) == (1, "a2")


def entries(batch: ColumnBatch) -> list[tuple]:
    return list(zip(batch.row_tuples(), batch.multiplicities))


class TestSlotMap:
    """The apply routine behind both the live bring-forward and snapshot
    rollback: per-tuple edits of caller-owned lists, arrival order kept."""

    ROWS = [(1, "a"), (2, "b"), (3, "c"), (4, "d")]

    def batch_lists(self):
        columns = [list(column) for column in zip(*self.ROWS)]
        return SlotMap(self.ROWS), columns, [1, 2, 1, 1]

    def test_bump_partial_delete_removal_and_append(self):
        slots, columns, multiplicities = self.batch_lists()
        slots.apply(
            columns,
            multiplicities,
            deletes=[((2, "b"), 1), ((3, "c"), 1)],
            inserts=[((1, "a"), 4), ((9, "z"), 2)],
        )
        assert slots.rows() == [(1, "a"), (2, "b"), (4, "d"), (9, "z")]
        assert list(zip(*columns)) == slots.rows()
        assert multiplicities == [5, 1, 1, 2]

    def test_removed_and_reinserted_row_moves_to_the_end_like_a_dict_key(self):
        slots, columns, multiplicities = self.batch_lists()
        slots.apply(columns, multiplicities, [((1, "a"), 1)], [((1, "a"), 1)])
        counts = dict(zip(self.ROWS, [1, 2, 1, 1]))
        del counts[(1, "a")]
        counts[(1, "a")] = 1
        assert list(zip(slots.rows(), multiplicities)) == list(counts.items())
        assert list(zip(*columns)) == slots.rows()

    def test_slots_stay_exact_after_many_removals(self):
        rows = [(i,) for i in range(50)]
        slots, columns, multiplicities = SlotMap(rows), [list(range(50))], [1] * 50
        slots.apply(columns, multiplicities, [((i,), 1) for i in range(0, 50, 3)], [])
        slots.apply(columns, multiplicities, [((49,), 1)], [((7,), 2), ((100,), 1)])
        expected = [i for i in range(49) if i % 3] + [100]
        assert columns[0] == expected
        assert multiplicities == [3 if i == 7 else 1 for i in expected]

    def test_without_columns(self):
        slots, _columns, multiplicities = self.batch_lists()
        slots.apply((), multiplicities, [((4, "d"), 1)], [((5, "e"), 1)])
        assert slots.rows() == [(1, "a"), (2, "b"), (3, "c"), (5, "e")]
        assert multiplicities == [1, 2, 1, 1]

    def test_uncovered_delete_is_an_error(self):
        slots, columns, multiplicities = self.batch_lists()
        with pytest.raises(KeyError):
            slots.apply(columns, multiplicities, [((7, "q"), 1)], [])


class TestMaintainedColumnBatch:
    """``StoredTable.as_column_batch``: commits bring the batch forward; the
    whole-table pivot is the cold start only."""

    SCHEMA = Schema(["id", "v"])

    def table(self, rows=((1, 1.5), (2, 2.5), (3, 3.5))) -> StoredTable:
        table = StoredTable("t", self.SCHEMA)
        table.apply_delta(Delta.from_rows(self.SCHEMA, inserts=rows))
        return table

    @pytest.fixture()
    def pivots(self, monkeypatch):
        """Counts whole-table pivots made by stored tables."""
        calls = []
        original = ColumnBatch.from_items.__func__

        def counting(cls, schema, items, consolidated=False):
            calls.append(schema)
            return original(cls, schema, items, consolidated)

        monkeypatch.setattr(ColumnBatch, "from_items", classmethod(counting))
        return calls

    def test_nothing_is_queued_for_a_table_without_a_batch(self):
        table = self.table()
        table.apply_delta(Delta.from_rows(self.SCHEMA, inserts=[(4, 4.5)]))
        assert table.pending_batch_tuples == 0
        assert table._pending == [] and table._slots is None

    def test_commit_keeps_the_batch_and_the_next_scan_brings_it_forward(self, pivots):
        table = self.table()
        first = table.as_column_batch()
        assert table.as_column_batch() is first
        assert len(pivots) == 1
        held = entries(first)
        table.apply_delta(
            Delta.from_rows(self.SCHEMA, inserts=[(4, 4.5)], deletes=[(2, 2.5)])
        )
        assert table.pending_batch_tuples == 2
        second = table.as_column_batch()
        assert len(pivots) == 1  # brought forward, not re-pivoted
        assert second is not first and table.as_column_batch() is second
        assert table.pending_batch_tuples == 0
        assert entries(second) == [((1, 1.5), 1), ((3, 3.5), 1), ((4, 4.5), 1)]
        assert entries(second) == list(table.items()) == list(table.as_relation().items())
        # Invariant 1: the batch handed out earlier shares no list with the new one.
        assert entries(first) == held
        assert all(a is not b for a, b in zip(first.columns, second.columns))
        assert first.multiplicities is not second.multiplicities

    def test_several_queued_commits_apply_in_order(self, pivots):
        table = self.table([(i, i + 0.5) for i in range(1, 9)])
        table.as_column_batch()
        table.apply_delta(Delta.from_rows(self.SCHEMA, inserts=[(9, 9.5)]))
        table.apply_delta(Delta.from_rows(self.SCHEMA, deletes=[(9, 9.5), (1, 1.5)]))
        table.apply_delta(Delta.from_rows(self.SCHEMA, inserts=[(1, 1.5), (2, 2.5)]))
        assert table.pending_batch_tuples == 5
        assert entries(table.as_column_batch()) == list(table.items())
        assert entries(table.as_column_batch()) == [
            ((2, 2.5), 2), *(((i, i + 0.5), 1) for i in range(3, 9)), ((1, 1.5), 1)
        ]
        assert len(pivots) == 1

    def test_pending_tuples_outnumbering_the_rows_is_a_cold_start(self, pivots):
        table = self.table()
        table.as_column_batch()
        table.apply_delta(Delta.from_rows(self.SCHEMA, deletes=[(1, 1.5)]))
        assert table.pending_batch_tuples == 1  # 1 queued <= 2 rows
        table.apply_delta(Delta.from_rows(self.SCHEMA, deletes=[(2, 2.5), (3, 3.5)]))
        assert table.pending_batch_tuples == 0 and table._batch is None
        assert len(table.as_column_batch()) == 0
        assert len(pivots) == 2

    def test_too_many_queued_deletes_is_a_cold_start(self, pivots, monkeypatch):
        monkeypatch.setattr(StoredTable, "_MAX_PENDING_DELETES", 2)
        table = self.table([(i, float(i)) for i in range(20)])
        table.as_column_batch()
        table.apply_delta(Delta.from_rows(self.SCHEMA, deletes=[(0, 0.0), (1, 1.0)]))
        assert table._batch is not None
        table.apply_delta(Delta.from_rows(self.SCHEMA, deletes=[(2, 2.0)]))
        assert table._batch is None
        assert entries(table.as_column_batch()) == list(table.items())
        assert len(pivots) == 2

    def test_half_applied_delta_is_a_cold_start(self, pivots):
        table = self.table()
        table.as_column_batch()
        bad = Delta.from_rows(self.SCHEMA, deletes=[(1, 1.5), (9, 9.5)])
        with pytest.raises(StorageError):
            table.apply_delta(bad)
        assert table._batch is None and table.pending_batch_tuples == 0
        assert entries(table.as_column_batch()) == list(table.items())


class TestAttributeIndex:
    def test_distinct_value_count_excludes_tombstones(self):
        table = StoredTable("t", ["id", "v"])
        commit(table, inserts=[(i, i * 10) for i in range(5)])
        index = table.create_index("v")
        assert index.distinct_value_count() == 5
        commit(table, deletes=[(i, i * 10) for i in range(4)])
        assert index.distinct_value_count() == 1

    def test_distinct_value_count_revives_on_reinsert(self):
        table = StoredTable("t", ["id", "v"])
        commit(table, inserts=[(1, 10), (2, 20)])
        index = table.create_index("v")
        commit(table, deletes=[(2, 20)])
        assert index.distinct_value_count() == 1
        commit(table, inserts=[(3, 20)])
        assert index.distinct_value_count() == 2

    def test_compaction_keeps_range_scans_correct(self):
        from repro.relational.predicates import Interval

        table = StoredTable("t", ["id", "v"])
        commit(table, inserts=[(i, float(i)) for i in range(300)])
        index = table.create_index("v")
        # Delete enough distinct values to trigger tombstone compaction.
        for i in range(0, 300, 2):
            commit(table, deletes=[(i, float(i))])
        assert index.distinct_value_count() == 150
        # Rows and multiplicities come back as two parallel lists.
        rows, multiplicities = index.rows_in_intervals([Interval(0.0, 299.0)])
        assert multiplicities == [1] * 150
        assert all(row[1] % 2 == 1 for row in rows)


class TestUnorderableIndexedValue:
    """A value an attribute index cannot order against its values is refused
    before a commit or an index build changes anything."""

    @staticmethod
    def _database() -> Database:
        database = Database()
        database.create_table("r", ["id", "a", "b"], primary_key="id")
        database.create_index("r", "a")
        database.insert("r", [(i, i % 5, float(i)) for i in range(20)])
        return database

    @staticmethod
    def _state(database: Database) -> tuple:
        table = database.table("r")
        return (
            database.version,
            sorted(table.items()),
            list(database.audit_log.records()),
            table.rows_in_intervals("a", [Interval(-math.inf, 1)]),
        )

    def test_an_insert_is_refused_whole(self):
        database = self._database()
        before = self._state(database)
        with pytest.raises(StorageError, match="does not order"):
            database.insert("r", [(100, 1, 1.0), (101, "x", 2.0)])
        assert self._state(database) == before
        # The same commit without the stray value goes through.
        database.insert("r", [(100, 1, 1.0)])
        assert database.version == before[0] + 1

    def test_null_and_nan_are_never_refused(self):
        database = Database()
        database.create_table("s", ["id", "name"])
        database.create_index("s", "name")
        database.insert("s", [(1, "x"), (2, None), (3, math.nan)])
        with pytest.raises(StorageError, match="does not order"):
            database.insert("s", [(4, 1)])
        assert len(database.table("s")) == 3

    def test_an_empty_index_orders_the_commit_against_itself(self):
        database = Database()
        database.create_table("s", ["id", "v"])
        database.create_index("s", "v")
        with pytest.raises(StorageError, match="does not order"):
            database.insert("s", [(1, math.nan), (2, 2.5), (3, "x")])
        assert len(database.table("s")) == 0
        # Numbers of different types order against each other.
        database.insert("s", [(1, 2.5), (2, 1), (3, True), (4, None)])
        assert len(database.table("s")) == 4

    def test_an_index_over_unorderable_values_is_refused(self):
        database = Database()
        database.create_table("t", ["id", "c"])
        database.insert("t", [(1, 1), (2, "x")])
        with pytest.raises(StorageError, match="does not order"):
            database.create_index("t", "c")
        assert not database.has_index("t", "c")


class TestAuditLog:
    def make_record(self, version: int, value: int) -> AuditRecord:
        delta = Delta.from_rows(Schema(["a"]), inserts=[(value,)])
        return AuditRecord(version, {"r": delta})

    def test_versions_must_increase(self):
        log = AuditLog()
        log.append(self.make_record(1, 10))
        with pytest.raises(StorageError):
            log.append(self.make_record(1, 11))

    def test_delta_between_combines_records(self):
        log = AuditLog()
        for version in range(1, 5):
            log.append(self.make_record(version, version * 10))
        delta = log.delta_between("r", Schema(["a"]), since=1, until=3)
        assert dict(delta.inserts()) == {(20,): 1, (30,): 1}

    def test_deltas_between_windows_one_table(self):
        log = AuditLog()
        for version in range(1, 5):
            log.append(self.make_record(version, version * 10))
        window = log.deltas_between("r", 1, 3)
        assert [dict(delta.inserts()) for delta in window] == [{(20,): 1}, {(30,): 1}]
        assert len(log.deltas_between("r", 2)) == 2
        assert log.deltas_between("r", 4) == []
        assert log.deltas_between("s", 0) == []

    def test_prune(self):
        log = AuditLog()
        for version in range(1, 6):
            log.append(self.make_record(version, version))
        assert log.prune_before(3) == 3
        assert len(log) == 2
