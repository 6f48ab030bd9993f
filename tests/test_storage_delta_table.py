"""Tests for deltas, stored tables and the audit log."""

import pytest

from repro.core.errors import SchemaError, StorageError
from repro.relational.columnar import ColumnBatch, SlotMap
from repro.relational.schema import Relation, Schema
from repro.storage.delta import DELETE, INSERT, DatabaseDelta, Delta, DeltaTuple
from repro.storage.snapshots import AuditLog, AuditRecord
from repro.storage.table import StoredTable


class TestDeltaTuple:
    def test_sign_validation(self):
        with pytest.raises(ValueError):
            DeltaTuple(0, (1,))
        with pytest.raises(ValueError):
            DeltaTuple(INSERT, (1,), 0)

    def test_flags(self):
        assert DeltaTuple(INSERT, (1,)).is_insert
        assert DeltaTuple(DELETE, (1,)).is_delete


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

    def test_between_computes_symmetric_difference(self):
        schema = Schema(["a"])
        old = Relation(schema, {(1,): 2, (2,): 1})
        new = Relation(schema, {(1,): 1, (3,): 1})
        delta = Delta.between(old, new)
        assert dict(delta.deletes()) == {(1,): 1, (2,): 1}
        assert dict(delta.inserts()) == {(3,): 1}

    def test_apply_to_roundtrip(self):
        schema = Schema(["a"])
        old = Relation(schema, {(1,): 2, (2,): 1})
        new = Relation(schema, {(2,): 3, (4,): 1})
        delta = Delta.between(old, new)
        assert delta.apply_to(old) == new

    def test_merge(self):
        schema = Schema(["a"])
        first = Delta.from_rows(schema, inserts=[(1,)])
        second = Delta.from_rows(schema, deletes=[(2,)])
        first.merge(second)
        assert first.insert_count == 1 and first.delete_count == 1

    def test_tuples_iteration(self):
        delta = Delta.from_rows(Schema(["a"]), inserts=[(1,)], deletes=[(2,)])
        signs = sorted(t.sign for t in delta.tuples())
        assert signs == [DELETE, INSERT]

    def test_insert_and_delete_relations(self):
        delta = Delta.from_rows(Schema(["a"]), inserts=[(1,), (1,)], deletes=[(2,)])
        assert delta.insert_relation().multiplicity((1,)) == 2
        assert delta.delete_relation().multiplicity((2,)) == 1


class TestDatabaseDelta:
    def test_requires_schema_for_new_table(self):
        dd = DatabaseDelta()
        with pytest.raises(SchemaError):
            dd.delta_for("r")
        delta = dd.delta_for("r", Schema(["a"]))
        delta.add_insert((1,))
        assert "r" in dd
        assert len(dd) == 1

    def test_set_and_get(self):
        dd = DatabaseDelta()
        delta = Delta.from_rows(Schema(["a"]), inserts=[(1,)])
        dd.set_delta("r", delta)
        assert dd.get("r") is delta
        assert dd.get("unknown") is None
        assert list(dd.tables()) == ["r"]


class TestStoredTable:
    def test_insert_delete_roundtrip(self):
        table = StoredTable("t", ["id", "v"], primary_key="id")
        table.insert((1, "a"))
        table.insert((2, "b"), 2)
        assert len(table) == 3
        assert table.lookup_by_key(2) == (2, "b")
        assert table.delete((2, "b")) == 1
        assert len(table) == 2

    def test_delete_where(self):
        table = StoredTable("t", ["id", "v"])
        table.insert_many([(1, 5), (2, 50), (3, 500)])
        deleted = table.delete_where(lambda row: row[1] > 10)
        assert sorted(deleted) == [(2, 50), (3, 500)]
        assert len(table) == 1

    def test_apply_delta_checks_existence(self):
        table = StoredTable("t", ["id"])
        table.insert((1,))
        bad = Delta.from_rows(Schema(["id"]), deletes=[(9,)])
        with pytest.raises(StorageError):
            table.apply_delta(bad)

    def test_attribute_bounds_and_values(self):
        table = StoredTable("t", ["id", "v"])
        table.insert_many([(1, 10), (2, None), (3, 30)])
        assert table.attribute_bounds("v") == (10, 30)
        assert sorted(table.column_values("v")) == [10, 30]
        empty = StoredTable("e", ["x"])
        assert empty.attribute_bounds("x") is None

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            StoredTable("t", ["a"], primary_key="nope")

    def test_truncate(self):
        table = StoredTable("t", ["a"])
        table.insert((1,))
        table.truncate()
        assert len(table) == 0

    def test_duplicate_key_insert_rejected(self):
        table = StoredTable("t", ["id", "v"], primary_key="id")
        table.insert((1, "a"))
        with pytest.raises(StorageError):
            table.insert((1, "b"))
        # The original row is untouched and still findable by key.
        assert table.lookup_by_key(1) == (1, "a")
        assert len(table) == 1

    def test_duplicate_key_rejection_keeps_lookup_consistent(self):
        # Regression: overwriting _key_index[key] used to orphan the first
        # row -- deleting the newer duplicate made lookup_by_key return None
        # even though a row with that key remained stored.
        table = StoredTable("t", ["id", "v"], primary_key="id")
        table.insert((1, "a"))
        with pytest.raises(StorageError):
            table.insert((1, "b"))
        assert table.delete((1, "b")) == 0
        assert table.lookup_by_key(1) == (1, "a")

    def test_same_row_duplicate_copies_allowed(self):
        # Bag semantics: extra copies of the identical row share the key entry.
        table = StoredTable("t", ["id", "v"], primary_key="id")
        table.insert((2, "b"), 2)
        table.insert((2, "b"))
        assert len(table) == 3
        assert table.lookup_by_key(2) == (2, "b")
        table.delete((2, "b"), 2)
        assert table.lookup_by_key(2) == (2, "b")
        table.delete((2, "b"))
        assert table.lookup_by_key(2) is None

    def test_key_reusable_after_delete(self):
        table = StoredTable("t", ["id", "v"], primary_key="id")
        table.insert((1, "a"))
        table.delete((1, "a"))
        table.insert((1, "b"))
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

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda table: table.insert((9, 9.5)),
            lambda table: table.delete((1, 1.5)),
            lambda table: table.delete_where(lambda row: row[0] == 2),
            lambda table: table.truncate(),
        ],
        ids=["insert", "delete", "delete_where", "truncate"],
    )
    def test_direct_mutation_is_a_cold_start(self, pivots, mutate):
        table = self.table()
        table.as_column_batch()
        table.apply_delta(Delta.from_rows(self.SCHEMA, inserts=[(4, 4.5)]))
        mutate(table)
        assert table.pending_batch_tuples == 0 and table._batch is None
        assert entries(table.as_column_batch()) == list(table.items())
        assert len(pivots) == 2

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
        table.insert_many([(i, i * 10) for i in range(5)])
        index = table.create_index("v")
        assert index.distinct_value_count() == 5
        for i in range(4):
            table.delete((i, i * 10))
        assert index.distinct_value_count() == 1

    def test_distinct_value_count_revives_on_reinsert(self):
        table = StoredTable("t", ["id", "v"])
        table.insert((1, 10))
        table.insert((2, 20))
        index = table.create_index("v")
        table.delete((2, 20))
        assert index.distinct_value_count() == 1
        table.insert((3, 20))
        assert index.distinct_value_count() == 2

    def test_compaction_keeps_range_scans_correct(self):
        from repro.relational.predicates import Interval

        table = StoredTable("t", ["id", "v"])
        table.insert_many([(i, float(i)) for i in range(300)])
        index = table.create_index("v")
        # Delete enough distinct values to trigger tombstone compaction.
        for i in range(0, 300, 2):
            table.delete((i, float(i)))
        assert index.distinct_value_count() == 150
        rows = list(index.rows_in_intervals([Interval(0.0, 299.0)]))
        assert len(rows) == 150
        assert all(row[1] % 2 == 1 for row, _mult in rows)


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

    def test_tables_changed_between(self):
        log = AuditLog()
        log.append(self.make_record(1, 10))
        assert log.tables_changed_between(0, 1) == {"r"}
        assert log.tables_changed_between(1, 1) == set()

    def test_prune(self):
        log = AuditLog()
        for version in range(1, 6):
            log.append(self.make_record(version, version))
        assert log.prune_before(3) == 3
        assert len(log) == 2
