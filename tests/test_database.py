"""Tests for the versioned in-memory backend database."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SchemaError, StorageError
from repro.imp.middleware import IMPSystem
from repro.storage.database import Database
from repro.storage.recovery import WAL_FILE
from repro.storage.sessions import SnapshotView
from repro.storage.wal import scan_wal
from repro.storage.statistics import (
    ColumnStatistics,
    collect_column_statistics,
    equi_depth_boundaries,
)


OWN_NAN = object()  # drawn as a NaN object of its own
# Bag column values: NULL, a shared NaN and NaNs of their own, both
# infinities, both zeros under four spellings, 1/1.0/True, and ints past
# 2**53 beside the float they round to.
BAG_VALUES = [
    None, math.nan, OWN_NAN, math.inf, -math.inf, 0.0, -0.0, 0, False,
    1, 1.0, True, 2**53, 2**53 + 1, -(2**53 + 1), float(2**53), 2.5, -3, 0.1,
]


def _own_nan(value):
    return float("nan") if value is OWN_NAN else value


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.create_table("t", ["id", "v"], primary_key="id")
    database.insert("t", [(i, i * 10) for i in range(10)])
    return database


class TestCatalog:
    def test_create_and_drop(self, db):
        db.create_table("extra", ["x"])
        assert db.has_table("extra")
        db.drop_table("extra")
        assert not db.has_table("extra")

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(StorageError):
            db.create_table("t", ["x"])

    def test_unknown_table_rejected(self, db):
        with pytest.raises(StorageError):
            db.table("missing")
        with pytest.raises(StorageError):
            db.drop_table("missing")

    def test_table_names_are_sorted(self, db):
        db.create_table("a_table", ["x"])
        assert db.table_names() == ["a_table", "t"]

    def test_names_are_case_insensitive(self, db):
        assert db.has_table("T")
        assert db.schema_of("T").attributes == ("id", "v")


class TestVersionsAndDeltas:
    def test_versions_increase_per_commit(self, db):
        assert db.version == 2
        db.insert("t", [(100, 1)])
        assert db.version == 3
        db.delete_rows("t", [(100, 1)])
        assert db.version == 4

    def test_empty_update_does_not_bump_version(self, db):
        version = db.version
        assert db.insert("t", []) == version
        assert db.execute("DELETE FROM t WHERE v < 0") == version

    def test_delta_since(self, db):
        version = db.version
        db.insert("t", [(100, 1), (101, 2)])
        db.delete_rows("t", [(0, 0)])
        delta = db.delta_since("t", version)
        assert delta.insert_count == 2
        assert delta.delete_count == 1

    def test_database_delta_since_filters_tables(self, db):
        db.create_table("u", ["x"])
        version = db.version
        db.insert("t", [(200, 5)])
        db.insert("u", [(1,)])
        delta = db.database_delta_since(["t"], version)
        assert "t" in delta and "u" not in delta

    def test_tables_changed_since(self, db):
        version = db.version
        db.insert("t", [(300, 1)])
        assert db.tables_changed_since(version) == {"t"}

    def test_invalid_version_range(self, db):
        with pytest.raises(StorageError):
            db.delta_since("t", db.version + 5)

    def test_snapshot_relation_reconstructs_history(self, db):
        v1 = db.version
        db.insert("t", [(100, 1)])
        db.delete_rows("t", [(0, 0)])
        past = db.snapshot_relation("t", v1)
        assert past.multiplicity((0, 0)) == 1
        assert past.multiplicity((100, 1)) == 0
        current = db.snapshot_relation("t", db.version)
        assert current.multiplicity((100, 1)) == 1


class TestQueriesAndUpdates:
    def test_sql_query(self, db):
        result = db.query("SELECT id, v FROM t WHERE v >= 80")
        assert sorted(result.rows()) == [(8, 80), (9, 90)]

    def test_execute_insert_and_delete_sql(self, db):
        db.execute("INSERT INTO t VALUES (50, 500)")
        assert db.table("t").lookup_by_key(50) == (50, 500)
        db.execute("DELETE FROM t WHERE v = 500")
        assert db.table("t").lookup_by_key(50) is None

    def test_execute_insert_with_column_list(self, db):
        db.execute("INSERT INTO t (v, id) VALUES (990, 99)")
        assert db.table("t").lookup_by_key(99) == (99, 990)

    def test_execute_select_returns_relation(self, db):
        result = db.execute("SELECT id FROM t WHERE id < 2")
        assert sorted(result.rows()) == [(0,), (1,)]

    def test_execute_delete_of_several_rows(self, db):
        db.execute("DELETE FROM t WHERE v >= 50")
        assert len(db.table("t")) == 5

    def test_scan_counter_increases(self, db):
        before = db.scan_count
        db.query("SELECT * FROM t")
        assert db.scan_count > before


class TestUnhashableValues:
    """A value a row dict cannot key (a list, a dict) is refused as a
    :class:`SchemaError` naming the row, before anything is logged or
    applied."""

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "data_dir"])
    def test_is_a_schema_error_that_commits_nothing(self, tmp_path, durable):
        path = str(tmp_path / "db")
        database = Database(data_dir=path if durable else None)
        database.create_table("t", ["id", "v"], primary_key="id")
        database.insert("t", [(1, 1)])
        system = IMPSystem(database)
        version = database.version

        def wal_records() -> int:
            return len(scan_wal(f"{path}/{WAL_FILE}").records) if durable else 0

        logged = wal_records()
        with pytest.raises(SchemaError, match=r"row \(3, \[1\]\) holds an unhashable value"):
            database.insert("t", [(2, 2), (3, [1])])
        with pytest.raises(SchemaError, match=r"row \(4, \{'a': 1\}\)"):
            system.apply_update("t", inserts=[(4, {"a": 1})], deletes=[(1, 1)])
        with pytest.raises(SchemaError, match=r"row \(1, \[1\]\)"):
            database.delete_rows("t", [(1, [1])])
        assert database.version == version
        assert list(database.table("t").items()) == [((1, 1), 1)]
        assert wal_records() == logged
        if durable:
            database.close()
            reopened = Database(data_dir=path)
            assert reopened.version == version
            assert list(reopened.table("t").items()) == [((1, 1), 1)]
            reopened.close()


class TestStatistics:
    def test_column_statistics(self, db):
        stats = db.column_statistics("t", "v")
        assert stats.row_count == 10
        assert stats.minimum == 0 and stats.maximum == 90
        assert stats.distinct_count == 10

    @settings(max_examples=400, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.sampled_from(BAG_VALUES), st.integers(1, 4)), max_size=24
        ).map(lambda entries: [(_own_nan(value), count) for value, count in entries]),
        num_buckets=st.integers(1, 12),
    )
    def test_statistics_read_the_stored_bag(self, entries, num_buckets):
        """Statistics and boundaries of a bag column -- each distinct row's
        value and its count -- are those of the column with every value
        repeated by its count: the expansion, sorted as floats for the
        boundaries, with NULL and NaN left out of the order.  A zero boundary
        keeps the sign of the column's first zero."""
        values = [value for value, _count in entries]
        counts = [count for _value, count in entries]
        expanded = [value for value, count in entries for _ in range(count)]
        statistics = collect_column_statistics("x", values, counts)
        ordered = [value for value in expanded if value is not None and value == value]
        distinct = set(expanded)
        assert statistics == ColumnStatistics(
            attribute="x",
            row_count=len(expanded),
            null_count=expanded.count(None),
            distinct_count=len(distinct) - (None in distinct),
            minimum=min(ordered) if ordered else None,
            maximum=max(ordered) if ordered else None,
        )
        data = sorted(map(float, ordered))
        if not data:
            with pytest.raises(ValueError, match="empty column"):
                equi_depth_boundaries(values, counts, num_buckets)
            return
        expected = [data[0]]
        for bucket in range(1, num_buckets):
            candidate = data[min(len(data) - 1, round(bucket * len(data) / num_buckets))]
            if candidate > expected[-1]:
                expected.append(candidate)
        if data[-1] > expected[-1] or len(expected) == 1:
            expected.append(data[-1])
        boundaries = equi_depth_boundaries(values, counts, num_buckets)
        assert boundaries == expected
        zeros = [math.copysign(1.0, float(value)) for value in ordered if value == 0]
        for boundary in boundaries:
            if boundary == 0:
                assert math.copysign(1.0, boundary) == zeros[0]

    def test_a_snapshot_at_the_current_version_reports_the_database_statistics(self):
        database = Database()
        database.create_table("t", ["a", "b"])
        database.insert("t", [(1, 5), (1, 5), (2, None), (3, 7), (3, 7), (3, 7), (4, 2.5)])
        database.delete_rows("t", [(3, 7), (1, 5)])
        database.insert("t", [(5, None), (6, 9), (6, 9)])
        view = SnapshotView(database, database.version)
        for attribute in ("a", "b"):
            assert view.column_statistics("t", attribute) == database.column_statistics(
                "t", attribute
            )
            for buckets in (1, 2, 3, 8):
                assert view.equi_depth_ranges(
                    "t", attribute, buckets
                ) == database.equi_depth_ranges("t", attribute, buckets)
        statistics = database.column_statistics("t", "b")
        assert (statistics.row_count, statistics.null_count) == (8, 2)
        assert (statistics.distinct_count, statistics.minimum, statistics.maximum) == (4, 2.5, 9)

    def test_collect_column_statistics_handles_nulls(self):
        stats = collect_column_statistics("x", [1, None, 3], [1, 1, 1])
        assert stats.null_count == 1
        assert stats.distinct_count == 2

    def test_equi_depth_ranges(self, db):
        boundaries = db.equi_depth_ranges("t", "v", 5)
        assert boundaries[0] == 0 and boundaries[-1] == 90
        assert boundaries == sorted(boundaries)

    def test_equi_depth_boundaries_on_skewed_data(self):
        boundaries = equi_depth_boundaries([1, 2, 3], [100, 1, 1], 10)
        assert boundaries[0] == 1 and boundaries[-1] == 3
        assert len(boundaries) >= 2

    def test_equi_depth_rejects_empty(self):
        with pytest.raises(ValueError):
            equi_depth_boundaries([], [], 4)

    @given(
        values=st.lists(st.integers(-50, 50), min_size=1, max_size=60),
        positions=st.lists(st.integers(0, 60), max_size=4),
        num_buckets=st.integers(1, 12),
    )
    def test_equi_depth_boundaries_skip_nan(self, values, positions, num_buckets):
        # NaN has no place in an order: wherever it sits in the column, the
        # boundaries are those of the orderable values alone.
        data = [float(value) for value in values]
        with_nan = list(data)
        for position in positions:
            with_nan.insert(min(position, len(with_nan)), math.nan)
        assert equi_depth_boundaries(with_nan, [1] * len(with_nan), num_buckets) == (
            equi_depth_boundaries(data, [1] * len(data), num_buckets)
        )

    def test_equi_depth_rejects_a_column_of_null_and_nan(self):
        with pytest.raises(ValueError, match="empty column"):
            equi_depth_boundaries([math.nan, None, math.nan], [1, 2, 1], 4)

    @pytest.mark.parametrize("values", [[math.nan, 3.0, 1.0, None], [3.0, math.nan, 1.0]])
    def test_collect_column_statistics_skips_nan(self, values):
        stats = collect_column_statistics("x", values, [1] * len(values))
        assert (stats.minimum, stats.maximum) == (1.0, 3.0)
        assert stats.null_count == values.count(None)
        only_nan = collect_column_statistics("x", [math.nan, None], [1, 1])
        assert only_nan.minimum is None and only_nan.maximum is None

    def test_a_column_of_values_that_do_not_compare_has_no_bounds(self):
        """So sketch selection treats it as non-numeric instead of raising
        ``TypeError`` from ``min``."""
        stats = collect_column_statistics("x", [1, None, "x", 2], [1, 1, 1, 1])
        assert (stats.minimum, stats.maximum) == (None, None)
        assert stats.null_count == 1 and stats.distinct_count == 3
