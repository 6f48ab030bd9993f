"""Tests for predicate interval extraction and the backend attribute index.

These two pieces implement the physical-design side of provenance-based data
skipping: the use rewrite injects range predicates, the predicate analysis
turns them into intervals, and the ordered index serves them without a full
table scan.
"""

import math

import pytest

from repro.core.errors import StorageError
from repro.relational.expressions import (
    Between,
    ColumnRef,
    Comparison,
    FunctionCall,
    Literal,
    LogicalOp,
)
from repro.relational.predicates import Interval, extract_intervals, intervals_are_selective
from repro.storage.database import Database
from repro.storage.delta import Delta
from repro.storage.table import AttributeIndex, StoredTable


class TestInterval:
    def test_intersect(self):
        a = Interval(0, 10)
        b = Interval(5, 20)
        merged = a.intersect(b)
        assert merged.low == 5 and merged.high == 10

    def test_empty_detection(self):
        assert Interval(5, 1).is_empty()
        assert Interval(3, 3, low_inclusive=False).is_empty()
        assert not Interval(3, 3).is_empty()

    def test_everything(self):
        assert not Interval.everything().is_empty()


class TestExtractIntervals:
    def test_simple_comparisons(self):
        column = ColumnRef("price")
        assert extract_intervals(Comparison(">=", column, Literal(10)), "price") == [
            Interval(10, math.inf, True, True)
        ]
        less = extract_intervals(Comparison("<", column, Literal(10)), "price")
        assert less == [Interval(-math.inf, 10, True, False)]
        equal = extract_intervals(Comparison("=", column, Literal(10)), "price")
        assert equal == [Interval(10, 10)]

    def test_reversed_comparison(self):
        predicate = Comparison(">", Literal(100), ColumnRef("price"))
        intervals = extract_intervals(predicate, "price")
        assert intervals == [Interval(-math.inf, 100, True, False)]

    def test_between(self):
        predicate = Between(ColumnRef("t.price"), Literal(5), Literal(9))
        assert extract_intervals(predicate, "price") == [Interval(5, 9)]

    def test_qualified_names_match_bare_attribute(self):
        predicate = Comparison(">=", ColumnRef("sales.price"), Literal(3))
        assert extract_intervals(predicate, "price") is not None

    def test_other_attributes_give_no_bound(self):
        predicate = Comparison(">=", ColumnRef("other"), Literal(3))
        assert extract_intervals(predicate, "price") is None

    def test_and_intersects_bounds(self):
        predicate = LogicalOp(
            "AND",
            [
                Comparison(">=", ColumnRef("price"), Literal(10)),
                Comparison("<", ColumnRef("price"), Literal(20)),
                Comparison(">", ColumnRef("unrelated"), Literal(0)),
            ],
        )
        intervals = extract_intervals(predicate, "price")
        assert len(intervals) == 1
        assert intervals[0].low == 10 and intervals[0].high == 20

    def test_or_unions_bounds(self):
        predicate = LogicalOp(
            "OR",
            [
                Between(ColumnRef("price"), Literal(0), Literal(5)),
                Between(ColumnRef("price"), Literal(50), Literal(60)),
            ],
        )
        intervals = extract_intervals(predicate, "price")
        assert len(intervals) == 2

    def test_or_with_unbounded_disjunct_is_unbounded(self):
        predicate = LogicalOp(
            "OR",
            [
                Between(ColumnRef("price"), Literal(0), Literal(5)),
                Comparison(">", ColumnRef("other"), Literal(1)),
            ],
        )
        assert extract_intervals(predicate, "price") is None

    def test_non_numeric_literal_gives_no_bound(self):
        predicate = Comparison("=", ColumnRef("price"), Literal("cheap"))
        assert extract_intervals(predicate, "price") is None

    def test_unsupported_expressions_give_no_bound(self):
        predicate = Comparison(
            ">", FunctionCall("abs", [ColumnRef("price")]), Literal(3)
        )
        assert extract_intervals(predicate, "price") is None

    def test_selectivity_check(self):
        assert intervals_are_selective([Interval(0, 5)])
        assert not intervals_are_selective(None)
        assert not intervals_are_selective([Interval(-math.inf, math.inf)])
        assert intervals_are_selective([])


def scanned(index: AttributeIndex, intervals) -> list:
    """``rows_in_intervals`` returns the rows and their multiplicities as two
    parallel lists (no pair per row); zipped here to compare entries."""
    rows, multiplicities = index.rows_in_intervals(intervals)
    assert len(rows) == len(multiplicities)
    return list(zip(rows, multiplicities))


class TestAttributeIndex:
    def test_range_scan(self):
        index = AttributeIndex("v", 1)
        index.insert_items(((i, i * 10), 1) for i in range(20))
        rows = scanned(index, [Interval(30, 60)])
        values = sorted(row[1] for row, _m in rows)
        assert values == [30, 40, 50, 60]

    def test_open_bounds(self):
        index = AttributeIndex("v", 0)
        index.insert_items(((value,), 1) for value in [1, 2, 3])
        rows = scanned(index, [Interval(1, 3, False, False)])
        assert [row[0] for row, _m in rows] == [2]

    def test_deletes_and_tombstones(self):
        index = AttributeIndex("v", 0)
        index.insert_items([((5,), 2)])
        index.delete_items([((5,), 1)])
        assert scanned(index, [Interval(0, 10)]) == [((5,), 1)]
        index.delete_items([((5,), 1)])
        assert scanned(index, [Interval(0, 10)]) == []

    def test_null_values_are_skipped(self):
        index = AttributeIndex("v", 0)
        index.insert_items([((None,), 1)])
        assert scanned(index, [Interval(-1e9, 1e9)]) == []

    def test_duplicate_rows_reported_once(self):
        index = AttributeIndex("v", 0)
        index.insert_items([((7,), 3)])
        rows = scanned(index, [Interval(0, 10), Interval(5, 9)])
        assert rows == [((7,), 3)]


class TestIndexedSelection:
    @pytest.fixture()
    def indexed_db(self) -> Database:
        database = Database()
        database.create_table("t", ["id", "v"], primary_key="id")
        database.insert("t", [(i, i % 100) for i in range(2000)])
        database.create_index("t", "v")
        return database

    def test_table_level_index_api(self):
        table = StoredTable("t", ["id", "v"])
        table.apply_delta(Delta.from_rows(table.schema, [(i, i) for i in range(10)]))
        table.create_index("v")
        assert table.has_index("v")
        assert table.indexed_attributes() == ["v"]
        rows, multiplicities = table.rows_in_intervals("v", [Interval(2, 4)])
        assert (len(rows), multiplicities) == (3, [1, 1, 1])
        with pytest.raises(StorageError):
            table.index_on("missing")

    def test_index_stays_consistent_under_updates(self, indexed_db):
        indexed_db.insert("t", [(5000, 42)])
        indexed_db.delete_rows("t", [(0, 0)])
        result = indexed_db.query("SELECT id FROM t WHERE v = 42")
        ids = {row[0] for row in result.rows()}
        assert 5000 in ids and 42 in ids

    def test_index_scan_results_match_full_scan(self, indexed_db):
        sql = "SELECT id, v FROM t WHERE v >= 10 AND v < 13"
        with_index = indexed_db.query(sql)
        plain = Database()
        plain.create_table("t", ["id", "v"], primary_key="id")
        plain.insert("t", [(i, i % 100) for i in range(2000)])
        assert sorted(with_index.rows()) == sorted(plain.query(sql).rows())

    def test_index_scan_counter_increases(self, indexed_db):
        before = indexed_db.index_scan_count
        indexed_db.query("SELECT id FROM t WHERE v BETWEEN 5 AND 7")
        assert indexed_db.index_scan_count > before

    def test_unindexed_predicates_fall_back_to_scan(self, indexed_db):
        before = indexed_db.index_scan_count
        indexed_db.query("SELECT id FROM t WHERE id % 2 = 0")
        assert indexed_db.index_scan_count == before

    def test_instrumented_sketch_query_uses_the_index(self):
        from repro.imp.middleware import IMPSystem
        from repro.workloads.queries import q_groups
        from repro.workloads.synthetic import load_synthetic

        database = Database()
        load_synthetic(database, num_rows=2000, num_groups=100, seed=13)
        system = IMPSystem(database, num_fragments=32)
        system.run_query(q_groups(threshold=400))
        assert database.has_index("r", "a")
        before = database.index_scan_count
        system.run_query(q_groups(threshold=400))
        assert database.index_scan_count > before
