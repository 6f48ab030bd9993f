"""The sketch access path: streamed index range scans and lazy per-query batches.

Two things must stay invisible in results while they make a sketch scan cost
what it reads:

* :meth:`AttributeIndex.rows_in_intervals` streams whole buckets over disjoint
  ascending spans -- differential against a brute-force filter of the table's
  row dict, whose order (arrival order, gaps closed) the buckets share.  NaN
  is not indexed, like NULL.
* A per-query :class:`ColumnBatch` builds a column when it is first read
  (:class:`LazyColumns`): every consumer gives what a fully materialised twin
  gives, in order; only the columns a plan reads are built; a fully read
  batch holds nothing but its own lists.

Bucket and entry order are load-bearing for float aggregates, so this file
runs under the ``PYTHONHASHSEED`` matrix in CI.
"""

from __future__ import annotations

import gc
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import kernels
from repro.relational.algebra import Aggregate, AggregateFunction
from repro.relational.columnar import ColumnBatch, LazyColumns
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    compile_batch_expression,
)
from repro.relational.predicates import Interval
from repro.relational.schema import Schema
from repro.storage.database import Database
from repro.storage.table import AttributeIndex, StoredTable

NAN = float("nan")

# -- index range scans ------------------------------------------------------------------

INDEXED_VALUES = [None, NAN, -3, 0, 1, 1.5, 2, 2.0, 4, 7.25, 9]
BOUNDS = [-math.inf, -3, 0, 1, 1.5, 2, 3, 4, 8, 9, 10, math.inf]

intervals_strategy = st.lists(
    st.builds(
        Interval,
        st.sampled_from(BOUNDS),
        st.sampled_from(BOUNDS),
        st.booleans(),
        st.booleans(),
    ),
    max_size=6,
)
"""Overlapping, nested, unsorted, touching, empty (low > high, or one point
with an open end), half-open and infinite intervals all come out of this."""

table_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "delete", "index"]),
        st.integers(0, 7),
        st.sampled_from(INDEXED_VALUES),
        st.integers(1, 3),
    ),
    max_size=40,
)


def contains(interval: Interval, value: float) -> bool:
    above = value >= interval.low if interval.low_inclusive else value > interval.low
    below = value <= interval.high if interval.high_inclusive else value < interval.high
    return above and below


def brute_force(table: StoredTable, position: int, intervals) -> list:
    """Qualifying ``(row, multiplicity)`` pairs of the table's row dict,
    ascending by value; the stable sort keeps arrival order within a value."""
    qualifying = [
        (row, multiplicity)
        for row, multiplicity in table.items()
        if row[position] is not None
        and any(contains(interval, row[position]) for interval in intervals)
    ]
    return sorted(qualifying, key=lambda item: item[0][position])


class TestRowsInIntervals:
    @settings(max_examples=300, deadline=None)
    @given(table_operations, intervals_strategy, st.sampled_from([1, 64]))
    def test_equals_a_brute_force_filter_of_the_table(
        self, operations, intervals, compact_after
    ):
        """Small domains make rows repeat (multiplicities), values empty out
        (tombstones) and come back (revival); ``compact_after=1`` makes the
        tombstone compaction run in between as well."""
        table = StoredTable("t", ["id", "v"])
        default = AttributeIndex._COMPACT_MIN_TOMBSTONES
        AttributeIndex._COMPACT_MIN_TOMBSTONES = compact_after
        try:
            for kind, row_id, value, amount in operations:
                if kind == "insert":
                    table.insert((row_id, value), amount)
                elif kind == "delete":
                    table.delete((row_id, value), amount)
                else:
                    table.create_index("v")
        finally:
            AttributeIndex._COMPACT_MIN_TOMBSTONES = default
        table.create_index("v")
        fetched = list(table.rows_in_intervals("v", intervals))
        assert fetched == brute_force(table, 1, intervals)
        assert len({row for row, _ in fetched}) == len(fetched)

    def test_nested_and_overlapping_intervals_return_each_row_once_ascending(self):
        index = AttributeIndex("v", 0)
        for value in (5, 1, 9, 3, 7):
            index.insert((value,), 1)
        intervals = [Interval(6, 9), Interval(0, 10), Interval(3, 5), Interval(7, 7)]
        assert list(index.rows_in_intervals(intervals)) == [
            ((value,), 1) for value in (1, 3, 5, 7, 9)
        ]

    def test_rows_of_one_value_come_in_arrival_order(self):
        index = AttributeIndex("v", 1)
        for row in [("c", 2), ("a", 2), ("b", 1), ("a", 2)]:
            index.insert(row, 1)
        index.delete(("c", 2), 1)
        index.insert(("c", 2), 1)
        assert list(index.rows_in_intervals([Interval(2, 2), Interval(1, 2)])) == [
            (("b", 1), 1),
            (("a", 2), 2),
            (("c", 2), 1),
        ]


class TestNaNIsNotIndexed:
    @pytest.mark.parametrize("seed", range(40))
    def test_index_served_equals_oracle_equals_brute_force(self, seed):
        """At the parent a NaN went through ``insort`` and unsorted the value
        list, so later range scans dropped rows (seeds 5, 8, 15, ... fail)."""
        rng = random.Random(seed)
        database = Database()
        database.create_table("t", ["id", "a", "b"], primary_key="id")
        database.create_index("t", "a")
        live: list[tuple] = []
        for row_id in range(60):
            a = NAN if rng.random() < 0.15 else float(rng.randrange(100))
            row = (row_id, a, rng.randrange(10))
            database.insert("t", [row])
            live.append(row)
            if rng.random() < 0.25:
                database.delete_rows("t", [live.pop(rng.randrange(len(live)))])
        for sql, keep in [
            ("SELECT id FROM t WHERE a < 50", lambda a: a < 50),
            ("SELECT id FROM t WHERE a BETWEEN 20 AND 80", lambda a: 20 <= a <= 80),
            ("SELECT id FROM t WHERE a >= 70 OR a < 10", lambda a: a >= 70 or a < 10),
        ]:
            before = database.index_scan_count
            served = database.query(sql)
            assert database.index_scan_count == before + 1
            oracle = database.query(sql, optimize_plans=False, vectorize=False)
            expected = sorted((row[0],) for row in live if keep(row[1]))
            assert served.to_sorted_list() == oracle.to_sorted_list() == expected

    def test_nan_rows_are_neither_indexed_nor_lost(self):
        table = StoredTable("t", ["id", "a"])
        index = table.create_index("a")
        for row in [(1, 5.0), (2, NAN), (3, 1.0), (4, NAN), (5, 3.0)]:
            table.insert(row)
        assert index.distinct_value_count() == 3
        assert [row[0] for row, _ in index.rows_in_intervals([Interval.everything()])] == [
            3,
            5,
            1,
        ]
        table.delete((2, NAN))
        assert [row[0] for row in table.rows()] == [1, 3, 4, 5]


# -- lazy per-query batches --------------------------------------------------------------

VALUES = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([0.1, 1e16, -1e16, "x"]))


@st.composite
def batch_cases(draw):
    """``(schema, items, masks, read_first)``: entries with repeated rows, two
    masks of strict three-valued values, and columns to read beforehand."""
    arity = draw(st.integers(0, 5))
    items = draw(
        st.lists(
            st.tuples(st.tuples(*[VALUES] * arity), st.integers(1, 3)), max_size=12
        )
    )
    mask = st.lists(
        st.sampled_from([True, False, None]), min_size=len(items), max_size=len(items)
    )
    read_first = draw(st.lists(st.integers(0, arity - 1), max_size=3)) if arity else []
    return Schema(f"c{i}" for i in range(arity)), items, draw(mask), draw(mask), read_first


def kept(items: list, mask: list) -> list:
    return [item for item, keep in zip(items, mask) if keep is True]


def assert_same_batch(lazy: ColumnBatch, eager: ColumnBatch) -> None:
    assert len(lazy) == len(eager)
    assert lazy.schema == eager.schema
    assert lazy.consolidated == eager.consolidated
    assert lazy.multiplicities == eager.multiplicities
    assert lazy.row_tuples() == eager.row_tuples()
    assert [list(column) for column in lazy.columns] == [
        list(column) for column in eager.columns
    ]


CONSUMERS = {
    "identity": lambda batch: batch,
    "relabel": lambda batch: batch.relabel(batch.schema.qualify("q")),
    "consolidate": lambda batch: batch.consolidate(),
    "distinct": kernels.distinct_batch,
    "self_join": lambda batch: kernels.hash_join_batch(
        batch, batch.relabel(batch.schema.qualify("q")), [(0, len(batch.schema) - 1)]
    ),
}


class TestLazyEqualsEager:
    """Every case builds the batch under test twice over: lazily through the
    engine's two constructors (index-scan pivot, ``filter_batch``) and as a
    twin pivoted eagerly from the entries a brute-force filter keeps."""

    @settings(max_examples=200, deadline=None)
    @given(batch_cases(), st.sampled_from(sorted(CONSUMERS)), st.booleans())
    def test_every_consumer_agrees_with_a_materialised_twin(
        self, case, consumer, consolidated
    ):
        schema, items, mask, second_mask, read_first = case
        if consumer == "self_join" and not len(schema):
            return
        consume = CONSUMERS[consumer]

        def lazies():
            fetched = ColumnBatch.from_fetched_items(schema, items, consolidated)
            yield fetched, items
            filtered = kernels.filter_batch(fetched, mask, strict=True)
            yield filtered, kept(items, mask)
            # A filter of a filtered batch, fed a non-strict mask: truthy
            # values other than True do not pass.
            loose = [1 if keep is None else keep for keep in second_mask]
            yield (
                kernels.filter_batch(filtered, loose, strict=False),
                kept(kept(items, mask), second_mask),
            )
            table_batch = ColumnBatch.from_items(schema, items, consolidated)
            yield kernels.filter_batch(table_batch, mask, strict=True), kept(items, mask)

        for lazy, entries in lazies():
            eager = ColumnBatch.from_items(schema, entries, consolidated)
            for position in read_first:
                assert lazy.columns[position] == eager.columns[position]
            assert_same_batch(consume(lazy), consume(eager))
            assert consume(lazy).to_relation() == consume(eager).to_relation()

    @settings(max_examples=100, deadline=None)
    @given(batch_cases())
    def test_aggregates_agree_bit_for_bit(self, case):
        schema, items, mask, _second, read_first = case
        items = [
            (tuple(0.5 if value == "x" else value for value in row), multiplicity)
            for row, multiplicity in items
        ]
        if len(schema) < 2:
            return
        key, last = ColumnRef(schema.attributes[0]), ColumnRef(schema.attributes[-1])
        argument = BinaryOp("*", last, last)
        aggregates = (
            Aggregate(AggregateFunction.SUM, argument, "s"),
            Aggregate(AggregateFunction.COUNT, None, "n"),
        )

        def aggregate(batch: ColumnBatch) -> ColumnBatch:
            batch = batch.consolidate()
            n = len(batch)
            return kernels.aggregate_batch(
                Schema(["k", "s", "n"]),
                aggregates,
                [compile_batch_expression(key, batch.schema)(batch.columns, n)],
                [compile_batch_expression(argument, batch.schema)(batch.columns, n), None],
                batch.multiplicities,
                grouped=True,
            )

        lazy = kernels.filter_batch(
            ColumnBatch.from_fetched_items(schema, items), mask, strict=True
        )
        eager = ColumnBatch.from_items(schema, kept(items, mask))
        for position in read_first:
            lazy.columns[position]
        assert_same_batch(aggregate(lazy), aggregate(eager))


@pytest.fixture()
def builds(monkeypatch):
    """Every column any lazy batch builds, as ``(arity, [positions])`` per
    :class:`LazyColumns` created, in creation order."""
    log: list[tuple[int, list[int]]] = []
    original = LazyColumns.__init__

    def spying(self, arity, build):
        positions: list[int] = []
        log.append((arity, positions))

        def recording(position):
            positions.append(position)
            return build(position)

        original(self, arity, recording)

    monkeypatch.setattr(LazyColumns, "__init__", spying)
    return log


def wide_database() -> Database:
    rng = random.Random(3)
    database = Database()
    database.create_table("w", ["id", "a", "b", "c", "d", "e", "f"], primary_key="id")
    database.insert(
        "w", [(i, rng.randrange(20), rng.random(), i, -i, str(i), None) for i in range(200)]
    )
    return database


class TestOnlyTheColumnsReadAreBuilt:
    def test_aggregate_over_an_index_scan_builds_two_of_seven_columns(self, builds):
        database = wide_database()
        database.create_index("w", "a")
        sql = "SELECT a, sum(b) AS sb FROM w WHERE a BETWEEN 5 AND 9 GROUP BY a"
        before = database.index_scan_count
        result = database.query(sql)
        assert database.index_scan_count == before + 1
        assert result == database.query(sql, optimize_plans=False, vectorize=False)
        # The index-scan pivot and its recheck filter, both over all 7 columns.
        assert [arity for arity, _ in builds] == [7, 7]
        for _arity, positions in builds:
            assert sorted(positions) == [1, 2]

    def test_aggregate_over_a_filtered_table_batch_builds_what_it_reads(self, builds):
        database = wide_database()
        sql = "SELECT a, max(d) AS md FROM w WHERE c < 100 GROUP BY a"
        plan = database.plan(sql)
        # The literal plan: no projection pushed under the selection, so the
        # filter runs over the whole 7-column table batch.
        result = database.query(plan, optimize_plans=False)
        assert result == database.query(sql, optimize_plans=False, vectorize=False)
        assert [(arity, sorted(positions)) for arity, positions in builds] == [(7, [1, 4])]

    def test_a_column_is_built_once_however_often_it_is_read(self, builds):
        batch = kernels.filter_batch(
            ColumnBatch.from_fetched_items(
                Schema(["x", "y"]), [((1, 2), 1), ((3, 4), 1)], consolidated=True
            ),
            [True, None],
            strict=True,
        )
        assert batch.columns[1] == [2]
        assert batch.columns[1] is batch.columns[1]
        assert batch.row_tuples() == [(1, 2)]
        assert list(batch.columns) == [[1], [2]]
        assert [sorted(positions) for _arity, positions in builds] == [[0, 1], [0, 1]]


class Held(list):
    """A list that can be weakly referenced."""


def is_alive(reference: weakref.ref) -> bool:
    gc.collect()
    return reference() is not None


class TestAFullyReadBatchHoldsOnlyItsOwnLists:
    def test_index_scan_batch_drops_the_row_tuples_with_its_last_column(self):
        # Tuples cannot be weakly referenced; a list row pivots the same way.
        items = [(Held([i, i * 2, i * 3]), 1) for i in range(5)]
        row = weakref.ref(items[0][0])
        batch = ColumnBatch.from_fetched_items(Schema(["x", "y", "z"]), items, True)
        del items
        assert batch.columns[2] == [0, 3, 6, 9, 12]
        assert batch.columns[0] == [0, 1, 2, 3, 4]
        assert is_alive(row)
        assert batch.columns[1] == [0, 2, 4, 6, 8]
        assert not is_alive(row)
        assert batch.row_tuples()[4] == (4, 8, 12)

    @pytest.mark.parametrize(
        "read_all",
        [
            lambda batch: [batch.columns[position] for position in (1, 0)],
            lambda batch: batch.row_tuples(),
            lambda batch: batch.to_relation(),
            lambda batch: kernels.hash_join_batch(
                batch, batch.relabel(batch.schema.qualify("q")), [(0, 0)]
            ),
        ],
        ids=["by_position", "row_tuples", "to_relation", "join_gather"],
    )
    def test_filtered_batch_drops_source_columns_and_mask(self, read_all):
        source = [Held([1, 2, 3]), Held(["a", "b", "c"])]
        mask = Held([True, False, True])
        references = [weakref.ref(held) for held in (*source, mask)]
        batch = kernels.filter_batch(
            ColumnBatch(Schema(["x", "y"]), source, [1, 1, 1], consolidated=True),
            mask,
            strict=True,
        )
        del source, mask
        assert batch.columns[1] == ["a", "c"]
        assert all(is_alive(reference) for reference in references)
        read_all(batch)
        assert not any(is_alive(reference) for reference in references)
        assert batch.row_tuples() == [(1, "a"), (3, "c")]

    def test_a_batch_without_columns_holds_no_source_from_the_start(self):
        mask = Held([True, True])
        reference = weakref.ref(mask)
        batch = kernels.filter_batch(
            ColumnBatch(Schema([]), [], [2, 3]), mask, strict=True
        )
        del mask
        assert not is_alive(reference)
        assert batch.row_tuples() == [(), ()]
        assert batch.multiplicities == [2, 3]


def test_the_table_batch_is_never_lazy():
    """The per-version batch is shared between threads and brought forward by
    ``SlotMap.apply``: plain lists, before and after commits and for
    snapshots; only what a query derives from it is lazy."""
    database = wide_database()
    first = database.column_batch("w")
    database.insert("w", [(1000, 1, 0.5, 1, 1, "x", None)])
    second = database.column_batch("w")
    snapshot = database.snapshot_batch("w", database.version - 1)
    for batch in (first, second, snapshot):
        assert type(batch.columns) is tuple
        assert all(type(column) is list for column in batch.columns)
    filtered = kernels.filter_batch(second, [True] * len(second), strict=True)
    assert type(filtered.columns) is LazyColumns
    assert filtered.row_tuples() == second.row_tuples()
