"""A template's first query does only the work its result needs.

Six pieces of a from-scratch capture are held to what they replaced:

* the Bloom filter's whole-list position derivation (``add_all``) to the
  per-value reference ``_positions``, bit for bit;
* sketch-attribute choice, which stops at the first numeric candidate, to
  the ``(table, attribute)`` pairs the full candidate lists gave for every
  template of :mod:`repro.workloads`;
* the partition statistics of a column holding NULL and NaN to those of its
  other values;
* fragment masks looked up once per distinct value to the per-value
  ``RangePartition.fragment_of``;
* an index's bulk load to the same index filled by ``insert_items``;
* group slots taken once per distinct value to ``AggregationState.slot_ids``
  over 1-tuples.

Spies show that a capture takes the per-distinct paths and a small delta
batch does not.
"""

from __future__ import annotations

import bisect
import math
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter
from repro.core.errors import SketchError, StorageError
from repro.imp import state as state_module
from repro.imp.middleware import IMPSystem
from repro.imp.operators import IncrementalAggregation, Pass
from repro.imp.state import AggregationState
from repro.relational.algebra import Aggregate, AggregateFunction
from repro.relational.expressions import ColumnRef
from repro.relational.schema import Schema
from repro.sketch import ranges
from repro.sketch.ranges import RangePartition
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.storage.statistics import collect_column_statistics, equi_depth_boundaries
from repro.storage.table import AttributeIndex
from repro.workloads import (
    CRIMES_Q1,
    CRIMES_Q2,
    TPCH_QUERIES,
    load_crimes,
    load_synthetic,
    load_tpch,
    q_endtoend,
    q_groups,
    q_having,
    q_join,
    q_joinsel,
    q_selpd,
    q_sketch,
    q_space,
    q_topk,
)
from repro.workloads.mixed import multi_sketch_templates
from repro.workloads.synthetic import load_join_helper
from tests.reference import Feed

# -- (a) Bloom filter: whole-list passes set the reference bits ---------------------

KEYS = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([2**64, 2**64 + 1, -(2**64), 2**63 - 1, -1, 0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.tuples(st.integers(-3, 3), st.text(max_size=2)),
)


def reference_filter(expected_items: int, rate: float, values: list) -> BloomFilter:
    """A filter filled value by value through ``_positions``."""
    bloom = BloomFilter(expected_items, rate)
    for value in values:
        for position in bloom._positions(value):
            bloom._bits[position >> 3] |= 1 << (position & 7)
    return bloom


class TestBloomBatch:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(KEYS, max_size=80),
        expected_items=st.integers(1, 5000),
        rate=st.sampled_from([0.01, 0.05, 0.3]),
    )
    def test_add_all_sets_the_bits_of_every_position(self, values, expected_items, rate):
        bloom = BloomFilter(expected_items, rate)
        bloom.add_all(values)
        reference = reference_filter(expected_items, rate, values)
        assert bytes(bloom._bits) == bytes(reference._bits)
        assert all(value in bloom for value in values)

    @pytest.mark.parametrize("expected_items", [1, 13, 5000])
    def test_an_empty_batch_changes_nothing(self, expected_items):
        bloom = reference_filter(expected_items, 0.05, list(range(expected_items)))
        before = bytes(bloom._bits)
        bloom.add_all([])
        bloom.add_all(iter(()))
        assert bytes(bloom._bits) == before

    def test_every_position_wraps_inside_the_filter(self):
        """Many hashes over few bits: each step wraps around ``m`` repeatedly."""
        values = list(range(-500, 500))
        bloom = BloomFilter(1, 0.0001)
        assert bloom._num_hashes > bloom.num_bits // 4
        bloom.add_all(values)
        assert bytes(bloom._bits) == bytes(reference_filter(1, 0.0001, values)._bits)


# -- (b) sketch-attribute choice stops at the first numeric candidate ---------------

TEMPLATES = {
    "q_having_1": q_having(1),
    "q_having_3": q_having(3),
    "q_groups": q_groups(),
    "q_join": q_join(),
    "q_joinsel": q_joinsel(),
    "q_sketch": q_sketch(),
    "q_selpd": q_selpd(),
    "q_endtoend": q_endtoend(),
    "q_topk": q_topk(),
    "q_space": q_space(),
    **TPCH_QUERIES,
    **{f"multi_sketch_{i}": sql for i, sql in enumerate(multi_sketch_templates(8))},
    "crimes_q1": CRIMES_Q1,
    "crimes_q2": CRIMES_Q2,
}

TPCH_KEYS = [("customer", "c_custkey"), ("orders", "o_custkey")]

# What the full candidate lists chose, before the search stopped at the first
# hit (``nation`` in Q10 has only the non-numeric ``n_name``).
EXPECTED = {
    **{name: [("r", "a")] for name in ("q_having_1", "q_having_3", "q_groups", "q_selpd")},
    **{name: [("r", "a")] for name in ("q_endtoend", "q_topk")},
    **{name: [("r", "a"), ("tjoinhelp", "ttid")] for name in ("q_join", "q_joinsel", "q_sketch")},
    "q_space": TPCH_KEYS,
    "q10_top_revenue": TPCH_KEYS,
    # Only attributes equal to the group key c_custkey keep its groups whole.
    "having_revenue": [("customer", "c_custkey"), ("orders", "o_custkey")],
    "order_volume": [("lineitem", "l_orderkey"), ("orders", "o_orderkey")],
    **{f"multi_sketch_{i}": [("r", "a")] for i in range(8)},
    "crimes_q1": [("crimes", "beat")],
    "crimes_q2": [("crimes", "district")],
}

# The NaN-first column is numeric; an all NULL/NaN column, a column whose
# values do not compare and a bool column are not, so the choice falls back to
# the first numeric attribute in table order (``label`` is text).  The query
# has no HAVING, so every attribute is safe and the fallback can happen.
ODD_COLUMNS = {
    "nan_first": (lambda i: math.nan if i == 0 else float(i % 17), "a"),
    "null_nan": (lambda i: (None, math.nan)[i % 2], "id"),
    "mixed": (lambda i: (1, "x")[i % 2], "id"),
    "flags": (lambda i: i % 3 == 0, "id"),
}


@pytest.fixture(scope="module")
def workload_db() -> Database:
    database = Database()
    load_synthetic(database, num_rows=300, num_groups=30, seed=3)
    load_join_helper(database, num_rows=100, join_domain=30, seed=4)
    load_tpch(database, scale=0.01, seed=5)
    load_crimes(database, num_rows=400, seed=6)
    for name, (value, _) in ODD_COLUMNS.items():
        database.create_table(name, ["label", "id", "a", "b"], primary_key="id")
        database.insert(name, [(f"n{i}", i, value(i), float(i % 5)) for i in range(40)])
    return database


def chosen_with_statistics(database: Database, sql: str, monkeypatch):
    """The partition's ``(table, attribute)`` pairs and, per table, the
    attributes ``column_statistics`` was asked about, in call order."""
    asked: dict[str, list[str]] = {}
    original = Database.column_statistics

    def spy(self, table, attribute):
        asked.setdefault(table, []).append(attribute)
        return original(self, table, attribute)

    monkeypatch.setattr(Database, "column_statistics", spy)
    partition = build_database_partition(database, database.plan(sql), 8)
    chosen = sorted(
        (table, partition.partition_of(table).attribute) for table in partition.tables()
    )
    return chosen, asked


CASES = {
    **{name: (sql, EXPECTED[name]) for name, sql in TEMPLATES.items()},
    **{
        name: (
            f"SELECT a, sum(b) AS s FROM {name} GROUP BY a",
            [(name, attribute)],
        )
        for name, (_, attribute) in ODD_COLUMNS.items()
    },
}


class TestAttributeChoice:
    def test_every_workload_template_is_covered(self):
        assert set(EXPECTED) == set(TEMPLATES)

    @pytest.mark.parametrize("name", list(CASES))
    def test_the_choice_is_as_before_and_stops_at_it(self, workload_db, name, monkeypatch):
        sql, expected = CASES[name]
        chosen, asked = chosen_with_statistics(workload_db, sql, monkeypatch)
        assert chosen == expected
        for table, attribute in chosen:
            # The chosen attribute is the last one whose statistics were read.
            assert asked[table][-1] == attribute
            assert asked[table].count(attribute) == 1

    def test_lineitem_reads_one_column_not_ten(self, workload_db, monkeypatch):
        _, asked = chosen_with_statistics(workload_db, TPCH_QUERIES["order_volume"], monkeypatch)
        assert asked == {"lineitem": ["l_orderkey"], "orders": ["o_orderkey"]}


# -- (c) partition statistics in whole-column passes -------------------------------

ORDERABLE = st.one_of(
    st.sampled_from([1, 1.0, True, 0, -0.0, 2**53 + 1, float(2**53), 2.5]),
    st.integers(-50, 50),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False),
)


class TestPartitionStatistics:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(ORDERABLE, min_size=1, max_size=60),
        holes=st.lists(st.sampled_from([None, math.nan]), max_size=6),
        seed=st.integers(0, 99),
        buckets=st.integers(1, 12),
    )
    def test_null_and_nan_change_no_statistic_of_the_rest(self, values, holes, seed, buckets):
        """A column with NULL and NaN in it has the row and NULL counts it
        holds and the distinct count, minimum, maximum and equi-depth
        boundaries of its other values, NaN objects counted as distinct."""
        column = values + holes + [float("nan")]
        random.Random(seed).shuffle(column)
        plain = [value for value in column if value is not None and value == value]
        statistics = collect_column_statistics("a", column, [1] * len(column))
        reference = collect_column_statistics("a", plain, [1] * len(plain))
        assert statistics.row_count == len(column)
        assert statistics.null_count == column.count(None)
        nans = len({id(value) for value in column if value is not None and value != value})
        assert statistics.distinct_count == reference.distinct_count + nans
        assert repr((statistics.minimum, statistics.maximum)) == repr(
            (reference.minimum, reference.maximum)
        )
        assert equi_depth_boundaries(column, [1] * len(column), buckets) == (
            equi_depth_boundaries(plain, [1] * len(plain), buckets)
        )

    def test_a_value_past_float_range_still_refuses_the_partition(self):
        for column in ([1, 10**400, 2], [None, 10**400], [10**400, math.nan]):
            with pytest.raises(OverflowError):
                equi_depth_boundaries(column, [1] * len(column), 4)


# -- (d) fragment masks, one lookup per distinct value ------------------------------

NAN = math.nan  # one NaN object, drawn again and again

# Equal numbers of three types, both zeros, NULL, one repeated and many fresh
# NaN objects, and an int one above a float it does not equal.
SPELLINGS = [1, 1.0, True, False, 0, 0.0, -0.0, None, NAN, 2**53 + 1, float(2**53), 2.5, -7]
NUMBERS = st.one_of(
    st.sampled_from(SPELLINGS),
    st.builds(float, st.just("nan")),
    st.integers(-40, 2**55),
    st.floats(-40.0, 2.0**55),
)

# Boundaries not stretched to the whole domain, so draws fall outside it on
# both sides.
DOMAIN = [-20.0, -1.0, 0.0, 1.0, 2.5, 100.0, 2.0**53, 2.0**54]

# The per-value path, the per-distinct path, and the gate choosing.
GATES = [10**9, 1, ranges._MIN_MEAN_REPEATS]


def per_value_masks(partition: RangePartition, values: list, offset: int, outside: int):
    """``fragment_of`` value by value: the masks, or the first error's text."""
    masks = []
    for value in values:
        if value is None or value != value:
            masks.append(outside)
            continue
        try:
            masks.append(1 << (offset + partition.fragment_of(value)))
        except SketchError as exc:
            return str(exc)
    return masks


def batch_masks(partition: RangePartition, values: list, offset: int, outside: int):
    try:
        return partition.masks_of(iter(values), offset, outside)
    except SketchError as exc:
        return str(exc)


class TestMasksPerDistinctValue:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(NUMBERS, max_size=60),
        repeats=st.integers(1, 4),
        offset=st.integers(0, 70),
    )
    def test_masks_of_equals_fragment_of_value_by_value(self, values, repeats, offset):
        values = values * repeats
        random.Random(len(values)).shuffle(values)
        partition = RangePartition("t", "a", DOMAIN)
        outside = 1 << (offset + partition.num_fragments)
        expected = per_value_masks(partition, values, offset, outside)
        for gate in GATES:
            with patch.object(ranges, "_MIN_MEAN_REPEATS", gate):
                assert batch_masks(partition, values, offset, outside) == expected

    def test_out_of_domain_values_are_reported_in_column_order(self):
        partition = RangePartition("t", "a", [0.0, 10.0, 20.0])
        values = [5, NAN, 25, None, -1, 25, -1]
        for gate in GATES:
            with patch.object(ranges, "_MIN_MEAN_REPEATS", gate):
                with pytest.raises(SketchError, match="value 25 outside the domain"):
                    partition.masks_of(values, 0, 8)


# -- (e) an index is bulk-loaded ----------------------------------------------------


def index_state(index: AttributeIndex) -> tuple:
    """The value list (spellings included) and each bucket in order."""
    return (
        repr(index._values),
        [(repr(value), list(bucket.items())) for value, bucket in index._buckets.items()],
        index._tombstones,
    )


class TestIndexBulkLoad:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(NUMBERS, max_size=80),
        multiplicities=st.lists(st.integers(1, 3), min_size=80, max_size=80),
    )
    def test_load_equals_insert_items(self, values, multiplicities):
        items = [((i, value), m) for i, (value, m) in enumerate(zip(values, multiplicities))]
        bulk, reference = AttributeIndex("v", 1), AttributeIndex("v", 1)
        bulk.load(items)
        reference.insert_items(items)
        assert index_state(bulk) == index_state(reference)

    def test_a_refused_load_leaves_the_index_empty(self):
        index = AttributeIndex("v", 1)
        with pytest.raises(StorageError, match="does not order"):
            index.load([((1, 2.5), 1), ((2, None), 1), ((3, "x"), 1)])
        assert index_state(index) == ("[]", [], 0)

    def test_create_index_never_calls_insort(self, monkeypatch):
        rng = random.Random(8)
        values = [rng.uniform(-1e6, 1e6) for _ in range(20_000)]
        database = Database()
        database.create_table("t", ["id", "v"], primary_key="id")
        database.insert("t", list(enumerate(values)))
        calls = []
        monkeypatch.setattr(bisect, "insort", lambda *args, **kwargs: calls.append(args))
        database.create_index("t", "v")
        index = database.table("t").index_on("v")
        assert calls == []
        assert index._values == sorted(values)

    def test_create_index_checks_each_distinct_value_once(self, monkeypatch):
        database = Database()
        load_synthetic(database, num_rows=3_000, num_groups=100, seed=3)
        checked = []
        original = AttributeIndex.check_orderable

        def spy(self, rows):
            rows = list(rows)
            checked.append(len(rows))
            return original(self, rows)

        monkeypatch.setattr(AttributeIndex, "check_orderable", spy)
        database.create_index("r", "a")
        distinct = {row[1] for row in database.table("r").rows()}
        assert checked == [len(distinct)] and len(distinct) <= 100


# -- (f) group slots, one per distinct raw value -------------------------------------


GROUPED = Schema(["g", "v"])


def grouped_count() -> IncrementalAggregation:
    """``SELECT g, count(*) AS n ... GROUP BY g`` over a queued feed."""
    return IncrementalAggregation(
        Feed(GROUPED),
        [ColumnRef("g")],
        [Aggregate(AggregateFunction.COUNT, None, "n")],
        Schema(["g", "n"]),
    )


class TestSlotsPerDistinctValue:
    @settings(max_examples=300, deadline=None)
    @given(column=st.lists(NUMBERS, max_size=60), repeats=st.integers(1, 4))
    def test_a_capture_slots_as_one_tuples_do(self, column, repeats):
        column = column * repeats
        random.Random(len(column)).shuffle(column)
        reference = AggregationState()
        reference.slot_ids(zip(column))
        for gate in [10**9, 1, state_module._MIN_MEAN_REPEATS]:
            operator = grouped_count()
            operator.child.queue([((g, 1.0), 0, 1) for g in column])
            with patch.object(state_module, "_MIN_MEAN_REPEATS", gate):
                operator.process(Pass.scratch(0))
            state = operator.state
            assert repr(list(state.slots.items())) == repr(list(reference.slots.items()))
            assert repr(state.keys) == repr(reference.keys)
            # The very objects: a NaN key holds the NaN first seen.
            assert all(map(tuple.__eq__, state.keys, reference.keys))


def test_a_capture_takes_the_per_distinct_paths_and_a_small_delta_does_not(monkeypatch):
    """``q_endtoend`` over 3 000 rows of 100 groups: the capture bisects and
    slots each distinct ``a`` once; a 20-tuple delta is bisected entry by
    entry, as before, and maps its 1-tuples to their slots."""
    database = Database()
    table = load_synthetic(database, num_rows=3_000, num_groups=100, seed=3)
    system = IMPSystem(database, num_fragments=10)
    bisected: list[int] = []
    slotted: list[int] = []
    masks, slot_ids = RangePartition._masks, AggregationState.slot_ids

    def masks_spy(self, values, offset, outside):
        bisected.append(len(values))
        return masks(self, values, offset, outside)

    def slots_spy(self, keys):
        keys = list(keys)
        slotted.append(len(keys))
        return slot_ids(self, keys)

    monkeypatch.setattr(RangePartition, "_masks", masks_spy)
    monkeypatch.setattr(AggregationState, "slot_ids", slots_spy)
    sql = q_endtoend()
    reference = database.query(sql)
    assert system.run_query(sql) == reference
    distinct = len({row[1] for row in database.table("r").rows()})
    assert bisected == [distinct] and slotted == [distinct]
    bisected.clear()
    slotted.clear()
    system.apply_update("r", inserts=table.make_inserts(10), deletes=table.rows[:10])
    assert system.run_query(sql) == database.query(sql)
    assert bisected == [20] and slotted == []
