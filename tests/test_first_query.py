"""A template's first query does only the work its result needs.

Three pieces of a from-scratch capture are held to what they replaced:

* the Bloom filter's whole-list position derivation (``add_all``) to the
  per-value reference ``_positions``, bit for bit;
* ``AnnotatedDelta.consolidated`` to the one merge of ``tests.reference``
  (it runs its own per-entry loop only for repeated pairs with other than
  unit counts), by ``repr`` and in order;
* sketch-attribute choice, which stops at the first numeric candidate, to
  the ``(table, attribute)`` pairs the full candidate lists gave for every
  template of :mod:`repro.workloads`.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter
from repro.imp.annotated import AnnotatedDelta
from repro.relational.schema import Schema
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
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
from tests.reference import merge

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


# -- (b) consolidated(): the one merge's entries, order and spelling ---------------

SCHEMA = Schema(["x", "y"])


def reference(delta: AnnotatedDelta) -> AnnotatedDelta:
    """``delta`` by the one merge, keyed by ``(row, annotation)`` pairs."""
    totals = merge(zip(zip(delta.rows, delta.annotations), delta.counts))
    if not totals:
        return AnnotatedDelta(delta.schema)
    rows, annotations = map(list, zip(*totals))
    return AnnotatedDelta(delta.schema, rows, annotations, list(totals.values()))


def spelled(delta: AnnotatedDelta) -> str:
    return repr((delta.rows, delta.annotations, delta.counts))


# 1, 1.0 and True are one key spelled three ways: the first spelling stays.
VALUES = st.sampled_from([0, 1, 1.0, True, 2, -0.0, "a", None])
ROWS = st.tuples(VALUES, VALUES)
MASKS = st.integers(0, 3)


@st.composite
def unit_batches(draw):
    entries = draw(st.lists(st.tuples(ROWS, MASKS), max_size=40))
    return [(row, mask, 1) for row, mask in entries]


@st.composite
def cancelling_batches(draw):
    """Mixed signs over few pairs, with inserts matched by deletes."""
    entries = draw(
        st.lists(st.tuples(ROWS, MASKS, st.sampled_from([-2, -1, 1, 2, 3])), max_size=40)
    )
    cancelled = [(row, mask, -count) for row, mask, count in entries[::2]]
    return draw(st.permutations(entries + cancelled))


@st.composite
def distinct_batches(draw):
    pairs = draw(st.lists(st.tuples(st.integers(-50, 50), MASKS), unique=True, max_size=40))
    counts = draw(
        st.lists(st.integers(-4, 4).filter(bool), min_size=len(pairs), max_size=len(pairs))
    )
    return [((value, value % 3), mask, count) for (value, mask), count in zip(pairs, counts)]


class TestConsolidated:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(unit_batches(), cancelling_batches(), distinct_batches()))
    def test_equals_the_merge_reference(self, entries):
        rows = [row for row, _, _ in entries]
        masks = [mask for _, mask, _ in entries]
        counts = [count for _, _, count in entries]
        delta = AnnotatedDelta(SCHEMA, list(rows), list(masks), list(counts))
        merged = delta.consolidated()
        assert spelled(merged) == spelled(reference(delta))
        # The input is left as it was.
        assert spelled(delta) == repr((rows, masks, counts))

    def test_a_pair_through_zero_moves_to_its_next_occurrence(self):
        delta = AnnotatedDelta(
            SCHEMA,
            [(1, 1), (2, 2), (1, 1), (3, 3), (1, 1)],
            [1, 2, 1, 4, 1],
            [1, 2, -1, 1, 2],
        )
        merged = delta.consolidated()
        assert (merged.rows, merged.annotations, merged.counts) == (
            [(2, 2), (3, 3), (1, 1)],
            [2, 4, 1],
            [2, 1, 2],
        )

    def test_unit_counts_sum_per_pair_in_first_occurrence_order(self):
        delta = AnnotatedDelta(
            SCHEMA, [(1.0, 0), (2, 0), (1, 0), (True, 0)], [1, 1, 1, 2], [1, 1, 1, 1]
        )
        merged = delta.consolidated()
        assert repr((merged.rows, merged.annotations, merged.counts)) == repr(
            ([(1.0, 0), (2, 0), (True, 0)], [1, 1, 2], [2, 1, 1])
        )


# -- (c) sketch-attribute choice stops at the first numeric candidate ---------------

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
    "having_revenue": [
        ("customer", "c_custkey"),
        ("lineitem", "l_orderkey"),
        ("orders", "o_orderkey"),
    ],
    "order_volume": [("lineitem", "l_orderkey"), ("orders", "o_orderkey")],
    **{f"multi_sketch_{i}": [("r", "a")] for i in range(8)},
    "crimes_q1": [("crimes", "beat")],
    "crimes_q2": [("crimes", "district")],
}

# The NaN-first column is numeric; an all NULL/NaN column, a column whose
# values do not compare and a bool column are not, so the choice falls back to
# the first numeric attribute in table order (``label`` is text).
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
            f"SELECT a, sum(b) AS s FROM {name} GROUP BY a HAVING sum(b) > 10",
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
