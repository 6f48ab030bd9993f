"""Tests for the columnar batch engine against the row oracle.

Every kernel (scan, selection including the index recheck path, projection,
hash/index-lookup/group/cross/theta join, distinct, grouped aggregation,
top-k) and every batch-compiled expression produces bit-identical relations
to the row oracle (``tests.reference.oracle``), and ``IMPSystem`` /
``NoSketchSystem`` answers equal it after every update batch.  The one
engine ≡ oracle differential runs every plan shape of
``tests.reference.CATALOGUE`` over the harness's two generated tables; the
other Hypothesis tests run generated query/update workloads over mixed-type
columns with NULLs.  The catalogue's LIMIT, cross and theta shapes (ties,
multiplicities cut at ``k``, NaN order keys) also hold the oracle to plans
spelled out with the expression interpreter; the unit tests pin down the
batch representation and its merges, the three-valued-logic kernels and the
index-ranking selection.
"""

from __future__ import annotations

import os
import pathlib
import random
import re
import subprocess
import sys
import operator
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import UnsupportedOperationError
from repro.relational.algebra import Selection, TableScan
from repro.relational import kernels
from repro.relational.columnar import ColumnBatch
from repro.relational.oracle import RowEvaluator
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    Comparison,
    FunctionCall,
    IsNull,
    Literal,
    LogicalOp,
    Not,
    compile_batch_expression,
)
from repro.relational.schema import Relation, Schema
from repro.imp.annotated import AnnotatedDelta
from repro.imp.middleware import IMPSystem
from repro.sketch.ranges import DatabasePartition
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta, Delta
from tests.reference import (
    PLANS,
    SUMMANDS,
    WORDS,
    AnnotatedEvaluator,
    Without,
    assert_matches_oracle,
    assert_systems_match_oracle,
    engine,
    interpret,
    keys,
    limits,
    merge,
    move,
    oracle,
    random_insert_batches,
    sql_templates,
    tables,
    theta_joins,
    two_tables,
)
from tests.test_algebra_evaluator import NAN, ORDER_JOIN_CASES, make_order_join_db

STRINGS = ["ash", "birch", "cedar", "oak", None]


def make_mixed_db(num_rows: int = 160, seed: int = 5) -> Database:
    """Two tables with mixed-type columns and NULLs in several of them."""
    rng = random.Random(seed)
    database = Database()
    database.create_table("m", ["id", "a", "b", "s"], primary_key="id")
    database.insert(
        "m",
        [
            (
                i,
                rng.randrange(12),
                None if rng.random() < 0.15 else rng.randrange(100),
                rng.choice(STRINGS),
            )
            for i in range(num_rows)
        ],
    )
    database.create_table("o", ["oid", "g", "w"], primary_key="oid")
    database.insert(
        "o",
        [
            (i, None if rng.random() < 0.1 else i % 12, rng.uniform(0, 10))
            for i in range(num_rows // 2)
        ],
    )
    return database


# -- the columnar representation -------------------------------------------------------


@st.composite
def signed_batches(draw) -> tuple[int, list]:
    """``(width, [(row, count)])`` over a few rows of 0-3 columns drawn from
    :func:`tests.reference.keys`, each row repeated: unit counts, or signed
    counts where every other entry is cancelled by an opposite one placed
    anywhere, so totals pass through zero and rows re-enter."""
    width = draw(st.integers(0, 3))
    pool = draw(st.lists(st.tuples(*[keys()] * width), min_size=1, max_size=4))
    rows = st.sampled_from(pool)
    if draw(st.booleans()):
        return width, [(row, 1) for row in draw(st.lists(rows, max_size=24))]
    entries = draw(st.lists(st.tuples(rows, st.sampled_from([-2, -1, 1, 2, 3])), max_size=16))
    cancelled = [(row, -count) for row, count in entries[::2]]
    return width, draw(st.permutations(entries + cancelled))


class TestColumnBatch:
    def test_relation_roundtrip(self):
        schema = Schema(["x", "y"])
        relation = Relation(schema, {(1, "a"): 2, (None, "b"): 1, (3, None): 4})
        batch = ColumnBatch.from_items(schema, relation.items(), consolidated=True)
        assert len(batch) == 3
        assert batch.consolidated
        assert batch.to_relation() == relation

    def test_duplicate_entries_merge_on_conversion(self):
        schema = Schema(["x"])
        batch = ColumnBatch(schema, [[1, 2, 1]], [2, 1, 3], consolidated=False)
        relation = batch.to_relation()
        assert relation.multiplicity((1,)) == 5
        assert relation.multiplicity((2,)) == 1

    def test_consolidate_keeps_first_occurrence_order(self):
        schema = Schema(["x"])
        batch = ColumnBatch(schema, [[7, 3, 7, 3, 9]], [1, 1, 1, 1, 1])
        merged = batch.consolidate()
        assert merged.columns[0] == [7, 3, 9]
        assert merged.multiplicities == [2, 2, 1]
        assert merged.consolidated

    def test_consolidating_distinct_entries_keeps_the_columns(self):
        batch = ColumnBatch(Schema(["x"]), [[7, 3, 9]], [1, 2, 1])
        merged = batch.consolidate()
        assert merged.consolidated
        assert merged.columns[0] is batch.columns[0]
        assert merged.multiplicities == [1, 2, 1]

    def test_relabel_shares_columns(self):
        schema = Schema(["x", "y"])
        batch = ColumnBatch(schema, [[1], [2]], [1], consolidated=True)
        relabeled = batch.relabel(schema.qualify("t"))
        assert relabeled.columns[0] is batch.columns[0]
        assert list(relabeled.schema) == ["t.x", "t.y"]

    def test_empty_batch(self):
        schema = Schema(["x", "y"])
        batch = ColumnBatch.empty(schema)
        assert len(batch) == 0
        assert batch.to_relation() == Relation(schema)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.one_of(keys(), st.sampled_from([-0.0, 0.0, "a"])), keys()),
            max_size=14,
        ),
        st.sampled_from([1, 2]),
        st.lists(st.integers(1, 3), min_size=14, max_size=14),
        st.booleans(),
    )
    def test_merges_equal_the_merge_reference(self, pairs, width, counts, unit):
        """A one-column batch merges by raw value, unit multiplicities with
        ``Counter``, wider rows by tuple; each equals the one merge by
        ``repr`` and keeps the first occurrence's object (NaN identity, the
        ``1``/``1.0``/``True`` and ``-0.0``/``0.0`` spellings)."""
        rows = [pair[:width] for pair in pairs]
        counts = [1] * len(rows) if unit else counts[: len(rows)]
        columns = [list(column) for column in zip(*rows)] or [[] for _ in range(width)]
        batch = ColumnBatch(Schema(["a", "b"][:width]), columns, counts)
        expected = merge(zip(rows, counts))
        merged = batch.consolidate()
        assert merged.consolidated
        assert repr(merged.row_tuples()) == repr(list(expected))
        assert merged.multiplicities == list(expected.values())
        assert all(map(operator.is_, chain(*merged.row_tuples()), chain(*expected)))
        distinct = kernels.distinct_batch(batch)
        assert repr(distinct.row_tuples()) == repr(list(expected))
        assert distinct.multiplicities == [1] * len(expected)
        relation = batch.to_relation()
        assert repr(list(relation.items())) == repr(list(expected.items()))
        assert all(map(operator.is_, chain(*relation.distinct_rows()), chain(*expected)))


    @settings(max_examples=300, deadline=None)
    @given(signed_batches())
    def test_consolidate_equals_the_merge_reference_at_signed_counts(self, drawn):
        """``consolidate`` is the one merge over batches of 0-3 columns:
        unit counts, or signed counts whose totals cancel and re-enter at the
        next occurrence; NaN identity and the first of ``1``/``1.0``/``True``
        kept.  An annotated delta (its last column the annotations) merges by
        row and annotation, the same way."""
        width, entries = drawn
        rows = [row for row, _ in entries]
        counts = [count for _, count in entries]
        columns = [list(column) for column in zip(*rows)] or [[] for _ in range(width)]
        batch = ColumnBatch(Schema(["a", "b", "c"][:width]), columns, list(counts))
        expected = merge(zip(rows, counts))
        merged = batch.consolidate()
        assert merged.consolidated
        assert repr(merged.row_tuples()) == repr(list(expected))
        assert merged.multiplicities == list(expected.values())
        assert all(map(operator.is_, chain(*merged.row_tuples()), chain(*expected)))
        assert repr(batch.row_tuples()) == repr(rows) and batch.multiplicities == counts
        if width:
            delta = AnnotatedDelta(Schema(["a", "b"][: width - 1]), columns, list(counts))
            annotated = delta.consolidate()
            assert type(annotated) is AnnotatedDelta
            assert repr(list(zip(annotated.row_tuples(), annotated.multiplicities))) == repr(
                list(expected.items())
            )


# -- batch-compiled expressions --------------------------------------------------------


def assert_batch_matches_rows(expression, schema, rows):
    """The batch kernel's value column equals per-row interpretation."""
    batch = ColumnBatch.from_items(schema, [(row, 1) for row in rows])
    batch_fn = compile_batch_expression(expression, schema)
    values = batch_fn(batch.columns, len(batch))
    expected = [interpret(expression, row, schema) for row in rows]
    assert values == expected, expression.canonical()
    assert list(map(type, values)) == list(map(type, expected)), expression.canonical()


class TestBatchCompiledExpressions:
    SCHEMA = Schema(["x", "y", "s"])
    ROWS = [
        (1, 10, "ash"),
        (None, 5, "oak"),
        (3, None, None),
        (0, 0, "birch"),
        (-2, 7, "ash"),
    ]

    @pytest.mark.parametrize(
        "expression",
        [
            ColumnRef("x"),
            Literal(42),
            Literal(None),
            Comparison("<", ColumnRef("x"), Literal(2)),
            Comparison("=", ColumnRef("s"), Literal("ash")),
            Comparison(">=", ColumnRef("x"), ColumnRef("y")),
            Comparison("<", ColumnRef("x"), Literal(None)),
            BinaryOp("+", ColumnRef("x"), ColumnRef("y")),
            BinaryOp("/", ColumnRef("y"), ColumnRef("x")),  # division by zero -> NULL
            IsNull(ColumnRef("y")),
            IsNull(ColumnRef("y"), negated=True),
            Not(Comparison("<", ColumnRef("x"), Literal(2))),
            LogicalOp(
                "AND",
                [
                    Comparison("<", ColumnRef("x"), Literal(5)),
                    Comparison(">", ColumnRef("y"), Literal(3)),
                ],
            ),
            LogicalOp(
                "OR",
                [
                    Comparison("<", ColumnRef("y"), Literal(6)),
                    IsNull(ColumnRef("s")),
                ],
            ),
            FunctionCall("abs", [ColumnRef("x")]),
            FunctionCall("lower", [FunctionCall("upper", [ColumnRef("s")])]),
            FunctionCall("coalesce", [ColumnRef("x"), ColumnRef("y"), Literal(-1)]),
        ],
    )
    def test_batch_equals_interpretation(self, expression):
        assert_batch_matches_rows(expression, self.SCHEMA, self.ROWS)

    def test_three_valued_logic_tables(self):
        # AND/OR over every combination of True/False/NULL comparisons.
        schema = Schema(["p", "q"])
        rows = [(p, q) for p in (0, 1, None) for q in (0, 1, None)]
        p_true = Comparison("=", ColumnRef("p"), Literal(1))
        q_true = Comparison("=", ColumnRef("q"), Literal(1))
        assert_batch_matches_rows(LogicalOp("AND", [p_true, q_true]), schema, rows)
        assert_batch_matches_rows(LogicalOp("OR", [p_true, q_true]), schema, rows)
        assert_batch_matches_rows(Not(LogicalOp("AND", [p_true, q_true])), schema, rows)

    def test_constant_folding_produces_whole_column(self):
        fn = compile_batch_expression(
            BinaryOp("*", Literal(3), Literal(4)), Schema(["x"])
        )
        assert fn((["a", "b"],), 2) == [12, 12]

    def test_aggregate_call_raises_when_there_is_an_entry(self):
        fn = compile_batch_expression(
            FunctionCall("sum", [ColumnRef("x")]), Schema(["x"])
        )
        assert fn(([],), 0) == []
        with pytest.raises(UnsupportedOperationError):
            fn(([1, 2],), 2)


# -- non-strict predicates and the selection kernel ------------------------------------


class TestSelectionSemantics:
    def test_non_boolean_predicate_matches_row_engine(self):
        # A bare column as predicate: the row engine keeps rows only when the
        # value is literally True; truthy ints must not pass either way.
        database = Database()
        database.create_table("t", ["id", "flag"], primary_key="id")
        database.insert("t", [(1, True), (2, 1), (3, 0), (4, False), (5, None)])
        plan = Selection(TableScan("t"), ColumnRef("flag"))
        vectorized = engine(database, plan, optimize=False)
        row = oracle(database, plan)
        assert vectorized == row
        assert vectorized.to_sorted_list() == [(1, True)]

    def test_non_boolean_conjuncts_and_join_conditions(self):
        # ``True AND b`` is true for every b but False/NULL, ``ON 1`` for no
        # pair: the optimizer may neither split the AND into a bare ``b`` nor
        # may any kernel take a truthy value for True.
        database = make_mixed_db(30)
        database.create_table("s", ["sid", "d"], primary_key="sid")
        database.insert("s", [(1, 3), (2, None)])
        imp = IMPSystem(database, num_fragments=4)
        non_null = sum(row[2] is not None for row in database.table("m").rows())
        expected = {
            "SELECT id FROM m WHERE 1 = 1 AND b": non_null,
            "SELECT id, sid FROM m JOIN s ON 1": 0,
            "SELECT id, sid FROM m JOIN s ON b AND d = 3": non_null,
        }
        for sql, count in expected.items():
            expected = oracle(database, sql)
            assert len(expected) == count, sql
            assert database.query(sql) == expected, sql
            assert engine(database, sql, optimize=False) == expected, sql
            assert imp.run_query(sql) == expected, sql

    def test_constant_predicates(self):
        database = make_mixed_db(20)
        for value, expected in ((True, 20), (False, 0), (None, 0), (1, 0)):
            plan = Selection(TableScan("m"), Literal(value))
            vectorized = engine(database, plan, optimize=False)
            row = oracle(database, plan)
            assert vectorized == row
            assert len(vectorized) == expected


# -- LIMIT, cross and theta joins: engine == oracle == interpreted plan ------------------


def interpreted(plan, database: Database) -> Relation:
    """``plan`` evaluated row by row with the expression interpreter, nested
    loops and a spelled-out ORDER BY: the capture oracle over no partition."""
    return AnnotatedEvaluator(database, DatabasePartition([])).evaluate(plan).to_relation()


class TestLimitCrossAndThetaJoins:
    @pytest.mark.parametrize("case", sorted(ORDER_JOIN_CASES))
    def test_engine_oracle_and_interpreted_plan_agree(self, case):
        plan, _expected = ORDER_JOIN_CASES[case]  # pinned in test_algebra_evaluator
        database = make_order_join_db()
        literal = engine(database, plan, optimize=False)
        assert literal == oracle(database, plan)
        assert literal == interpreted(plan, database)
        assert database.query(plan) == oracle(database, plan, optimize=True)

    @settings(max_examples=150, deadline=None)
    @given(tables(), st.one_of(limits(), theta_joins()))
    def test_the_oracle_equals_the_interpreted_plan(self, case, plan):
        """The catalogue's LIMIT, cross and theta shapes, spelled out: the
        oracle the harness holds the engine to answers as the interpreter does.
        Both read every table in table order: an index scan reads index
        order, and LIMIT keeps the first of tied rows."""
        database, _moved = case
        literal = RowEvaluator(Without(database, "index_scan"), False)
        try:
            expected = interpreted(plan, database)
        except UnsupportedOperationError:
            with pytest.raises(UnsupportedOperationError):
                literal.evaluate(plan)
            return
        assert literal.evaluate(plan) == expected

    def test_sql_limit_over_a_selection(self):
        database = make_mixed_db()
        sql = "SELECT id, b FROM m WHERE b < 80 ORDER BY b, id LIMIT 7"
        assert database.query(sql) == oracle(database, sql, optimize=True)

    def test_nan_keys_do_not_make_the_limit_depend_on_insertion_order(self):
        rows = [(1, 5.0), (2, NAN), (3, 1.0), (4, 3.0)]
        expected = {
            "SELECT id, x FROM t ORDER BY x LIMIT 2": {3, 4},
            "SELECT id, x FROM t ORDER BY x LIMIT 3": {3, 4, 1},
            "SELECT id, x FROM t ORDER BY x DESC LIMIT 2": {1, 4},
            "SELECT id, x FROM t ORDER BY x DESC LIMIT 3": {1, 4, 3},
        }
        for order in (rows, rows[::-1], [rows[1], rows[0], rows[3], rows[2]]):
            database = Database()
            database.create_table("t", ["id", "x"])
            database.insert("t", order)
            for sql, ids in expected.items():
                for run in (engine, oracle):
                    result = run(database, sql, True)
                    assert {row[0] for row in result.rows()} == ids, (sql, order, run)

    def test_scan_counts_match_between_engine_and_oracle(self):
        # The oracle reads what the engine reads: column_batch counts like
        # relation, index scans like index scans.
        database = make_mixed_db()
        database.create_index("m", "b")
        queries = [
            "SELECT a, b FROM m WHERE b BETWEEN 10 AND 20",
            "SELECT m.id, o.w FROM m JOIN o ON (a = g)",
            "SELECT a, count(*) AS n FROM m GROUP BY a",
            "SELECT id, b FROM m ORDER BY b DESC LIMIT 3",
        ]
        for sql in queries:
            counters = []
            for run in (engine, oracle):
                before = (database.scan_count, database.index_scan_count)
                run(database, sql, True)
                after = (database.scan_count, database.index_scan_count)
                counters.append((after[0] - before[0], after[1] - before[1]))
            assert counters[0] == counters[1], sql


# -- storage integration ---------------------------------------------------------------


class TestColumnCache:
    def test_repeated_scans_share_the_cached_batch(self):
        database = make_mixed_db(30)
        first = database.column_batch("m")
        assert database.column_batch("m") is first

    def test_commit_publishes_a_new_batch_and_leaves_the_old_one_alone(self):
        database = make_mixed_db(30)
        first = database.column_batch("m")
        scan = first.relabel(first.schema.qualify("x"))  # what a running scan holds
        database.insert("m", [(10_000, 1, 2, "oak")])
        second = database.column_batch("m")
        assert second is not first
        assert len(second) == len(first) + 1
        assert len(first) == len(scan) == 30
        assert all(len(column) == 30 for column in scan.columns)

    def test_cached_batch_survives_query_side_mutations(self):
        database = make_mixed_db(30)
        result = engine(database, "SELECT * FROM m")
        some_row = next(iter(result.distinct_rows()))
        result.remove(some_row, 1)
        result.add((999_999, 0, 0, "x"), 5)
        again = engine(database, "SELECT * FROM m")
        assert again.multiplicity((999_999, 0, 0, "x")) == 0
        assert again.multiplicity(some_row) > 0


# -- index ranking (satellite) ---------------------------------------------------------


class TestIndexRanking:
    def test_most_selective_index_wins(self, monkeypatch):
        # Attribute "b" sorts before "z_sel" in indexed_attributes(), so the
        # old first-selective-candidate rule would always pick "b"; the
        # ranking must pick "z_sel", whose bound covers ~1% of its domain
        # against ~80% for "b".
        rng = random.Random(3)
        database = Database()
        database.create_table("t", ["id", "b", "z_sel"], primary_key="id")
        database.insert(
            "t",
            [(i, rng.randrange(100), rng.randrange(10_000)) for i in range(2000)],
        )
        database.create_index("t", "b")
        database.create_index("t", "z_sel")
        used = []
        original = Database.index_scan

        def recording(self, table, attribute, intervals):
            used.append(attribute)
            return original(self, table, attribute, intervals)

        monkeypatch.setattr(Database, "index_scan", recording)
        chosen = {
            "SELECT id FROM t WHERE b BETWEEN 0 AND 80 AND z_sel BETWEEN 100 AND 200": "z_sel",
            # An empty interval list ranks first; ``b <= 3`` is ~4% of ``b``.
            "SELECT id FROM t WHERE b < 80 AND z_sel > 200 AND z_sel < 100": "z_sel",
            "SELECT id FROM t WHERE b <= 3 AND z_sel BETWEEN 0 AND 9000": "b",
        }
        for sql, attribute in chosen.items():
            for run in (engine, oracle):
                used.clear()
                run(database, sql, True)
                assert used == [attribute], (sql, used)

    def test_single_candidate_still_served(self):
        database = make_mixed_db()
        database.create_index("m", "b")
        before = database.index_scan_count
        result = database.query("SELECT id FROM m WHERE b BETWEEN 5 AND 9")
        assert database.index_scan_count == before + 1
        assert result == oracle(database, "SELECT id FROM m WHERE b BETWEEN 5 AND 9")


# -- Hypothesis differential suites ----------------------------------------------------

class TestDifferential:
    @settings(max_examples=130, deadline=None)
    @given(tables(), PLANS)
    def test_engine_equals_the_oracle_over_the_catalogue(self, case, plans):
        """A plan of every shape of ``tests.reference.CATALOGUE`` over the
        two generated tables, and again after rows of ``u`` moved."""
        database, moved = case
        for _ in range(2 if moved else 1):
            for plan in plans.values():
                assert_matches_oracle(database, plan)
            move(database, moved)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**20),
        st.lists(
            st.tuples(sql_templates(), st.sampled_from(["insert", "delete", "none"])),
            min_size=1,
            max_size=4,
        ),
    )
    def test_sql_over_an_indexed_table_between_deletes(self, seed, steps):
        """The drawn-bound SQL over 120 rows of ``t`` (an all-text ``g``) and
        60 of ``u``, indexed on ``t.h``, with inserts and SQL ``DELETE``s
        between the queries."""
        rng = random.Random(seed)

        def t_row(row_id: int) -> tuple:
            h = rng.choice([None, NAN, 2.5, *range(-4, 9)])
            return (row_id, rng.choice(WORDS), h, rng.choice(SUMMANDS))

        u_rows = [
            (rng.choice(WORDS + [0, 1, 2]), rng.choice([None, *range(-2, 6)]), rng.uniform(0, 10))
            for _ in range(60)
        ]
        database = two_tables([t_row(i) for i in range(120)], u_rows)
        database.create_index("t", "h")
        next_id = 120
        for sql, kind in steps:
            assert_matches_oracle(database, sql)
            if kind == "insert":
                database.insert("t", [t_row(next_id + i) for i in range(rng.randrange(1, 6))])
                next_id += 5
            elif kind == "delete":
                database.execute(f"DELETE FROM t WHERE h < {rng.randrange(-3, 6)}")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**20), st.integers(2, 5))
    def test_systems_match_the_reference_oracle_after_every_update(self, seed, ops):
        rng = random.Random(seed)
        queries = [
            "SELECT a, avg(b) AS ab FROM r GROUP BY a HAVING avg(c) < {0}".format(
                150 + rng.randrange(100)
            ),
            "SELECT a, sum(c) AS sc FROM r WHERE b > {0} GROUP BY a".format(
                rng.randrange(40)
            ),
        ]
        data_rng = random.Random(29)
        rows = [
            (i, data_rng.randrange(15), data_rng.randrange(100), data_rng.randrange(300))
            for i in range(150)
        ]
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        database.insert("r", rows)
        imp = assert_systems_match_oracle(database, queries, random_insert_batches(rng, ops))
        assert imp.statistics.sketch_hits > 0


# -- float aggregates after interleaved commits and scans -------------------------------

FLOAT_VALUES = [0.1, 0.2, 0.3, 1 / 3, 1e16, -1e16, 1e-9, 7.25, -0.7]
"""Magnitudes far enough apart that a float sum depends on the order it is
accumulated in: any reordering of the maintained batch shows in the low bits."""

FLOAT_QUERIES = [
    "SELECT g, sum(x) AS sx, avg(x) AS ax FROM f GROUP BY g",
    "SELECT sum(x) AS sx, avg(y) AS ay FROM f",
    "SELECT g, sum(x * w) AS sxw, avg(y) AS ay FROM f JOIN d ON g = dk GROUP BY g",
    "SELECT g, avg(x) AS ax FROM f GROUP BY g HAVING avg(y) < 1000",
]


def make_float_db(rng: random.Random) -> Database:
    database = Database()
    database.create_table("f", ["id", "g", "x", "y"], primary_key="id")
    database.create_table("d", ["dk", "w"])
    database.insert("f", [float_row(rng, i) for i in range(60)])
    database.insert("d", [(k, rng.choice(FLOAT_VALUES)) for k in range(5)])
    return database


def commit(database: Database, table: str, inserts, deletes) -> None:
    """One commit that deletes and inserts (deletes apply first)."""
    update = DatabaseDelta()
    update.set_delta(table, Delta.from_rows(database.schema_of(table), inserts, deletes))
    database.apply_database_delta(update)


def float_row(rng: random.Random, row_id: int) -> tuple:
    # ``y`` is unique and ``d`` has one row per key: projection pruning drops
    # ``id``, and merging rows that then coincide (or pairing repeated keys in
    # another join order) already moves the low bits on an untouched database.
    return (row_id, rng.randrange(5), rng.choice(FLOAT_VALUES), row_id * 1.1)


class TestFloatAggregatesUnderMaintenance:
    """The batch engine, the row oracle and the sketch's index scans all
    accumulate floats in table order; bringing the batch forward commit by
    commit must leave that order exactly what a from-scratch pivot gives."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**20), st.integers(3, 8))
    def test_engine_equals_oracle_and_an_unscanned_replica(self, seed, commits):
        rng = random.Random(seed)
        database = make_float_db(rng)
        replica = make_float_db(random.Random(seed))  # same commits, never scanned between
        live = {row[0]: row for row, _count in database.table("f").items()}
        next_id = 1000
        for _ in range(commits):
            for sql in FLOAT_QUERIES:
                answer = database.query(sql)
                assert answer == oracle(database, sql), sql
            victims = rng.sample(sorted(live), rng.randrange(1, 6))
            deletes = [live.pop(key) for key in victims]
            inserts = [float_row(rng, next_id + i) for i in range(rng.randrange(0, 6))]
            inserts.append(deletes[0])  # deleted and re-inserted by one commit
            next_id += len(inserts)
            live.update((row[0], row) for row in inserts)
            old = rng.choice([row for row, _count in database.table("d").items()])
            new = (old[0], rng.choice(FLOAT_VALUES))
            for target in (database, replica):  # both get the identical commits
                commit(target, "f", inserts, deletes)
                commit(target, "d", [new], [old])
        for sql in FLOAT_QUERIES:
            answer = database.query(sql)
            assert answer == oracle(database, sql), sql
            assert answer == replica.query(sql), sql

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**20))
    def test_sketch_answers_stay_bit_identical_to_the_plain_query(self, seed):
        rng = random.Random(seed)
        database = make_float_db(rng)
        system = IMPSystem(database, num_fragments=4)
        queries = [FLOAT_QUERIES[0], FLOAT_QUERIES[3]]
        next_id = 1000
        for _ in range(6):
            for sql in queries:
                assert system.run_query(sql) == database.query(sql), sql
            rows = [row for row, _count in database.table("f").items()]
            deletes = rng.sample(rows, 3)
            inserts = [float_row(rng, next_id + i) for i in range(4)]
            next_id += 4
            system.apply_update("f", inserts, deletes)
        assert system.statistics.sketch_hits > 0


# -- the engine never leaves its pipeline ----------------------------------------------

PIPELINE_PROBE = """
import sys

sys.path.insert(0, "bench")
from streams import WORKLOADS

from repro.relational.algebra import (
    Aggregate, AggregateFunction, Aggregation, Distinct, Join, OrderItem,
    Projection, ProjectionItem, Selection, TableScan, TopK,
)
from repro.imp.annotated import AnnotatedDelta
from repro.imp.middleware import IMPSystem
from repro.relational.evaluator import Evaluator
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.storage.database import Database
from repro.workloads import TPCH_QUERIES

row_scans = []
relation = Database.relation
Database.relation = lambda self, table: row_scans.append(table)

ran = set()
for workload in WORKLOADS.values():
    inputs = workload.inputs(seed=11, scale="smoke", lap_seconds=1.0)
    database = Database()
    for table in inputs.tables:
        database.create_table(table.name, table.columns, primary_key=table.primary_key)
        database.insert(table.name, table.rows)
    for sql in inputs.templates:
        assert len(database.query(sql)) >= 0
        ran.add(sql)
assert set(TPCH_QUERIES.values()) <= ran

database = Database()
database.create_table("t", ["a", "b"])
database.create_table("u", ["c"])
database.insert("t", [(i, i % 4) for i in range(50)])
database.insert("u", [(i,) for i in range(5)])
database.create_index("t", "a")
t, u, a, b, c = TableScan("t"), TableScan("u"), ColumnRef("a"), ColumnRef("b"), ColumnRef("c")
plans = [
    t,
    Selection(t, Comparison("<", b, Literal(2))),
    Selection(t, Comparison("<", a, Literal(9))),  # served by the index
    Projection(t, [ProjectionItem(b)]),
    Join(t, u, Comparison("=", b, c)),
    Join(t, u, None),
    Join(t, u, Comparison("<", b, c)),
    Aggregation(t, [b], [Aggregate(AggregateFunction.SUM, a, "total")]),
    Distinct(Projection(t, [ProjectionItem(b)])),
    TopK(t, 3, [OrderItem(b, False), OrderItem(a)]),
]
for plan in plans:
    for optimize in (True, False):  # the engine on the optimized and the literal plan
        assert len(Evaluator(database, optimize).evaluate(plan)) > 0
assert database.index_scan_count == 2

assert not row_scans, row_scans

# Beyond queries: DELETE ... WHERE, and sketch capture plus one maintenance
# round (which do read whole tables through Database.relation) over a grouped
# aggregate, a top-k and a theta join -- no expression may reach the oracle.
Database.relation = relation
database.execute("DELETE FROM t WHERE b = 3 AND a > 40")
assert len(database.table("t")) == 48
system = IMPSystem(database, num_fragments=4)
maintained = [
    "SELECT b, sum(a) AS total FROM t GROUP BY b HAVING sum(a) > 100",
    "SELECT a, b FROM t ORDER BY b DESC, a LIMIT 3",
    "SELECT b, count(*) AS n FROM t JOIN u ON b < c GROUP BY b HAVING count(*) > 3",
]
for sql in maintained:
    assert len(system.run_query(sql)) > 0
system.apply_update("t", inserts=[(100, 1), (101, 2)], deletes=[(0, 0)])
for sql in maintained:
    assert len(system.run_query(sql)) > 0
# A query may answer from a sketch that skips nothing without maintaining it;
# a round maintains whatever the queries left stale.
system.scheduler.run_round()
assert system.statistics.sketch_captures == len(maintained)
assert system.statistics.sketch_maintenances == len(maintained)
assert system.statistics.fallback_queries == 0

assert "repro.relational.oracle" not in sys.modules
print("stayed on the batch pipeline:", len(ran), "templates,", len(plans), "plans")
"""


def test_the_engine_never_leaves_the_batch_pipeline():
    """Every benchmark template and every plan node type is answered without
    one ``Database.relation`` call, and those queries, a ``DELETE ... WHERE``
    and sketch capture and maintenance run without importing the oracle
    module (a fresh interpreter: this process has long imported it)."""
    root = pathlib.Path(__file__).resolve().parent.parent
    environment = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", PIPELINE_PROBE],
        cwd=root,
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    assert "stayed on the batch pipeline" in probe.stdout


def test_the_interpreter_is_the_oracle_module_only():
    """One lowering in ``src``: nothing but ``relational/oracle.py`` mentions
    the tree-walking interpreter, and ``expressions.py`` defines no row form."""
    source = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    mentions = {
        path.relative_to(source).as_posix()
        for path in source.rglob("*.py")
        if re.search(r"\binterpret\b", path.read_text())
    }
    assert mentions == {"relational/oracle.py"}
    expressions = (source / "relational" / "expressions.py").read_text()
    assert not re.search(r"def _?compile\(", expressions)
