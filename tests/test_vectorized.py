"""Tests for the columnar batch engine against the row oracle.

Every kernel (scan, selection including the index recheck path, projection,
hash/cross/theta join, distinct, grouped aggregation, top-k) and every
batch-compiled expression produces bit-identical relations to the row oracle
(``Database.query(..., optimize_plans=False, vectorize=False)``), and
``IMPSystem`` / ``NoSketchSystem`` answers equal it after every update batch.
The Hypothesis differential tests run generated query/update workloads over
mixed-type columns with NULLs; LIMIT ties, multiplicities cut at ``k``, NaN
order keys and non-equi joins are additionally held to plans spelled out with
the expression interpreter of ``tests.reference``; the unit tests pin down
the batch representation, the three-valued-logic kernels and the
index-ranking selection.
"""

from __future__ import annotations

import os
import pathlib
import random
import re
import subprocess
import sys
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import UnsupportedOperationError
from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    Join,
    OrderItem,
    Projection,
    ProjectionItem,
    Selection,
    TableScan,
    TopK,
)
from repro.relational.columnar import ColumnBatch
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
from repro.imp.middleware import IMPSystem
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta, Delta
from tests.reference import assert_systems_match_oracle, interpret, random_insert_batches
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
        vectorized = database.query(plan, optimize_plans=False, vectorize=True)
        row = database.query(plan, optimize_plans=False, vectorize=False)
        assert vectorized == row
        assert vectorized.to_set() == {(1, True)}

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
            oracle = database.query(sql, optimize_plans=False, vectorize=False)
            assert len(oracle) == count, sql
            assert database.query(sql) == oracle, sql
            assert database.query(sql, optimize_plans=False) == oracle, sql
            assert imp.run_query(sql) == oracle, sql

    def test_constant_predicates(self):
        database = make_mixed_db(20)
        for value, expected in ((True, 20), (False, 0), (None, 0), (1, 0)):
            plan = Selection(TableScan("m"), Literal(value))
            vectorized = database.query(plan, optimize_plans=False, vectorize=True)
            row = database.query(plan, optimize_plans=False, vectorize=False)
            assert vectorized == row
            assert len(vectorized) == expected


# -- LIMIT, cross and theta joins: engine == oracle == interpreted plan ------------------


def compare_order_values(a, b, ascending: bool) -> int:
    """ORDER BY on one pair of values, spelled out: NULL first, then numbers
    (booleans count) with NaN after all of them, then everything else by its
    string form; DESC turns all of that around except that NaN stays behind
    the other numbers."""

    def kind(value):
        return 0 if value is None else 1 if isinstance(value, (int, float)) else 2

    if kind(a) != kind(b):
        outcome = kind(a) - kind(b)
    elif a is None:
        outcome = 0
    elif kind(a) == 1:
        if a != a or b != b:
            return (a != a) - (b != b)
        outcome = (a > b) - (a < b)
    else:
        outcome = (str(a) > str(b)) - (str(a) < str(b))
    return outcome if ascending else -outcome


def interpreted(plan, database: Database) -> Relation:
    """A plan of scans, selections, projections, joins and top-k evaluated
    with the expression interpreter and nested loops -- no compiled
    expression, no kernel, no row operator of ``src``."""
    if isinstance(plan, TableScan):
        stored = database.table(plan.table)
        return Relation(stored.schema.qualify(plan.alias), dict(stored.items()))
    if isinstance(plan, Join):
        left, right = interpreted(plan.left, database), interpreted(plan.right, database)
        result = Relation(left.schema.concat(right.schema))
        for left_row, left_count in left.items():
            for right_row, right_count in right.items():
                row = left_row + right_row
                if plan.condition is None or interpret(plan.condition, row, result.schema) is True:
                    result.add(row, left_count * right_count)
        return result
    child = interpreted(plan.child, database)
    if isinstance(plan, Selection):
        kept = {
            row: count
            for row, count in child.items()
            if interpret(plan.predicate, row, child.schema) is True
        }
        return Relation(child.schema, kept)
    if isinstance(plan, Projection):
        result = Relation(Schema(item.alias for item in plan.items))
        for row, count in child.items():
            values = [interpret(item.expression, row, child.schema) for item in plan.items]
            result.add(tuple(values), count)
        return result
    assert isinstance(plan, TopK), plan

    def compare(one, other) -> int:
        for item in plan.order_by:
            outcome = compare_order_values(
                interpret(item.expression, one[0], child.schema),
                interpret(item.expression, other[0], child.schema),
                item.ascending,
            )
            if outcome:
                return outcome
        return 0

    result = Relation(child.schema)
    remaining = plan.k
    for row, count in sorted(child.items(), key=cmp_to_key(compare)):  # stable: ties in child order
        result.add(row, min(count, remaining))
        remaining -= min(count, remaining)
    return result


ORDER_VALUES = [None, True, False, 0, 1, -1, 2.5, NAN, "ash", "oak", "10"]
SUMMANDS = [0.1, 0.2, 0.3, 1e16, -1e16, 7.25]


@st.composite
def limit_and_join_case(draw):
    """A small database with repeated rows and a plan over it whose answer
    hangs on entry order: a LIMIT over tied, mixed-type keys or a join
    without a hashable equality, optionally under a float sum."""
    database = Database()
    database.create_table("t", ["id", "g", "v"])
    database.create_table("u", ["k", "w"])
    database.insert(
        "t",
        draw(
            st.lists(
                st.tuples(
                    st.integers(0, 5),
                    st.sampled_from([None, 0, 1, 2]),
                    st.sampled_from(ORDER_VALUES),
                ),
                max_size=14,
            )
        ),
    )
    database.insert(
        "u",
        draw(
            st.lists(
                st.tuples(st.sampled_from([None, 0, 1, 2, 3]), st.sampled_from(SUMMANDS)),
                max_size=7,
            )
        ),
    )
    t, u = TableScan("t"), TableScan("u")
    g, k, v, w = ColumnRef("g"), ColumnRef("k"), ColumnRef("v"), ColumnRef("w")
    if draw(st.booleans()):
        child = draw(
            st.sampled_from(
                [
                    t,
                    Selection(t, Comparison("<", ColumnRef("id"), Literal(4))),
                    Projection(t, [ProjectionItem(g), ProjectionItem(v)]),
                ]
            )
        )
        order_by = [
            OrderItem(expression, draw(st.booleans()))
            for expression in draw(st.sampled_from([[v], [g], [g, v], [v, g]]))
        ]
        plan = TopK(child, draw(st.integers(1, 12)), order_by)
        if draw(st.booleans()):
            plan = Selection(plan, IsNull(g, negated=True))
    else:
        plan = Join(
            t,
            u,
            draw(
                st.sampled_from(
                    [
                        None,
                        Literal(1),  # ON 1 is not ON TRUE: it selects nothing
                        Comparison("<", g, k),
                        Comparison("<>", g, k),
                        Comparison("=", BinaryOp("+", g, Literal(1)), k),
                        Comparison("=", k, Literal(2)),
                        LogicalOp("OR", [Comparison("=", g, k), IsNull(k)]),
                        LogicalOp(
                            "AND", [Comparison("=", g, k), Comparison("<", ColumnRef("id"), w)]
                        ),
                    ]
                )
            ),
        )
        if draw(st.booleans()):
            plan = TopK(plan, draw(st.integers(1, 9)), [OrderItem(k, draw(st.booleans()))])
    return database, plan


def float_sum(plan, argument: str):
    return Aggregation(
        plan, [], [Aggregate(AggregateFunction.SUM, ColumnRef(argument), "total")]
    )


class TestLimitCrossAndThetaJoins:
    @pytest.mark.parametrize("case", sorted(ORDER_JOIN_CASES))
    def test_engine_oracle_and_interpreted_plan_agree(self, case):
        plan, _expected = ORDER_JOIN_CASES[case]  # pinned in test_algebra_evaluator
        database = make_order_join_db()
        literal = database.query(plan, optimize_plans=False)
        assert literal == database.query(plan, optimize_plans=False, vectorize=False)
        assert literal == interpreted(plan, database)
        assert database.query(plan) == database.query(plan, vectorize=False)

    @settings(max_examples=150, deadline=None)
    @given(limit_and_join_case())
    def test_generated_plans(self, case):
        database, plan = case
        literal = database.query(plan, optimize_plans=False)
        assert literal == database.query(plan, optimize_plans=False, vectorize=False)
        assert literal == interpreted(plan, database)
        assert database.query(plan) == database.query(plan, vectorize=False)
        # The entry *order* below a float sum decides its low bits.
        if "u.w" in literal.schema.attributes:
            total = float_sum(plan, "w")
            for optimize in (False, True):
                assert database.query(total, optimize_plans=optimize) == database.query(
                    total, optimize_plans=optimize, vectorize=False
                )

    def test_sql_limit_over_a_selection(self):
        database = make_mixed_db()
        sql = "SELECT id, b FROM m WHERE b < 80 ORDER BY b, id LIMIT 7"
        assert database.query(sql) == database.query(sql, vectorize=False)

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
                for vectorize in (True, False):
                    answer = database.query(sql, vectorize=vectorize)
                    assert {row[0] for row in answer.rows()} == ids, (sql, order, vectorize)

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
            for vectorize in (True, False):
                before = (database.scan_count, database.index_scan_count)
                database.query(sql, vectorize=vectorize)
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
        result = database.query("SELECT * FROM m", vectorize=True)
        some_row = next(iter(result.distinct_rows()))
        result.remove(some_row, 1)
        result.add((999_999, 0, 0, "x"), 5)
        again = database.query("SELECT * FROM m", vectorize=True)
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
        sql = (
            "SELECT id FROM t WHERE b BETWEEN 0 AND 80 "
            "AND z_sel BETWEEN 100 AND 200"
        )
        for vectorize in (True, False):
            used.clear()
            database.query(sql, optimize_plans=True, vectorize=vectorize)
            assert used == ["z_sel"], used

    def test_single_candidate_still_served(self):
        database = make_mixed_db()
        database.create_index("m", "b")
        before = database.index_scan_count
        result = database.query("SELECT id FROM m WHERE b BETWEEN 5 AND 9")
        assert database.index_scan_count == before + 1
        assert result == database.query(
            "SELECT id FROM m WHERE b BETWEEN 5 AND 9", optimize_plans=False, vectorize=False
        )


# -- Hypothesis differential suites ----------------------------------------------------

QUERY_TEMPLATES = [
    "SELECT id, a, b FROM m WHERE b BETWEEN {low} AND {high}",
    "SELECT a, b, s FROM m WHERE b < {high} OR s = 'ash'",
    "SELECT DISTINCT s FROM m WHERE b > {low}",
    "SELECT a, count(*) AS n, sum(b) AS sb, min(s) AS ms FROM m GROUP BY a",
    "SELECT a, avg(b) AS ab FROM m WHERE b IS NOT NULL GROUP BY a HAVING avg(b) > {low}",
    "SELECT m.id, o.w FROM m JOIN o ON (a = g) WHERE m.b < {high}",
    "SELECT id, b * 2 AS bb FROM m WHERE s IS NULL",
    "SELECT id, b FROM m WHERE b < {high} ORDER BY b, id LIMIT 5",
    "SELECT count(*) AS n FROM m WHERE b BETWEEN {low} AND {high}",
    "SELECT abs(b) AS ab, lower(s) AS ls FROM m WHERE b > {low}",
    "SELECT id, a FROM m WHERE b < {high} ORDER BY a LIMIT 7",
    "SELECT id, s, b FROM m ORDER BY s DESC, b LIMIT 6",
    "SELECT m.id, o.oid FROM m JOIN o ON (m.a < o.g) WHERE m.b < {low}",
    "SELECT m.id, o.oid FROM m JOIN o ON (m.a <> o.g AND m.b = o.oid)",
]


@st.composite
def workload(draw):
    steps = []
    next_id = [50_000]
    for _ in range(draw(st.integers(1, 4))):
        template = draw(st.sampled_from(QUERY_TEMPLATES))
        low = draw(st.integers(0, 60))
        high = low + draw(st.integers(0, 80))
        steps.append(("query", template.format(low=low, high=high)))
        kind = draw(st.sampled_from(["insert", "delete", "none"]))
        if kind == "insert":
            rows = []
            for _ in range(draw(st.integers(1, 5))):
                rows.append(
                    (
                        next_id[0],
                        draw(st.integers(0, 11)),
                        draw(st.one_of(st.none(), st.integers(0, 99))),
                        draw(st.sampled_from(STRINGS)),
                    )
                )
                next_id[0] += 1
            steps.append(("insert", rows))
        elif kind == "delete":
            steps.append(("delete", draw(st.integers(0, 40))))
    return steps


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(workload())
    def test_vectorized_is_bit_identical_to_row_engine(self, steps):
        database = make_mixed_db(num_rows=120, seed=11)
        database.create_index("m", "b")
        for kind, payload in steps:
            if kind == "query":
                for optimize in (False, True):
                    vectorized = database.query(
                        payload, optimize_plans=optimize, vectorize=True
                    )
                    row = database.query(
                        payload, optimize_plans=optimize, vectorize=False
                    )
                    assert vectorized == row, (payload, optimize)
            elif kind == "insert":
                database.insert("m", payload)
            else:
                database.execute(f"DELETE FROM m WHERE b < {payload}")

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
                assert answer == database.query(sql, optimize_plans=False, vectorize=False), sql
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
            assert answer == database.query(sql, optimize_plans=False, vectorize=False), sql
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
from repro.imp.middleware import IMPSystem
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
    for optimize in (True, False):
        assert len(database.query(plan, optimize_plans=optimize)) > 0
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
