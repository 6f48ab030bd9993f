"""Tests for the vectorized columnar execution engine.

The engine must be *invisible* in results: every kernel (scan, selection
including the index recheck path, projection, hash join, distinct, grouped
aggregation) and every batch-compiled expression produces bit-identical
relations to the row-at-a-time reference, and ``IMPSystem`` /
``NoSketchSystem`` answers equal the reference oracle
(``Database.query(..., optimize_plans=False, vectorize=False)``) after every
update batch.  The Hypothesis differential tests run generated query/update workloads over
mixed-type columns with NULLs; the unit tests pin down the batch
representation, the three-valued-logic kernels, the fallback boundary around
TopK and the index-ranking selection.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.algebra import OrderItem, Selection, TableScan, TopK
from repro.relational.columnar import ColumnBatch
from repro.relational.evaluator import Evaluator
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    Comparison,
    FunctionCall,
    IsNull,
    Literal,
    LogicalOp,
    Not,
    clear_compile_cache,
    compile_batch_expression,
    compile_expression,
)
from repro.relational.schema import Relation, Schema
from repro.imp.middleware import IMPSystem
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta, Delta
from tests.reference import assert_systems_match_oracle, random_insert_batches

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
        batch = ColumnBatch.from_relation(relation)
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
    """The batch kernel's value column equals per-row compiled evaluation."""
    row_fn = compile_expression(expression, schema)
    batch = ColumnBatch.from_items(schema, [(row, 1) for row in rows])
    batch_fn = compile_batch_expression(expression, schema)
    values = batch_fn(batch.columns, len(batch))
    assert values == [row_fn(row) for row in rows], expression.canonical()


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
    def test_batch_equals_row_evaluation(self, expression):
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

    def test_row_and_batch_modes_share_the_cache_without_clashing(self):
        clear_compile_cache()
        schema = Schema(["x"])
        expression = Comparison("<", ColumnRef("x"), Literal(5))
        row_fn = compile_expression(expression, schema)
        batch_fn = compile_batch_expression(expression, schema)
        assert row_fn is compile_expression(expression, schema)
        assert batch_fn is compile_batch_expression(expression, schema)
        assert row_fn is not batch_fn

    def test_aggregate_call_still_raises_per_element(self):
        fn = compile_batch_expression(
            FunctionCall("sum", [ColumnRef("x")]), Schema(["x"])
        )
        with pytest.raises(Exception):
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

    def test_constant_predicates(self):
        database = make_mixed_db(20)
        for value, expected in ((True, 20), (False, 0), (None, 0), (1, 0)):
            plan = Selection(TableScan("m"), Literal(value))
            vectorized = database.query(plan, optimize_plans=False, vectorize=True)
            row = database.query(plan, optimize_plans=False, vectorize=False)
            assert vectorized == row
            assert len(vectorized) == expected


# -- fallback boundary (row-based TopK) ------------------------------------------------


class TestFallbackBoundary:
    def test_vectorized_subtree_under_row_topk(self):
        database = make_mixed_db()
        sql = "SELECT id, b FROM m WHERE b < 80 ORDER BY b, id LIMIT 7"
        assert database.query(sql, vectorize=True) == database.query(sql, vectorize=False)

    def test_row_topk_under_vectorized_selection(self):
        database = make_mixed_db()
        topk = TopK(
            TableScan("m"),
            k=25,
            order_by=[OrderItem(ColumnRef("id"))],
        )
        plan = Selection(topk, Comparison("<", ColumnRef("b"), Literal(50)))
        vectorized = database.query(plan, optimize_plans=False, vectorize=True)
        row = database.query(plan, optimize_plans=False, vectorize=False)
        assert vectorized == row
        assert len(vectorized) > 0

    def test_scan_counts_match_between_engines(self):
        # The vectorized engine must not change the I/O instrumentation:
        # column_batch counts like relation, index scans like index scans.
        database = make_mixed_db()
        database.create_index("m", "b")
        queries = [
            "SELECT a, b FROM m WHERE b BETWEEN 10 AND 20",
            "SELECT m.id, o.w FROM m JOIN o ON (a = g)",
            "SELECT a, count(*) AS n FROM m GROUP BY a",
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


# -- evaluator without the database provider -------------------------------------------


class _PlainProvider:
    """A RelationProvider without column_batch/index hooks (protocol floor)."""

    def __init__(self):
        self.schema = Schema(["x", "y"])
        self.data = Relation(self.schema, {(1, 2): 1, (3, 4): 2, (None, 6): 1})

    def relation(self, table):
        return self.data.copy()

    def schema_of(self, table):
        return self.schema


def test_vectorized_evaluator_works_without_column_batch_provider():
    provider = _PlainProvider()
    plan = Selection(TableScan("t"), Comparison(">", ColumnRef("x"), Literal(1)))
    engine = Evaluator(provider).evaluate(plan)
    reference = Evaluator(provider, optimize_plans=False, vectorize=False).evaluate(plan)
    assert engine == reference
    assert engine.to_set() == {(3, 4)}
