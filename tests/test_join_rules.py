"""The hash join's two duplicate rules.

``kernels.hash_join_batch`` consolidates a side whose every column is a join
key before it probes (for such a side equal keys are equal rows, so a
duplicate would only be multiplied by its partners and merged again above),
and flags its output ``consolidated`` when both inputs are.  Neither may
change an answer: the kernel's consolidated output equals a nested loop over
the unmerged inputs with SQL key equality (a NULL or NaN key matches
nothing) merged afterwards, and the engine equals the row oracle
by ``repr`` -- entry order, value types and float low bits included -- with
and without the optimizer, over duplicate, NULL, NaN (one shared object and
distinct ones) and ``1`` / ``1.0`` / ``True`` keys.  A counter test pins what
the rule buys on the benchmark's join shape.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.relational import kernels
from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    Join,
    OrderItem,
    Projection,
    ProjectionItem,
    TableScan,
    TopK,
)
from repro.relational.columnar import ColumnBatch
from repro.relational.expressions import BinaryOp, ColumnRef, Comparison, LogicalOp
from repro.relational.schema import Schema
from repro.storage.database import Database

NAN = math.nan
KEYS = st.one_of(
    st.sampled_from([None, 0, 1, 1.0, True, 2, NAN]),  # NAN: one shared object
    st.builds(float, st.just("nan")),  # a NaN object of its own
)
SUMMANDS = st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 7.25, 2])


def answer(relation) -> str:
    """A relation compared bit for bit: entry order, types, NaN and low bits."""
    return repr(list(relation.items()))


# -- the kernel: merged before == merged after --------------------------------------


def sql_equal(a, b) -> bool:
    """SQL ``a = b`` is true: never for NULL, never for NaN (not even the
    same NaN object), ``1 = 1.0 = TRUE`` as in Python."""
    return a is not None and b is not None and a == b


def nested_loop(left: ColumnBatch, right: ColumnBatch, pairs) -> ColumnBatch:
    """The join of the unmerged inputs, left outer and right inner.

    A pair is joined where SQL equality holds on every key pair: the kernel's
    keys mean exactly that, so the engine checks no key pair again."""
    rows, multiplicities = [], []
    for left_row, left_count in zip(left.row_tuples(), left.multiplicities):
        for right_row, right_count in zip(right.row_tuples(), right.multiplicities):
            if all(sql_equal(left_row[p], right_row[q]) for p, q in pairs):
                rows.append(left_row + right_row)
                multiplicities.append(left_count * right_count)
    schema = left.schema.concat(right.schema)
    return ColumnBatch.from_items(schema, list(zip(rows, multiplicities)))


@st.composite
def side(draw, name: str):
    """A batch of 0-2 columns with repeated rows, flagged consolidated only
    when its rows are distinct."""
    width = draw(st.integers(0, 2))
    rows = draw(st.lists(st.tuples(*[KEYS] * width), max_size=7))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    schema = Schema([f"{name}{i}" for i in range(width)])
    batch = ColumnBatch.from_items(schema, list(zip(rows, counts)))
    if draw(st.booleans()) and len(dict.fromkeys(batch.row_tuples())) == len(batch):
        batch.consolidated = True
    return batch


@st.composite
def kernel_case(draw):
    left, right = draw(side("l")), draw(side("r"))
    pairs = []
    if len(left.schema) and len(right.schema):
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(left.schema) - 1), st.integers(0, len(right.schema) - 1)
                ),
                max_size=2,
            )
        )
    return left, right, pairs


@settings(max_examples=300, deadline=None)
@given(kernel_case())
def test_the_kernel_output_merges_to_the_unmerged_join(case):
    left, right, pairs = case
    joined = kernels.hash_join_batch(left, right, pairs)
    expected = nested_loop(left, right, pairs).consolidate()
    merged = joined.consolidate()
    assert repr(merged.row_tuples()) == repr(expected.row_tuples())
    assert merged.multiplicities == expected.multiplicities
    # A key-only side is merged, so it counts as consolidated.
    distinct = [
        batch.consolidated or len({pair[i] for pair in pairs}) == len(batch.schema)
        for i, batch in enumerate((left, right))
    ]
    assert joined.consolidated == all(distinct)
    if joined.consolidated:
        assert len(dict.fromkeys(joined.row_tuples())) == len(joined)


def test_a_zero_column_side_is_one_entry():
    """A side with no column is all join key: its rows merge into one."""
    empty = ColumnBatch(Schema([]), [], [2, 3])
    right = ColumnBatch(Schema(["x"]), [[7, 8]], [1, 4], consolidated=True)
    joined = kernels.hash_join_batch(empty, right, [])
    assert joined.row_tuples() == [(7,), (8,)]
    assert joined.multiplicities == [5, 20]
    assert joined.consolidated


# -- the engine against the oracle ---------------------------------------------------


g, h = ColumnRef("g"), ColumnRef("h")
k, l, w = ColumnRef("k"), ColumnRef("l"), ColumnRef("w")
T, U = TableScan("t"), TableScan("u")
T_KEYS = Projection(T, [ProjectionItem(g)])
T_TWO = Projection(T, [ProjectionItem(g), ProjectionItem(h)])
U_KEYS = Projection(U, [ProjectionItem(k)])


def equal(a, b) -> Comparison:
    return Comparison("=", a, b)


JOINS = {
    "left keys": Join(T_KEYS, U, equal(g, k)),
    "right keys": Join(T, U_KEYS, equal(g, k)),
    "both keys": Join(T_KEYS, U_KEYS, equal(k, g)),
    "two keys": Join(T_TWO, U, LogicalOp("AND", [equal(g, k), equal(h, l)])),
    "one column twice": Join(T_KEYS, U, LogicalOp("AND", [equal(g, k), equal(g, l)])),
    "residual": Join(T_KEYS, U, LogicalOp("AND", [equal(g, k), Comparison("<", g, w)])),
    "theta": Join(T_KEYS, U, Comparison("<", g, k)),
    "cross": Join(T_KEYS, U_KEYS, None),
}


def consumers(join) -> list:
    """Plans over ``join`` whose answer hangs on its entry order."""
    count = Aggregate(AggregateFunction.COUNT, None, "n")
    plans = [join, Aggregation(join, [g], [count]), TopK(join, 3, [OrderItem(g, False)])]
    if any(isinstance(side, TableScan) and side.table == "u" for side in join.children()):
        plans += [
            Aggregation(
                join,
                [g],
                [
                    Aggregate(AggregateFunction.SUM, w, "sw"),
                    Aggregate(AggregateFunction.AVG, w, "aw"),
                    count,
                ],
            ),
            Aggregation(join, [], [Aggregate(AggregateFunction.SUM, BinaryOp("*", w, g), "s")]),
            TopK(join, 4, [OrderItem(w), OrderItem(g, False)]),
        ]
    return plans


@st.composite
def join_database(draw):
    database = Database()
    database.create_table("t", ["id", "g", "h", "v"])
    database.create_table("u", ["k", "l", "w"])
    database.insert(
        "t",
        draw(st.lists(st.tuples(st.integers(0, 3), KEYS, KEYS, SUMMANDS), max_size=12)),
    )
    database.insert("u", draw(st.lists(st.tuples(KEYS, KEYS, SUMMANDS), max_size=8)))
    return database, draw(st.sampled_from(sorted(JOINS)))


@settings(max_examples=150, deadline=None)
@given(join_database())
def test_engine_equals_the_oracle_bit_for_bit(case):
    database, name = case
    for plan in consumers(JOINS[name]):
        for optimize in (False, True):
            engine = database.query(plan, optimize_plans=optimize)
            oracle = database.query(plan, optimize_plans=optimize, vectorize=False)
            assert answer(engine) == answer(oracle), (name, plan, optimize)


def test_sql_joins_over_pruned_key_columns():
    """The SQL spelling: pruning leaves ``Projection(a)`` on one side."""
    rng = random.Random(4)
    database = Database()
    database.create_table("r", ["id", "a", "b"], primary_key="id")
    keys = [1, 1.0, True, 2, None, NAN]
    database.insert("r", [(i, rng.choice(keys), i * 0.1) for i in range(60)])
    database.create_table("s", ["c", "x"])
    database.insert(
        "s", [(rng.choice([1, 2, 3, NAN]), rng.choice([0.1, 1e16, -1e16])) for _ in range(9)]
    )
    for sql in [
        "SELECT a, sum(x) AS sx, avg(x) AS ax FROM r JOIN s ON (a = c) GROUP BY a",
        "SELECT c, count(*) AS n FROM r JOIN s ON (a = c) GROUP BY c",
        "SELECT a, x FROM r JOIN s ON (a = c) ORDER BY x DESC LIMIT 3",
        "SELECT DISTINCT c FROM r JOIN s ON (a = c)",
    ]:
        for optimize in (False, True):
            engine = database.query(sql, optimize_plans=optimize)
            oracle = database.query(sql, optimize_plans=optimize, vectorize=False)
            assert answer(engine) == answer(oracle), (sql, optimize)


# -- what the rule buys, counted -----------------------------------------------------


def test_a_key_only_side_is_merged_before_the_probe(monkeypatch):
    """The benchmark's join shape: 25 000 rows of ``r`` pruned to ``a`` (500
    keys) against 2 000 helper rows.  The join emits one pair per helper row,
    not one per ``r`` row, flags it consolidated, and the aggregation above
    merges nothing again."""
    rng = random.Random(7)
    database = Database()
    database.create_table("r", ["id", "a", "b"], primary_key="id")
    database.insert("r", [(i, i % 500, rng.randrange(100)) for i in range(25_000)])
    database.create_table("u", ["ttid", "w"])
    database.insert("u", [(rng.randrange(500), rng.randrange(1_000)) for _ in range(2_000)])
    joins, merges = [], []
    original_join, original_merge = kernels.hash_join_batch, ColumnBatch._merged_counts

    def join(left, right, pairs):
        output = original_join(left, right, pairs)
        joins.append((len(output), output.consolidated))
        return output

    def merge(batch):
        merges.append(len(batch))
        return original_merge(batch)

    monkeypatch.setattr(kernels, "hash_join_batch", join)
    monkeypatch.setattr(ColumnBatch, "_merged_counts", merge)
    sql = "SELECT a, sum(w) AS sw FROM r JOIN u ON (a = ttid) GROUP BY a"
    result = database.query(sql)
    helper_rows = len(database.column_batch("u"))
    assert 1_900 < helper_rows <= 2_000
    assert joins == [(helper_rows, True)]
    # The key-only side, then the root projection's groups; never the join.
    assert merges == [25_000, len(result)]
    monkeypatch.undo()
    assert answer(result) == answer(database.query(sql, optimize_plans=False, vectorize=False))
