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

An aggregation grouped by the one column of a key-only left side is a
group-join: it folds the right side's partners without running the hash join.
It is held to the oracle the same way, also over ``2**53 + 1`` keys, duplicate
right rows, sketch-instrumented and looked-up inputs and float sums that only
a merge gets right, and counters pin that the TPC-H ``order_volume`` template
takes it.

A one-column batch merges by raw value, and a join whose right side is only
its keys runs as a semi-join.  Each is held to the path it replaced, entry
for entry: the merge keyed by 1-tuples and the ``join_positions`` pair lists.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.imp.middleware import IMPSystem
from repro.relational import kernels
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
from repro.relational.expressions import BinaryOp, ColumnRef, Comparison, IsNull, LogicalOp
from repro.relational.schema import Schema
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.sketch import ProvenanceSketch
from repro.sketch.use import instrument_plan
from repro.storage.database import Database
from repro.workloads.queries import q_join
from repro.workloads.synthetic import load_join_helper, load_synthetic
from repro.workloads.tpch import load_tpch, tpch_having_revenue, tpch_order_volume

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
def side(draw, name: str, widths=st.integers(0, 2)):
    """A batch of 0-2 columns (or of a width drawn from ``widths``) with
    repeated rows, flagged consolidated only when its rows are distinct."""
    width = draw(widths)
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
    keys) against 2 000 helper rows, grouped by ``a``.  It is a group-join:
    the key-only side is merged once, the helper rows are folded without a
    hash join, and an integer sum merges nothing else."""
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
    assert joins == []
    # The key-only side, then the root projection's groups; never the partners.
    assert merges == [25_000, len(result)]
    monkeypatch.undo()
    assert answer(result) == answer(database.query(sql, optimize_plans=False, vectorize=False))


# -- the group-join ------------------------------------------------------------------
#
# An aggregation grouped by the one column of a key-only left side folds the
# right side's partners without running the join.  It must equal the oracle's
# join-then-aggregate by ``repr``: groups in left order under the left
# spelling, each group's floats in right order at left count x right count.

BIG = 2**53 + 1  # the first int a float cannot hold: float(BIG) == 2**53
GROUP_KEYS = st.one_of(
    st.sampled_from([None, NAN, 0, 1, 1.0, True, 2, BIG, -BIG, float(BIG)]),
    st.builds(float, st.just("nan")),
)
# Ints only: every sum is exact, so the fold skips the merge.
EXACT_VALUES = st.sampled_from([None, 0, 1, True, -3, 2**40])
# Mixed with floats: sums merge duplicates first.
MIXED_VALUES = st.sampled_from([None, NAN, 0, 1, 1.0, True, -3, 0.1, 7.25, 1e16, -1e16])
U_PAIRS = Projection(U, [ProjectionItem(k), ProjectionItem(w)])  # duplicate rows
U_SELECTED = Selection(U, IsNull(l, negated=True))  # a lookup when ``k`` is indexed


def group_join_plans(left) -> list:
    """Aggregations grouped by ``left``'s one column over joins with ``u``."""
    every = [
        Aggregate(AggregateFunction.COUNT, None, "n"),
        Aggregate(AggregateFunction.COUNT, w, "c"),
        Aggregate(AggregateFunction.MIN, w, "lo"),
        Aggregate(AggregateFunction.MAX, w, "hi"),
        Aggregate(AggregateFunction.SUM, w, "s"),
        Aggregate(AggregateFunction.AVG, w, "av"),
    ]
    plans = [
        Aggregation(Join(left, right, condition), [g], every)
        for right in (U, U_PAIRS, U_SELECTED)
        for condition in (equal(g, k), equal(k, g))
    ]
    sum_of_keys = Aggregate(AggregateFunction.SUM, k, "sk")
    plans.append(Aggregation(Join(left, U_KEYS, equal(g, k)), [g], [sum_of_keys]))
    return plans


@st.composite
def group_join_case(draw):
    """``t`` with repeated keys (``t`` pruned to ``g`` has multiplicities
    above one) and ``u`` with repeated rows; perhaps an index on ``u.k`` and a
    sketch over ``t.id`` on the left side."""
    database = Database()
    database.create_table("t", ["id", "g", "h", "v"])
    database.create_table("u", ["k", "l", "w"])
    if draw(st.booleans()):
        database.create_index("u", "k")
    values = EXACT_VALUES if draw(st.booleans()) else MIXED_VALUES
    t_rows = draw(st.lists(st.tuples(st.integers(0, 5), GROUP_KEYS, KEYS, SUMMANDS), max_size=10))
    u_rows = draw(
        st.lists(st.tuples(GROUP_KEYS, st.sampled_from([None, 0, 1]), values), max_size=12)
    )
    for table, rows in (("t", t_rows), ("u", u_rows)):
        again = draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
        database.insert(table, rows + again)
    left = T_KEYS
    if draw(st.booleans()):
        database.create_index("t", "id")
        partition = DatabasePartition([RangePartition.from_boundaries("t", "id", [0, 2, 4, 6])])
        fragments = draw(st.sets(st.integers(0, partition.total_fragments - 1)))
        left = instrument_plan(T_KEYS, ProvenanceSketch(partition, fragments))
    return database, left


@settings(max_examples=150, deadline=None)
@given(group_join_case())
def test_the_group_join_equals_the_oracle_bit_for_bit(case):
    database, left = case
    for plan in group_join_plans(left):
        for optimize in (False, True):
            engine = database.query(plan, optimize_plans=optimize)
            oracle = database.query(plan, optimize_plans=optimize, vectorize=False)
            assert answer(engine) == answer(oracle), (plan.explain(), optimize)


def spied(monkeypatch) -> dict:
    """Calls of the hash join and the index lookup, and the schemas of the
    batches merged, from now on."""
    seen = {"joins": 0, "lookups": 0, "merged": []}
    original_join, original_lookup = kernels.hash_join_batch, Database.index_lookup
    original_merge = ColumnBatch._merged_counts

    def join(left, right, pairs):
        seen["joins"] += 1
        return original_join(left, right, pairs)

    def lookup(self, *args):
        seen["lookups"] += 1
        return original_lookup(self, *args)

    def merge(batch):
        seen["merged"].append(list(batch.schema))
        return original_merge(batch)

    monkeypatch.setattr(kernels, "hash_join_batch", join)
    monkeypatch.setattr(Database, "index_lookup", lookup)
    monkeypatch.setattr(ColumnBatch, "_merged_counts", merge)
    return seen


def test_the_group_join_keys_and_order(monkeypatch):
    """Groups in left order under the left spelling (``True`` for ``1`` and
    ``1.0``), NULL and NaN keys dropped on both sides, ``2**53 + 1`` apart
    from its float, and each float sum over duplicate partners merged first:
    ``1e16 + 1.0 + 1.0 - 1e16`` is ``0.0`` unmerged but ``2.0`` merged."""
    database = Database()
    database.create_table("t", ["id", "g", "h", "v"])
    database.create_table("u", ["k", "l", "w"])
    lefts = [2, True, None, NAN, BIG, 2]
    database.insert("t", [(i, key, 0, 0.5) for i, key in enumerate(lefts)])
    database.insert(
        "u",
        [
            (True, 0, 1e16),
            (2, 0, 0.5),
            (1.0, 0, 1.0),
            (1, 1, 1.0),
            (float(BIG), 0, 3.0),
            (BIG, 0, 4.0),
            (None, 0, 5.0),
            (NAN, 0, 6.0),
            (1, 0, -1e16),
        ],
    )
    plan = Aggregation(
        Join(T_KEYS, U_PAIRS, equal(g, k)),
        [g],
        [Aggregate(AggregateFunction.SUM, w, "s"), Aggregate(AggregateFunction.COUNT, None, "n")],
    )
    seen = spied(monkeypatch)
    result = database.query(plan, optimize_plans=False)
    assert seen["joins"] == 0
    expected = [((2, 1.0, 2), 1), ((True, 2.0, 4), 1), ((BIG, 4.0, 1), 1)]
    assert repr(list(result.items())) == repr(expected)
    monkeypatch.undo()
    assert answer(result) == answer(database.query(plan, optimize_plans=False, vectorize=False))


def test_a_small_left_side_looks_its_partners_up(monkeypatch):
    """A key-only left side over a few keys fetches their index buckets and
    folds them; the hash join never runs."""
    database = Database()
    database.create_table("t", ["id", "g", "h", "v"])
    database.create_table("u", ["k", "l", "w"])
    database.insert("t", [(i, key, 0, 0.5) for i, key in enumerate([7, 3, 7, 3.0])])
    database.insert("u", [(i % 20, i % 2, 0.1 * i) for i in range(60)])
    database.create_index("u", "k")
    plan = group_join_plans(T_KEYS)[4]  # U_SELECTED, g = k
    seen = spied(monkeypatch)
    result = database.query(plan, optimize_plans=False)
    assert (seen["joins"], seen["lookups"]) == (0, 1)
    assert [row[:2] for row in result.rows()] == [(7, 6), (3, 6)]
    monkeypatch.undo()
    assert answer(result) == answer(database.query(plan, optimize_plans=False, vectorize=False))


def test_the_tpch_templates_fold_without_a_join_where_they_can(monkeypatch):
    """``order_volume`` (orders pruned to ``o_orderkey``, grouped by it) is a
    group-join, also when a sketch answers it; ``having_revenue`` groups by
    the customer key over two columns, so it joins, and its float-expression
    sum still merges the join's output."""
    database = Database()
    load_tpch(database, scale=0.02, seed=5)
    volume, revenue = tpch_order_volume(60.0), tpch_having_revenue(20_000.0)
    seen = spied(monkeypatch)
    volume_result = database.query(volume)
    # An integer sum: only the key-only side and the root projection merge.
    assert seen["joins"] == 0
    assert seen["merged"] == [["orders.o_orderkey"], ["o_orderkey", "total_quantity"]]
    revenue_result = database.query(revenue)
    assert seen["joins"] == 2
    assert any(
        "customer.c_custkey" in schema and "lineitem.l_extendedprice" in schema
        for schema in seen["merged"]
    )
    system = IMPSystem(database, num_fragments=8)
    seen["joins"] = 0
    assert system.run_query(volume) == volume_result  # captures
    assert system.run_query(volume) == volume_result  # answered with the sketch
    assert system.statistics.sketch_hits == 2
    assert seen["joins"] == 0
    monkeypatch.undo()
    for sql, result in ((volume, volume_result), (revenue, revenue_result)):
        assert answer(result) == answer(database.query(sql, optimize_plans=False, vectorize=False))


# -- the one-column merge and the key-only right side --------------------------------
#
# A one-column batch merges by value, building no 1-tuples, and a join whose
# right side is made only of its keys runs as a semi-join.  Each must equal the
# path it replaced entry for entry, by ``repr``: the merge keyed by row tuples,
# and the output built from ``kernels.join_positions`` pair lists.

MERGE_VALUES = st.one_of(
    st.sampled_from([None, NAN, 1, 1.0, True, -0.0, 0.0, BIG, -BIG, float(BIG)]),
    st.builds(float, st.just("nan")),  # a NaN object of its own
)


def tuple_merge(column: list, multiplicities: list[int]) -> dict:
    """The merge of a one-column batch keyed by 1-tuples, as wider rows are."""
    counts: dict = {}
    for row, multiplicity in zip(zip(column), multiplicities):
        counts[row] = counts.get(row, 0) + multiplicity
    return counts


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(MERGE_VALUES, st.integers(1, 3)), max_size=12), st.booleans())
def test_a_one_column_merge_equals_the_tuple_merge(entries, unit):
    column = [value for value, _ in entries]
    counts = [1 if unit else count for _, count in entries]
    batch = ColumnBatch(Schema(["a"]), [column], counts)
    expected = tuple_merge(column, counts)
    merged = batch.consolidate()
    assert merged.consolidated
    assert repr(merged.row_tuples()) == repr(list(expected))
    assert merged.multiplicities == list(expected.values())
    # The first occurrence's object, so NaN identity is kept as well.
    assert all(value is row[0] for value, row in zip(merged.columns[0], expected))
    distinct = kernels.distinct_batch(batch)
    assert repr(distinct.row_tuples()) == repr(list(expected))
    assert distinct.multiplicities == [1] * len(expected)
    relation = batch.to_relation()
    assert repr(list(relation.items())) == repr(list(expected.items()))
    assert all(row[0] is key[0] for (row, _), key in zip(relation.items(), expected))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(MERGE_VALUES, SUMMANDS), max_size=10),
    st.lists(st.tuples(MERGE_VALUES, SUMMANDS), max_size=8),
)
def test_one_column_merges_in_queries_equal_the_oracle(t_rows, u_rows):
    """``DISTINCT``, the group-join's left side and a top-k over one column
    merge one column by value; the oracle merges 1-tuple rows."""
    database = Database()
    database.create_table("t", ["g", "v"])
    database.create_table("u", ["k", "w"])
    for table, rows in (("t", t_rows), ("u", u_rows)):
        again = rows[: len(rows) // 2]
        database.insert(table, rows + again)
    for sql in [
        "SELECT DISTINCT g FROM t",
        "SELECT g, sum(w) AS s, count(*) AS n FROM t JOIN u ON (g = k) GROUP BY g",
        "SELECT g FROM t ORDER BY g DESC LIMIT 3",
    ]:
        for optimize in (False, True):
            engine = database.query(sql, optimize_plans=optimize)
            oracle = database.query(sql, optimize_plans=optimize, vectorize=False)
            assert answer(engine) == answer(oracle), (sql, optimize)


def pair_list_join(left: ColumnBatch, right: ColumnBatch, pairs) -> ColumnBatch:
    """The hash join built from ``kernels.join_positions`` pair lists, after
    the kernel's merges of key-only sides."""
    left_positions = [p for p, _ in pairs]
    right_positions = [q for _, q in pairs]
    if len(set(left_positions)) == len(left.schema):
        left = left.consolidate()
    right = right.consolidate()
    take_left, take_right, multiplicities = kernels.join_positions(
        kernels.key_column(left.columns, left_positions, len(left)),
        kernels.join_index(kernels.key_column(right.columns, right_positions, len(right))),
        left.multiplicities,
        right.multiplicities,
    )
    columns = [[column[i] for i in take_left] for column in left.columns]
    columns.extend([column[j] for j in take_right] for column in right.columns)
    return ColumnBatch(
        left.schema.concat(right.schema),
        columns,
        multiplicities,
        consolidated=left.consolidated and right.consolidated,
    )


@st.composite
def key_only_right_case(draw):
    """A left side of 1-3 columns and a right side of 0-2 columns whose every
    column is a join key: one or two key pairs, perhaps one right column
    keyed twice (``ON a = x AND b = x``)."""
    left = draw(side("l", st.integers(1, 3)))
    right = draw(side("r"))
    width = len(right.schema)
    right_positions = list(range(width))
    if width:
        right_positions += draw(st.lists(st.integers(0, width - 1), max_size=1))
    right_positions = draw(st.permutations(right_positions))
    left_position = st.integers(0, len(left.schema) - 1)
    pairs = [(draw(left_position), q) for q in right_positions]
    return left, right, pairs


@settings(max_examples=400, deadline=None)
@given(key_only_right_case())
def test_a_key_only_right_side_joins_as_the_pair_lists_do(case):
    left, right, pairs = case
    joined = kernels.hash_join_batch(left, right, pairs)
    expected = pair_list_join(left, right, pairs)
    assert list(joined.schema) == list(expected.schema)
    assert repr([list(column) for column in joined.columns]) == repr(
        [list(column) for column in expected.columns]
    )
    assert joined.multiplicities == expected.multiplicities
    assert joined.consolidated == expected.consolidated


def test_a_key_only_right_side_builds_no_pair_list(monkeypatch):
    """Left entries keep their order, NULL and NaN keys match nothing (not
    even the same NaN object), duplicate right rows multiply, and the
    columns are built only when read."""
    calls = []
    original = kernels.join_positions
    monkeypatch.setattr(
        kernels, "join_positions", lambda *args: calls.append(1) or original(*args)
    )
    left = ColumnBatch(
        Schema(["a", "b"]),
        [[2, None, NAN, 1.0, 2, 5], ["p", "q", "r", "s", "t", "u"]],
        [1, 1, 1, 2, 3, 1],
    )
    right = ColumnBatch(Schema(["x"]), [[True, NAN, None, 2, 2, 7]], [1, 1, 1, 1, 4, 1])
    joined = kernels.hash_join_batch(left, right, [(0, 0)])
    assert calls == []
    assert joined.multiplicities == [5, 2, 15]
    assert joined.columns[2] == [2, True, 2]
    assert joined.columns[0] == [2, 1.0, 2]
    assert joined.columns[1] == ["p", "s", "t"]
    assert not joined.consolidated


def test_q_join_answers_alike_with_and_without_a_sketch(monkeypatch):
    """``q_join``'s helper side is pruned to its key, so the query's join is a
    semi-join: the sketch-answered query, the full query and the oracle agree
    by ``repr``, also after an update is maintained into the sketch.  A
    sketch answer is read through an index, in another entry order, so it is
    compared as a bag of ``repr``s."""
    database = Database()
    table = load_synthetic(database, num_rows=600, num_groups=30, seed=5)
    load_join_helper(database, num_rows=120, join_selectivity=0.7, join_domain=30, seed=6)
    sql = q_join(filter_threshold=1_200, having_threshold=1_000)
    system = IMPSystem(database, num_fragments=8)
    calls = {"semi": 0, "pairs": 0}
    original_semi, original_pairs = kernels.semi_join_batch, kernels.join_positions

    def semi(*args):
        calls["semi"] += 1
        return original_semi(*args)

    def pairs(*args):
        calls["pairs"] += 1
        return original_pairs(*args)

    monkeypatch.setattr(kernels, "semi_join_batch", semi)
    monkeypatch.setattr(kernels, "join_positions", pairs)
    for _ in range(2):
        full = database.query(sql)
        assert len(full) > 0
        bag = sorted(map(repr, full.items()))
        assert sorted(map(repr, system.run_query(sql).items())) == bag  # captures, then uses
        assert sorted(map(repr, system.run_query(sql).items())) == bag
        assert answer(full) == answer(database.query(sql, vectorize=False))
        system.apply_update("r", inserts=table.make_inserts(30), deletes=table.pick_deletes(20))
    assert system.statistics.sketch_hits >= 3
    assert calls["semi"] >= 4
    assert calls["pairs"] == 0
