"""A sketch scan trusts its index: every recheck is residual.

* An index range scan fetches the rows whose indexed value lies in the
  intervals :func:`extract_intervals` derives from the selection predicate.
  The conjuncts those intervals prove exactly (:func:`is_exact_bound`:
  comparisons with numbers, BETWEEN, AND/OR trees of them -- a sketch's range
  disjunction) are not checked again; only the rest is filtered, and nothing
  is filtered when nothing is left.
* A hash join checks only the conjuncts that did not become key pairs: its
  keys match under SQL ``=`` (NULL and NaN keys match nothing).

The row oracle re-checks the full predicate and the full join condition, so
engine ≡ oracle by ``repr`` -- entry order, value types and float low bits --
is what proves each elision sound.  The counter tests pin what the elision
saves without reading a clock.  Bucket and entry order decide float sums, so
this file runs under the ``PYTHONHASHSEED`` matrix in CI.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.imp.engine import capture_sketch
from repro.relational import kernels
from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    Selection,
    TableScan,
    walk_plan,
)
from repro.relational.columnar import LazyColumns
from repro.relational.expressions import Between, ColumnRef, Comparison, Literal, LogicalOp
from repro.relational.predicates import Interval, extract_intervals, is_exact_bound
from repro.sketch.selection import build_database_partition
from repro.sketch.use import instrument_plan
from repro.storage.database import Database
from repro.workloads.queries import q_endtoend
from repro.workloads.synthetic import load_join_helper, load_synthetic

NAN = math.nan
BIG = 2**53 + 1
a, b = ColumnRef("a"), ColumnRef("b")


def answer(relation) -> str:
    """A relation compared bit for bit: entry order, types, NaN and low bits."""
    return repr(list(relation.items()))


# -- exact bounds -------------------------------------------------------------------


def test_an_index_keeps_integer_bounds_above_2_53():
    """At the parent ``float()`` rounded the bound 2**53 + 1 to 2**53, so the
    index fetched row 3 and the recheck dropped it: the indexed query lost row 1."""
    database = Database()
    database.create_table("t", ["id", "a"])
    database.insert("t", [(1, BIG), (2, 5), (3, 2**53), (4, -BIG)])
    queries = {
        f"SELECT id FROM t WHERE a = {BIG}": [(1,)],
        f"SELECT id FROM t WHERE a >= {BIG}": [(1,)],
        f"SELECT id FROM t WHERE a < {BIG} AND a > 5": [(3,)],
        f"SELECT id FROM t WHERE a BETWEEN {-BIG} AND {-BIG}": [(4,)],
        f"SELECT id FROM t WHERE {BIG} <= a OR a < 6": [(1,), (2,), (4,)],
    }
    for sql, expected in queries.items():
        assert database.query(sql).to_sorted_list() == expected, sql
    database.create_index("t", "a")
    for sql, expected in queries.items():
        before = database.index_scan_count
        assert database.query(sql).to_sorted_list() == expected, sql
        assert database.index_scan_count == before + 1, sql


def test_bounds_keep_the_literal_and_refuse_nan():
    (interval,) = extract_intervals(Comparison("<", a, Literal(BIG)), "a")
    assert interval == Interval(-math.inf, BIG, True, False)
    assert type(interval.high) is int
    assert extract_intervals(Comparison("=", a, Literal(NAN)), "a") is None
    assert extract_intervals(Between(a, Literal(0), Literal(NAN)), "a") is None


def test_what_the_intervals_prove():
    sketch_like = LogicalOp(
        "OR",
        [
            LogicalOp("AND", [Comparison(">=", a, Literal(1.5)), Comparison("<", a, Literal(4))]),
            Between(ColumnRef("t.a"), Literal(10), Literal(BIG)),
            Comparison(">", Literal(100), a),
        ],
    )
    proven = [
        Comparison("=", a, Literal(3)),
        Comparison("<=", Literal(3), a),
        Between(a, Literal(5), Literal(2)),
        sketch_like,
    ]
    unproven = [
        Comparison("<>", a, Literal(3)),
        Comparison("=", a, Literal(True)),
        Comparison("=", a, Literal(NAN)),
        Comparison("=", a, Literal("3")),
        Comparison("<", a, b),
        Comparison("<", b, Literal(3)),
        Between(a, Literal(0), b),
        LogicalOp("OR", [Comparison("=", a, Literal(3)), Comparison("<", b, Literal(3))]),
        LogicalOp("AND", [a]),
        a,
    ]
    assert all(is_exact_bound(predicate, "a") for predicate in proven)
    assert not any(is_exact_bound(predicate, "a") for predicate in unproven)


# -- engine ≡ oracle over proven and unproven conjuncts -------------------------------

VALUES = st.sampled_from([None, NAN, 0, 1, 1.0, True, False, 2, 2.5, -3, BIG, -BIG, 2**53])
LITERALS = st.sampled_from([0, 1, 1.0, True, 2, 2.5, -3, BIG, -BIG, 2**53, NAN, None])
SUMMANDS = st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 7.25, 2])
OPERATORS = st.sampled_from(["=", "<", "<=", ">", ">=", "<>"])


@st.composite
def comparison(draw):
    """A leaf over ``a`` (indexed) or ``b``: with a literal on either side,
    BETWEEN, or column against column."""
    column = draw(st.sampled_from([a, a, ColumnRef("t.a"), b]))
    kind = draw(st.sampled_from(["literal", "reversed", "between", "columns"]))
    if kind == "between":
        return Between(column, Literal(draw(LITERALS)), Literal(draw(LITERALS)))
    other = Literal(draw(LITERALS)) if kind != "columns" else draw(st.sampled_from([a, b]))
    if kind == "reversed":
        return Comparison(draw(OPERATORS), other, column)
    return Comparison(draw(OPERATORS), column, other)


predicates = st.recursive(
    comparison(),
    lambda children: st.builds(
        LogicalOp, st.sampled_from(["AND", "OR"]), st.lists(children, min_size=1, max_size=3)
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(VALUES, VALUES, SUMMANDS), max_size=14),
    predicates,
    st.booleans(),
)
def test_index_served_selections_equal_the_oracle(rows, predicate, index_b):
    database = Database()
    database.create_table("t", ["id", "a", "b", "w"], primary_key="id")
    database.insert("t", [(i, *row) for i, row in enumerate(rows)])
    database.create_index("t", "a")
    if index_b:
        database.create_index("t", "b")
    selection = Selection(TableScan("t"), predicate)
    plans = [
        selection,
        Aggregation(
            selection,
            [],
            [
                Aggregate(AggregateFunction.SUM, ColumnRef("w"), "s"),
                Aggregate(AggregateFunction.COUNT, None, "n"),
            ],
        ),
    ]
    for plan in plans:
        for optimize in (False, True):
            engine = database.query(plan, optimize_plans=optimize)
            oracle = database.query(plan, optimize_plans=optimize, vectorize=False)
            assert answer(engine) == answer(oracle), (predicate.canonical(), optimize)


JOIN_KEYS = st.one_of(
    st.sampled_from([None, 0, 1, 1.0, True, 2, NAN]),  # NAN: one shared object
    st.builds(float, st.just("nan")),  # a NaN object of its own
)
JOIN_SQL = [
    "SELECT g, k, w FROM t JOIN u ON (g = k)",
    "SELECT g, h, w FROM t JOIN u ON (k = g AND h = l)",
    "SELECT g, w FROM t JOIN u ON (g = k AND h < l)",
    "SELECT g, w FROM t JOIN u ON (g = k AND h <> l)",
    "SELECT g, w FROM t JOIN u ON (g = k AND g = l)",
    "SELECT g, sum(w) AS sw, count(*) AS n FROM t JOIN u ON (g = k) GROUP BY g",
    "SELECT g, sum(v * w) AS s FROM t JOIN u ON (g = k AND h = l) WHERE v < 100 GROUP BY g",
    "SELECT g, avg(w) AS aw FROM t JOIN u ON (g = k) WHERE g >= 1 AND l < 2 GROUP BY g",
    "SELECT h, w FROM t JOIN u ON (g = k) ORDER BY w DESC LIMIT 3",
]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(JOIN_KEYS, JOIN_KEYS, SUMMANDS), max_size=10),
    st.lists(st.tuples(JOIN_KEYS, JOIN_KEYS, SUMMANDS), max_size=8),
    st.booleans(),
)
def test_joins_recheck_only_the_residual(left, right, index_g):
    """Key pairs alone, several, beside theta/``<>`` residuals, under an
    index-served selection, with aggregates and LIMIT above."""
    database = Database()
    database.create_table("t", ["id", "g", "h", "v"], primary_key="id")
    database.insert("t", [(i, *row) for i, row in enumerate(left)])
    database.create_table("u", ["k", "l", "w"])
    database.insert("u", right)
    if index_g:
        database.create_index("t", "g")
    for sql in JOIN_SQL:
        for optimize in (False, True):
            engine = database.query(sql, optimize_plans=optimize)
            oracle = database.query(sql, optimize_plans=optimize, vectorize=False)
            assert answer(engine) == answer(oracle), (sql, optimize)


# -- what the elision saves, counted ---------------------------------------------------


def sketch_database():
    """Synthetic ``r`` indexed on its partition attribute ``a``, and a sketch
    of a selective HAVING query."""
    database = Database()
    load_synthetic(database, num_rows=3000, num_groups=150, seed=3)
    plan = database.plan(q_endtoend(low=800, high=900))
    partition = build_database_partition(database, plan, 32)
    database.create_index("r", "a")
    sketch = capture_sketch(plan, partition, database)
    return database, sketch


def filter_calls(monkeypatch) -> list:
    """Every ``kernels.filter_batch`` call, as the positions of the input's
    columns already built when it came (what its mask read)."""
    calls: list[list[int]] = []
    original = kernels.filter_batch

    def spying(batch, values, strict):
        columns = batch.columns
        if type(columns) is LazyColumns:
            calls.append([i for i, built in enumerate(columns._built) if built is not None])
        else:
            calls.append(list(range(len(columns))))
        return original(batch, values, strict)

    monkeypatch.setattr(kernels, "filter_batch", spying)
    return calls


def test_a_sketch_only_query_runs_no_filter(monkeypatch):
    database, sketch = sketch_database()
    plan = instrument_plan(database.plan("SELECT a, sum(c) AS sc FROM r GROUP BY a"), sketch)
    calls = filter_calls(monkeypatch)
    before = database.index_scan_count
    result = database.query(plan)
    assert database.index_scan_count == before + 1
    assert calls == []
    monkeypatch.undo()
    assert answer(result) == answer(database.query(plan, optimize_plans=False, vectorize=False))


def test_a_where_beside_the_sketch_filters_once_over_its_column(monkeypatch):
    database, sketch = sketch_database()
    sql = "SELECT a, sum(c) AS sc FROM r WHERE b < 400 GROUP BY a"
    plan = instrument_plan(database.plan(sql), sketch)
    calls = filter_calls(monkeypatch)
    result = database.query(plan)
    assert calls == [[database.schema_of("r").index_of("b")]]
    monkeypatch.undo()
    assert answer(result) == answer(database.query(plan, optimize_plans=False, vectorize=False))


def test_an_equi_join_on_its_keys_alone_runs_no_filter(monkeypatch):
    database = Database()
    load_synthetic(database, num_rows=500, num_groups=50, seed=3)
    load_join_helper(database, num_rows=200, join_domain=50, seed=4)
    joined = "SELECT a, ttid FROM r JOIN tjoinhelp ON (a = ttid)"
    # Grouped by the key-only side, the join is a group-join: its one filter
    # keeps the partners of the left keys (it reads only the key), no recheck.
    grouped = "SELECT a, count(*) AS n FROM r JOIN tjoinhelp ON (a = ttid) GROUP BY a"
    for sql, expected in [(joined, []), (grouped, [[0]])]:
        calls = filter_calls(monkeypatch)
        result = database.query(sql)
        assert calls == expected, sql
        monkeypatch.undo()
        assert len(result) > 0
        assert answer(result) == answer(database.query(sql, optimize_plans=False, vectorize=False))


def test_an_index_scan_has_one_entry_per_row_fetched():
    """The benchmark counts ``len(Database.index_scan(...))`` as rows scanned."""
    database, sketch = sketch_database()
    selection = next(
        node
        for node in walk_plan(instrument_plan(database.plan(q_endtoend()), sketch))
        if isinstance(node, Selection) and isinstance(node.child, TableScan)
    )
    intervals = extract_intervals(selection.predicate, "a")
    fetched = database.index_scan("r", "a", intervals)
    position = database.schema_of("r").index_of("a")
    inside = [
        row
        for row in database.table("r").rows()
        if any(
            interval.low <= row[position] <= interval.high
            and (interval.low_inclusive or row[position] != interval.low)
            and (interval.high_inclusive or row[position] != interval.high)
            for interval in intervals
        )
    ]
    assert 0 < len(fetched) == len(fetched.multiplicities) == len(inside) < 3000
    assert sorted(fetched.row_tuples()) == sorted(inside)
