"""The index lookup join, and duplicate merging at C speed.

When a join's right input is selections over a scan that no index serves and
one key pair's right attribute is indexed, the evaluator fetches only the
index buckets of the left side's distinct keys, re-applies the selections and
hands those rows to the unchanged hash join.  Its output must be the hash
join's over the whole right input, entry for entry: the engine is held to the
row oracle by ``repr`` (entry order, value types, float low bits) over the
keys where SQL equality and dict equality part ways, and the lookup batch to
the full-input join column by column.  The counters pin when the lookup is
taken: it replaces a full scan by an index scan, and is declined past half the
table, when an index already serves the selection, and by a provider without
``index_lookup``.

``ColumnBatch._merged_counts`` counts unit-multiplicity rows with ``Counter``;
it must equal the general merge loop in order, counts and type.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.imp.middleware import IMPSystem
from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    Join,
    OrderItem,
    Selection,
    TableScan,
    TopK,
)
from repro.relational.columnar import ColumnBatch
from repro.relational.evaluator import Evaluator
from repro.relational.expressions import (
    Between,
    ColumnRef,
    Comparison,
    IsNull,
    Literal,
    LogicalOp,
)
from repro.relational.schema import Schema
from repro.storage.database import Database
from repro.storage.sessions import SnapshotView

NAN = math.nan
BIG = 2**53 + 1  # the first int a float cannot hold: float(BIG) == 2**53
NUMBER_KEYS = [None, NAN, 0, 1, 1.0, True, 2, BIG, -BIG, float(BIG), float(-BIG)]
INDEXED_KEYS = st.one_of(
    st.sampled_from(NUMBER_KEYS),  # NAN: one shared object
    st.builds(float, st.just("nan")),  # a NaN object of its own
)
PROBE_KEYS = st.one_of(INDEXED_KEYS, st.sampled_from(["x", "1"]))
SUMMANDS = st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 7.25, 2])

g, h, v = ColumnRef("g"), ColumnRef("h"), ColumnRef("v")
k, l, w = ColumnRef("k"), ColumnRef("l"), ColumnRef("w")
T, U = TableScan("t"), TableScan("u")


def equal(a, b) -> Comparison:
    return Comparison("=", a, b)


def answer(relation) -> str:
    """A relation compared bit for bit: entry order, types, NaN and low bits."""
    return repr(list(relation.items()))


class WithoutLookup:
    """The database as a provider that offers everything but ``index_lookup``."""

    def __init__(self, database: Database) -> None:
        self._database = database

    def __getattr__(self, name: str):
        if name == "index_lookup":
            raise AttributeError(name)
        return getattr(self._database, name)


def lookups(monkeypatch) -> list[list]:
    """The probe keys of every ``Database.index_lookup`` call from now on."""
    seen: list[list] = []
    original = Database.index_lookup

    def spy(self, table, attribute, values, max_share):
        seen.append(list(values))
        return original(self, table, attribute, values, max_share)

    monkeypatch.setattr(Database, "index_lookup", spy)
    return seen


def scans(database: Database, provider, plan):
    """The answer of ``plan`` (literal shape) and the (full, index) scans it cost."""
    before = database.scan_count, database.index_scan_count
    result = Evaluator(provider, optimize_plans=False).evaluate(plan)
    return result, (database.scan_count - before[0], database.index_scan_count - before[1])


# -- the engine against the oracle ---------------------------------------------------


SELECTIONS = {
    "w < 1": Comparison("<", w, Literal(1)),
    "l is not null": IsNull(l, negated=True),
    "w <> 7.25": Comparison("<>", w, Literal(7.25)),
    # Served by the index on k (or on l), so the join keeps the hash path.
    "k between": Between(k, Literal(0), Literal(2)),
    "l < 2": Comparison("<", l, Literal(2)),
}
CONDITIONS = {
    "one pair": equal(g, k),
    "mirrored": equal(k, g),
    "two pairs": LogicalOp("AND", [equal(g, k), equal(h, l)]),
    "second pair indexed": LogicalOp("AND", [equal(h, l), equal(g, k)]),
    "pair and residual": LogicalOp("AND", [equal(g, k), Comparison("<", w, Literal(1))]),
}


def consumers(join) -> list:
    """Plans over ``join`` whose answer hangs on its entry order."""
    count = Aggregate(AggregateFunction.COUNT, None, "n")
    return [
        join,
        Aggregation(
            join,
            [g],
            [
                Aggregate(AggregateFunction.SUM, w, "sw"),
                Aggregate(AggregateFunction.AVG, w, "aw"),
                count,
            ],
        ),
        Aggregation(join, [], [Aggregate(AggregateFunction.SUM, w, "s"), count]),
        TopK(join, 3, [OrderItem(w), OrderItem(g, False)]),
    ]


@st.composite
def lookup_case(draw):
    """Tables ``t`` (probe side, string keys included) and ``u`` (indexed on
    ``k``, perhaps on ``l``), both with duplicate rows, and a join of ``t``
    with one or two selections over ``u``."""
    database = Database()
    database.create_table("t", ["id", "g", "h", "v"])
    database.create_table("u", ["k", "l", "w"])
    database.create_index("u", "k")
    if draw(st.booleans()):
        database.create_index("u", "l")
    t_rows = draw(
        st.lists(
            st.tuples(st.integers(0, 2), PROBE_KEYS, st.sampled_from([None, 0, 1]), SUMMANDS),
            max_size=8,
        )
    )
    u_rows = draw(
        st.lists(st.tuples(INDEXED_KEYS, st.sampled_from([None, 0, 1]), SUMMANDS), max_size=12)
    )
    # Rows drawn again are inserted again: multiplicities above one.
    for table, rows in (("t", t_rows), ("u", u_rows)):
        again = draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
        database.insert(table, rows + again)
    predicates = draw(st.lists(st.sampled_from(sorted(SELECTIONS)), min_size=1, max_size=2))
    right = U
    for name in predicates:
        right = Selection(right, SELECTIONS[name])
    left = T if draw(st.booleans()) else Selection(T, Comparison(">", v, Literal(0)))
    condition = CONDITIONS[draw(st.sampled_from(sorted(CONDITIONS)))]
    moved = draw(st.lists(st.sampled_from(u_rows), max_size=2)) if u_rows else []
    return database, Join(left, right, condition), moved


def assert_engine_equals_oracle(database: Database, join) -> None:
    for plan in consumers(join):
        for optimize in (False, True):
            engine = database.query(plan, optimize_plans=optimize)
            oracle = database.query(plan, optimize_plans=optimize, vectorize=False)
            assert answer(engine) == answer(oracle), (plan.explain(), optimize)


@settings(max_examples=150, deadline=None)
@given(lookup_case())
def test_engine_equals_the_oracle_bit_for_bit(case):
    database, join, moved = case
    assert_engine_equals_oracle(database, join)
    # Delete and re-insert: the row moves to the end of its bucket and of the
    # table batch alike, so the lookup still reads partners in batch order.
    for row in moved:
        database.delete_rows("u", [row])
        database.insert("u", [row])
    assert_engine_equals_oracle(database, join)


@settings(max_examples=150, deadline=None)
@given(lookup_case())
def test_the_lookup_batch_is_the_full_join_entry_for_entry(case):
    database, join, moved = case
    for row in moved:
        database.delete_rows("u", [row])
        database.insert("u", [row])
    looked_up = Evaluator(database, optimize_plans=False)._batch(join)
    hashed = Evaluator(WithoutLookup(database), optimize_plans=False)._batch(join)
    assert looked_up.schema == hashed.schema
    assert repr([list(column) for column in looked_up.columns]) == repr(
        [list(column) for column in hashed.columns]
    )
    assert looked_up.multiplicities == hashed.multiplicities
    assert looked_up.consolidated == hashed.consolidated


def test_the_keys_where_sql_and_dict_equality_part(monkeypatch):
    """One fixed case of every probe key: 1/1.0/True fetch one bucket once,
    NULL and NaN nothing, 2**53 + 1 not its float, a string nothing."""
    database = Database()
    database.create_table("t", ["id", "g", "h", "v"])
    database.create_table("u", ["k", "l", "w"])
    database.create_index("u", "k")
    probes = [1, 1.0, True, None, NAN, float("nan"), BIG, float(BIG), -BIG, "x", "1", 1]
    database.insert("t", [(i, key, 0, 1.0) for i, key in enumerate(probes)])
    database.insert(
        "u",
        [(key, 0, 0.1 * i) for i, key in enumerate([True, 1.0, BIG, float(BIG), NAN, None, 2])]
        + [(i, 1, 0.5) for i in range(40)],
    )
    join = Join(T, Selection(U, Comparison("<", w, Literal(1))), equal(g, k))
    seen = lookups(monkeypatch)
    assert_engine_equals_oracle(database, join)
    # Each distinct key once, in left order; the key is the first spelling.
    assert repr(seen[0]) == repr([1, None, NAN, float("nan"), BIG, float(BIG), -BIG, "x", "1"])


# -- when the lookup is taken, counted ------------------------------------------------


def lookup_database(probe_keys) -> Database:
    """``t`` probing ``u``: ten ``u`` rows, keys 0..9, indexed on ``k``."""
    database = Database()
    database.create_table("t", ["id", "g", "h", "v"])
    database.create_table("u", ["k", "l", "w"])
    database.insert("t", [(i, key, 0, 1.0) for i, key in enumerate(probe_keys)])
    database.insert("u", [(key, key % 2, 0.25 * key) for key in range(10)])
    database.create_index("u", "k")
    return database


NOT_SERVED = Selection(U, Comparison("<", w, Literal(100)))


def test_a_taken_lookup_swaps_a_full_scan_for_an_index_scan():
    database = lookup_database([3, 1, 3])
    join = Join(T, NOT_SERVED, equal(g, k))
    looked_up, taken = scans(database, database, join)
    hashed, hash_path = scans(database, WithoutLookup(database), join)
    assert hash_path == (2, 0)
    assert taken == (1, 1)
    assert answer(looked_up) == answer(hashed)
    assert [row[1] for row in looked_up.rows()] == [3, 1, 3]


def test_at_most_half_the_table_is_looked_up():
    """Five of ten rows are taken; six keep the hash path."""
    join = Join(T, NOT_SERVED, equal(g, k))
    half = lookup_database([0, 1, 2, 3, 4, 4, 99, None])
    assert scans(half, half, join)[1] == (1, 1)
    more = lookup_database([0, 1, 2, 3, 4, 5])
    result, counted = scans(more, more, join)
    assert counted == (2, 0)
    assert answer(result) == answer(scans(more, WithoutLookup(more), join)[0])


def test_a_selection_an_index_serves_keeps_the_hash_path(monkeypatch):
    database = lookup_database([3])
    seen = lookups(monkeypatch)
    served = Join(T, Selection(U, Between(k, Literal(2), Literal(4))), equal(g, k))
    result, counted = scans(database, database, served)
    assert counted == scans(database, WithoutLookup(database), served)[1] == (1, 1)
    assert len(result) == 1
    assert seen == []


def test_other_right_inputs_keep_the_hash_path():
    """A bare scan, a constant selection, no indexed key: no lookup."""
    database = lookup_database([3])
    for join in [
        Join(T, U, equal(g, k)),
        Join(T, Selection(U, Literal(True)), equal(g, k)),
        Join(T, NOT_SERVED, equal(h, l)),
        Join(T, NOT_SERVED, Comparison("<", g, k)),
    ]:
        assert scans(database, database, join)[1] == (2, 0), join.explain()


def test_a_provider_without_index_lookup_keeps_the_hash_path():
    database = lookup_database([3, 1])
    assert not hasattr(SnapshotView(database, database.version), "index_lookup")
    join = Join(T, NOT_SERVED, equal(g, k))
    with database.connect() as session:
        before = database.index_scan_count
        pinned = session.query(join)
        assert database.index_scan_count == before
    assert answer(pinned) == answer(database.query(join))


def test_through_sql_and_the_imp_system():
    """An optimized SQL join whose right input stays a selection over ``u``."""
    database = lookup_database([3, 1, 7, 7])
    sql = "SELECT id, k, l, w FROM t JOIN u ON (g = k) WHERE w < 30"
    before = database.scan_count, database.index_scan_count
    result = database.query(sql)
    assert (database.scan_count - before[0], database.index_scan_count - before[1]) == (1, 1)
    assert answer(result) == answer(database.query(sql, optimize_plans=False, vectorize=False))
    system = IMPSystem(database, num_fragments=4)
    assert system.run_query(sql) == result
    system.apply_update("u", deletes=[(7, 1, 1.75)], inserts=[(7, 1, 1.5)])
    assert system.run_query(sql) == database.query(sql, optimize_plans=False, vectorize=False)


# -- duplicate merging ----------------------------------------------------------------


def merge_loop(rows, multiplicities) -> dict:
    counts: dict = {}
    for row, multiplicity in zip(rows, multiplicities):
        counts[row] = counts.get(row, 0) + multiplicity
    return counts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(INDEXED_KEYS, st.sampled_from([0, "a"])), max_size=30))
def test_the_unit_multiplicity_merge_equals_the_loop(rows):
    schema = Schema(["a", "b"])
    unit = ColumnBatch.from_items(schema, [(row, 1) for row in rows])
    counts = unit._merged_counts()
    assert type(counts) is dict
    assert repr(list(counts.items())) == repr(list(merge_loop(rows, [1] * len(rows)).items()))
    # The general path: the same rows at multiplicity 2 merge to twice the counts.
    doubled = ColumnBatch.from_items(schema, [(row, 2) for row in rows])._merged_counts()
    assert type(doubled) is dict
    assert repr(list(doubled)) == repr(list(counts))
    assert list(doubled.values()) == [2 * n for n in counts.values()]
    merged = unit.consolidate()
    assert repr(merged.row_tuples()) == repr(list(counts))
    assert merged.multiplicities == list(counts.values())
