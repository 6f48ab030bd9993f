"""The index lookup join: when it is taken, and that it is the hash join.

When a join's right input is selections over a scan that no index serves and
one key pair's right attribute is indexed, the evaluator fetches only the
index buckets of the left side's distinct keys, re-applies the selections and
hands those rows to the unchanged hash join.  Its answers are held to the
oracle with the rest of ``tests.reference.CATALOGUE`` (the "index lookup
join" shapes).  Here the lookup batch is held to the full-input join column
by column -- what a merge above would hide -- and the counters pin when the
lookup is taken: it replaces a full scan by an index scan, and is declined
past half the table, when an index already serves the selection, and by a
provider without ``index_lookup``.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.imp.middleware import IMPSystem
from repro.relational.algebra import Join, Selection
from repro.relational.evaluator import Evaluator
from repro.relational.expressions import Between, Comparison, Literal
from repro.storage.database import Database
from repro.storage.sessions import SnapshotView
from tests.reference import (
    BIG,
    NAN,
    T,
    U,
    Without,
    answer,
    assert_matches_oracle,
    equal,
    g,
    h,
    k,
    l,
    lookup_joins,
    move,
    oracle,
    tables,
    two_tables,
    w,
)


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
    result = Evaluator(provider, False).evaluate(plan)
    return result, (database.scan_count - before[0], database.index_scan_count - before[1])


@settings(max_examples=150, deadline=None)
@given(tables(), lookup_joins())
def test_the_lookup_batch_is_the_full_join_entry_for_entry(case, join):
    database, moved = case
    if "k" not in database.table("u").indexed_attributes():
        database.create_index("u", "k")
    move(database, moved)
    looked_up = Evaluator(database, False)._batch(join)
    hashed = Evaluator(Without(database, "index_lookup"), False)._batch(join)
    assert looked_up.schema == hashed.schema
    assert repr([list(column) for column in looked_up.columns]) == repr(
        [list(column) for column in hashed.columns]
    )
    assert looked_up.multiplicities == hashed.multiplicities
    assert looked_up.consolidated == hashed.consolidated


def test_the_keys_where_sql_and_dict_equality_part(monkeypatch):
    """One fixed case of every probe key: 1/1.0/True fetch one bucket once,
    NULL and NaN nothing, 2**53 + 1 not its float, a string nothing."""
    probes = [1, 1.0, True, None, NAN, float("nan"), BIG, float(BIG), -BIG, "x", "1", 1]
    database = two_tables(
        [(i, key, 0, 1.0) for i, key in enumerate(probes)],
        [(key, 0, 0.1 * i) for i, key in enumerate([True, 1.0, BIG, float(BIG), NAN, None, 2])]
        + [(i, 1, 0.5) for i in range(40)],
    )
    database.create_index("u", "k")
    join = Join(T, Selection(U, Comparison("<", w, Literal(1))), equal(g, k))
    seen = lookups(monkeypatch)
    assert_matches_oracle(database, join)
    # Each distinct key once, in left order; the key is the first spelling.
    assert repr(seen[0]) == repr([1, None, NAN, float("nan"), BIG, float(BIG), -BIG, "x", "1"])


# -- when the lookup is taken, counted ------------------------------------------------


def lookup_database(probe_keys) -> Database:
    """``t`` probing ``u``: ten ``u`` rows, keys 0..9, indexed on ``k``."""
    database = two_tables(
        [(i, key, 0, 1.0) for i, key in enumerate(probe_keys)],
        [(key, key % 2, 0.25 * key) for key in range(10)],
    )
    database.create_index("u", "k")
    return database


NOT_SERVED = Selection(U, Comparison("<", w, Literal(100)))


def test_a_taken_lookup_swaps_a_full_scan_for_an_index_scan():
    database = lookup_database([3, 1, 3])
    join = Join(T, NOT_SERVED, equal(g, k))
    looked_up, taken = scans(database, database, join)
    hashed, hash_path = scans(database, Without(database, "index_lookup"), join)
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
    assert answer(result) == answer(scans(more, Without(more, "index_lookup"), join)[0])


def test_a_selection_an_index_serves_keeps_the_hash_path(monkeypatch):
    database = lookup_database([3])
    seen = lookups(monkeypatch)
    served = Join(T, Selection(U, Between(k, Literal(2), Literal(4))), equal(g, k))
    result, counted = scans(database, database, served)
    assert counted == scans(database, Without(database, "index_lookup"), served)[1] == (1, 1)
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
    assert answer(result) == answer(oracle(database, sql))
    system = IMPSystem(database, num_fragments=4)
    assert system.run_query(sql) == result
    system.apply_update("u", deletes=[(7, 1, 1.75)], inserts=[(7, 1, 1.5)])
    assert system.run_query(sql) == oracle(database, sql)
