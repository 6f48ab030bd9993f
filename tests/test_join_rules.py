"""The hash join's duplicate rules, the group-join and the semi-join: which
path runs, and what it reads.

``kernels.hash_join_batch`` consolidates a side whose every column is a join
key before it probes, and a join whose right side is only its keys runs as a
semi-join (``kernels.semi_join_batch``, no ``join_positions`` pair lists).  An
aggregation grouped by the one column of a key-only left side is a
group-join: it folds the right side's partners without running the hash
join.  None of them may change an answer: every shape is in
``tests.reference.CATALOGUE`` and held to the oracle by ``repr`` there.  This
file pins what engine ≡ oracle cannot see -- which path ran and what it
merged (spies on the join, the lookup and the merge) -- on fixed cases,
the benchmark's join shape and the TPC-H templates.
"""

from __future__ import annotations

import random

from repro.imp.middleware import IMPSystem
from repro.relational import kernels
from repro.relational.algebra import Aggregation, Join
from repro.relational.columnar import ColumnBatch
from repro.relational.schema import Schema
from repro.storage.database import Database
from repro.workloads.queries import q_join
from repro.workloads.synthetic import load_join_helper, load_synthetic
from repro.workloads.tpch import load_tpch, tpch_having_revenue, tpch_order_volume
from tests.reference import (
    BIG,
    NAN,
    T_KEYS,
    U_PAIRS,
    U_SELECTED,
    aggregate,
    answer,
    engine,
    equal,
    g,
    k,
    oracle,
    two_tables,
    w,
)


def test_a_zero_column_side_is_one_entry():
    """A side with no column is all join key: its rows merge into one."""
    empty = ColumnBatch(Schema([]), [], [2, 3])
    right = ColumnBatch(Schema(["x"]), [[7, 8]], [1, 4], consolidated=True)
    joined = kernels.hash_join_batch(empty, right, [])
    assert joined.row_tuples() == [(7,), (8,)]
    assert joined.multiplicities == [5, 20]
    assert joined.consolidated


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
    assert answer(result) == answer(oracle(database, sql))


# -- the group-join ------------------------------------------------------------------


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
    lefts = [2, True, None, NAN, BIG, 2]
    database = two_tables(
        [(i, key, 0, 0.5) for i, key in enumerate(lefts)],
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
        [aggregate("SUM", w, "s"), aggregate("COUNT", None, "n")],
    )
    seen = spied(monkeypatch)
    result = engine(database, plan, optimize=False)
    assert seen["joins"] == 0
    expected = [((2, 1.0, 2), 1), ((True, 2.0, 4), 1), ((BIG, 4.0, 1), 1)]
    assert repr(list(result.items())) == repr(expected)
    monkeypatch.undo()
    assert answer(result) == answer(oracle(database, plan))


def test_a_small_left_side_looks_its_partners_up(monkeypatch):
    """A key-only left side over a few keys fetches their index buckets and
    folds them; the hash join never runs."""
    database = two_tables(
        [(i, key, 0, 0.5) for i, key in enumerate([7, 3, 7, 3.0])],
        [(i % 20, i % 2, 0.1 * i) for i in range(60)],
    )
    database.create_index("u", "k")
    plan = Aggregation(
        Join(T_KEYS, U_SELECTED, equal(g, k)),
        [g],
        [aggregate("COUNT", None, "n"), aggregate("SUM", w, "s")],
    )
    seen = spied(monkeypatch)
    result = engine(database, plan, optimize=False)
    assert (seen["joins"], seen["lookups"]) == (0, 1)
    assert [row[:2] for row in result.rows()] == [(7, 6), (3, 6)]
    monkeypatch.undo()
    assert answer(result) == answer(oracle(database, plan))


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
        assert answer(result) == answer(oracle(database, sql))


# -- the key-only right side ---------------------------------------------------------


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
        assert answer(full) == answer(oracle(database, sql, optimize=True))
        system.apply_update("r", inserts=table.make_inserts(30), deletes=table.pick_deletes(20))
    assert system.statistics.sketch_hits >= 3
    assert calls["semi"] >= 4
    assert calls["pairs"] == 0
