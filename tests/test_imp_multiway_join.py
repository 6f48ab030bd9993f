"""Regression tests for multi-way join maintenance with correlated deltas.

These cover the scenario that surfaced a real bug during development: rows
inserted into *both* sides of a join within the same maintenance batch join
with each other (new orders arriving together with their lineitems).  The
Bloom-filter optimization must not prune such delta tuples, otherwise the
maintained sketch loses fragments and stops being an over-approximation.
"""

import pytest

from repro.imp.engine import IMPConfig, IncrementalEngine, capture_sketch
from repro.imp.maintenance import IncrementalMaintainer
from repro.sketch.selection import build_database_partition
from repro.sketch.use import instrument_plan
from repro.storage.database import Database
from repro.workloads.tpch import load_tpch, tpch_having_revenue, tpch_q10


def _assert_superset_and_safe(database, plan, partition, sketch):
    accurate = capture_sketch(plan, partition, database)
    assert set(sketch.fragment_ids()) >= set(accurate.fragment_ids())
    through_sketch = database.query(instrument_plan(plan, sketch))
    assert through_sketch == database.query(plan)


@pytest.mark.parametrize("use_bloom", [True, False])
def test_correlated_inserts_on_both_join_sides(use_bloom):
    """New orders arrive together with their lineitems in every batch."""
    database = Database()
    data = load_tpch(database, scale=0.03, seed=13)
    sql = tpch_having_revenue(threshold=30_000.0)
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, 48)
    engine = IncrementalEngine(
        plan, partition, database, IMPConfig(use_bloom_filters=use_bloom)
    )
    sketch = engine.initialize()
    for _batch in range(4):
        version = database.version
        deletes = data.pick_lineitem_deletes(30)
        if deletes:
            database.delete_rows("lineitem", deletes)
        new_orders, new_lineitems = data.make_order_inserts(30)
        database.insert("orders", new_orders)
        database.insert("lineitem", new_lineitems + data.make_lineitem_inserts(60))
        outcome = engine.maintain(
            database.database_delta_since(plan.referenced_tables(), version), database.version
        )
        assert not outcome.needs_recapture
        sketch = sketch.apply_delta(outcome.sketch_delta)
        _assert_superset_and_safe(database, plan, partition, sketch)


def test_topk_over_multiway_join_stays_safe():
    """The Q10-style top-k query stays safe across correlated update batches."""
    database = Database()
    data = load_tpch(database, scale=0.03, seed=17)
    sql = tpch_q10(k=10)
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, 48)
    maintainer = IncrementalMaintainer(database, plan, partition)
    maintainer.capture()
    for _batch in range(3):
        deletes = data.pick_lineitem_deletes(20)
        if deletes:
            database.delete_rows("lineitem", deletes)
        new_orders, new_lineitems = data.make_order_inserts(25)
        database.insert("orders", new_orders)
        database.insert("lineitem", new_lineitems)
        result = maintainer.maintain()
        _assert_superset_and_safe(database, plan, partition, result.sketch)


def test_middleware_multiway_join_consistency_with_indexes():
    """Through the middleware (indexes + sketch reuse) the answers keep
    matching plain evaluation while orders and lineitems churn."""
    from repro.imp.middleware import IMPSystem

    database = Database()
    data = load_tpch(database, scale=0.03, seed=19)
    system = IMPSystem(database, num_fragments=48)
    sql = tpch_having_revenue(threshold=30_000.0)
    assert sorted(system.run_query(sql).rows()) == sorted(database.query(sql).rows())
    for _batch in range(3):
        new_orders, new_lineitems = data.make_order_inserts(20)
        system.apply_update("orders", new_orders)
        system.apply_update("lineitem", new_lineitems)
        assert sorted(system.run_query(sql).rows()) == sorted(database.query(sql).rows())
