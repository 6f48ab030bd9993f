"""Integration tests that replay the paper's narrative end to end.

These tests walk through Examples 1.1, 1.2, 4.1, 4.2 and 5.1/5.2 of the paper
and through the full middleware loop (capture -> stale -> incremental
maintenance -> use) on every dataset family used in the evaluation.
"""

import pytest

from repro.imp.engine import IncrementalEngine, capture_sketch
from repro.imp.middleware import FullMaintenanceSystem, IMPSystem, NoSketchSystem
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.use import instrument_plan, sketch_predicate
from repro.storage.database import Database
from repro.workloads.crimes import crimes_q2, CRIMES_Q1, load_crimes
from repro.workloads.queries import q_endtoend, q_groups
from repro.workloads.synthetic import load_synthetic
from repro.workloads.tpch import load_tpch, tpch_having_revenue, tpch_q10
from tests.conftest import Q_TOP, S8
from tests.reference import AnnotatedEvaluator, engine_output


class TestRunningExample:
    """Example 1.1 / 1.2: the sales database, Q_top and the insertion of s8."""

    def test_example_1_1_query_result(self, sales_db):
        result = sales_db.query(Q_TOP)
        assert sorted(result.rows()) == [("Apple", 5074.0)]

    def test_example_1_1_sketch_is_rho3_rho4(self, sales_db, sales_partition):
        sketch = capture_sketch(sales_db.plan(Q_TOP), sales_partition, sales_db)
        ranges = sketch.ranges_for("sales")
        assert [(r.low, r.high) for r in ranges] == [(1001.0, 1501.0), (1501.0, 10000.0)]

    def test_example_1_1_use_rewrite_filters_by_price(self, sales_db, sales_partition):
        sketch = capture_sketch(sales_db.plan(Q_TOP), sales_partition, sales_db)
        predicate = sketch_predicate(sketch, "sales")
        assert "price" in predicate.canonical()
        instrumented = instrument_plan(sales_db.plan(Q_TOP), sketch)
        assert sales_db.query(instrumented) == sales_db.query(Q_TOP)

    def test_example_1_2_stale_sketch_misses_hp(self, sales_db, sales_partition):
        plan = sales_db.plan(Q_TOP)
        stale_sketch = capture_sketch(plan, sales_partition, sales_db)
        sales_db.insert("sales", [S8])
        # The full query now returns HP as well ...
        full = sorted(sales_db.query(Q_TOP).rows())
        assert full == [("Apple", 5074.0), ("HP", 6194.0)]
        # ... but the stale sketch misses ρ2 and produces a wrong answer.
        through_stale = sorted(sales_db.query(instrument_plan(plan, stale_sketch)).rows())
        assert through_stale == [("Apple", 5074.0)]

    def test_example_1_2_incremental_maintenance_repairs_the_sketch(
        self, sales_db, sales_partition
    ):
        plan = sales_db.plan(Q_TOP)
        engine = IncrementalEngine(plan, sales_partition, sales_db)
        sketch = engine.initialize()
        version = sales_db.version
        sales_db.insert("sales", [S8])
        outcome = engine.maintain(
            sales_db.database_delta_since(["sales"], version), sales_db.version
        )
        maintained = sketch.apply_delta(outcome.sketch_delta)
        assert sorted(maintained.fragment_ids()) == [1, 2, 3]
        through_maintained = sorted(
            sales_db.query(instrument_plan(plan, maintained)).rows()
        )
        assert through_maintained == [("Apple", 5074.0), ("HP", 6194.0)]

    def test_example_4_2_annotation_of_s8(self, sales_db, sales_partition):
        # s8.price = 1299 belongs to ρ3 which is fragment index 2.
        assert sales_partition.fragment_of("sales", 1299) == 2


class TestExample51:
    """Example 5.1: the two-table query maintained under an insertion into R."""

    @pytest.fixture()
    def example_db(self) -> tuple[Database, DatabasePartition]:
        database = Database()
        database.create_table("r", ["a", "b"])
        database.create_table("s", ["c", "d"])
        database.insert("r", [(1, 7), (9, 9)])
        database.insert("s", [(6, 9), (7, 8)])
        partition = DatabasePartition(
            [
                RangePartition("r", "a", [1, 6, 10]),
                RangePartition("s", "c", [1, 7, 15]),
            ]
        )
        return database, partition

    SQL = (
        "SELECT a, sum(c) AS sc FROM (SELECT a, b FROM r WHERE a > 3) tt "
        "JOIN s ON (b = d) GROUP BY a HAVING sum(c) > 5"
    )

    def test_initial_sketch_is_f2_g1(self, example_db):
        database, partition = example_db
        sketch = capture_sketch(database.plan(self.SQL), partition, database)
        # f2 is fragment 1 of r; g1 is fragment 0 of s (global id 2).
        assert sketch.contains_fragment("r", 1)
        assert sketch.contains_fragment("s", 0)
        assert len(sketch) == 2

    def test_insertion_adds_f1_and_g2(self, example_db):
        database, partition = example_db
        plan = database.plan(self.SQL)
        engine = IncrementalEngine(plan, partition, database)
        engine.initialize()
        version = database.version
        database.insert("r", [(5, 8)])
        outcome = engine.maintain(
            database.database_delta_since(["r", "s"], version), database.version
        )
        added = outcome.sketch_delta.added
        assert partition.global_id("r", 0) in added  # f1
        assert partition.global_id("s", 1) in added  # g2
        assert not outcome.sketch_delta.removed

    def test_example_52_deletion_drops_unjustified_range(self, example_db):
        database, partition = example_db
        plan = database.plan(self.SQL)
        engine = IncrementalEngine(plan, partition, database)
        sketch = engine.initialize()
        version = database.version
        # Deleting (9, 9) removes the only tuple justifying f2 and g1.
        database.delete_rows("r", [(9, 9)])
        outcome = engine.maintain(
            database.database_delta_since(["r", "s"], version), database.version
        )
        maintained = sketch.apply_delta(outcome.sketch_delta)
        accurate = capture_sketch(plan, partition, database)
        assert set(maintained.fragment_ids()) == set(accurate.fragment_ids())


class TestAnnotatedSemantics:
    def test_annotated_evaluation_matches_figure_5(self):
        database = Database()
        database.create_table("r", ["a", "b"])
        database.create_table("s", ["c", "d"])
        database.insert("r", [(1, 7), (9, 9), (5, 8)])
        database.insert("s", [(6, 9), (7, 8)])
        partition = DatabasePartition(
            [RangePartition("r", "a", [1, 6, 10]), RangePartition("s", "c", [1, 7, 15])]
        )
        plan = database.plan(TestExample51.SQL)
        expected = {
            (5, 7.0): frozenset({partition.global_id("r", 0), partition.global_id("s", 1)}),
            (9, 6.0): frozenset({partition.global_id("r", 1), partition.global_id("s", 0)}),
        }
        oracle = AnnotatedEvaluator(database, partition).evaluate(plan).entries()
        for entries in (oracle, engine_output(plan, partition, database)):
            by_row = {row: annotation for row, annotation in entries}
            assert {row: by_row[row] for row in expected} == expected


class TestEndToEndSystems:
    def test_synthetic_mixed_usage_consistency(self):
        reference_db = Database()
        reference_table = load_synthetic(reference_db, num_rows=1200, num_groups=30, seed=8)
        imp_db = Database()
        load_synthetic(imp_db, num_rows=1200, num_groups=30, seed=8)
        fm_db = Database()
        load_synthetic(fm_db, num_rows=1200, num_groups=30, seed=8)

        imp = IMPSystem(imp_db, num_fragments=16)
        fm = FullMaintenanceSystem(fm_db, num_fragments=16)
        ns = NoSketchSystem(reference_db)

        queries = [q_groups(threshold=900), q_endtoend(low=50, high=1800)]
        for _round in range(3):
            deletes = reference_table.pick_deletes(4)
            inserts = reference_table.make_inserts(12)
            for system in (imp, fm, ns):
                system.apply_update("r", inserts, deletes)
            for sql in queries:
                answers = {
                    name: sorted(system.run_query(sql).rows())
                    for name, system in (("imp", imp), ("fm", fm), ("ns", ns))
                }
                assert answers["imp"] == answers["ns"]
                assert answers["fm"] == answers["ns"]
        assert imp.statistics.sketch_captures == len(queries)

    def test_tpch_maintenance_round_trip(self):
        database = Database()
        data = load_tpch(database, scale=0.02, seed=9)
        system = IMPSystem(database, num_fragments=12)
        sql = tpch_having_revenue(threshold=10_000.0)
        baseline = sorted(database.query(sql).rows())
        assert sorted(system.run_query(sql).rows()) == baseline
        deletes = data.pick_lineitem_deletes(10)
        inserts = data.make_lineitem_inserts(25)
        system.apply_update("lineitem", inserts, deletes)
        assert sorted(system.run_query(sql).rows()) == sorted(database.query(sql).rows())
        assert sorted(system.run_query(tpch_q10(k=5)).rows()) == sorted(
            database.query(tpch_q10(k=5)).rows()
        )

    def test_crimes_maintenance_round_trip(self):
        database = Database()
        data = load_crimes(database, num_rows=4000, seed=5)
        system = IMPSystem(database, num_fragments=20)
        cq2 = crimes_q2(threshold=10)
        assert sorted(system.run_query(cq2).rows()) == sorted(database.query(cq2).rows())
        crime_deletes = data.pick_deletes(20)
        system.apply_update("crimes", data.make_inserts(40), crime_deletes)
        assert sorted(system.run_query(cq2).rows()) == sorted(database.query(cq2).rows())
        assert sorted(system.run_query(CRIMES_Q1).rows()) == sorted(
            database.query(CRIMES_Q1).rows()
        )
