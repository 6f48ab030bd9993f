"""Tests for sketch capture, the use rewrite and safety analysis.

The capture tests pin the library to the paper's running example (Fig. 1,
Example 1.1/1.2): the accurate sketch of Q_top is {ρ3, ρ4}, and inserting the
tuple s8 extends it with ρ2.
"""

import pytest

from repro.relational.algebra import Selection, TableScan, walk_plan
from repro.imp.engine import capture_sketch
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.safety import SafetyAnalyzer, safe_attributes
from repro.sketch.selection import build_database_partition, build_partition, choose_sketch_attribute
from repro.sketch.sketch import ProvenanceSketch
from repro.sketch.use import estimated_selectivity, instrument_plan, sketch_predicate
from tests.conftest import Q_TOP, S8
from tests.reference import AnnotatedEvaluator, engine_output


class TestCapturePaperExample:
    def test_sketch_of_running_example(self, sales_db, sales_partition):
        plan = sales_db.plan(Q_TOP)
        sketch = capture_sketch(plan, sales_partition, sales_db)
        # ρ3 = [1001, 1500] and ρ4 = [1501, 10000] are fragments 2 and 3.
        assert sorted(sketch.fragment_ids()) == [2, 3]

    def test_sketch_after_inserting_s8_gains_rho2(self, sales_db, sales_partition):
        plan = sales_db.plan(Q_TOP)
        sales_db.insert("sales", [S8])
        sketch = capture_sketch(plan, sales_partition, sales_db)
        assert sorted(sketch.fragment_ids()) == [1, 2, 3]

    def test_annotated_result_matches_plain_result(self, sales_db, sales_partition):
        plan = sales_db.plan(Q_TOP)
        annotated = AnnotatedEvaluator(sales_db, sales_partition).evaluate(plan)
        plain = sales_db.query(plan)
        assert annotated.to_relation() == plain
        # The engine's from-scratch pass emits the oracle's annotated tuples.
        assert engine_output(plan, sales_partition, sales_db) == annotated.entries()

    def test_unpartitioned_table_gets_empty_annotations(self, sales_db):
        partition = DatabasePartition([RangePartition("other", "x", [0, 1])])
        plan = sales_db.plan("SELECT brand FROM sales WHERE price > 1000")
        # 'sales' has no partition in Φ, so annotations are empty and the
        # captured sketch is empty (equivalent to a single all-covering range).
        assert len(AnnotatedEvaluator(sales_db, partition).capture(plan)) == 0
        assert len(capture_sketch(plan, partition, sales_db)) == 0
        assert all(not annotation for _row, annotation in engine_output(plan, partition, sales_db))


class TestCaptureOperators:
    def test_join_unions_annotations(self, join_db):
        plan = join_db.plan(
            "SELECT a, sum(e) AS se FROM r JOIN s ON b = d GROUP BY a HAVING sum(e) > 0"
        )
        partition = build_database_partition(join_db, plan, 8)
        sketch = capture_sketch(plan, partition, join_db)
        assert len(sketch) > 0

    def test_distinct_capture(self, synthetic_db):
        database, _rows = synthetic_db
        plan = database.plan("SELECT DISTINCT a FROM r WHERE b < 100")
        partition = DatabasePartition([build_partition(database, "r", "a", 10)])
        sketch = capture_sketch(plan, partition, database)
        instrumented = instrument_plan(plan, sketch)
        assert database.query(instrumented) == database.query(plan)

    def test_topk_capture_covers_topk_groups(self, synthetic_db):
        database, _rows = synthetic_db
        plan = database.plan("SELECT a, avg(b) AS ab FROM r GROUP BY a ORDER BY a LIMIT 3")
        partition = DatabasePartition([build_partition(database, "r", "a", 10)])
        sketch = capture_sketch(plan, partition, database)
        instrumented = instrument_plan(plan, sketch)
        assert database.query(instrumented) == database.query(plan)


class TestUseRewrite:
    def test_sketch_predicate_merges_adjacent_ranges(self, sales_db, sales_partition):
        sketch = ProvenanceSketch(sales_partition, [2, 3])
        predicate = sketch_predicate(sketch, "sales")
        text = predicate.canonical()
        assert "1001" in text and "10000" in text
        # Adjacent ranges collapse into a single conjunction (one BETWEEN).
        assert "OR" not in text

    def test_empty_sketch_yields_contradiction(self, sales_partition):
        sketch = ProvenanceSketch.empty(sales_partition)
        predicate = sketch_predicate(sketch, "sales")
        assert predicate.canonical() == "(1 = 0)"

    def test_unpartitioned_table_has_no_predicate(self, sales_partition):
        sketch = ProvenanceSketch.full(sales_partition)
        assert sketch_predicate(sketch, "unrelated") is None

    def test_full_coverage_skips_filtering(self, sales_db):
        partition = DatabasePartition(
            [RangePartition.from_boundaries("sales", "price", [1, 10000], cover_domain=True)]
        )
        sketch = ProvenanceSketch.full(partition)
        assert sketch_predicate(sketch, "sales") is None

    def test_instrumented_plan_filters_scans(self, sales_db, sales_partition):
        plan = sales_db.plan(Q_TOP)
        sketch = ProvenanceSketch(sales_partition, [2, 3])
        instrumented = instrument_plan(plan, sketch)
        scans_with_filter = [
            node
            for node in walk_plan(instrumented)
            if isinstance(node, Selection) and isinstance(node.child, TableScan)
        ]
        assert scans_with_filter

    def test_instrumented_query_result_is_unchanged(self, sales_db, sales_partition):
        plan = sales_db.plan(Q_TOP)
        sketch = capture_sketch(plan, sales_partition, sales_db)
        instrumented = instrument_plan(plan, sketch)
        assert sales_db.query(instrumented) == sales_db.query(plan)

    def test_estimated_selectivity(self, sales_partition):
        half = ProvenanceSketch(sales_partition, [0, 1])
        assert estimated_selectivity(half, "sales") == 0.5
        assert estimated_selectivity(half, "unknown") == 1.0


class TestSafety:
    def test_group_by_attribute_is_safe(self, sales_db):
        plan = sales_db.plan(Q_TOP)
        assert "brand" in safe_attributes(plan, sales_db, "sales")

    def test_monotone_having_makes_all_attributes_safe(self, sales_db):
        plan = sales_db.plan(Q_TOP)
        # SUM(...) > c is monotone, so even non-group attributes are safe.
        assert "price" in safe_attributes(plan, sales_db, "sales")

    def test_non_monotone_having_restricts_to_group_attributes(self, sales_db):
        plan = sales_db.plan(
            "SELECT brand, avg(price) AS ap FROM sales GROUP BY brand HAVING avg(price) > 1000"
        )
        safe = safe_attributes(plan, sales_db, "sales")
        assert "brand" in safe
        assert "price" not in safe

    def test_monotone_queries_allow_everything(self, sales_db):
        plan = sales_db.plan("SELECT brand FROM sales WHERE price > 100")
        safe = safe_attributes(plan, sales_db, "sales")
        assert safe == {"sid", "brand", "productname", "price", "numsold"}

    def test_topk_restricts_to_group_attributes(self, synthetic_db):
        database, _rows = synthetic_db
        plan = database.plan("SELECT a, avg(b) AS ab FROM r GROUP BY a ORDER BY a LIMIT 5")
        safe = safe_attributes(plan, database, "r")
        assert "a" in safe
        assert "b" not in safe

    def test_join_equivalence_propagates_safety(self, join_db):
        plan = join_db.plan(
            "SELECT d, sum(c) AS sc FROM r JOIN s ON a = d GROUP BY d HAVING avg(c) < 500"
        )
        analyzer = SafetyAnalyzer(plan, join_db)
        # a is join-equivalent to the group-by attribute d.
        assert "a" in analyzer.safe_attributes("r")
        assert analyzer.is_safe("s", "d")

    def test_unreferenced_table_has_no_safe_attributes(self, sales_db):
        plan = sales_db.plan(Q_TOP)
        sales_db.create_table("unrelated", ["x"])
        assert safe_attributes(plan, sales_db, "unrelated") == set()

    def test_partitionable_tables(self, sales_db):
        analyzer = SafetyAnalyzer(sales_db.plan(Q_TOP), sales_db)
        assert analyzer.partitionable_tables() == {"sales"}


class TestAttributeSelection:
    def test_prefers_numeric_group_by_attribute(self, synthetic_db):
        database, _rows = synthetic_db
        plan = database.plan("SELECT a, avg(b) AS ab FROM r GROUP BY a HAVING avg(c) < 500")
        assert choose_sketch_attribute(plan, database, "r") == "a"

    def test_returns_none_without_safe_numeric_attribute(self, sales_db):
        plan = sales_db.plan(
            "SELECT productname, avg(price) AS ap FROM sales "
            "GROUP BY productname HAVING avg(price) > 1000"
        )
        # The only safe attribute (productname) is non-numeric.
        assert choose_sketch_attribute(plan, sales_db, "sales") is None

    def test_build_partition_equi_depth_and_width(self, synthetic_db):
        database, _rows = synthetic_db
        depth = build_partition(database, "r", "a", 8, method="equi-depth")
        width = build_partition(database, "r", "a", 8, method="equi-width")
        assert depth.num_fragments <= 8
        assert width.num_fragments == 8
        with pytest.raises(Exception):
            build_partition(database, "r", "a", 0)

    def test_build_database_partition(self, join_db):
        plan = join_db.plan(
            "SELECT a, sum(e) AS se FROM r JOIN s ON b = d GROUP BY a HAVING sum(e) > 0"
        )
        partition = build_database_partition(join_db, plan, 6)
        assert "r" in partition.tables()
