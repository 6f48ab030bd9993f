"""Tests for sketch capture, the use rewrite and safety analysis.

The capture tests pin the library to the paper's running example (Fig. 1,
Example 1.1/1.2): the accurate sketch of Q_top is {ρ3, ρ4}, and inserting the
tuple s8 extends it with ρ2.
"""

import math

import pytest

from repro.core.errors import SketchError
from repro.relational.algebra import Selection, TableScan, walk_plan
from repro.imp.engine import capture_sketch
from repro.imp.middleware import IMPSystem
from repro.storage.database import Database
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.safety import SafetyAnalyzer, safe_attributes
from repro.sketch.selection import build_database_partition, build_partition, choose_sketch_attribute
from repro.sketch.sketch import ProvenanceSketch
from repro.sketch.use import instrument_plan, sketch_predicate
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
            [RangePartition.from_boundaries("sales", "price", [1, 10000])]
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


class TestValuesNoRangeHolds:
    """A NULL or NaN partition value lies in no range: its rows carry the
    table's outside fragment, and a sketch holding it does not filter the
    table, so the sketch-answered result keeps them."""

    SQL = "SELECT a, sum(b) AS s FROM t GROUP BY a HAVING sum(b) > 100"

    @pytest.mark.parametrize("odd", [None, math.nan], ids=["null", "nan"])
    @pytest.mark.parametrize("at_capture", [True, False], ids=["captured", "inserted"])
    def test_sketch_answer_equals_full_query(self, odd, at_capture):
        database = Database()
        database.create_table("t", ["id", "a", "b"], primary_key="id")
        database.insert("t", [(i, float(i % 10), 1.0) for i in range(200)])
        row = (1000, odd, 500.0)
        if at_capture:
            database.insert("t", [row])
        imp = IMPSystem(database, num_fragments=4)

        def check(has_row: bool) -> None:
            answer = imp.run_query(self.SQL).to_sorted_list()
            assert repr(answer) == repr(database.query(self.SQL).to_sorted_list())
            assert len(answer) == has_row
            (entry,) = imp.store.entries()
            assert (entry.partition.outside_id("t") in entry.sketch) == has_row

        check(at_capture)
        for _ in range(2):
            if at_capture:
                imp.apply_update("t", deletes=[row])
            else:
                imp.apply_update("t", inserts=[row])
            at_capture = not at_capture
            check(at_capture)

    def test_engine_annotates_like_the_oracle(self):
        database = Database()
        database.create_table("t", ["a", "b"])
        database.insert("t", [(1.0, 1), (None, 2), (math.nan, 3), (7.0, 4)])
        partition = DatabasePartition([RangePartition.from_boundaries("t", "a", [0, 5, 10])])
        plan = database.plan("SELECT a, b FROM t")
        annotated = AnnotatedEvaluator(database, partition).evaluate(plan)
        assert engine_output(plan, partition, database) == annotated.entries()
        assert sorted(capture_sketch(plan, partition, database).fragment_ids()) == [0, 1, 2]


class TestPartitionIgnoresNaN:
    """Equi-depth ranges come from a column's orderable values: NaN, like
    NULL, sits in the table's outside fragment and has no place in the
    histogram."""

    SQL = "SELECT a, sum(b) AS s FROM t GROUP BY a HAVING sum(b) > 100"

    @staticmethod
    def _database(rows) -> Database:
        database = Database()
        database.create_table("t", ["id", "a", "b"], primary_key="id")
        database.insert("t", rows)
        return database

    @pytest.mark.parametrize("position", [0, 1000, 2000], ids=["first", "middle", "last"])
    def test_a_nan_row_leaves_the_ranges_and_the_answer_alone(self, position):
        # 200 groups of ten rows; five groups pass the HAVING.
        rows = [(i, float(i * 7 % 200), 50.0 if i * 7 % 40 == 0 else 1.0) for i in range(2000)]
        plain = self._database(rows)
        odd = self._database([*rows[:position], (5000, math.nan, 1.0), *rows[position:]])
        expected = build_partition(plain, "t", "a", 16)
        assert expected.num_fragments == 16
        assert build_partition(odd, "t", "a", 16).boundaries == expected.boundaries
        statistics = odd.column_statistics("t", "a")
        assert (statistics.minimum, statistics.maximum) == (0.0, 199.0)
        imp = IMPSystem(odd, num_fragments=16)
        for step in range(2):
            answer = imp.run_query(self.SQL).to_sorted_list()
            assert repr(answer) == repr(odd.query(self.SQL).to_sorted_list())
            (entry,) = imp.store.entries()
            assert entry.partition.partition_of("t").boundaries == expected.boundaries
            assert len(entry.sketch) < entry.partition.total_fragments
            inserts = [(6000 + 2 * step, math.nan, 500.0), (6001 + 2 * step, 3.0, 500.0)]
            imp.apply_update("t", inserts=inserts)

    def test_a_column_of_null_and_nan_is_not_numeric(self):
        database = self._database([(i, (None, math.nan)[i % 2], 1.0) for i in range(20)])
        plan = database.plan(self.SQL)
        assert database.column_statistics("t", "a").minimum is None
        assert choose_sketch_attribute(plan, database, "t") == "id"
        with pytest.raises(SketchError, match="empty column"):
            build_partition(database, "t", "a", 4)
        with pytest.raises(SketchError, match="positive"):
            build_partition(database, "t", "id", 0)


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
        assert "d" in analyzer.safe_attributes("s")

    def test_unreferenced_table_has_no_safe_attributes(self, sales_db):
        plan = sales_db.plan(Q_TOP)
        sales_db.create_table("unrelated", ["x"])
        assert safe_attributes(plan, sales_db, "unrelated") == set()


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

    def test_build_partition_is_equi_depth_over_the_whole_domain(self, synthetic_db):
        database, rows = synthetic_db
        partition = build_partition(database, "r", "a", 8)
        interior = database.equi_depth_ranges("r", "a", 8)[1:-1]
        assert partition.boundaries == [-math.inf, *interior, math.inf]
        assert partition.num_fragments == 8
        # Equi-depth: no range holds much more than its share of the rows.
        counts = [0] * partition.num_fragments
        for row in rows:
            counts[partition.fragment_of(row[1])] += 1
        assert max(counts) <= 2 * len(rows) / partition.num_fragments
        with pytest.raises(SketchError, match="positive"):
            build_partition(database, "r", "a", 0)

    def test_repartitioning_is_a_recapture_with_fresh_bounds(self, synthetic_db):
        # After skewed inserts one range holds most rows; re-partitioning
        # builds fresh equi-depth bounds and captures again, and the new
        # sketch answers the query like the full evaluation.
        database, _rows = synthetic_db
        sql = "SELECT a, avg(b) AS ab FROM r GROUP BY a HAVING avg(c) < 500"
        plan = database.plan(sql)
        before = build_database_partition(database, plan, 4).partition_of("r")
        database.insert("r", [(1000 + i, 1000 + i % 40, i % 500, i % 700) for i in range(1800)])
        stale_counts = [0] * before.num_fragments
        for row in database.table("r").rows():
            stale_counts[before.fragment_of(row[1])] += 1
        assert max(stale_counts) > 0.7 * sum(stale_counts)
        fresh = build_database_partition(database, plan, 4)
        assert fresh.partition_of("r").boundaries != before.boundaries
        fresh_counts = [0] * fresh.partition_of("r").num_fragments
        for row in database.table("r").rows():
            fresh_counts[fresh.partition_of("r").fragment_of(row[1])] += 1
        assert max(fresh_counts) < 0.5 * sum(fresh_counts)
        sketch = capture_sketch(plan, fresh, database)
        assert database.query(instrument_plan(plan, sketch)) == database.query(plan)

    def test_build_database_partition(self, join_db):
        plan = join_db.plan(
            "SELECT a, sum(e) AS se FROM r JOIN s ON b = d GROUP BY a HAVING sum(e) > 0"
        )
        partition = build_database_partition(join_db, plan, 6)
        assert "r" in partition.tables()
