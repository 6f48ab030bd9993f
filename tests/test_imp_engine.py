"""Tests for the incremental engine: operator semantics and Theorem 6.1.

The central invariant (fragment correctness / Theorem 6.1) is checked by
comparing the incrementally maintained sketch against a freshly captured one
after every update: the maintained sketch must be a superset of the accurate
sketch, and for the supported operators it is in fact exactly equal.
"""

import random

import pytest

from repro.core.errors import PlanError
from repro.imp.engine import IMPConfig, IncrementalEngine, capture_sketch, compile_plan
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.operators import _PAIR_BATCH, EngineStatistics, IncrementalTopK, Pass
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from tests.conftest import Q_TOP, S8
from tests.reference import AnnotatedEvaluator, engine_output


def walk_operators(engine):
    """Every operator of the engine's compiled tree."""
    stack = [engine._merge]
    while stack:
        operator = stack.pop()
        yield operator
        stack.extend(operator.children())


def maintained_matches_truth(engine, maintainer_sketch, plan, partition, database):
    """Assert the over-approximation invariant and return whether it is exact."""
    truth = capture_sketch(plan, partition, database)
    maintained = set(maintainer_sketch.fragment_ids())
    accurate = set(truth.fragment_ids())
    assert maintained >= accurate, "maintained sketch misses provenance fragments"
    return maintained == accurate


class TestEngineBasics:
    def test_initialize_captures_same_sketch_as_capture_query(
        self, sales_db, sales_partition
    ):
        plan = sales_db.plan(Q_TOP)
        engine = IncrementalEngine(plan, sales_partition, sales_db)
        sketch = engine.initialize()
        reference = capture_sketch(plan, sales_partition, sales_db)
        assert set(sketch.fragment_ids()) == set(reference.fragment_ids())
        assert engine.is_initialized

    def test_maintain_before_initialize_rejected(self, sales_db, sales_partition):
        engine = IncrementalEngine(sales_db.plan(Q_TOP), sales_partition, sales_db)
        with pytest.raises(PlanError):
            engine.maintain(sales_db.database_delta_since(["sales"], 0), sales_db.version)

    def test_maintain_without_a_delta_rejected(self, sales_db, sales_partition):
        """No delta is what a from-scratch pass carries; over built state it
        would count the whole database twice."""
        engine = IncrementalEngine(sales_db.plan(Q_TOP), sales_partition, sales_db)
        sketch = engine.initialize()
        with pytest.raises(PlanError):
            engine.maintain(None, sales_db.version)
        assert engine.current_sketch() == sketch

    def test_paper_example_insertion_adds_rho2(self, sales_db, sales_partition):
        plan = sales_db.plan(Q_TOP)
        engine = IncrementalEngine(plan, sales_partition, sales_db)
        engine.initialize()
        version = sales_db.version
        sales_db.insert("sales", [S8])
        outcome = engine.maintain(
            sales_db.database_delta_since(["sales"], version), sales_db.version
        )
        assert outcome.sketch_delta.added == frozenset({1})
        assert not outcome.sketch_delta.removed

    def test_deletion_removes_unjustified_fragment(self, sales_db, sales_partition):
        plan = sales_db.plan(Q_TOP)
        engine = IncrementalEngine(plan, sales_partition, sales_db)
        engine.initialize()
        version = sales_db.version
        # Deleting the MacBook Pro drops Apple below the HAVING threshold.
        sales_db.delete_rows("sales", [(4, "Apple", "MacBook Pro 14-inch", 3875, 1)])
        outcome = engine.maintain(
            sales_db.database_delta_since(["sales"], version), sales_db.version
        )
        assert outcome.sketch_delta.removed == frozenset({2, 3})

    def test_empty_delta_produces_empty_sketch_delta(self, sales_db, sales_partition):
        plan = sales_db.plan(Q_TOP)
        engine = IncrementalEngine(plan, sales_partition, sales_db)
        engine.initialize()
        outcome = engine.maintain(
            sales_db.database_delta_since(["sales"], sales_db.version), sales_db.version
        )
        assert not outcome.sketch_delta

    def test_explain_lists_operators(self, sales_db, sales_partition):
        engine = IncrementalEngine(sales_db.plan(Q_TOP), sales_partition, sales_db)
        text = engine.explain()
        assert "MergeOperator" in text
        assert "IncAggregation" in text
        assert "IncTableAccess(sales)" in text

    def test_reset_discards_state(self, sales_db, sales_partition):
        engine = IncrementalEngine(sales_db.plan(Q_TOP), sales_partition, sales_db)
        engine.initialize()
        engine.reset()
        assert not engine.is_initialized

    def test_unsupported_plan_node_raises(self, sales_db, sales_partition):
        class Strange:
            pass

        from repro.relational.algebra import PlanNode

        class StrangeNode(PlanNode):
            def children(self):
                return ()

            def output_schema(self, catalog):
                raise NotImplementedError

            def describe(self):
                return "Strange"

        with pytest.raises(PlanError):
            IncrementalEngine(StrangeNode(), sales_partition, sales_db)


def run_random_maintenance(
    database: Database,
    sql: str,
    num_fragments: int,
    steps: int,
    rows: list,
    make_row,
    config: IMPConfig | None = None,
    seed: int = 5,
):
    """Drive an engine through random insert/delete batches and check Theorem 6.1."""
    rng = random.Random(seed)
    plan = database.plan(sql)
    partition = build_database_partition(database, plan, num_fragments)
    engine = IncrementalEngine(plan, partition, database, config)
    sketch = engine.initialize()
    exact_steps = 0
    next_id = 100_000
    for _ in range(steps):
        version = database.version
        inserts = [make_row(rng, next_id + i) for i in range(rng.randrange(1, 12))]
        next_id += len(inserts)
        deletes = rng.sample(rows, min(len(rows), rng.randrange(0, 6)))
        for victim in deletes:
            rows.remove(victim)
        rows.extend(inserts)
        if inserts:
            database.insert("r", inserts)
        if deletes:
            database.delete_rows("r", deletes)
        outcome = engine.maintain(
            database.database_delta_since(plan.referenced_tables(), version), database.version
        )
        assert not outcome.needs_recapture
        sketch = sketch.apply_delta(outcome.sketch_delta)
        if maintained_matches_truth(engine, sketch, plan, partition, database):
            exact_steps += 1
    return exact_steps, steps


class TestTheorem61:
    """Randomised checks of the correctness theorem per query class."""

    def _synthetic(self, seed=3, rows=800, groups=25):
        rng = random.Random(seed)
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        data = [
            (i, rng.randrange(groups), rng.randrange(500), rng.randrange(1000))
            for i in range(rows)
        ]
        database.insert("r", data)
        return database, data

    @staticmethod
    def _make_row(rng, row_id):
        return (row_id, rng.randrange(25), rng.randrange(500), rng.randrange(1000))

    def test_group_by_having_avg(self):
        database, data = self._synthetic()
        exact, steps = run_random_maintenance(
            database,
            "SELECT a, avg(b) AS ab FROM r GROUP BY a HAVING avg(c) < 600",
            12,
            8,
            data,
            self._make_row,
        )
        assert exact == steps

    def test_sum_count_multiple_aggregates(self):
        database, data = self._synthetic(seed=11)
        exact, steps = run_random_maintenance(
            database,
            "SELECT a, sum(b) AS sb, count(*) AS n FROM r GROUP BY a "
            "HAVING sum(b) > 100 AND count(*) > 2",
            10,
            8,
            data,
            self._make_row,
        )
        assert exact == steps

    def test_min_max_aggregates(self):
        database, data = self._synthetic(seed=17)
        exact, steps = run_random_maintenance(
            database,
            "SELECT a, min(b) AS lo, max(c) AS hi FROM r GROUP BY a HAVING max(c) > 500",
            10,
            8,
            data,
            self._make_row,
        )
        assert exact == steps

    def test_where_selection_pushdown(self):
        database, data = self._synthetic(seed=23)
        exact, steps = run_random_maintenance(
            database,
            "SELECT a, avg(b) AS ab FROM r WHERE b < 250 GROUP BY a HAVING avg(c) < 700",
            10,
            8,
            data,
            self._make_row,
            config=IMPConfig(selection_pushdown=True),
        )
        assert exact == steps

    def test_topk_query(self):
        database, data = self._synthetic(seed=29)
        exact, steps = run_random_maintenance(
            database,
            "SELECT a, avg(b) AS ab FROM r GROUP BY a ORDER BY a LIMIT 5",
            10,
            6,
            data,
            self._make_row,
        )
        assert exact == steps

    def test_distinct_query(self):
        database, data = self._synthetic(seed=37)
        exact, steps = run_random_maintenance(
            database,
            "SELECT DISTINCT a FROM r WHERE b < 400",
            10,
            6,
            data,
            self._make_row,
        )
        assert exact == steps


class TestJoinMaintenance:
    def _setup(self, seed=7):
        rng = random.Random(seed)
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        database.create_table("s", ["sid", "d", "e"], primary_key="sid")
        r_rows = [
            (i, rng.randrange(20), rng.randrange(200), rng.randrange(400))
            for i in range(500)
        ]
        s_rows = [(i, i % 150, rng.randrange(50)) for i in range(200)]
        database.insert("r", r_rows)
        database.insert("s", s_rows)
        return database, r_rows, s_rows

    def test_join_maintenance_exact_under_updates_on_both_sides(self):
        database, r_rows, s_rows = self._setup()
        rng = random.Random(41)
        sql = (
            "SELECT a, avg(e) AS ae FROM r JOIN s ON b = d "
            "GROUP BY a HAVING avg(e) < 40"
        )
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 10)
        engine = IncrementalEngine(plan, partition, database)
        sketch = engine.initialize()
        for step in range(5):
            version = database.version
            new_r = [
                (10_000 + step * 50 + j, rng.randrange(20), rng.randrange(200), rng.randrange(400))
                for j in range(8)
            ]
            new_s = [(20_000 + step * 50 + j, rng.randrange(150), rng.randrange(50)) for j in range(4)]
            dels_r = rng.sample(r_rows, 4)
            for victim in dels_r:
                r_rows.remove(victim)
            database.insert("r", new_r)
            database.insert("s", new_s)
            database.delete_rows("r", dels_r)
            r_rows.extend(new_r)
            s_rows.extend(new_s)
            outcome = engine.maintain(
                database.database_delta_since(plan.referenced_tables(), version),
                database.version,
            )
            sketch = sketch.apply_delta(outcome.sketch_delta)
            assert maintained_matches_truth(engine, sketch, plan, partition, database)
        assert engine.statistics.backend_round_trips > 0

    def test_bloom_filter_keeps_side_unbuilt_for_unjoinable_deltas(self):
        database, r_rows, s_rows = self._setup(seed=13)
        sql = "SELECT a, sum(e) AS se FROM r JOIN s ON b = d GROUP BY a HAVING sum(e) > 0"
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 10)
        engine = IncrementalEngine(plan, partition, database, IMPConfig(use_bloom_filters=True))
        engine.initialize()
        version = database.version
        # b = 9999 joins with nothing in s (d ranges over [0, 150)).
        database.insert("r", [(77_777, 3, 9_999, 10)])
        outcome = engine.maintain(
            database.database_delta_since(plan.referenced_tables(), version), database.version
        )
        assert engine.statistics.bloom_filtered_tuples >= 1
        assert engine.statistics.backend_round_trips == 0
        assert not outcome.sketch_delta

    def test_insert_and_delete_of_one_row_cancel_before_the_join(self):
        """An uncompacted delta that inserts and deletes the same row is not
        probed, shipped to the backend or counted by the join."""
        database, _r, _s = self._setup(seed=23)
        plan = database.plan("SELECT a, e FROM r JOIN s ON b = d")
        partition = build_database_partition(database, plan, 10)
        engine = IncrementalEngine(plan, partition, database)
        engine.initialize()
        version = database.version
        transient = (66_666, 3, 5, 10)  # b = 5 has join partners in s
        database.insert("r", [transient])
        database.delete_rows("r", [transient])
        db_delta = database.database_delta_since(plan.referenced_tables(), version)
        assert dict(db_delta.get("r").inserts()) == dict(db_delta.get("r").deletes())
        outcome = engine.maintain(db_delta, database.version)
        assert not outcome.sketch_delta
        statistics = engine.statistics
        assert statistics.tuples_processed == 2  # the table access saw both
        assert statistics.backend_round_trips == 0
        assert statistics.tuples_shipped_to_backend == 0
        assert statistics.bloom_filtered_tuples == 0

    def test_two_sided_join_delta_only_pairs_key_matches(self):
        """The ΔQ1 ⋈ ΔQ2 term probes a hash index: 1000 x 1000 delta tuples
        with one partner each hand 1000 candidate pairs per term to the batch
        condition, not a million."""
        database, _r, _s = self._setup(seed=29)
        plan = database.plan("SELECT a, e FROM r JOIN s ON b = d")
        partition = build_database_partition(database, plan, 10)
        engine = IncrementalEngine(plan, partition, database)
        sketch = engine.initialize()
        join = engine._merge.child.child
        checked = []
        condition = join._condition_batch

        def counting_condition(columns, n):
            checked.append(n)
            return condition(columns, n)

        join._condition_batch = counting_condition
        version = database.version
        # Keys 10_000.. exist on neither side before the batch.
        database.insert("r", [(50_000 + i, i % 20, 10_000 + i, i) for i in range(1000)])
        database.insert("s", [(60_000 + i, 10_000 + i, i % 50) for i in range(1000)])
        outcome = engine.maintain(
            database.database_delta_since(plan.referenced_tables(), version), database.version
        )
        assert sum(checked) == 3 * 1000  # one partner per delta tuple and term
        sketch = sketch.apply_delta(outcome.sketch_delta)
        assert maintained_matches_truth(engine, sketch, plan, partition, database)

    def test_theta_join_candidates_reach_the_condition_in_bounded_batches(self):
        """A theta join's one bucket is the whole other side, so capture has
        500 x 200 candidate pairs of which a handful survive: the condition
        sees all of them, never more than ``_PAIR_BATCH`` at a time, in
        capture and in a maintenance round alike."""
        database, _r, _s = self._setup(seed=31)
        plan = database.plan("SELECT id, sid FROM r JOIN s ON c + 40 < e AND id > sid")
        partition = build_database_partition(database, plan, 10)
        engine = IncrementalEngine(plan, partition, database)
        join = engine._merge.child.child
        assert join.describe().startswith("IncJoin(theta")
        checked = []
        condition = join._condition_batch

        def counting_condition(columns, n):
            checked.append(n)
            return condition(columns, n)

        join._condition_batch = counting_condition
        sketch = engine.initialize()
        assert sum(checked) == 500 * 200 and max(checked) <= _PAIR_BATCH
        del checked[:]
        version = database.version
        database.insert("r", [(70_000 + i, i % 20, i, i % 9) for i in range(30)])
        outcome = engine.maintain(
            database.database_delta_since(plan.referenced_tables(), version), database.version
        )
        assert sum(checked) == 30 * 200 and max(checked) <= _PAIR_BATCH
        sketch = sketch.apply_delta(outcome.sketch_delta)
        assert maintained_matches_truth(engine, sketch, plan, partition, database)

    def test_initialize_counts_nothing_and_seeds_both_filters(self):
        """A from-scratch pass is not delta work: no counter moves, the join
        takes the single ΔQ1 ⋈ ΔQ2 term (no side is evaluated on its own) and
        seeds its filters from the two child outputs."""
        database, r_rows, s_rows = self._setup(seed=31)
        plan = database.plan("SELECT a, e FROM r JOIN s ON b = d")
        partition = build_database_partition(database, plan, 10)
        engine = IncrementalEngine(plan, partition, database)
        sketch = engine.initialize()
        assert engine.statistics == EngineStatistics()
        join = engine._merge.child.child
        left, right = (side.state for side in join.sides)
        assert all((row[2],) in left.bloom for row in r_rows)
        assert all((row[1],) in right.bloom for row in s_rows)
        assert (9_999,) not in right.bloom
        # Capture materialises neither side: that waits for the first probe.
        assert left.buckets is None and right.buckets is None
        assert set(sketch.fragment_ids()) == set(
            AnnotatedEvaluator(database, partition).capture(plan).fragment_ids()
        )

    def test_initialize_on_empty_tables_then_maintain(self):
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        database.create_table("s", ["sid", "d", "e"], primary_key="sid")
        plan = database.plan("SELECT a, e FROM r JOIN s ON b = d")
        partition = DatabasePartition(
            [
                RangePartition.equi_width("r", "c", 0, 100, 4),
                RangePartition.equi_width("s", "e", 0, 100, 4),
            ]
        )
        engine = IncrementalEngine(plan, partition, database)
        sketch = engine.initialize()
        assert len(sketch) == 0
        version = database.version
        database.insert("r", [(1, 1, 7, 10), (2, 1, 8, 60)])
        database.insert("s", [(1, 7, 90)])
        outcome = engine.maintain(
            database.database_delta_since(["r", "s"], version), database.version
        )
        sketch = sketch.apply_delta(outcome.sketch_delta)
        assert maintained_matches_truth(engine, sketch, plan, partition, database)
        assert len(sketch) == 2

    def test_bloom_filters_disabled_builds_side_for_unjoinable_delta(self):
        database, _r, _s = self._setup(seed=19)
        sql = "SELECT a, sum(e) AS se FROM r JOIN s ON b = d GROUP BY a HAVING sum(e) > 0"
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 10)
        engine = IncrementalEngine(plan, partition, database, IMPConfig(use_bloom_filters=False))
        engine.initialize()
        version = database.version
        database.insert("r", [(88_888, 3, 9_999, 10)])
        engine.maintain(
            database.database_delta_since(plan.referenced_tables(), version), database.version
        )
        assert engine.statistics.backend_round_trips >= 1


class TestScalarAggregate:
    """Without GROUP BY the aggregation has one result row even over empty
    input, annotated with no fragment; joined with another table it carries
    that table's fragments into the sketch."""

    @staticmethod
    def _database():
        database = Database()
        database.create_table("r", ["a", "b"])
        database.create_table("s", ["d", "e"])
        database.insert("s", [(1, 5), (2, 25)])
        partition = DatabasePartition(
            [
                RangePartition.equi_width("r", "b", 0, 100, 4),
                RangePartition.equi_width("s", "e", 0, 40, 4),
            ]
        )
        return database, partition

    def test_from_scratch_over_empty_input_emits_the_oracles_row(self):
        database, partition = self._database()
        plan = database.plan("SELECT count(*) AS n, count(a) AS na, sum(a) AS sa, min(a) AS lo FROM r")
        oracle = AnnotatedEvaluator(database, partition).evaluate(plan)
        assert oracle.to_relation() == database.query(plan)
        assert engine_output(plan, partition, database) == oracle.entries()
        assert [row for row, _annotation in oracle.entries()] == [(0, 0, None, None)]
        # A grouped aggregation over empty input has no row.
        grouped = database.plan("SELECT a, count(*) AS n FROM r GROUP BY a")
        assert engine_output(grouped, partition, database) == {}

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT n, e FROM (SELECT count(*) AS n FROM r) t, s",
            "SELECT n, e FROM (SELECT count(*) AS n FROM r) t JOIN s ON (n < d)",
            # The subquery's WHERE filters every row of r.
            "SELECT n, e FROM (SELECT count(*) AS n, max(b) AS hi FROM r WHERE a > 100) t, s",
        ],
    )
    def test_empty_side_below_a_join_keeps_the_other_sides_fragments(self, sql):
        database, partition = self._database()
        plan = database.plan(sql)
        tables = sorted(plan.referenced_tables())

        def oracle():
            return set(AnnotatedEvaluator(database, partition).capture(plan).fragment_ids())

        assert len(database.query(plan)) == 2
        assert oracle() == {4, 6}
        assert set(capture_sketch(plan, partition, database).fragment_ids()) == {4, 6}
        engine = IncrementalEngine(plan, partition, database)
        sketch = engine.initialize()
        assert set(sketch.fragment_ids()) == {4, 6}
        # s grows while r is empty; r becomes non-empty; both shrink again,
        # so the scalar row is deleted and re-inserted on the way.
        steps = [
            lambda: database.insert("s", [(3, 35)]),
            lambda: database.insert("r", [(1, 10), (2, 60)]),
            lambda: database.delete_rows("r", [(2, 60)]),
            lambda: (database.delete_rows("r", [(1, 10)]), database.delete_rows("s", [(3, 35)])),
        ]
        for step in steps:
            version = database.version
            step()
            outcome = engine.maintain(
                database.database_delta_since(tables, version), database.version
            )
            assert not outcome.needs_recapture
            sketch = sketch.apply_delta(outcome.sketch_delta)
            assert set(sketch.fragment_ids()) == oracle()
            assert set(capture_sketch(plan, partition, database).fragment_ids()) == oracle()
        assert set(sketch.fragment_ids()) == {4, 6}

    def test_emptied_scalar_group_is_not_kept_in_state(self):
        database, partition = self._database()
        plan = database.plan("SELECT sum(b) AS sb FROM r")
        engine = IncrementalEngine(plan, partition, database)
        engine.initialize()
        aggregation = engine._merge.child
        while not hasattr(aggregation, "state"):
            aggregation = aggregation.child
        assert len(aggregation.state) == 0
        version = database.version
        database.insert("r", [(1, 10)])
        engine.maintain(database.database_delta_since(["r"], version), database.version)
        assert len(aggregation.state) == 1 and len(engine.current_sketch()) == 1
        version = database.version
        database.delete_rows("r", [(1, 10)])
        engine.maintain(database.database_delta_since(["r"], version), database.version)
        assert len(aggregation.state) == 0 and len(engine.current_sketch()) == 0


class TestBufferedStateRecapture:
    def test_minmax_buffer_exhaustion_requests_recapture(self):
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        rows = [(i, i % 3, i, i) for i in range(60)]
        database.insert("r", rows)
        sql = "SELECT a, min(b) AS lo FROM r GROUP BY a HAVING min(b) < 100"
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 6)
        engine = IncrementalEngine(plan, partition, database, IMPConfig(min_max_buffer=2))
        engine.initialize()
        version = database.version
        # Delete the four smallest values of group 0: more than the buffer holds.
        victims = sorted((row for row in rows if row[1] == 0), key=lambda r: r[2])[:4]
        database.delete_rows("r", victims)
        outcome = engine.maintain(database.database_delta_since(["r"], version), database.version)
        assert outcome.needs_recapture

    def test_topk_buffer_exhaustion_requests_recapture(self):
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        rows = [(i, i, i, i) for i in range(50)]
        database.insert("r", rows)
        sql = "SELECT a, avg(b) AS ab FROM r GROUP BY a ORDER BY a LIMIT 5"
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 5)
        engine = IncrementalEngine(plan, partition, database, IMPConfig(topk_buffer=8))
        engine.initialize()
        version = database.version
        # Delete the 10 smallest groups: the buffered head of the ranking is gone.
        database.delete_rows("r", rows[:10])
        outcome = engine.maintain(database.database_delta_since(["r"], version), database.version)
        assert outcome.needs_recapture

    def test_a_row_behind_counted_only_rows_is_not_buffered(self):
        """A deletion leaves the top-3 buffer one short while 14 and 15 are
        only counted.  A new 45 sorts behind the buffer: stored, it would
        stand in for 14, and the next deletion would answer the top-2 with 45
        and keep fragment 4 in the sketch instead of fragment 1."""
        database = Database()
        database.create_table("t", ["id", "p"], primary_key="id")
        rows = list(enumerate([1, 2, 3, 14, 15]))
        database.insert("t", rows)
        plan = database.plan("SELECT id, p FROM t ORDER BY p LIMIT 2")
        partition = DatabasePartition(
            [RangePartition.from_boundaries("t", "p", [0, 10, 20, 30, 40, 50])]
        )
        engine = IncrementalEngine(plan, partition, database, IMPConfig(topk_buffer=3))
        engine.initialize()
        for deletes, inserts in (([rows[0]], []), ([], [(5, 45)]), ([rows[1]], [])):
            version = database.version
            database.delete_rows("t", deletes)
            database.insert("t", inserts)
            outcome = engine.maintain(
                database.database_delta_since(["t"], version), database.version
            )
        # Two buffered rows can no longer answer a top-2 behind counted-only ones.
        assert outcome.needs_recapture

    def test_nan_order_keys_leave_the_topk_state_a_search_tree(self):
        # NaN answers False to every comparison; keyed by itself it would sit
        # anywhere in the sorted key list and never be found by bisection.
        # order_component gives it one place (after every number), so the
        # maintained state, its top-k and the sketch depend on the content
        # only, not on the order of arrival.
        nan = float("nan")
        arrivals = [(i, 10 * i, nan if i % 3 == 0 else float(i % 7)) for i in range(1, 31)]
        departures = [arrivals[2], arrivals[5], arrivals[6], arrivals[0]]
        plan_sql = "SELECT id, p, x FROM t ORDER BY x DESC, id LIMIT 4"
        outcomes = []
        for order in (arrivals, arrivals[::-1]):
            database = Database()
            database.create_table("t", ["id", "p", "x"], primary_key="id")
            database.insert("t", [(100 + i, 3 * i, float(i)) for i in range(10)])
            plan = database.plan(plan_sql)
            partition = DatabasePartition(
                [RangePartition.from_boundaries("t", "p", [0, 100, 200, 400])]
            )
            engine = IncrementalEngine(plan, partition, database)
            engine.initialize()
            for batch in (order[:11], order[11:]):
                version = database.version
                database.insert("t", batch)
                engine.maintain(database.database_delta_since(["t"], version), database.version)
            version = database.version
            database.delete_rows("t", departures)
            outcome = engine.maintain(
                database.database_delta_since(["t"], version), database.version
            )
            assert not outcome.needs_recapture
            (topk,) = [
                operator
                for operator in walk_operators(engine)
                if isinstance(operator, IncrementalTopK)
            ]
            buckets = topk.state.buckets
            assert buckets.order == sorted(buckets)  # sorted, and exactly the dict's keys
            assert len(buckets) == 10 + len(arrivals) - len(departures)
            assert set(engine.current_sketch().fragment_ids()) == set(
                capture_sketch(plan, partition, database).fragment_ids()
            )
            outcomes.append(
                (
                    [row for row, _annotation, _count in topk.state.top_k(4)],
                    set(engine.current_sketch().fragment_ids()),
                    database.query(plan_sql).to_sorted_list(),
                )
            )
        assert outcomes[0] == outcomes[1]
        assert [row[0] for row in outcomes[0][0]] == [109, 108, 107, 13]

    def test_large_buffers_do_not_trigger_recapture(self):
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        rows = [(i, i % 5, i, i) for i in range(100)]
        database.insert("r", rows)
        sql = "SELECT a, min(b) AS lo FROM r GROUP BY a HAVING min(b) < 1000"
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 5)
        engine = IncrementalEngine(plan, partition, database, IMPConfig(min_max_buffer=50))
        engine.initialize()
        version = database.version
        database.delete_rows("r", rows[:3])
        outcome = engine.maintain(database.database_delta_since(["r"], version), database.version)
        assert not outcome.needs_recapture


class TestStatisticsAndMemory:
    def test_recapture_keeps_the_cumulative_counters(self):
        """``reset()`` discards operator state, not what the engine has done."""
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        rows = [(i, i % 3, i, i) for i in range(40)]
        database.insert("r", rows)
        plan = database.plan("SELECT a, min(b) AS lo FROM r GROUP BY a HAVING min(b) < 100")
        partition = build_database_partition(database, plan, 4)
        maintainer = IncrementalMaintainer(
            database, plan, partition, IMPConfig(min_max_buffer=2)
        )
        maintainer.capture()
        victims = sorted((row for row in rows if row[1] == 0), key=lambda r: r[2])[:5]
        database.delete_rows("r", victims)
        assert maintainer.maintain().recaptured
        statistics = maintainer.statistics
        assert statistics.recaptures == 1
        assert statistics.maintenance_runs == 1
        # Only the five deleted tuples were delta work; neither the capture
        # nor the recapture (two scans of the table) is counted.
        assert statistics.delta_tuples_fetched == 5
        assert statistics.tuples_processed < 20
        assert maintainer.engine.is_initialized

    def test_from_scratch_pass_honours_selection_pushdown(self):
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        database.insert("r", [(i, i % 5, i % 100, i) for i in range(200)])
        plan = database.plan("SELECT a, c FROM r WHERE b < 50")
        partition = build_database_partition(database, plan, 5)
        outputs = {}
        for pushdown in (True, False):
            root = compile_plan(plan, partition, database, IMPConfig(selection_pushdown=pushdown))
            scan = root
            while scan.children():
                (scan,) = scan.children()
            # Pushed down, the filter runs at the scan: half the table never
            # gets annotated or reaches the selection.
            whole = Pass.scratch(database.version)
            assert len(scan.process(whole)) == (100 if pushdown else 200)
            outputs[pushdown] = root.process(whole)
        assert len(outputs[True].rows) == 100
        assert list(outputs[True].entries()) == list(outputs[False].entries())

    def test_pushdown_filters_delta_tuples(self):
        database = Database()
        database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
        database.insert("r", [(i, i % 5, i % 100, i) for i in range(200)])
        sql = "SELECT a, avg(c) AS ac FROM r WHERE b < 50 GROUP BY a HAVING avg(c) > 0"
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 5)
        with_pd = IncrementalEngine(plan, partition, database, IMPConfig(selection_pushdown=True))
        without_pd = IncrementalEngine(
            plan, partition, database, IMPConfig(selection_pushdown=False)
        )
        with_pd.initialize()
        without_pd.initialize()
        version = database.version
        database.insert("r", [(1_000 + i, i % 5, 60 + i % 40, i) for i in range(20)])
        delta = database.database_delta_since(["r"], version)
        with_pd.maintain(delta, database.version)
        without_pd.maintain(delta, database.version)
        assert with_pd.statistics.delta_tuples_filtered == 20
        assert without_pd.statistics.delta_tuples_filtered == 0
        assert with_pd.statistics.delta_tuples_fetched == 0

    def test_memory_accounting_grows_with_groups(self, synthetic_db):
        database, _rows = synthetic_db
        sql = "SELECT a, avg(b) AS ab FROM r GROUP BY a HAVING avg(c) < 900"
        plan = database.plan(sql)
        partition = build_database_partition(database, plan, 10)
        engine = IncrementalEngine(plan, partition, database)
        assert engine.memory_bytes() >= 0
        engine.initialize()
        assert engine.memory_bytes() > 1000
