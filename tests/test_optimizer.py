"""Tests for the cost-based plan optimizer and the statistics bugfix sweep.

The optimizer must be *invisible* in results: every rewrite (constant folding,
predicate pushdown, conjunct merging, projection pruning, join reordering)
preserves bag semantics and the output schema exactly.  The Hypothesis
differential tests at the bottom check optimized against unoptimized plans,
and ``IMPSystem`` / ``NoSketchSystem`` answers against the reference oracle
(``tests.reference.oracle``) after every
update batch, across generated query templates and updates.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.imp.middleware import IMPSystem
from repro.relational.algebra import (
    Aggregation,
    Distinct,
    Join,
    Selection,
    TableScan,
    TopK,
    walk_plan,
)
from repro.relational.evaluator import Evaluator
from repro.relational.oracle import RowEvaluator
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    Comparison,
    FunctionCall,
    Literal,
    LogicalOp,
    conjuncts,
)
from repro.relational.optimizer import PlanOptimizer, equi_depth_fraction, fold_expression
from repro.storage.database import Database
from repro.storage.statistics import equi_depth_boundaries
from tests.reference import (
    PLANS,
    answer,
    assert_systems_match_oracle,
    engine,
    oracle,
    random_insert_batches,
    tables,
)


def make_three_table_db(num_rows: int = 300, seed: int = 3) -> Database:
    rng = random.Random(seed)
    database = Database()
    database.create_table("r", ["id", "a", "b", "c"], primary_key="id")
    database.create_table("s", ["sid", "d", "e"], primary_key="sid")
    database.create_table("t", ["tid", "f"], primary_key="tid")
    database.insert(
        "r",
        [
            (i, rng.randrange(15), rng.randrange(100), rng.randrange(300))
            for i in range(num_rows)
        ],
    )
    database.insert("s", [(i, i % 15, rng.randrange(50)) for i in range(num_rows // 2)])
    database.insert("t", [(i, i % 15) for i in range(10)])
    return database


# -- constant folding ------------------------------------------------------------------


class TestConstantFolding:
    def test_folds_literal_arithmetic(self):
        expression = BinaryOp("*", BinaryOp("+", Literal(1), Literal(2)), Literal(3))
        folded = fold_expression(expression)
        assert isinstance(folded, Literal) and folded.value == 9

    def test_folds_contradiction_to_false(self):
        folded = fold_expression(Comparison("=", Literal(1), Literal(0)))
        assert isinstance(folded, Literal) and folded.value is False

    def test_division_by_zero_folds_to_null(self):
        folded = fold_expression(BinaryOp("/", Literal(1), Literal(0)))
        assert isinstance(folded, Literal) and folded.value is None

    def test_and_or_simplification(self):
        p = Comparison("<", ColumnRef("b"), Literal(5))
        assert fold_expression(LogicalOp("AND", [Literal(True), p])) == p
        folded = fold_expression(LogicalOp("AND", [Literal(False), p]))
        assert isinstance(folded, Literal) and folded.value is False
        folded = fold_expression(LogicalOp("OR", [Literal(True), p]))
        assert isinstance(folded, Literal) and folded.value is True
        assert fold_expression(LogicalOp("OR", [Literal(False), p])) == p

    def test_non_boolean_survivor_keeps_its_connective(self):
        # True AND 3 is True, but a bare 3 is not: dropping the identity
        # constant must not drop the AND that makes the operand a boolean.
        a = ColumnRef("a")
        for op, identity in (("AND", True), ("OR", False)):
            folded = fold_expression(LogicalOp(op, [Literal(identity), a]))
            assert folded == LogicalOp(op, [a])

    def test_null_operand_is_not_simplified_away(self):
        # NULL AND p is not p (three-valued logic), so it must be kept.
        p = Comparison("<", ColumnRef("b"), Literal(5))
        folded = fold_expression(LogicalOp("AND", [Literal(None), p]))
        assert isinstance(folded, LogicalOp)

    def test_raising_expression_is_left_unfolded(self):
        # Folding would have to evaluate the call; since that raises, the
        # expression must survive so the error still surfaces per row.
        call = FunctionCall("no_such_function", [Literal(1)])
        folded = fold_expression(call)
        assert not isinstance(folded, Literal)
        assert folded == call


# -- predicate pushdown ----------------------------------------------------------------


def selections_on_scans(plan) -> list[Selection]:
    return [
        node
        for node in walk_plan(plan)
        if isinstance(node, Selection) and isinstance(node.child, TableScan)
    ]


class TestPushdown:
    def test_where_above_explicit_join_reaches_the_scan(self):
        database = make_three_table_db()
        plan = database.plan(
            "SELECT r.id, s.e FROM r JOIN s ON (a = d) WHERE r.b BETWEEN 10 AND 20"
        )
        optimized = PlanOptimizer(database).optimize(plan)
        scans = selections_on_scans(optimized)
        assert any("r.b" in s.predicate.canonical() for s in scans)
        assert engine(database, plan, optimize=False) == engine(database, optimized, optimize=False)

    def test_pushdown_through_subquery_projection(self):
        database = make_three_table_db()
        sql = (
            "SELECT a FROM (SELECT a AS a, b AS b FROM r) tt "
            "WHERE tt.b < 30"
        )
        plan = database.plan(sql)
        optimized = PlanOptimizer(database).optimize(plan)
        assert selections_on_scans(optimized), optimized.explain(database)
        assert engine(database, plan, optimize=False) == engine(database, optimized, optimize=False)

    def test_conjuncts_merge_into_one_selection_per_scan(self):
        # The shape the use rewrite produces: a sketch disjunction directly on
        # the scan with the user predicate in a separate selection above.
        database = make_three_table_db()
        scan = TableScan("r")
        disjunction = LogicalOp(
            "OR",
            [
                LogicalOp(
                    "AND",
                    [
                        Comparison(">=", ColumnRef("r.b"), Literal(10)),
                        Comparison("<", ColumnRef("r.b"), Literal(40)),
                    ],
                ),
                Comparison(">=", ColumnRef("r.b"), Literal(80)),
            ],
        )
        user = Comparison("<", ColumnRef("r.c"), Literal(150))
        plan = Selection(Selection(scan, disjunction), user)
        optimized = PlanOptimizer(database).optimize(plan)
        scans = selections_on_scans(optimized)
        assert len(scans) == 1
        merged = conjuncts(scans[0].predicate)
        assert len(merged) == 2
        assert engine(database, plan, optimize=False) == engine(database, optimized, optimize=False)

    def test_having_stays_above_aggregation(self):
        database = make_three_table_db()
        plan = database.plan(
            "SELECT a, avg(b) AS ab FROM r GROUP BY a HAVING avg(c) < 200"
        )
        optimized = PlanOptimizer(database).optimize(plan)
        for node in walk_plan(optimized):
            if isinstance(node, Selection):
                assert isinstance(node.child, Aggregation)
        assert engine(database, plan, optimize=False) == engine(database, optimized, optimize=False)

    def test_selection_is_not_pushed_below_topk(self):
        database = make_three_table_db()
        inner = database.plan("SELECT id, b FROM r ORDER BY b, id LIMIT 20")
        plan = Selection(inner, Comparison("<", ColumnRef("b"), Literal(50)))
        optimized = PlanOptimizer(database).optimize(plan)
        top = next(n for n in walk_plan(optimized) if isinstance(n, TopK))
        assert not any(
            isinstance(n, Selection) for n in walk_plan(top.child)
        ), optimized.explain(database)
        assert engine(database, plan, optimize=False) == engine(database, optimized, optimize=False)

    def test_topk_with_order_key_ties_stays_bit_identical(self):
        # Regression: _top_k breaks order-key ties by encounter order, so any
        # rewrite below a TopK (index access instead of a full scan, join
        # reordering) could change which tied rows make the first k.  The
        # optimizer therefore leaves TopK subtrees completely untouched.
        database = Database()
        database.create_table("r", ["id", "a", "b"], primary_key="id")
        database.create_table("s", ["sid", "ra"], primary_key="sid")
        database.insert("r", [(1, 7, 30), (2, 7, 10), (3, 7, 20)])
        database.insert("s", [(10, 7)])
        database.create_index("r", "b")
        sql = (
            "SELECT id, ra FROM r JOIN s ON (a = ra) "
            "WHERE b BETWEEN 0 AND 100 ORDER BY ra LIMIT 2"
        )
        assert engine(database, sql) == engine(database, sql, optimize=False)

    def test_empty_sketch_contradiction_needs_no_scan(self):
        database = make_three_table_db()
        plan = Selection(TableScan("r"), Comparison("=", Literal(1), Literal(0)))
        before = database.scan_count
        result = engine(database, plan)
        assert len(result) == 0
        assert database.scan_count == before

    def test_contradiction_merged_with_user_predicate_needs_no_scan(self):
        # Regression: a folded False conjunct merged with a pushed user
        # predicate must still collapse to a constant-false selection.
        database = make_three_table_db()
        plan = Selection(
            Selection(TableScan("r"), Comparison("=", Literal(1), Literal(0))),
            Comparison("<", ColumnRef("r.b"), Literal(50)),
        )
        optimized = PlanOptimizer(database).optimize(plan)
        before = database.scan_count
        result = engine(database, optimized, optimize=False)
        assert len(result) == 0
        assert database.scan_count == before


# -- join reordering -------------------------------------------------------------------


class TestJoinReordering:
    def test_smallest_table_first_and_identical_results(self):
        database = make_three_table_db()
        sql = "SELECT r.id, s.e, t.f FROM r, s, t WHERE a = d AND d = f AND r.b < 50"
        plan = database.plan(sql)
        optimized = PlanOptimizer(database).optimize(plan)

        def leftmost_scan(node):
            while not isinstance(node, TableScan):
                node = node.children()[0]
            return node

        joins = [n for n in walk_plan(optimized) if isinstance(n, Join)]
        assert joins
        assert leftmost_scan(joins[0]).table == "t"
        assert engine(database, sql, optimize=False) == engine(database, sql)

    def test_two_way_joins_keep_their_shape(self):
        database = make_three_table_db()
        plan = database.plan("SELECT r.id, s.e FROM r JOIN s ON (a = d)")
        optimized = PlanOptimizer(database).optimize(plan)
        join = next(n for n in walk_plan(optimized) if isinstance(n, Join))
        assert leftmost_table(join.left) == "r"


def leftmost_table(node):
    while not isinstance(node, TableScan):
        node = node.children()[0]
    return node.table


# -- projection pruning ----------------------------------------------------------------


class TestProjectionPruning:
    def test_join_inputs_are_narrowed(self):
        database = make_three_table_db()
        sql = "SELECT r.id FROM r JOIN s ON (a = d) WHERE s.e < 25"
        plan = database.plan(sql)
        optimized = PlanOptimizer(database).optimize(plan)
        join = next(n for n in walk_plan(optimized) if isinstance(n, Join))
        left_width = len(join.left.output_schema(database))
        right_width = len(join.right.output_schema(database))
        # r contributes only id and the join key a; s only the join key d.
        assert left_width == 2
        assert right_width == 1
        assert engine(database, sql, optimize=False) == engine(database, sql)

    @staticmethod
    def _answers_like_the_oracle(database: Database, sql: str) -> None:
        assert answer(database.query(sql)) == answer(oracle(database, sql))

    def test_a_group_by_with_no_aggregate_read_above_becomes_distinct(self):
        database = make_three_table_db()
        sql = "SELECT a FROM (SELECT a, sum(b) AS s FROM r GROUP BY a) t"
        optimized = PlanOptimizer(database).optimize(database.plan(sql))
        assert any(isinstance(node, Distinct) for node in walk_plan(optimized))
        assert not any(isinstance(node, Aggregation) for node in walk_plan(optimized))
        assert "sum" not in optimized.explain()
        self._answers_like_the_oracle(database, sql)

    def test_a_scalar_aggregation_keeps_only_the_aggregates_read_above(self):
        database = make_three_table_db()
        sql = "SELECT n FROM (SELECT count(*) AS n, sum(b) AS s FROM r) t"
        optimized = PlanOptimizer(database).optimize(database.plan(sql))
        (aggregation,) = [n for n in walk_plan(optimized) if isinstance(n, Aggregation)]
        assert [repr(a) for a in aggregation.aggregates] == ["count(*) AS n"]
        self._answers_like_the_oracle(database, sql)

    def test_a_scalar_aggregation_nothing_reads_keeps_its_first_aggregate(self):
        """Its one row exists even over empty input, which a consumer that
        reads none of its columns still sees."""
        database = make_three_table_db()
        plan = database.plan("SELECT max(b) AS m, sum(c) AS s FROM r WHERE b < 0")
        aggregation = next(n for n in walk_plan(plan) if isinstance(n, Aggregation))
        pruned = PlanOptimizer(database).prune(aggregation, set())
        assert pruned.explain().splitlines()[0] == "Aggregation(group by <global>; max(b) AS m)"
        assert list(database.query(pruned).items()) == [((None,), 1)]

    def test_output_schema_is_never_changed(self):
        database = make_three_table_db()
        for sql in [
            "SELECT * FROM r",
            "SELECT a, b FROM r WHERE b < 40",
            "SELECT DISTINCT a FROM r",
            "SELECT a, avg(b) AS ab FROM r GROUP BY a",
            "SELECT r.id, s.e FROM r JOIN s ON (a = d)",
        ]:
            plan = database.plan(sql)
            optimized = PlanOptimizer(database).optimize(plan)
            assert (
                optimized.output_schema(database).attributes
                == plan.output_schema(database).attributes
            ), sql


# -- evaluator integration -------------------------------------------------------------


class TestEvaluatorIntegration:
    def test_optimizer_unlocks_index_scans_behind_joins(self):
        database = make_three_table_db()
        database.create_index("r", "b")
        sql = "SELECT r.id, s.e FROM r JOIN s ON (a = d) WHERE r.b BETWEEN 10 AND 20"
        engine(database, sql, optimize=False)
        unopt_index = database.index_scan_count
        unopt_full = database.scan_count
        engine(database, sql)
        assert database.index_scan_count - unopt_index == 1
        # The optimized plan reads r through the index, not a full scan.
        assert database.scan_count - unopt_full == 1  # only s

    def test_an_optimized_plan_is_not_rewritten_again(self, monkeypatch):
        calls = []
        original = PlanOptimizer.optimize

        def counting(self, plan):
            calls.append(plan)
            return original(self, plan)

        monkeypatch.setattr(PlanOptimizer, "optimize", counting)
        database = make_three_table_db()
        database.create_index("r", "b")
        sql = "SELECT r.id, s.e FROM r JOIN s ON (a = d) WHERE r.b BETWEEN 10 AND 20"
        plan = database.plan(sql)
        assert not plan.optimized
        expected = database.query(plan)
        assert len(calls) == 1 and not plan.optimized
        optimized = database.evaluator().optimized(plan)
        assert optimized.optimized and len(calls) == 2
        assert database.query(optimized) == expected
        # Sessions and the sketch middleware rely on this for repeated queries.
        with database.connect() as session:
            assert session.query(sql) == session.query(sql) == expected
        system = IMPSystem(database, num_fragments=16)
        group_sql = "SELECT a, avg(c) AS ac FROM r GROUP BY a HAVING avg(c) < 200"
        assert system.run_query(group_sql) == system.run_query(group_sql)
        assert system.statistics.sketch_hits == 2
        assert len(calls) == 2 + 1 + 1

    def test_select_star_root_is_not_marked(self):
        """``SELECT * FROM t`` optimizes to its own scan: the flag goes on a
        copy, so the plan the database caches for the text stays unmarked."""
        database = make_three_table_db()
        plan = database.plan("SELECT * FROM t")
        optimized = PlanOptimizer(database).optimize(plan)
        assert optimized.optimized and optimized is not plan
        assert not plan.optimized
        database.query("SELECT * FROM t")
        assert database.plan("SELECT * FROM t") is plan and not plan.optimized

    @settings(max_examples=40, deadline=None)
    @given(tables(), PLANS)
    def test_optimize_leaves_every_catalogue_plan_as_it_was(self, case, plans):
        """No node of an input plan is marked or rewritten: every shape of
        ``tests.reference.CATALOGUE`` keeps ``optimized`` False and its
        ``explain()`` after ``optimize``."""
        database, _moved = case
        optimizer = PlanOptimizer(database)
        for plan in plans.values():
            if isinstance(plan, str):
                plan = database.plan(plan)
            before = plan.explain()
            assert optimizer.optimize(plan).optimized
            assert not any(node.optimized for node in walk_plan(plan))
            assert plan.explain() == before

    def test_table_scan_result_is_caller_owned(self):
        database = make_three_table_db()
        result = database.query("SELECT * FROM r")
        before = len(database.table("r"))
        first = next(iter(result.distinct_rows()))
        result.remove(first, 1)
        result.add((10**9, 0, 0, 0), 3)
        assert len(database.table("r")) == before
        assert database.query("SELECT * FROM r").multiplicity((10**9, 0, 0, 0)) == 0

    def test_table_scan_schema_is_alias_qualified(self):
        database = make_three_table_db()
        result = Evaluator(database).evaluate(TableScan("r", "x"))
        assert list(result.schema) == ["x.id", "x.a", "x.b", "x.c"]

    @pytest.mark.parametrize("evaluator_class", [RowEvaluator, Evaluator])
    def test_hash_join_with_mixed_condition(self, evaluator_class):
        database = make_three_table_db()
        condition = LogicalOp(
            "AND",
            [
                Comparison("=", ColumnRef("a"), ColumnRef("d")),
                Comparison("<", ColumnRef("b"), ColumnRef("e")),
            ],
        )
        join = Join(TableScan("r"), TableScan("s"), condition)
        # Unoptimized on purpose: the optimizer would rewrite the reference
        # below into the very join it is compared against.
        literal = evaluator_class(database, False)
        hashed = literal.evaluate(join)
        # Reference: the same theta join as a filtered cross product.
        reference = literal.evaluate(
            Selection(Join(TableScan("r"), TableScan("s"), None), condition)
        )
        assert hashed == reference
        assert len(hashed) > 0


# -- statistics fixes ------------------------------------------------------------------


class TestStatisticsFixes:
    def test_equi_depth_boundaries_have_no_duplicate_tail(self):
        # Regression: the final boundary used to be appended twice whenever the
        # maximum already was a bucket boundary, yielding a zero-width bucket.
        boundaries = equi_depth_boundaries(list(range(10)), [1] * 10, 10)
        assert boundaries == sorted(set(boundaries))
        assert boundaries[-1] == 9

    def test_equi_depth_boundaries_strictly_increasing(self):
        rng = random.Random(11)
        for _ in range(20):
            values = [rng.randrange(50) for _ in range(rng.randrange(1, 200))]
            for buckets in (1, 2, 7, 32):
                boundaries = equi_depth_boundaries(values, [1] * len(values), buckets)
                if len(set(values)) == 1:
                    assert boundaries == [values[0], values[0]]
                else:
                    assert all(
                        lo < hi for lo, hi in zip(boundaries, boundaries[1:])
                    ), (values, buckets, boundaries)
                assert boundaries[0] == min(values)
                assert boundaries[-1] == max(values)

    def test_single_value_column_keeps_two_boundaries(self):
        assert equi_depth_boundaries([7], [3], 4) == [7, 7]

    def test_equi_depth_fraction(self):
        boundaries = [0.0, 25.0, 50.0, 75.0, 100.0]
        assert equi_depth_fraction(boundaries, 0, 100) == 1.0
        assert equi_depth_fraction(boundaries, 0, 50) == pytest.approx(0.5)
        assert equi_depth_fraction(boundaries, 200, 300) == 0.0
        assert equi_depth_fraction(boundaries, -100, 12.5) == pytest.approx(0.125)

    def test_column_statistics_cached_per_version(self):
        database = make_three_table_db()
        first = database.column_statistics("r", "b")
        assert database.column_statistics("r", "b") is first
        database.insert("r", [(10**6, 1, 1, 1)])
        second = database.column_statistics("r", "b")
        assert second is not first
        assert second.row_count == first.row_count + 1

    def test_equi_depth_ranges_cached_and_copy_safe(self):
        database = make_three_table_db()
        first = database.equi_depth_ranges("r", "b", 8)
        first.append(12345.0)  # corrupting the returned list must not stick
        second = database.equi_depth_ranges("r", "b", 8)
        assert 12345.0 not in second
        database.insert("r", [(10**6 + 1, 1, 1, 1)])
        assert database.equi_depth_ranges("r", "b", 8)  # cache was invalidated


# -- differential tests ----------------------------------------------------------------

QUERY_TEMPLATES = [
    "SELECT a, b FROM r WHERE b BETWEEN {low} AND {high}",
    "SELECT a, b, c FROM r WHERE b < {high} AND c > {low}",
    "SELECT DISTINCT a FROM r WHERE c < {high}",
    "SELECT a, avg(b) AS ab FROM r WHERE b > {low} GROUP BY a HAVING avg(c) < {high}",
    "SELECT r.id, s.e FROM r JOIN s ON (a = d) WHERE r.b BETWEEN {low} AND {high}",
    "SELECT a FROM (SELECT a AS a, b AS b FROM r WHERE b < {high}) tt WHERE tt.b > {low}",
    "SELECT r.id, s.e, t.f FROM r, s, t WHERE a = d AND d = f AND r.c < {high}",
    "SELECT id, b FROM r WHERE b < {high} ORDER BY b, id LIMIT 7",
    "SELECT count(*) AS n FROM r WHERE b BETWEEN {low} AND {high}",
    # A non-boolean conjunct: ``True AND a`` is true for every non-NULL a.
    "SELECT id FROM r WHERE 1 = 1 AND a",
]


@st.composite
def workload(draw):
    steps = []
    next_id = [10_000]
    for _ in range(draw(st.integers(1, 4))):
        template = draw(st.sampled_from(QUERY_TEMPLATES))
        low = draw(st.integers(0, 120))
        high = low + draw(st.integers(0, 200))
        steps.append(("query", template.format(low=low, high=high)))
        kind = draw(st.sampled_from(["insert", "delete", "none"]))
        if kind == "insert":
            rows = []
            for _ in range(draw(st.integers(1, 5))):
                rows.append(
                    (
                        next_id[0],
                        draw(st.integers(0, 14)),
                        draw(st.integers(0, 99)),
                        draw(st.integers(0, 299)),
                    )
                )
                next_id[0] += 1
            steps.append(("insert", rows))
        elif kind == "delete":
            threshold = draw(st.integers(0, 60))
            steps.append(("delete", threshold))
    return steps


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(workload())
    def test_optimized_plans_are_bit_identical(self, steps):
        database = make_three_table_db(num_rows=120, seed=9)
        database.create_index("r", "b")
        for kind, payload in steps:
            if kind == "query":
                unoptimized = engine(database, payload, optimize=False)
                optimized = engine(database, payload)
                assert optimized == unoptimized, payload
            elif kind == "insert":
                database.insert("r", payload)
            else:
                database.execute(f"DELETE FROM r WHERE b < {payload}")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**20), st.integers(2, 5))
    def test_systems_match_the_reference_oracle_after_every_update(self, seed, ops):
        rng = random.Random(seed)
        low = rng.randrange(40)
        queries = [
            f"SELECT a, avg(b) AS ab FROM r GROUP BY a HAVING avg(c) < {150 + rng.randrange(100)}",
            f"SELECT a, avg(c) AS ac FROM r WHERE b > {low} GROUP BY a",
            f"SELECT d, sum(e) AS se FROM r JOIN s ON (a = d) WHERE r.b > {low} GROUP BY d",
        ]
        database = make_three_table_db(num_rows=150, seed=5)
        imp = assert_systems_match_oracle(database, queries, random_insert_batches(rng, ops))
        # The optimizer only ever sees instrumented or fallback plans; every
        # template above is answered through its sketch.
        assert imp.statistics.sketch_hits == ops * len(queries)
