"""Tests for relational algebra plan nodes and the bag-semantics evaluator."""

import pytest

from repro.core.errors import PlanError
from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    CrossProduct,
    Distinct,
    Join,
    OrderItem,
    Projection,
    ProjectionItem,
    Selection,
    TableScan,
    TopK,
    walk_plan,
)
from repro.relational.evaluator import Evaluator
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    Comparison,
    Literal,
    LogicalOp,
)
from repro.relational.oracle import RowEvaluator
from repro.relational.schema import Relation
from repro.storage.database import Database


@pytest.fixture()
def small_db() -> Database:
    database = Database()
    database.create_table("r", ["a", "b"])
    database.create_table("s", ["c", "d"])
    database.insert("r", [(1, 10), (1, 10), (2, 20), (3, 30)])
    database.insert("s", [(10, "x"), (20, "y"), (40, "z")])
    return database


class TestPlanNodes:
    def test_table_scan_schema_is_qualified(self, small_db):
        scan = TableScan("r")
        assert scan.output_schema(small_db).attributes == ("r.a", "r.b")
        aliased = TableScan("r", "t")
        assert aliased.output_schema(small_db).attributes == ("t.a", "t.b")

    def test_referenced_tables(self, small_db):
        plan = Selection(
            Join(TableScan("r"), TableScan("s"), Comparison("=", ColumnRef("b"), ColumnRef("c"))),
            Comparison(">", ColumnRef("a"), Literal(0)),
        )
        assert plan.referenced_tables() == {"r", "s"}

    def test_walk_plan_visits_all_nodes(self, small_db):
        plan = Projection(
            Selection(TableScan("r"), Comparison(">", ColumnRef("a"), Literal(1))),
            [ProjectionItem(ColumnRef("a"))],
        )
        kinds = [type(node).__name__ for node in walk_plan(plan)]
        assert kinds == ["Projection", "Selection", "TableScan"]

    def test_equi_join_keys_detection(self):
        join = Join(
            TableScan("r"), TableScan("s"), Comparison("=", ColumnRef("b"), ColumnRef("c"))
        )
        assert join.equi_join_keys() == (["b"], ["c"])
        theta = Join(
            TableScan("r"), TableScan("s"), Comparison("<", ColumnRef("b"), ColumnRef("c"))
        )
        assert theta.equi_join_keys() is None
        assert CrossProduct(TableScan("r"), TableScan("s")).equi_join_keys() is None

    def test_aggregation_output_schema(self, small_db):
        node = Aggregation(
            TableScan("r"),
            [ColumnRef("a")],
            [Aggregate(AggregateFunction.SUM, ColumnRef("b"), "total")],
        )
        assert node.output_schema(small_db).attributes == ("a", "total")

    def test_invalid_plan_construction(self):
        with pytest.raises(PlanError):
            Projection(TableScan("r"), [])
        with pytest.raises(PlanError):
            Aggregation(TableScan("r"), [], [])
        with pytest.raises(PlanError):
            TopK(TableScan("r"), 0, [OrderItem(ColumnRef("a"))])
        with pytest.raises(PlanError):
            TopK(TableScan("r"), 3, [])
        with pytest.raises(PlanError):
            Aggregate(AggregateFunction.SUM, None, "x")

    def test_explain_renders_tree(self, small_db):
        plan = Selection(TableScan("r"), Comparison(">", ColumnRef("a"), Literal(1)))
        text = plan.explain(small_db)
        assert "Selection" in text and "TableScan(r)" in text


@pytest.fixture(params=["engine", "reference"])
def evaluator_for(request):
    """The engine and the reference oracle give every operator one semantics."""
    if request.param == "engine":
        return Evaluator
    return lambda provider: RowEvaluator(provider, optimize_plans=False)


NAN = float("nan")


def make_order_join_db() -> Database:
    """Tied order keys, repeated rows, mixed-type and NaN keys, NULL join
    operands and an empty table -- what LIMIT and non-equi joins turn on."""
    database = Database()
    database.create_table("t", ["id", "g", "v"])
    database.insert(
        "t",
        [
            (1, 2, "oak"),
            (2, 1, None),
            (3, 1, True),
            (3, 1, True),
            (3, 1, True),
            (4, 2, 2.5),
            (5, 1, NAN),
            (6, None, "ash"),
            (7, 2, 0),
            (7, 2, 0),
        ],
    )
    database.create_table("u", ["k", "w"])
    database.insert("u", [(1, 10), (2, 20), (2, 20), (None, 30)])
    database.create_table("e", ["z"])
    return database


def col(name: str) -> ColumnRef:
    return ColumnRef(name)


def top(child, k, *order):
    return TopK(child, k, [OrderItem(col(name), ascending) for name, ascending in order])


T, U, E = TableScan("t"), TableScan("u"), TableScan("e")
DESC, ASC = False, True

ORDER_JOIN_CASES = {
    # ``g`` ties: equal keys are cut in table order.
    "ties_keep_table_order": (top(T, 3, ("g", ASC)), [(6, None, "ash"), (2, 1, None), (3, 1, True)]),
    "multiplicity_straddles_k": (
        top(T, 4, ("g", ASC)),
        [(6, None, "ash"), (2, 1, None), (3, 1, True), (3, 1, True)],
    ),
    "multiplicity_cut_inside_first_entry": (
        top(T, 2, ("id", DESC)),
        [(7, 2, 0), (7, 2, 0)],
    ),
    "k_larger_than_input": (top(U, 99, ("k", ASC)), [(None, 30), (1, 10), (2, 20), (2, 20)]),
    # Ascending: NULL, numbers (bools are numbers), NaN, strings.
    "mixed_types_ascending": (
        top(T, 6, ("v", ASC)),
        [(2, 1, None), (7, 2, 0), (7, 2, 0), (3, 1, True), (3, 1, True), (3, 1, True)],
    ),
    # Descending: strings reversed, numbers high to low with NaN still after
    # every number, NULL last.
    "mixed_types_descending": (
        top(T, 8, ("v", DESC)),
        [
            (1, 2, "oak"),
            (6, None, "ash"),
            (4, 2, 2.5),
            (3, 1, True),
            (3, 1, True),
            (3, 1, True),
            (7, 2, 0),
            (7, 2, 0),
        ],
    ),
    "nan_after_numbers_before_null_descending": (
        Projection(
            top(Selection(T, Comparison("=", col("g"), Literal(1))), 9, ("v", DESC)),
            [ProjectionItem(col("id"))],
        ),
        [(3,), (3,), (3,), (5,), (2,)],
    ),
    "two_keys_mixed_directions": (
        top(T, 3, ("g", DESC), ("id", ASC)),
        [(1, 2, "oak"), (4, 2, 2.5), (7, 2, 0)],
    ),
    "top_k_above_selection": (
        top(Selection(T, Comparison(">", col("id"), Literal(2))), 2, ("g", ASC)),
        [(6, None, "ash"), (3, 1, True)],
    ),
    "selection_above_top_k": (
        Selection(top(T, 5, ("id", ASC)), Comparison("=", col("g"), Literal(1))),
        [(2, 1, None), (3, 1, True), (3, 1, True), (3, 1, True)],
    ),
    # The projection makes equal rows out of different ones: they merge at
    # their first occurrence before the limit is cut.
    "top_k_over_merging_projection": (
        top(Projection(T, [ProjectionItem(col("g"))]), 6, ("g", DESC)),
        [(2,), (2,), (2,), (2,), (1,), (1,)],
    ),
    "cross_product_with_empty_left": (CrossProduct(E, U), []),
    "cross_product_with_empty_right": (CrossProduct(U, E), []),
    "cross_product_multiplies_multiplicities": (
        Selection(CrossProduct(T, U), Comparison("=", col("id"), Literal(7))),
        [(7, 2, 0, None, 30), (7, 2, 0, None, 30)]
        + [(7, 2, 0, 1, 10)] * 2
        + [(7, 2, 0, 2, 20)] * 4,
    ),
    # NULL operands make the comparison unknown: (6, NULL, ...) and
    # (NULL, 30) never qualify.
    "theta_less_than": (
        Projection(
            Join(T, U, Comparison("<", col("g"), col("k"))),
            [ProjectionItem(col("id")), ProjectionItem(col("k"))],
        ),
        [(2, 2)] * 2 + [(3, 2)] * 6 + [(5, 2)] * 2,
    ),
    "theta_not_equal": (
        Projection(
            Join(U, TableScan("u", "x"), Comparison("<>", col("u.k"), col("x.k"))),
            [ProjectionItem(col("u.k")), ProjectionItem(col("x.k"), "xk")],
        ),
        [(1, 2), (1, 2), (2, 1), (2, 1)],
    ),
    # An equality that is not column = column cannot key the hash join.
    "residual_equality_on_an_expression": (
        Projection(
            Join(
                T,
                U,
                LogicalOp(
                    "AND",
                    [
                        Comparison("=", BinaryOp("+", col("g"), Literal(0)), col("k")),
                        Comparison("<", col("id"), Literal(3)),
                    ],
                ),
            ),
            [ProjectionItem(col("id")), ProjectionItem(col("w"))],
        ),
        [(1, 20), (1, 20), (2, 10)],
    ),
}


class TestEvaluator:
    def test_table_scan_preserves_multiplicities(self, small_db, evaluator_for):
        result = evaluator_for(small_db).evaluate(TableScan("r"))
        assert result.multiplicity((1, 10)) == 2
        assert len(result) == 4

    def test_selection(self, small_db, evaluator_for):
        plan = Selection(TableScan("r"), Comparison(">=", ColumnRef("a"), Literal(2)))
        result = evaluator_for(small_db).evaluate(plan)
        assert sorted(result.rows()) == [(2, 20), (3, 30)]

    def test_projection_with_expression(self, small_db, evaluator_for):
        plan = Projection(
            TableScan("r"),
            [ProjectionItem(BinaryOp("*", ColumnRef("b"), Literal(2)), "double_b")],
        )
        result = evaluator_for(small_db).evaluate(plan)
        assert result.schema.attributes == ("double_b",)
        assert result.multiplicity((20,)) == 2

    def test_hash_join_matches_nested_loop(self, small_db, evaluator_for):
        condition = Comparison("=", ColumnRef("b"), ColumnRef("c"))
        equi = Join(TableScan("r"), TableScan("s"), condition)
        theta = Join(
            TableScan("r"),
            TableScan("s"),
            Comparison("<=", ColumnRef("b"), ColumnRef("c")),
        )
        equi_result = evaluator_for(small_db).evaluate(equi)
        assert equi_result.multiplicity((1, 10, 10, "x")) == 2
        assert len(equi_result) == 3
        theta_result = evaluator_for(small_db).evaluate(theta)
        assert len(theta_result) > len(equi_result)

    def test_cross_product_cardinality(self, small_db, evaluator_for):
        result = evaluator_for(small_db).evaluate(CrossProduct(TableScan("r"), TableScan("s")))
        assert len(result) == 4 * 3

    def test_aggregation_sum_count_avg(self, small_db, evaluator_for):
        plan = Aggregation(
            TableScan("r"),
            [ColumnRef("a")],
            [
                Aggregate(AggregateFunction.SUM, ColumnRef("b"), "total"),
                Aggregate(AggregateFunction.COUNT, None, "cnt"),
                Aggregate(AggregateFunction.AVG, ColumnRef("b"), "mean"),
            ],
        )
        result = evaluator_for(small_db).evaluate(plan)
        rows = {row[0]: row[1:] for row in result.rows()}
        assert rows[1] == (20.0, 2, 10.0)
        assert rows[2] == (20.0, 1, 20.0)

    def test_aggregation_min_max(self, small_db, evaluator_for):
        plan = Aggregation(
            TableScan("r"),
            [],
            [
                Aggregate(AggregateFunction.MIN, ColumnRef("b"), "lo"),
                Aggregate(AggregateFunction.MAX, ColumnRef("b"), "hi"),
            ],
        )
        result = evaluator_for(small_db).evaluate(plan)
        assert list(result.rows()) == [(10, 30)]

    def test_global_aggregation_over_empty_input(self, small_db, evaluator_for):
        plan = Aggregation(
            Selection(TableScan("r"), Comparison(">", ColumnRef("a"), Literal(100))),
            [],
            [Aggregate(AggregateFunction.COUNT, None, "cnt")],
        )
        result = evaluator_for(small_db).evaluate(plan)
        assert list(result.rows()) == [(0,)]

    def test_distinct(self, small_db, evaluator_for):
        result = evaluator_for(small_db).evaluate(Distinct(TableScan("r")))
        assert result.multiplicity((1, 10)) == 1
        assert len(result) == 3

    def test_top_k_ascending_and_descending(self, small_db, evaluator_for):
        ascending = TopK(TableScan("r"), 2, [OrderItem(ColumnRef("b"))])
        descending = TopK(TableScan("r"), 2, [OrderItem(ColumnRef("b"), ascending=False)])
        asc_rows = evaluator_for(small_db).evaluate(ascending)
        desc_rows = evaluator_for(small_db).evaluate(descending)
        assert sorted(asc_rows.rows()) == [(1, 10), (1, 10)]
        assert sorted(desc_rows.rows()) == [(2, 20), (3, 30)]

    def test_top_k_truncates_multiplicity(self, small_db, evaluator_for):
        plan = TopK(TableScan("r"), 1, [OrderItem(ColumnRef("b"))])
        result = evaluator_for(small_db).evaluate(plan)
        assert len(result) == 1
        assert result.multiplicity((1, 10)) == 1

    @pytest.mark.parametrize("case", sorted(ORDER_JOIN_CASES))
    def test_limit_ties_cross_and_theta_joins(self, case, evaluator_for):
        plan, expected = ORDER_JOIN_CASES[case]
        result = evaluator_for(make_order_join_db()).evaluate(plan)
        assert result == Relation(result.schema, expected)

    def test_aggregation_ignores_nulls(self, evaluator_for):
        database = Database()
        database.create_table("t", ["g", "v"])
        database.insert("t", [(1, None), (1, 4), (1, 6), (2, None)])
        plan = Aggregation(
            TableScan("t"),
            [ColumnRef("g")],
            [
                Aggregate(AggregateFunction.AVG, ColumnRef("v"), "mean"),
                Aggregate(AggregateFunction.COUNT, ColumnRef("v"), "cnt"),
            ],
        )
        rows = {row[0]: row[1:] for row in evaluator_for(database).evaluate(plan).rows()}
        assert rows[1] == (5.0, 2)
        assert rows[2] == (None, 0)
