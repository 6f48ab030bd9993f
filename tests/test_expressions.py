"""Tests for :mod:`repro.relational.expressions`."""

import pytest

from repro.core.errors import UnsupportedOperationError
from repro.relational.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    FunctionCall,
    IsNull,
    Literal,
    LogicalOp,
    Not,
    UnaryMinus,
    conjunction,
    conjuncts,
)
from repro.relational.schema import Schema
from tests.reference import checked_value

SCHEMA = Schema(["a", "b", "c"])
ROW = (10, 4, None)


def value(expression):
    """The expression's value for ``ROW``: reference-interpreted, with both
    compiled forms checked against it."""
    return checked_value(expression, ROW, SCHEMA)


class TestBasicExpressions:
    def test_column_ref(self):
        assert value(ColumnRef("b")) == 4
        assert ColumnRef("a").columns() == {"a"}

    def test_literal(self):
        assert value(Literal(7)) == 7
        assert Literal("x").columns() == set()

    def test_arithmetic(self):
        expr = BinaryOp("+", ColumnRef("a"), BinaryOp("*", ColumnRef("b"), Literal(2)))
        assert value(expr) == 18

    def test_division_by_zero_is_null(self):
        assert value(BinaryOp("/", Literal(1), Literal(0))) is None

    def test_arithmetic_with_null_is_null(self):
        assert value(BinaryOp("+", ColumnRef("c"), Literal(1))) is None

    def test_unary_minus(self):
        assert value(UnaryMinus(ColumnRef("b"))) == -4
        assert value(UnaryMinus(ColumnRef("c"))) is None

    def test_unknown_operator_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            BinaryOp("**", Literal(1), Literal(2))


class TestPredicates:
    def test_comparisons(self):
        assert value(Comparison(">", ColumnRef("a"), Literal(5))) is True
        assert value(Comparison("<=", ColumnRef("b"), Literal(3))) is False
        assert value(Comparison("<>", Literal(1), Literal(2))) is True

    def test_comparison_with_null_is_unknown(self):
        assert value(Comparison("=", ColumnRef("c"), Literal(1))) is None

    def test_between_inclusive(self):
        expr = Between(ColumnRef("b"), Literal(4), Literal(10))
        assert value(expr) is True
        assert value(Between(ColumnRef("b"), Literal(5), Literal(10))) is False

    def test_is_null(self):
        assert value(IsNull(ColumnRef("c"))) is True
        assert value(IsNull(ColumnRef("a"))) is False
        assert value(IsNull(ColumnRef("c"), negated=True)) is False

    def test_three_valued_and(self):
        unknown = Comparison("=", ColumnRef("c"), Literal(1))
        true = Literal(True)
        false = Comparison(">", Literal(1), Literal(2))
        assert value(LogicalOp("AND", [true, false])) is False
        assert value(LogicalOp("AND", [true, unknown])) is None

    def test_three_valued_or(self):
        unknown = Comparison("=", ColumnRef("c"), Literal(1))
        true = Comparison("<", Literal(1), Literal(2))
        false = Comparison(">", Literal(1), Literal(2))
        assert value(LogicalOp("OR", [false, true])) is True
        assert value(LogicalOp("OR", [false, unknown])) is None

    def test_not(self):
        assert value(Not(Comparison(">", Literal(2), Literal(1)))) is False
        assert value(Not(Comparison("=", ColumnRef("c"), Literal(1)))) is None


class TestFunctions:
    def test_aggregate_flag(self):
        assert FunctionCall("sum", [ColumnRef("a")]).is_aggregate
        assert not FunctionCall("abs", [ColumnRef("a")]).is_aggregate

    def test_aggregate_cannot_be_evaluated_per_row(self):
        with pytest.raises(UnsupportedOperationError):
            value(FunctionCall("sum", [ColumnRef("a")]))

    def test_scalar_functions(self):
        assert value(FunctionCall("abs", [UnaryMinus(ColumnRef("a"))])) == 10
        assert value(FunctionCall("coalesce", [ColumnRef("c"), Literal(5)])) == 5

    def test_unknown_scalar_function_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            value(FunctionCall("mystery", [Literal(1)]))

    def test_contains_aggregate_propagates(self):
        expr = Comparison(">", FunctionCall("sum", [ColumnRef("a")]), Literal(10))
        assert expr.contains_aggregate()
        assert not Comparison(">", ColumnRef("a"), Literal(10)).contains_aggregate()


class TestStructuralHelpers:
    def test_canonical_parameterizes_literals(self):
        expr = Comparison(">", ColumnRef("a"), Literal(10))
        assert expr.canonical() == "(a > 10)"
        assert expr.canonical(parameterize=True) == "(a > ?)"

    def test_canonical_escapes_strings(self):
        assert Literal("it's").canonical() == "'it''s'"

    def test_equality_via_canonical_form(self):
        assert Comparison(">", ColumnRef("a"), Literal(1)) == Comparison(
            ">", ColumnRef("a"), Literal(1)
        )

    def test_with_children_substitutes_a_column(self):
        expr = Comparison("=", ColumnRef("a"), ColumnRef("b"))
        renamed = expr.with_children([ColumnRef("x"), expr.right])
        assert renamed.columns() == {"x", "b"}
        assert renamed.canonical() == "(x = b)"
        assert expr.canonical() == "(a = b)"

    def test_conjuncts_flatten_nested_ands(self):
        expr = LogicalOp(
            "AND",
            [
                Comparison(">", ColumnRef("a"), Literal(1)),
                LogicalOp(
                    "AND",
                    [
                        Comparison("<", ColumnRef("b"), Literal(9)),
                        Comparison("=", ColumnRef("a"), ColumnRef("b")),
                    ],
                ),
            ],
        )
        assert len(conjuncts(expr)) == 3
        assert conjuncts(None) == []

    def test_conjunction_roundtrip(self):
        parts = [Comparison(">", ColumnRef("a"), Literal(1)), Literal(True)]
        combined = conjunction(parts)
        assert isinstance(combined, LogicalOp)
        assert conjunction([]) is None
        assert conjunction(parts[:1]) is parts[0]
