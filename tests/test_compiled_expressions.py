"""Tests for the compiled-expression layer.

``Expression.compile_batch(schema)`` (column kernels, the engine's one
lowering) must agree with the reference interpreter
(:func:`repro.relational.oracle.interpret`) on every input.
"""

from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

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
    clear_compile_cache,
    compile_batch_expression,
)
from repro.relational.schema import Schema, order_component
from repro.storage.database import Database
from tests.reference import checked_value

SCHEMA = Schema(["a", "b", "c"])
ROWS = [(10, 4, None), (0, -3, 7), (None, None, None), (5, 5, 5)]


def both(expression, row):
    """Interpreted ≡ batch-compiled (one entry and a whole column); returns
    the value."""
    return checked_value(expression, row, SCHEMA)


class TestCompileMatchesEvaluate:
    @pytest.mark.parametrize("row", ROWS)
    def test_column_and_literal(self, row):
        assert both(ColumnRef("b"), row) == row[1]
        assert both(Literal(7), row) == 7
        assert both(Literal(None), row) is None

    @pytest.mark.parametrize("row", ROWS)
    def test_arithmetic(self, row):
        both(BinaryOp("+", ColumnRef("a"), BinaryOp("*", ColumnRef("b"), Literal(2))), row)
        both(BinaryOp("/", ColumnRef("a"), ColumnRef("b")), row)
        both(BinaryOp("%", ColumnRef("a"), Literal(0)), row)
        both(UnaryMinus(ColumnRef("c")), row)

    @pytest.mark.parametrize("row", ROWS)
    def test_comparisons_and_between(self, row):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            both(Comparison(op, ColumnRef("a"), Literal(5)), row)
            both(Comparison(op, ColumnRef("a"), ColumnRef("b")), row)
        both(Between(ColumnRef("a"), Literal(0), ColumnRef("b")), row)
        both(Comparison("=", ColumnRef("a"), Literal(None)), row)

    @pytest.mark.parametrize("row", ROWS)
    def test_three_valued_logic(self, row):
        a_pos = Comparison(">", ColumnRef("a"), Literal(0))
        b_null = IsNull(ColumnRef("b"))
        c_null = IsNull(ColumnRef("c"), negated=True)
        both(LogicalOp("AND", [a_pos, b_null, c_null]), row)
        both(LogicalOp("OR", [a_pos, b_null, c_null]), row)
        both(Not(a_pos), row)
        both(Not(LogicalOp("AND", [a_pos, Not(b_null)])), row)

    def test_scalar_functions(self):
        row = (-7, 2, None)
        both(FunctionCall("abs", [ColumnRef("a")]), row)
        both(FunctionCall("round", [BinaryOp("/", ColumnRef("a"), Literal(3))]), row)
        both(FunctionCall("coalesce", [ColumnRef("c"), ColumnRef("b")]), row)
        both(FunctionCall("upper", [Literal("imp")]), row)

    def test_constant_folding(self):
        folded = BinaryOp("+", Literal(2), BinaryOp("*", Literal(3), Literal(4)))
        fn = folded.compile_batch(SCHEMA)
        # The folded kernel ignores the columns entirely.
        assert fn((), 1) == [14]
        assert fn(([99, 98], [99, 98], [99, 98]), 2) == [14, 14]

    def test_folding_skips_a_constant_that_raises(self):
        # sqrt(1) references no column but cannot be evaluated: compiling it
        # must not raise, and the error surfaces once there is an entry.
        raising = Comparison("=", FunctionCall("sqrt", [Literal(1)]), Literal(1))
        fn = raising.compile_batch(SCHEMA)
        assert fn(([], [], []), 0) == []
        with pytest.raises(UnsupportedOperationError):
            fn(([1], [2], [3]), 1)

    def test_aggregate_call_raises_on_any_entry(self):
        aggregate = FunctionCall("sum", [ColumnRef("a")])
        with pytest.raises(UnsupportedOperationError):
            both(aggregate, (1, 2, 3))

    def test_unknown_scalar_function_raises_on_any_entry(self):
        unknown = FunctionCall("sqrt", [ColumnRef("a")])
        with pytest.raises(UnsupportedOperationError):
            both(unknown, (1, 2, 3))

    def test_logical_ops_do_not_short_circuit(self):
        # The reference semantics evaluate every operand, so a raising later
        # operand must raise in the compiled form too -- even when an earlier
        # operand already decides the outcome.
        decided_false = Comparison("<", ColumnRef("a"), Literal(0))
        decided_true = Comparison(">", ColumnRef("a"), Literal(0))
        raising = FunctionCall("sqrt", [ColumnRef("a")])
        row = (5, 0, 0)
        with pytest.raises(UnsupportedOperationError):
            both(LogicalOp("AND", [decided_false, raising]), row)
        with pytest.raises(UnsupportedOperationError):
            both(LogicalOp("OR", [decided_true, raising]), row)


class TestCompileCache:
    def test_equal_expressions_share_compiled_form(self):
        clear_compile_cache()
        first = compile_batch_expression(Comparison("<", ColumnRef("a"), Literal(5)), SCHEMA)
        second = compile_batch_expression(Comparison("<", ColumnRef("a"), Literal(5)), SCHEMA)
        assert first is second

    def test_different_schema_gets_own_compiled_form(self):
        clear_compile_cache()
        other = Schema(["x", "a"])
        expression = ColumnRef("a")
        assert compile_batch_expression(expression, SCHEMA)(([1], [2], [3]), 1) == [1]
        assert compile_batch_expression(expression, other)(([1], [2]), 1) == [2]


class TestBooleanOrdering:
    def test_bools_sort_as_numerics(self):
        assert order_component(True) == order_component(1)
        assert order_component(False) == order_component(0)
        # A column mixing bools and ints orders numerically, not lexically.
        ordered = sorted([3, True, 0, False, 2], key=order_component)
        assert ordered == [0, False, True, 2, 3]

    def test_evaluator_orders_bools_with_numbers(self):
        # flag mixes bools and ints: True=1, False=0 must order numerically,
        # not land in the string bucket and sort after every number.
        database = Database()
        database.create_table("t", ["id", "flag"])
        database.insert("t", [(1, True), (2, 0), (3, 5), (4, False), (5, 2)])
        ascending = database.query("SELECT id, flag FROM t ORDER BY flag LIMIT 2")
        assert {row[0] for row in ascending.rows()} == {2, 4}

    def test_evaluator_descending_bools(self):
        database = Database()
        database.create_table("t", ["id", "flag"])
        database.insert("t", [(1, True), (2, 0), (3, 5), (4, False), (5, 2)])
        descending = database.query("SELECT id, flag FROM t ORDER BY flag DESC LIMIT 2")
        assert {row[0] for row in descending.rows()} == {3, 5}


# -- ``column <op> constant``: the inlined comparison ---------------------------------

OPERATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
STORED = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -0.0, math.nan, math.inf, "", "a", "b"]),
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.text(max_size=2),
)
CONSTANTS = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True), st.text(max_size=2))


def called_comparison(symbol: str, values: list, constant) -> list:
    """``bool(operation(value, constant))`` per value, NULL for NULL; raises
    the engine's error for the first value the operation rejects."""
    operation = OPERATORS[symbol]
    column = []
    for value in values:
        if value is None:
            column.append(None)
            continue
        try:
            column.append(bool(operation(value, constant)))
        except TypeError:
            types = f"{type(value).__name__} and {type(constant).__name__}"
            raise UnsupportedOperationError(f"operator {symbol} does not apply to {types}")
    return column


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(OPERATORS)), st.lists(STORED, max_size=8), CONSTANTS)
def test_a_comparison_with_a_constant_equals_the_called_operator(symbol, values, constant):
    kernel = Comparison(symbol, ColumnRef("v"), Literal(constant)).compile_batch(Schema(["v"]))
    try:
        expected = called_comparison(symbol, values, constant)
    except UnsupportedOperationError as error:
        with pytest.raises(UnsupportedOperationError) as raised:
            kernel((values,), len(values))
        assert str(raised.value) == str(error)
        return
    column = kernel((values,), len(values))
    assert repr(column) == repr(expected)
    assert all(value is None or type(value) is bool for value in column)
