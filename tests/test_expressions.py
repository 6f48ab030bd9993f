"""Tests for :mod:`repro.relational.expressions`."""

import sqlite3

import pytest

from repro.core.errors import UnsupportedOperationError
from repro.imp.middleware import IMPSystem
from repro.imp.strategies import EagerStrategy
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
from repro.storage.database import Database
from tests.reference import checked_value, oracle

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

    @pytest.mark.parametrize(
        "low, high, expected",
        [
            # ``b BETWEEN low AND high`` is ``b >= low AND b <= high``: a NULL
            # bound is one UNKNOWN side, the other decides FALSE or NULL.
            (ColumnRef("c"), Literal(3), False),
            (ColumnRef("c"), Literal(10), None),
            (Literal(5), ColumnRef("c"), False),
            (Literal(3), ColumnRef("c"), None),
            (Literal(None), Literal(3), False),
            (Literal(3), Literal(None), None),
            (ColumnRef("c"), ColumnRef("c"), None),
        ],
    )
    def test_between_with_a_null_bound(self, low, high, expected):
        between = Between(ColumnRef("b"), low, high)
        assert value(between) is expected
        assert value(Not(between)) is (None if expected is None else not expected)

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



class TestOperandTypeErrors:
    """An operator applied to operand types it does not take raises
    :class:`UnsupportedOperationError` naming the operator and the operand
    types -- from the engine's kernels and the oracle alike, never a raw
    ``TypeError``."""

    TEXT_ROW = ("x", 4, None)
    CASES = [
        (BinaryOp("+", ColumnRef("a"), Literal(1)), "+ does not apply to str and int"),
        (BinaryOp("*", ColumnRef("a"), ColumnRef("a")), "* does not apply to str and str"),
        (UnaryMinus(ColumnRef("a")), "- does not apply to str"),
        (Comparison("<", ColumnRef("a"), Literal(2)), "< does not apply to str and int"),
        (Comparison(">=", ColumnRef("b"), ColumnRef("a")), ">= does not apply to int and str"),
        (
            Between(ColumnRef("a"), Literal(1), Literal(2)),
            "BETWEEN does not apply to str, int and int",
        ),
        (
            Between(ColumnRef("b"), ColumnRef("a"), Literal(9)),
            "BETWEEN does not apply to int, str and int",
        ),
        # A NULL bound leaves the other comparison to run, and it raises.
        (
            Between(ColumnRef("a"), Literal(1), ColumnRef("c")),
            "BETWEEN does not apply to str, int and NoneType",
        ),
        (
            Comparison("=", ColumnRef("b"), BinaryOp("+", Literal("x"), Literal(1))),
            "+ does not apply to str and int",
        ),
    ]

    @pytest.mark.parametrize("expression, message", CASES)
    def test_engine_and_oracle_raise_the_same_typed_error(self, expression, message):
        with pytest.raises(UnsupportedOperationError) as interpreted:
            checked_value(expression, self.TEXT_ROW, SCHEMA)
        assert str(interpreted.value) == f"operator {message}"
        # The kernel names the first offending entry of a longer column.
        columns = [[None, 1, "x"], [4, 4, 4], [None, None, None]]
        with pytest.raises(UnsupportedOperationError) as kernel:
            expression.compile_batch(SCHEMA)(columns, 3)
        assert str(kernel.value) == f"operator {message}"

    FUNCTION_CASES = [
        (FunctionCall("abs", [ColumnRef("a")]), "abs() does not apply to str"),
        (FunctionCall("round", [ColumnRef("a")]), "round() does not apply to str"),
        (
            FunctionCall("round", [ColumnRef("b"), ColumnRef("a")]),
            "round() does not apply to int and str",
        ),
    ]

    @pytest.mark.parametrize("expression, message", FUNCTION_CASES)
    def test_a_scalar_function_raises_it_too(self, expression, message):
        with pytest.raises(UnsupportedOperationError) as interpreted:
            checked_value(expression, self.TEXT_ROW, SCHEMA)
        assert str(interpreted.value) == f"function {message}"
        columns = [[None, 1, "x"], [4, 4, 4], [None, None, None]]
        with pytest.raises(UnsupportedOperationError) as kernel:
            expression.compile_batch(SCHEMA)(columns, 3)
        assert str(kernel.value) == f"function {message}"

    QUERIES = [
        "SELECT a + 1 FROM t",
        "SELECT -a FROM t",
        "SELECT a FROM t WHERE a < 2",
        "SELECT a FROM t WHERE a = 'x' + 1",
        "SELECT id FROM t WHERE a BETWEEN 1 AND 2",
        "SELECT abs(a) FROM t",
        "SELECT round(a) FROM t",
        "SELECT id FROM t WHERE abs(a) > 1",
    ]

    @staticmethod
    def _database():
        database = Database()
        database.create_table("t", ["id", "a", "b"], primary_key="id")
        database.insert("t", [(i, i % 3, 10 * i) for i in range(1, 9)] + [(9, "x", 5)])
        return database

    @pytest.mark.parametrize("sql", QUERIES)
    def test_through_database_query_and_imp_system(self, sql):
        database = self._database()
        with pytest.raises(UnsupportedOperationError) as batch:
            database.query(sql)
        with pytest.raises(UnsupportedOperationError) as reference:
            oracle(database, sql)
        assert str(batch.value) == str(reference.value)
        with pytest.raises(UnsupportedOperationError):
            IMPSystem(database, num_fragments=4).run_query(sql)

    def test_eager_maintenance_round_raises_it_after_the_commit(self):
        database = self._database()
        database.delete_rows("t", [(9, "x", 5)])
        system = IMPSystem(database, num_fragments=4, strategy=EagerStrategy())
        sql = "SELECT a, count(*) AS n FROM t WHERE b < 30 GROUP BY a"
        assert system.run_query(sql) == database.query(sql)
        version = database.version
        with pytest.raises(UnsupportedOperationError, match="< does not apply to str and int"):
            system.apply_update("t", inserts=[(10, 1, "x")])
        assert database.version == version + 1
        # The system answers again once the offending row is gone.
        system.apply_update("t", deletes=[(10, 1, "x")], inserts=[(11, 2, 5)])
        assert system.run_query(sql) == database.query(sql)

    FINE = [
        (Comparison("=", ColumnRef("a"), Literal(1)), False),
        (Comparison("<>", ColumnRef("a"), ColumnRef("b")), True),
        (Comparison("<", ColumnRef("a"), Literal("y")), True),
        (Between(ColumnRef("a"), Literal("a"), Literal("z")), True),
        (BinaryOp("+", ColumnRef("a"), ColumnRef("c")), None),
        (Comparison("<", ColumnRef("c"), ColumnRef("a")), None),
        (Between(ColumnRef("c"), Literal(1), ColumnRef("a")), None),
        (Between(ColumnRef("b"), ColumnRef("c"), Literal(3)), False),
        (FunctionCall("round", [ColumnRef("b"), ColumnRef("c")]), None),
    ]

    @pytest.mark.parametrize("expression, expected", FINE)
    def test_equality_like_types_and_null_operands_do_not_raise(self, expression, expected):
        """Equality across types is false, not an error; operands of one
        type compare; a NULL operand yields NULL before any type is looked at
        (a NULL bound of BETWEEN is one side of an AND: the other decides)."""
        assert checked_value(expression, self.TEXT_ROW, SCHEMA) is expected

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t WHERE a = 'x'",
            "SELECT id FROM t WHERE a <> 1",
            "SELECT a, count(*) AS n FROM t GROUP BY a",
        ],
    )
    def test_a_mixed_type_column_still_answers_what_does_not_order_it(self, sql):
        database = self._database()
        expected = oracle(database, sql)
        assert database.query(sql) == expected
        assert IMPSystem(database, num_fragments=4).run_query(sql) == expected


class TestBetweenAgainstSqlite:
    """``x BETWEEN lo AND hi`` is ``x >= lo AND x <= hi`` under three-valued
    logic, NULL bounds included: the engine and the oracle select the rows
    sqlite selects."""

    ROWS = [(1, 5), (2, None), (3, 2000), (4, 7)]
    CASES = {
        "a NOT BETWEEN NULL AND 7": [(3,)],
        "NOT (a BETWEEN NULL AND 7)": [(3,)],
        "a NOT BETWEEN 6 AND NULL": [(1,)],
        "a BETWEEN NULL AND 7": [],
        "a BETWEEN 6 AND NULL": [],
        "a NOT BETWEEN NULL AND NULL": [],
        "a NOT BETWEEN 5 AND 7": [(3,)],
        "a BETWEEN 5 AND 7 OR a BETWEEN NULL AND 4": [(1,), (4,)],
        "a NOT BETWEEN NULL AND 7 OR a IS NULL": [(2,), (3,)],
    }

    @pytest.mark.parametrize("where", list(CASES))
    def test_engine_and_oracle_select_what_sqlite_selects(self, where):
        sql = f"SELECT id FROM t WHERE {where}"
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (id INTEGER, a INTEGER)")
        connection.executemany("INSERT INTO t VALUES (?, ?)", self.ROWS)
        expected = sorted(connection.execute(sql).fetchall())
        connection.close()
        database = Database()
        database.create_table("t", ["id", "a"])
        database.insert("t", self.ROWS)
        assert expected == self.CASES[where]
        assert database.query(sql).to_sorted_list() == expected
        assert oracle(database, sql).to_sorted_list() == expected
        database.create_index("t", "a")
        assert database.query(sql).to_sorted_list() == expected
