"""Tests for the SQL lexer and parser."""

import sqlite3

import pytest

from repro.core.errors import ParseError
from repro.imp.middleware import IMPSystem
from repro.relational.expressions import Between, Comparison, FunctionCall, LogicalOp, Not
from repro.sql.ast import (
    DeleteStatement,
    InsertStatement,
    JoinSource,
    SelectStatement,
    SubquerySource,
    TableSource,
)
from repro.sql.lexer import tokenize
from repro.sql.parser import MAX_EXPRESSION_DEPTH, parse_select, parse_statement
from repro.storage.database import Database


class TestLexer:
    def test_keywords_and_identifiers_are_lowercased(self):
        tokens = tokenize("SELECT Brand FROM Sales")
        assert [t.type for t in tokens[:-1]] == ["KEYWORD", "IDENT", "KEYWORD", "IDENT"]
        assert tokens[1].value == "brand"
        assert tokens[3].value == "sales"

    def test_numbers_and_strings(self):
        tokens = tokenize("42 3.14 'O''Hare'")
        assert tokens[0].value == "42"
        assert tokens[1].value == "3.14"
        assert tokens[2].type == "STRING"
        assert tokens[2].value == "O'Hare"

    def test_operators(self):
        tokens = tokenize("a >= 1 AND b <> 2")
        ops = [t.value for t in tokens if t.type == "OP"]
        assert ops == [">=", "<>"]

    def test_comments_are_skipped(self):
        tokens = tokenize("SELECT a -- trailing comment\nFROM r")
        assert [t.value for t in tokens if t.type == "IDENT"] == ["a", "r"]

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(ParseError):
            tokenize("SELECT a FROM r WHERE a ~ 3")

    def test_eof_token_terminates_stream(self):
        assert tokenize("SELECT")[-1].type == "EOF"


class TestParseSelect:
    def test_simple_select(self):
        statement = parse_select("SELECT a, b AS bee FROM r WHERE a > 3")
        assert isinstance(statement, SelectStatement)
        assert [item.alias for item in statement.select_items] == [None, "bee"]
        assert isinstance(statement.where, Comparison)
        assert isinstance(statement.from_sources[0], TableSource)

    def test_select_star(self):
        statement = parse_select("SELECT * FROM r")
        assert statement.select_items[0].expression.name == "*"

    def test_group_by_having(self):
        statement = parse_select(
            "SELECT a, sum(b) AS sb FROM r GROUP BY a HAVING sum(b) > 10 AND avg(c) < 5"
        )
        assert len(statement.group_by) == 1
        assert isinstance(statement.having, LogicalOp)
        assert isinstance(statement.select_items[1].expression, FunctionCall)

    def test_order_by_limit(self):
        statement = parse_select("SELECT a FROM r ORDER BY a DESC, b LIMIT 7")
        assert statement.limit == 7
        assert statement.order_by[0].ascending is False
        assert statement.order_by[1].ascending is True

    def test_explicit_join(self):
        statement = parse_select("SELECT a FROM r JOIN s ON r.a = s.b")
        source = statement.from_sources[0]
        assert isinstance(source, JoinSource)
        assert isinstance(source.condition, Comparison)

    def test_comma_join(self):
        statement = parse_select("SELECT a FROM r, s, t WHERE a = b")
        assert len(statement.from_sources) == 3

    def test_subquery_in_from(self):
        statement = parse_select(
            "SELECT a FROM (SELECT a, b FROM r WHERE b < 10) tt JOIN s ON a = c"
        )
        join = statement.from_sources[0]
        assert isinstance(join, JoinSource)
        assert isinstance(join.left, SubquerySource)
        assert join.left.alias == "tt"

    def test_between_and_in(self):
        statement = parse_select(
            "SELECT a FROM r WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3)"
        )
        where = statement.where
        assert isinstance(where, LogicalOp)
        assert isinstance(where.operands[0], Between)

    def test_distinct(self):
        assert parse_select("SELECT DISTINCT a FROM r").distinct

    def test_alias_without_as(self):
        statement = parse_select("SELECT a aa FROM r rr")
        assert statement.select_items[0].alias == "aa"
        assert statement.from_sources[0].alias == "rr"

    def test_count_star(self):
        statement = parse_select("SELECT count(*) AS n FROM r")
        call = statement.select_items[0].expression
        assert isinstance(call, FunctionCall)
        assert call.star

    def test_malformed_queries_raise(self):
        for sql in [
            "SELECT FROM r",
            "SELECT a r",
            "SELECT a FROM r WHERE",
            "SELECT a FROM r GROUP a",
            "SELECT a FROM r LIMIT x",
            "FROM r SELECT a",
        ]:
            with pytest.raises(ParseError):
                parse_select(sql)

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_select("SELECT a FROM r extra tokens here")

    def test_semicolon_is_tolerated(self):
        assert isinstance(parse_select("SELECT a FROM r;"), SelectStatement)


class TestParseUpdates:
    def test_insert_with_columns(self):
        statement = parse_statement(
            "INSERT INTO sales (sid, brand, price) VALUES (8, 'HP', 1299), (9, 'HP', 99)"
        )
        assert isinstance(statement, InsertStatement)
        assert statement.columns == ["sid", "brand", "price"]
        assert statement.rows == [(8, "HP", 1299), (9, "HP", 99)]

    def test_insert_without_columns_and_negative_values(self):
        statement = parse_statement("INSERT INTO t VALUES (1, -2.5, NULL)")
        assert statement.rows == [(1, -2.5, None)]

    def test_delete_with_where(self):
        statement = parse_statement("DELETE FROM sales WHERE price > 1000")
        assert isinstance(statement, DeleteStatement)
        assert isinstance(statement.where, Comparison)

    def test_delete_without_where(self):
        statement = parse_statement("DELETE FROM sales")
        assert statement.where is None

    def test_unknown_statement_raises(self):
        with pytest.raises(ParseError):
            parse_statement("UPDATE t SET a = 1")


def _sqlite_and_engine(setup: list[str], sql: str) -> tuple[list, list]:
    """``sql``'s rows from stdlib ``sqlite3`` and from the engine, after the
    same ``setup`` statements, both sorted."""
    connection = sqlite3.connect(":memory:")
    database = Database()
    database.create_table("t", ["id", "a"], primary_key="id")
    connection.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a)")
    for statement in setup:
        connection.execute(statement)
        database.execute(statement)
    expected = sorted(connection.execute(sql).fetchall())
    connection.close()
    return expected, database.query(sql).to_sorted_list()


class TestNumberExponents:
    """A number with an exponent is one float literal, as in sqlite."""

    SETUP = ["INSERT INTO t VALUES (1, 5)", "INSERT INTO t VALUES (2, 2000)"]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT 1e3 AS x FROM t",
            "SELECT 2.5e1 AS x FROM t",
            "SELECT 1E-2 AS x FROM t",
            "SELECT 1e+2 AS x FROM t",
            "SELECT .5e1 AS x FROM t",
            "SELECT id FROM t WHERE a < 1e3",
            "SELECT id, a * 1e-3 AS x FROM t",
        ],
    )
    def test_answers_match_sqlite(self, sql):
        expected, engine = _sqlite_and_engine(self.SETUP, sql)
        assert engine == expected
        assert [type(value) for row in engine for value in row] == [
            type(value) for row in expected for value in row
        ]

    def test_a_bare_exponent_literal_is_not_a_column_alias(self):
        database = Database()
        database.create_table("t", ["id"])
        database.insert("t", [(1,)])
        result = database.query("SELECT 1e3 FROM t")
        assert result.to_sorted_list() == [(1000.0,)]
        assert "e3" not in result.schema.attributes

    def test_insert_values_with_an_exponent(self):
        expected, engine = _sqlite_and_engine(
            ["INSERT INTO t VALUES (1, 1e3)", "INSERT INTO t VALUES (2, -2.5E-1)"],
            "SELECT id, a FROM t",
        )
        assert engine == expected == [(1, 1000.0), (2, -0.25)]

    def test_tokens(self):
        assert [t.value for t in tokenize("1e3 2.5E+10 7")[:-1]] == ["1e3", "2.5E+10", "7"]

    def test_limit_with_an_exponent(self):
        assert parse_select("SELECT a FROM t LIMIT 1e1").limit == 10
        with pytest.raises(ParseError, match="out of range"):
            parse_select("SELECT a FROM t LIMIT 1e400")

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT 1e FROM t",
            "SELECT 1e+ FROM t",
            "SELECT 2.5E- AS x FROM t",
            "SELECT 3abc FROM t",
            "SELECT 1e3x FROM t",
        ],
    )
    def test_malformed_numbers_are_parse_errors(self, text):
        """sqlite rejects each of these as an unrecognized token."""
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (id)")
        with pytest.raises(sqlite3.Error):
            connection.execute(text)
        connection.close()
        with pytest.raises(ParseError, match="malformed number"):
            parse_select(text)


class TestNegatedInAndBetween:
    """``x NOT IN (...)`` and ``x NOT BETWEEN a AND b`` are ``NOT (...)`` of
    the plain predicate, NULL rules included, as in sqlite."""

    SETUP = [
        "INSERT INTO t VALUES (1, 5)",
        "INSERT INTO t VALUES (2, NULL)",
        "INSERT INTO t VALUES (3, 2000)",
        "INSERT INTO t VALUES (4, 7)",
        "INSERT INTO t VALUES (5, 6.5)",
    ]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t WHERE a NOT IN (5, 7)",
            "SELECT id FROM t WHERE a NOT IN (1)",
            "SELECT id FROM t WHERE a NOT IN (5, NULL)",
            "SELECT id FROM t WHERE a NOT IN (NULL)",
            "SELECT id FROM t WHERE NULL NOT IN (1, 2)",
            "SELECT id FROM t WHERE NULL NOT BETWEEN 1 AND 2",
            "SELECT id FROM t WHERE a NOT BETWEEN 5 AND 7",
            "SELECT id FROM t WHERE a + 1 NOT BETWEEN id AND 10",
            "SELECT id FROM t WHERE NOT a NOT IN (5, 7)",
            "SELECT id FROM t WHERE id NOT IN (1, 3) AND a NOT BETWEEN 6 AND 10",
            "SELECT id FROM t WHERE a NOT IN (5, 7) OR id NOT BETWEEN 2 AND 4",
            "SELECT id, a NOT IN (5, NULL) AS x FROM t",
            "SELECT id, a NOT BETWEEN 5 AND 7 AS x FROM t",
        ],
    )
    def test_answers_match_sqlite(self, sql):
        expected, engine = _sqlite_and_engine(self.SETUP, sql)
        assert engine == expected

    def test_they_parse_to_not_of_the_plain_predicate(self):
        for negated, plain in [
            ("a NOT IN (1, 2)", "a IN (1, 2)"),
            ("a NOT IN (1)", "a IN (1)"),
            ("a NOT BETWEEN 1 AND 2", "a BETWEEN 1 AND 2"),
        ]:
            assert parse_select(f"SELECT a FROM t WHERE {negated}").where == Not(
                parse_select(f"SELECT a FROM t WHERE {plain}").where
            )

    def test_not_alone_after_an_operand_is_still_an_error(self):
        with pytest.raises(ParseError):
            parse_select("SELECT a FROM t WHERE a NOT 3")

    def test_imp_answers_not_in_from_a_sketch(self):
        database = Database()
        database.create_table("t", ["id", "g", "b"], primary_key="id")
        database.insert("t", [(i, i % 10, i * 3 % 17) for i in range(200)])
        system = IMPSystem(database, num_fragments=4)
        sql = (
            "SELECT g, sum(b) AS s FROM t WHERE g NOT IN (2, 5, NULL) OR g NOT BETWEEN 3 AND 8"
            " GROUP BY g HAVING sum(b) > 150"
        )
        assert system.run_query(sql) == database.query(sql)
        system.apply_update("t", inserts=[(200, 2, 90), (201, 4, 99)], deletes=[(7, 7, 4)])
        assert system.run_query(sql) == database.query(sql)
        assert system.statistics.sketch_captures == 1
        assert system.statistics.sketch_hits == 2


class TestNestingDepth:
    """Nesting deeper than ``MAX_EXPRESSION_DEPTH`` ends in a ParseError
    before any recursive walk can overflow the interpreter's stack; at the
    bound, the engine and IMP answer."""

    @staticmethod
    def _shapes(depth: int) -> dict[str, str]:
        """Statements whose deepest expression (or FROM nesting) is ``depth``."""
        sub = "".join(f") AS s{i}" for i in range(depth - 2))
        return {
            "parentheses": "SELECT " + "(" * (depth - 1) + "a" + ")" * (depth - 1) + " AS x FROM t",
            "not": "SELECT id FROM t WHERE " + "NOT " * (depth - 2) + "a > 3",
            "plus": "SELECT " + " + ".join(["a"] * depth) + " AS x FROM t",
            "minus": "SELECT id FROM t WHERE " + "- " * (depth - 2) + "a > 3",
            # NOT(OR(=, =)) and NOT(BETWEEN): the postfix NOT is a level.
            "not-in": "SELECT id FROM t WHERE " + "NOT " * (depth - 4) + "a NOT IN (1, 2)",
            "not-between": "SELECT id FROM t WHERE "
            + "NOT " * (depth - 3)
            + "a NOT BETWEEN 1 AND 9",
            "having": "SELECT g, count(*) AS n FROM t GROUP BY g HAVING "
            + " + ".join(["count(*)"] * (depth - 1))
            + " > 3",
            "subqueries": "SELECT x FROM "
            + "(SELECT x FROM " * (depth - 2)
            + "(SELECT a AS x FROM t) AS s"
            + sub,
        }

    @staticmethod
    def _database() -> Database:
        database = Database()
        database.create_table("t", ["id", "g", "a"], primary_key="id")
        database.insert("t", [(i, i % 3, i) for i in range(30)])
        return database

    @pytest.mark.parametrize(
        "shape",
        ["parentheses", "not", "not-in", "not-between", "plus", "minus", "having", "subqueries"],
    )
    def test_at_the_bound_both_answer_and_one_past_both_raise(self, shape):
        at_bound = self._shapes(MAX_EXPRESSION_DEPTH)[shape]
        past = self._shapes(MAX_EXPRESSION_DEPTH + 1)[shape]
        database = self._database()
        expected = database.query(at_bound).to_sorted_list()
        system = IMPSystem(self._database(), num_fragments=4)
        assert system.run_query(at_bound).to_sorted_list() == expected
        for run in (database.query, system.run_query):
            with pytest.raises(ParseError, match="nested more than"):
                run(past)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t WHERE " + "(" * 109 + "a > 3" + ")" * 109,
            "SELECT id FROM t WHERE " + "NOT " * 330 + "a > 3",
            "SELECT " + " + ".join(["a"] * 495) + " AS x FROM t",
            "SELECT id FROM t WHERE " + "+ " * 2000 + "a > 3",
            "SELECT a FROM " + "(" * 2000 + "t" + ")" * 2000,
            "INSERT INTO t VALUES (1, 2, " + "- " * 2000 + "3)",
        ],
        ids=["parentheses", "not", "plus", "unary-plus", "from-parentheses", "insert-minus"],
    )
    def test_deep_input_is_a_parse_error(self, sql):
        with pytest.raises(ParseError, match="nested more than"):
            self._database().execute(sql)

    @pytest.mark.parametrize("connective", ["AND", "OR"])
    def test_long_and_or_chains_still_answer(self, connective):
        sql = "SELECT id FROM t WHERE " + f" {connective} ".join(["a >= 0"] * 5000)
        database = self._database()
        expected = [(i,) for i in range(30)]
        assert database.query(sql).to_sorted_list() == expected
        system = IMPSystem(self._database(), num_fragments=4)
        assert system.run_query(sql).to_sorted_list() == expected
