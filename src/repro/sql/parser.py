"""Recursive-descent SQL parser.

Grammar (the subset exercised by the paper's workloads, Appendix A)::

    statement   := select | insert | delete
    select      := SELECT [DISTINCT] select_list FROM from_list
                   [WHERE expr] [GROUP BY expr_list] [HAVING expr]
                   [ORDER BY order_list] [LIMIT number]
    from_list   := from_item ("," from_item)*
    from_item   := table [AS? alias] | "(" select ")" alias
                   | from_item JOIN from_item ON expr
    insert      := INSERT INTO table ["(" columns ")"] VALUES tuple ("," tuple)*
    delete      := DELETE FROM table [WHERE expr]

Expression precedence (lowest to highest): OR, AND, NOT, comparison /
BETWEEN / IS NULL, additive, multiplicative, unary minus, primary.

Nesting is bounded by :data:`MAX_EXPRESSION_DEPTH`, so input nested too deeply
for the recursive walks after the parser ends in a :class:`ParseError`, never
in a ``RecursionError``.
"""

from __future__ import annotations

from repro.core.errors import ParseError
from repro.relational.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    IsNull,
    Literal,
    LogicalOp,
    Not,
    UnaryMinus,
)
from repro.sql.ast import (
    DeleteStatement,
    FromSource,
    InsertStatement,
    JoinSource,
    OrderSpec,
    SelectItem,
    SelectStatement,
    Statement,
    SubquerySource,
    TableSource,
)
from repro.sql.lexer import Token, tokenize

MAX_EXPRESSION_DEPTH = 64
"""How deeply a statement may nest: both the depth of each expression tree
(an operand one level below its operator, a column or literal one level) and
the parser's own nesting (a clause's expression, each parenthesis, ``NOT``,
unary minus and parenthesised FROM item one level).  The parser spends about
ten interpreter frames per parenthesis, and the translator, the optimizer,
the compilers and the oracle walk the trees recursively, so the bound keeps
all of them well inside Python's default recursion limit of 1 000."""


class _Parser:
    """Stateful cursor over the token stream."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0
        self._in_expression = False

    # -- token helpers ----------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type != "EOF":
            self._pos += 1
        return token

    def _match_keyword(self, *names: str) -> bool:
        if self._peek().is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, name: str) -> Token:
        token = self._peek()
        if not token.is_keyword(name):
            raise ParseError(f"expected {name.upper()}, found {token.value!r}", token.position)
        return self._advance()

    def _match_type(self, token_type: str) -> bool:
        if self._peek().type == token_type:
            self._advance()
            return True
        return False

    def _nest(self) -> None:
        """Enter one level of nesting (:data:`MAX_EXPRESSION_DEPTH`); the
        caller leaves it with ``self._depth -= 1``."""
        self._depth += 1
        if self._depth > MAX_EXPRESSION_DEPTH:
            raise ParseError(
                f"expression nested more than {MAX_EXPRESSION_DEPTH} levels deep",
                self._peek().position,
            )

    def _expect_type(self, token_type: str) -> Token:
        token = self._peek()
        if token.type != token_type:
            raise ParseError(
                f"expected {token_type}, found {token.value!r}", token.position
            )
        return self._advance()

    # -- statements --------------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self._peek()
        if token.is_keyword("select"):
            statement = self.parse_select()
        elif token.is_keyword("insert"):
            statement = self._parse_insert()
        elif token.is_keyword("delete"):
            statement = self._parse_delete()
        else:
            raise ParseError(f"unexpected statement start {token.value!r}", token.position)
        self._match_type("SEMICOLON")
        self._expect_type("EOF")
        return statement

    def parse_select(self) -> SelectStatement:
        self._expect_keyword("select")
        distinct = self._match_keyword("distinct")
        select_items = self._parse_select_list()
        self._expect_keyword("from")
        from_sources = self._parse_from_list()
        where = None
        if self._match_keyword("where"):
            where = self._parse_expression()
        group_by: list[Expression] = []
        if self._peek().is_keyword("group"):
            self._advance()
            self._expect_keyword("by")
            group_by = self._parse_expression_list()
        having = None
        if self._match_keyword("having"):
            having = self._parse_expression()
        order_by: list[OrderSpec] = []
        if self._peek().is_keyword("order"):
            self._advance()
            self._expect_keyword("by")
            order_by = self._parse_order_list()
        limit = None
        if self._match_keyword("limit"):
            token = self._expect_type("NUMBER")
            try:
                limit = int(float(token.value))
            except OverflowError:
                raise ParseError(f"LIMIT {token.value} is out of range", token.position) from None
        return SelectStatement(
            select_items=select_items,
            from_sources=from_sources,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_type("IDENT").value
        columns: list[str] = []
        if self._peek().type == "LPAREN":
            self._advance()
            while True:
                columns.append(self._expect_type("IDENT").value)
                if not self._match_type("COMMA"):
                    break
            self._expect_type("RPAREN")
        self._expect_keyword("values")
        rows: list[tuple] = []
        while True:
            self._expect_type("LPAREN")
            values: list[object] = []
            while True:
                values.append(self._parse_literal_value())
                if not self._match_type("COMMA"):
                    break
            self._expect_type("RPAREN")
            rows.append(tuple(values))
            if not self._match_type("COMMA"):
                break
        return InsertStatement(table=table, columns=columns, rows=rows)

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._expect_type("IDENT").value
        where = None
        if self._match_keyword("where"):
            where = self._parse_expression()
        return DeleteStatement(table=table, where=where)

    def _parse_literal_value(self) -> object:
        token = self._peek()
        if token.type == "NUMBER":
            self._advance()
            return _number(token.value)
        if token.type == "STRING":
            self._advance()
            return token.value
        if token.is_keyword("null"):
            self._advance()
            return None
        if token.type == "MINUS":
            self._advance()
            self._nest()
            value = self._parse_literal_value()
            self._depth -= 1
            return -value  # type: ignore[operator]
        raise ParseError(f"expected literal value, found {token.value!r}", token.position)

    # -- clauses -----------------------------------------------------------------

    def _parse_select_list(self) -> list[SelectItem]:
        items: list[SelectItem] = []
        while True:
            if self._peek().type == "STAR":
                self._advance()
                items.append(SelectItem(ColumnRef("*"), None))
            else:
                expression = self._parse_expression()
                alias = None
                if self._match_keyword("as"):
                    alias = self._expect_type("IDENT").value
                elif self._peek().type == "IDENT":
                    alias = self._advance().value
                items.append(SelectItem(expression, alias))
            if not self._match_type("COMMA"):
                break
        return items

    def _parse_expression_list(self) -> list[Expression]:
        expressions = [self._parse_expression()]
        while self._match_type("COMMA"):
            expressions.append(self._parse_expression())
        return expressions

    def _parse_order_list(self) -> list[OrderSpec]:
        specs: list[OrderSpec] = []
        while True:
            expression = self._parse_expression()
            ascending = True
            if self._match_keyword("asc"):
                ascending = True
            elif self._match_keyword("desc"):
                ascending = False
            specs.append(OrderSpec(expression, ascending))
            if not self._match_type("COMMA"):
                break
        return specs

    def _parse_from_list(self) -> list[FromSource]:
        sources = [self._parse_join_source()]
        while self._match_type("COMMA"):
            sources.append(self._parse_join_source())
        return sources

    def _parse_join_source(self) -> FromSource:
        left = self._parse_from_primary()
        while True:
            if self._peek().is_keyword("inner") and self._peek(1).is_keyword("join"):
                self._advance()
            if not self._peek().is_keyword("join"):
                break
            self._advance()
            right = self._parse_from_primary()
            condition = None
            if self._match_keyword("on"):
                condition = self._parse_expression()
            left = JoinSource(left, right, condition)
        return left

    def _parse_from_primary(self) -> FromSource:
        token = self._peek()
        if token.type == "LPAREN":
            self._nest()
            self._advance()
            if self._peek().is_keyword("select"):
                query = self.parse_select()
                self._expect_type("RPAREN")
                alias = None
                if self._match_keyword("as"):
                    alias = self._expect_type("IDENT").value
                elif self._peek().type == "IDENT":
                    alias = self._advance().value
                # Unaliased subqueries are tolerated; the translator generates
                # a unique alias so output attributes stay addressable.
                self._depth -= 1
                return SubquerySource(query, alias or "")
            source = self._parse_join_source()
            self._expect_type("RPAREN")
            self._depth -= 1
            return source
        name = self._expect_type("IDENT").value
        alias = None
        if self._match_keyword("as"):
            alias = self._expect_type("IDENT").value
        elif self._peek().type == "IDENT" and not self._peek().is_keyword():
            alias = self._advance().value
        return TableSource(name, alias)

    # -- expressions -------------------------------------------------------------

    def _parse_expression(self) -> Expression:
        outermost = not self._in_expression
        self._in_expression = True
        start = self._pos
        self._nest()
        expression = self._parse_or()
        self._depth -= 1
        # Every level of a tree takes at least one token of its own, so only
        # an expression longer than the bound can be too deep.
        if outermost:
            self._in_expression = False
            if self._pos - start > MAX_EXPRESSION_DEPTH:
                _check_depth(expression, self._peek().position)
        return expression

    def _parse_or(self) -> Expression:
        operands = [self._parse_and()]
        while self._match_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return LogicalOp("OR", operands)

    def _parse_and(self) -> Expression:
        operands = [self._parse_not()]
        while self._match_keyword("and"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return LogicalOp("AND", operands)

    def _parse_not(self) -> Expression:
        if self._match_keyword("not"):
            self._nest()
            operand = self._parse_not()
            self._depth -= 1
            return Not(operand)
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.type == "OP":
            self._advance()
            right = self._parse_additive()
            return Comparison(token.value, left, right)
        if token.is_keyword("between"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return Between(left, low, high)
        if token.is_keyword("is"):
            self._advance()
            negated = self._match_keyword("not")
            self._expect_keyword("null")
            return IsNull(left, negated)
        if token.is_keyword("in"):
            self._advance()
            self._expect_type("LPAREN")
            values = [self._parse_additive()]
            while self._match_type("COMMA"):
                values.append(self._parse_additive())
            self._expect_type("RPAREN")
            comparisons: list[Expression] = [Comparison("=", left, value) for value in values]
            if len(comparisons) == 1:
                return comparisons[0]
            return LogicalOp("OR", comparisons)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self._peek().type in ("PLUS", "MINUS"):
            op = "+" if self._advance().type == "PLUS" else "-"
            right = self._parse_multiplicative()
            left = BinaryOp(op, left, right)
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self._peek().type in ("STAR", "SLASH", "PERCENT"):
            token = self._advance()
            op = {"STAR": "*", "SLASH": "/", "PERCENT": "%"}[token.type]
            right = self._parse_unary()
            left = BinaryOp(op, left, right)
        return left

    def _parse_unary(self) -> Expression:
        if self._peek().type in ("MINUS", "PLUS"):
            sign = self._advance().type
            self._nest()
            operand = self._parse_unary()
            self._depth -= 1
            return UnaryMinus(operand) if sign == "MINUS" else operand
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.type == "NUMBER":
            self._advance()
            return Literal(_number(token.value))
        if token.type == "STRING":
            self._advance()
            return Literal(token.value)
        if token.is_keyword("null"):
            self._advance()
            return Literal(None)
        if token.type == "LPAREN":
            self._advance()
            expression = self._parse_expression()
            self._expect_type("RPAREN")
            return expression
        if token.type == "IDENT":
            self._advance()
            if self._peek().type == "LPAREN":
                return self._parse_function_call(token.value)
            return ColumnRef(token.value)
        raise ParseError(f"unexpected token {token.value!r} in expression", token.position)

    def _parse_function_call(self, name: str) -> Expression:
        self._expect_type("LPAREN")
        if self._peek().type == "STAR":
            self._advance()
            self._expect_type("RPAREN")
            return FunctionCall(name, [], star=True)
        args: list[Expression] = []
        if self._peek().type != "RPAREN":
            args.append(self._parse_expression())
            while self._match_type("COMMA"):
                args.append(self._parse_expression())
        self._expect_type("RPAREN")
        return FunctionCall(name, args)


def _check_depth(expression: Expression, position: int) -> None:
    """Raise :class:`ParseError` when the tree of ``expression`` is deeper
    than :data:`MAX_EXPRESSION_DEPTH` (walked without recursion)."""
    stack = [(expression, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_EXPRESSION_DEPTH:
            raise ParseError(
                f"expression nested more than {MAX_EXPRESSION_DEPTH} levels deep", position
            )
        stack.extend((child, depth + 1) for child in node.children())


def _number(text: str) -> int | float:
    """Parse a numeric literal: a float with a fraction or an exponent, else
    an int."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def parse_select(sql: str) -> SelectStatement:
    """Parse a SELECT statement."""
    statement = parse_statement(sql)
    if not isinstance(statement, SelectStatement):
        raise ParseError("expected a SELECT statement")
    return statement


def parse_statement(sql: str) -> Statement:
    """Parse any supported SQL statement (SELECT, INSERT, DELETE)."""
    return _Parser(tokenize(sql)).parse_statement()
