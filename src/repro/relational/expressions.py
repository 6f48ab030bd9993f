"""Scalar expression AST and evaluation.

Expressions appear in selection predicates, projection lists, join conditions,
GROUP BY lists and HAVING clauses.  The AST is deliberately small -- the subset
used by the paper's query templates (Appendix A): column references, literals,
arithmetic, comparisons, BETWEEN, IS NULL, boolean connectives and aggregate
function calls (which the translator lifts out of expressions before plans are
evaluated).

Every node implements

* ``compile(schema)`` -- specialise the expression for a schema, returning a
  closure ``row -> value`` with all column positions pre-resolved,
* ``compile_batch(schema)`` -- the column-at-a-time twin of ``compile``,
* ``columns()`` -- the set of referenced attribute names,
* ``rename(mapping)`` -- structural copy with column names substituted, and
* a deterministic ``canonical()`` string used for query templates.

Callers go through :func:`compile_expression` /
:func:`compile_batch_expression`, which cache compiled forms per
``(expression, schema)`` so repeated maintenance rounds reuse them.  The
tree-walking interpreter that defines the semantics both lowerings are tested
against lives with the tests (``tests/reference.py``).
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.core.errors import SchemaError, UnsupportedOperationError
from repro.relational.schema import Row, Schema

CompiledExpression = Callable[[Row], Any]
"""A schema-specialised evaluator: maps a row to the expression's value."""

CompiledBatchExpression = Callable[[Sequence[list], int], list]
"""A schema-specialised *columnar* evaluator.

Called as ``fn(columns, n)`` where ``columns`` are the parallel value lists
of a :class:`~repro.relational.columnar.ColumnBatch` (schema order) and ``n``
is the entry count; returns the expression's value column (length ``n``).
The returned list may be one of the input columns (e.g. for a plain column
reference) -- callers must treat both as read-only.
"""


class Expression:
    """Base class for scalar expressions."""

    def compile(self, schema: Schema) -> CompiledExpression:
        """Specialise the expression for ``schema``.

        Constant subexpressions are folded: an expression referencing no
        columns is evaluated once at compile time (unless evaluating it
        raises, in which case folding is skipped so the error surfaces
        per-row).
        """
        fn = self._compile(schema)
        if not self.columns() and not self.contains_aggregate():
            try:
                value = fn(())
            except Exception:
                return fn
            return lambda row: value
        return fn

    def _compile(self, schema: Schema) -> CompiledExpression:
        """Node-specific compilation (no constant folding)."""
        raise NotImplementedError

    def compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        """Specialise the expression for column-at-a-time evaluation.

        The returned closure maps a batch's columns to the value column of
        this expression, element-for-element identical to calling the
        compiled row form on every row.  Constant subexpressions are folded
        exactly as in :meth:`compile` (evaluated once unless evaluation
        raises, in which case the error keeps surfacing per element).
        """
        if not self.columns() and not self.contains_aggregate():
            fn = self.compile(schema)
            try:
                value = fn(())
            except Exception:
                pass
            else:
                return lambda columns, n: [value] * n
        return self._compile_batch(schema)

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        """Node-specific batch compilation.

        The default pivots the columns back into row tuples and maps the
        compiled row form over them -- correct for every node, overridden
        with hoisted whole-column loops for the hot node types.
        """
        fn = self.compile(schema)

        def run(columns: Sequence[list], n: int) -> list:
            if not columns:
                return [fn(()) for _ in range(n)]
            return [fn(row) for row in zip(*columns)]

        return run

    def columns(self) -> set[str]:
        """Attribute names referenced by the expression."""
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Expression":
        """Return a copy with column references substituted via ``mapping``."""
        raise NotImplementedError

    def canonical(self, parameterize: bool = False) -> str:
        """Deterministic textual form; with ``parameterize`` literals become ``?``."""
        raise NotImplementedError

    def contains_aggregate(self) -> bool:
        """Whether the expression (transitively) contains an aggregate call."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.canonical()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


class ColumnRef(Expression):
    """Reference to an attribute by (possibly qualified) name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _compile(self, schema: Schema) -> CompiledExpression:
        return operator.itemgetter(schema.index_of(self.name))

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        index = schema.index_of(self.name)
        # The input column *is* the value column (shared, read-only).
        return lambda columns, n: columns[index]

    def columns(self) -> set[str]:
        return {self.name}

    def rename(self, mapping: Mapping[str, str]) -> "ColumnRef":
        return ColumnRef(mapping.get(self.name, self.name))

    def canonical(self, parameterize: bool = False) -> str:
        return self.name


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def _compile(self, schema: Schema) -> CompiledExpression:
        value = self.value
        return lambda row: value

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        value = self.value
        return lambda columns, n: [value] * n

    def columns(self) -> set[str]:
        return set()

    def rename(self, mapping: Mapping[str, str]) -> "Literal":
        return Literal(self.value)

    def canonical(self, parameterize: bool = False) -> str:
        if parameterize:
            return "?"
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return repr(self.value)


_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b != 0 else None,
    "%": lambda a, b: a % b if b != 0 else None,
}


class BinaryOp(Expression):
    """Arithmetic binary operation (``+ - * / %``)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITHMETIC:
            raise UnsupportedOperationError(f"unsupported arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def _compile(self, schema: Schema) -> CompiledExpression:
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        operation = _ARITHMETIC[self.op]

        def run(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return operation(a, b)

        return run

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        left = self.left.compile_batch(schema)
        right = self.right.compile_batch(schema)
        operation = _ARITHMETIC[self.op]

        def run(columns: Sequence[list], n: int) -> list:
            return [
                None if a is None or b is None else operation(a, b)
                for a, b in zip(left(columns, n), right(columns, n))
            ]

        return run

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def rename(self, mapping: Mapping[str, str]) -> "BinaryOp":
        return BinaryOp(self.op, self.left.rename(mapping), self.right.rename(mapping))

    def canonical(self, parameterize: bool = False) -> str:
        return (
            f"({self.left.canonical(parameterize)} {self.op} "
            f"{self.right.canonical(parameterize)})"
        )

    def contains_aggregate(self) -> bool:
        return self.left.contains_aggregate() or self.right.contains_aggregate()


class UnaryMinus(Expression):
    """Arithmetic negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def _compile(self, schema: Schema) -> CompiledExpression:
        operand = self.operand.compile(schema)

        def run(row: Row) -> Any:
            value = operand(row)
            return None if value is None else -value

        return run

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        operand = self.operand.compile_batch(schema)

        def run(columns: Sequence[list], n: int) -> list:
            return [None if value is None else -value for value in operand(columns, n)]

        return run

    def columns(self) -> set[str]:
        return self.operand.columns()

    def rename(self, mapping: Mapping[str, str]) -> "UnaryMinus":
        return UnaryMinus(self.operand.rename(mapping))

    def canonical(self, parameterize: bool = False) -> str:
        return f"(-{self.operand.canonical(parameterize)})"

    def contains_aggregate(self) -> bool:
        return self.operand.contains_aggregate()


_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Comparison(Expression):
    """Comparison predicate between two scalar expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARISONS:
            raise UnsupportedOperationError(f"unsupported comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def _compile(self, schema: Schema) -> CompiledExpression:
        operation = _COMPARISONS[self.op]
        # Fast path for the dominant predicate shape, ``column <op> constant``:
        # a single tuple access and one comparison per row.
        if isinstance(self.left, ColumnRef) and isinstance(self.right, Literal):
            index = schema.index_of(self.left.name)
            constant = self.right.value
            if constant is None:
                return lambda row: None

            def fast(row: Row) -> bool | None:
                value = row[index]
                if value is None:
                    return None
                return bool(operation(value, constant))

            return fast
        left = self.left.compile(schema)
        right = self.right.compile(schema)

        def run(row: Row) -> bool | None:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return bool(operation(a, b))

        return run

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        operation = _COMPARISONS[self.op]
        # Same fast path as the row compile: ``column <op> constant`` becomes
        # one hoisted comprehension over the value column.
        if isinstance(self.left, ColumnRef) and isinstance(self.right, Literal):
            index = schema.index_of(self.left.name)
            constant = self.right.value
            if constant is None:
                return lambda columns, n: [None] * n

            def fast(columns: Sequence[list], n: int) -> list:
                return [
                    None if value is None else bool(operation(value, constant))
                    for value in columns[index]
                ]

            return fast
        left = self.left.compile_batch(schema)
        right = self.right.compile_batch(schema)

        def run_batch(columns: Sequence[list], n: int) -> list:
            return [
                None if a is None or b is None else bool(operation(a, b))
                for a, b in zip(left(columns, n), right(columns, n))
            ]

        return run_batch

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def rename(self, mapping: Mapping[str, str]) -> "Comparison":
        return Comparison(self.op, self.left.rename(mapping), self.right.rename(mapping))

    def canonical(self, parameterize: bool = False) -> str:
        op = "<>" if self.op == "!=" else self.op
        return (
            f"({self.left.canonical(parameterize)} {op} "
            f"{self.right.canonical(parameterize)})"
        )

    def contains_aggregate(self) -> bool:
        return self.left.contains_aggregate() or self.right.contains_aggregate()


class Between(Expression):
    """SQL ``x BETWEEN low AND high`` (inclusive bounds)."""

    __slots__ = ("operand", "low", "high")

    def __init__(self, operand: Expression, low: Expression, high: Expression) -> None:
        self.operand = operand
        self.low = low
        self.high = high

    def _compile(self, schema: Schema) -> CompiledExpression:
        operand = self.operand.compile(schema)
        low = self.low.compile(schema)
        high = self.high.compile(schema)

        def run(row: Row) -> bool | None:
            value = operand(row)
            lo = low(row)
            hi = high(row)
            if value is None or lo is None or hi is None:
                return None
            return lo <= value <= hi

        return run

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        operand = self.operand.compile_batch(schema)
        # Dominant shape: constant bounds (the use rewrite's BETWEEN
        # disjunctions) hoist into a single chained comparison per value.
        if isinstance(self.low, Literal) and isinstance(self.high, Literal):
            lo = self.low.value
            hi = self.high.value
            if lo is None or hi is None:
                return lambda columns, n: [None] * n

            def fast(columns: Sequence[list], n: int) -> list:
                return [
                    None if value is None else lo <= value <= hi
                    for value in operand(columns, n)
                ]

            return fast
        low = self.low.compile_batch(schema)
        high = self.high.compile_batch(schema)

        def run_batch(columns: Sequence[list], n: int) -> list:
            return [
                None if value is None or lo is None or hi is None else lo <= value <= hi
                for value, lo, hi in zip(
                    operand(columns, n), low(columns, n), high(columns, n)
                )
            ]

        return run_batch

    def columns(self) -> set[str]:
        return self.operand.columns() | self.low.columns() | self.high.columns()

    def rename(self, mapping: Mapping[str, str]) -> "Between":
        return Between(
            self.operand.rename(mapping), self.low.rename(mapping), self.high.rename(mapping)
        )

    def canonical(self, parameterize: bool = False) -> str:
        return (
            f"({self.operand.canonical(parameterize)} BETWEEN "
            f"{self.low.canonical(parameterize)} AND {self.high.canonical(parameterize)})"
        )

    def contains_aggregate(self) -> bool:
        return (
            self.operand.contains_aggregate()
            or self.low.contains_aggregate()
            or self.high.contains_aggregate()
        )


class IsNull(Expression):
    """SQL ``x IS [NOT] NULL``."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def _compile(self, schema: Schema) -> CompiledExpression:
        operand = self.operand.compile(schema)
        if self.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        operand = self.operand.compile_batch(schema)
        if self.negated:
            return lambda columns, n: [
                value is not None for value in operand(columns, n)
            ]
        return lambda columns, n: [value is None for value in operand(columns, n)]

    def columns(self) -> set[str]:
        return self.operand.columns()

    def rename(self, mapping: Mapping[str, str]) -> "IsNull":
        return IsNull(self.operand.rename(mapping), self.negated)

    def canonical(self, parameterize: bool = False) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.canonical(parameterize)} {suffix})"

    def contains_aggregate(self) -> bool:
        return self.operand.contains_aggregate()


class LogicalOp(Expression):
    """N-ary AND / OR with SQL three-valued logic."""

    __slots__ = ("op", "operands")

    def __init__(self, op: str, operands: Sequence[Expression]) -> None:
        op = op.upper()
        if op not in ("AND", "OR"):
            raise UnsupportedOperationError(f"unsupported logical operator {op!r}")
        if not operands:
            raise SchemaError("logical operator requires at least one operand")
        self.op = op
        self.operands = tuple(operands)

    def _compile(self, schema: Schema) -> CompiledExpression:
        # Every operand is evaluated (no short-circuit): a later operand
        # that raises must raise whatever the earlier ones return.
        compiled = [operand.compile(schema) for operand in self.operands]
        if self.op == "AND":

            def run_and(row: Row) -> bool | None:
                # Three-valued AND: False dominates, then None, then True.
                saw_false = False
                saw_null = False
                for fn in compiled:
                    value = fn(row)
                    if value is False:
                        saw_false = True
                    elif value is None:
                        saw_null = True
                if saw_false:
                    return False
                return None if saw_null else True

            return run_and

        def run_or(row: Row) -> bool | None:
            saw_true = False
            saw_null = False
            for fn in compiled:
                value = fn(row)
                if value is True:
                    saw_true = True
                elif value is None:
                    saw_null = True
            if saw_true:
                return True
            return None if saw_null else False

        return run_or

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        # Like the row form, every operand column is fully evaluated (no
        # short-circuit) so a later operand that raises still raises.  The
        # merge classifies operand values exactly as the row loops do:
        # literal False / None are tracked, anything else counts as true.
        compiled = [operand.compile_batch(schema) for operand in self.operands]
        first = compiled[0]
        rest = compiled[1:]
        if self.op == "AND":

            def run_and(columns: Sequence[list], n: int) -> list:
                result = [
                    False if value is False else None if value is None else True
                    for value in first(columns, n)
                ]
                for fn in rest:
                    for i, value in enumerate(fn(columns, n)):
                        if value is False:
                            result[i] = False
                        elif value is None and result[i] is True:
                            result[i] = None
                return result

            return run_and

        def run_or(columns: Sequence[list], n: int) -> list:
            result = [
                True if value is True else None if value is None else False
                for value in first(columns, n)
            ]
            for fn in rest:
                for i, value in enumerate(fn(columns, n)):
                    if value is True:
                        result[i] = True
                    elif value is None and result[i] is False:
                        result[i] = None
            return result

        return run_or

    def columns(self) -> set[str]:
        result: set[str] = set()
        for operand in self.operands:
            result |= operand.columns()
        return result

    def rename(self, mapping: Mapping[str, str]) -> "LogicalOp":
        return LogicalOp(self.op, [operand.rename(mapping) for operand in self.operands])

    def canonical(self, parameterize: bool = False) -> str:
        inner = f" {self.op} ".join(op.canonical(parameterize) for op in self.operands)
        return f"({inner})"

    def contains_aggregate(self) -> bool:
        return any(operand.contains_aggregate() for operand in self.operands)


class Not(Expression):
    """Logical negation with SQL three-valued logic."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def _compile(self, schema: Schema) -> CompiledExpression:
        operand = self.operand.compile(schema)

        def run(row: Row) -> bool | None:
            value = operand(row)
            if value is None:
                return None
            return not value

        return run

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        operand = self.operand.compile_batch(schema)

        def run(columns: Sequence[list], n: int) -> list:
            return [
                None if value is None else not value for value in operand(columns, n)
            ]

        return run

    def columns(self) -> set[str]:
        return self.operand.columns()

    def rename(self, mapping: Mapping[str, str]) -> "Not":
        return Not(self.operand.rename(mapping))

    def canonical(self, parameterize: bool = False) -> str:
        return f"(NOT {self.operand.canonical(parameterize)})"

    def contains_aggregate(self) -> bool:
        return self.operand.contains_aggregate()


AGGREGATE_FUNCTIONS = frozenset({"sum", "count", "avg", "min", "max"})

_SCALAR_FUNCTIONS = {
    "abs": lambda args: abs(args[0]) if args[0] is not None else None,
    "round": lambda args: round(args[0], int(args[1]) if len(args) > 1 else 0)
    if args[0] is not None
    else None,
    "coalesce": lambda args: next((a for a in args if a is not None), None),
    "to_date": lambda args: args[0],
    "lower": lambda args: args[0].lower() if isinstance(args[0], str) else args[0],
    "upper": lambda args: args[0].upper() if isinstance(args[0], str) else args[0],
}


class FunctionCall(Expression):
    """A function call -- either an aggregate or a scalar function.

    Aggregate calls (``sum``, ``count``, ``avg``, ``min``, ``max``) are never
    evaluated directly: the SQL translator rewrites plans so aggregation
    operators compute them and downstream expressions reference the result via
    a :class:`ColumnRef`.  Evaluating an aggregate call on a single row raises.
    """

    __slots__ = ("name", "args", "star")

    def __init__(self, name: str, args: Sequence[Expression], star: bool = False) -> None:
        self.name = name.lower()
        self.args = tuple(args)
        self.star = star

    @property
    def is_aggregate(self) -> bool:
        """Whether this is one of the supported aggregate functions."""
        return self.name in AGGREGATE_FUNCTIONS

    def _compile(self, schema: Schema) -> CompiledExpression:
        # Aggregates and unknown functions raise per-row: the error belongs
        # to evaluation, not planning.
        if self.is_aggregate:
            name = self.name

            def fail_aggregate(row: Row) -> Any:
                raise UnsupportedOperationError(
                    f"aggregate {name}() cannot be evaluated per-row; "
                    "the translator must place it in an Aggregation operator"
                )

            return fail_aggregate
        handler = _SCALAR_FUNCTIONS.get(self.name)
        if handler is None:
            name = self.name

            def fail_scalar(row: Row) -> Any:
                raise UnsupportedOperationError(f"unsupported scalar function {name!r}")

            return fail_scalar
        compiled = [arg.compile(schema) for arg in self.args]
        return lambda row: handler([fn(row) for fn in compiled])

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        handler = _SCALAR_FUNCTIONS.get(self.name)
        if self.is_aggregate or handler is None:
            # Keep raising per element via the generic row fallback, matching
            # the row-compiled semantics.
            return super()._compile_batch(schema)
        compiled = [arg.compile_batch(schema) for arg in self.args]

        def run(columns: Sequence[list], n: int) -> list:
            argument_columns = [fn(columns, n) for fn in compiled]
            if not argument_columns:
                return [handler([]) for _ in range(n)]
            return [handler(values) for values in zip(*argument_columns)]

        return run

    def columns(self) -> set[str]:
        result: set[str] = set()
        for arg in self.args:
            result |= arg.columns()
        return result

    def rename(self, mapping: Mapping[str, str]) -> "FunctionCall":
        return FunctionCall(self.name, [arg.rename(mapping) for arg in self.args], self.star)

    def canonical(self, parameterize: bool = False) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(arg.canonical(parameterize) for arg in self.args)
        return f"{self.name}({inner})"

    def contains_aggregate(self) -> bool:
        return self.is_aggregate or any(arg.contains_aggregate() for arg in self.args)


_COMPILE_CACHE: dict[tuple[str, Schema, str], Callable] = {}
_COMPILE_CACHE_LIMIT = 4096


def compile_expression(expression: Expression, schema: Schema) -> CompiledExpression:
    """Compiled form of ``expression`` under ``schema``, cached.

    Compiled closures depend only on the expression structure, the schema and
    the compilation mode, so they are shared across plan nodes and
    maintenance rounds via a process-wide cache keyed on ``(canonical form,
    schema, mode)`` -- row-compiled and batch-compiled forms of the same
    expression coexist.
    """
    key = (expression.canonical(), schema, "row")
    compiled = _COMPILE_CACHE.get(key)
    if compiled is None:
        if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
            _COMPILE_CACHE.clear()
        compiled = expression.compile(schema)
        _COMPILE_CACHE[key] = compiled
    return compiled


def compile_batch_expression(
    expression: Expression, schema: Schema
) -> CompiledBatchExpression:
    """Batch-compiled form of ``expression`` under ``schema``, cached.

    The columnar twin of :func:`compile_expression`, sharing its cache under
    the ``"batch"`` mode key.
    """
    key = (expression.canonical(), schema, "batch")
    compiled = _COMPILE_CACHE.get(key)
    if compiled is None:
        if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
            _COMPILE_CACHE.clear()
        compiled = expression.compile_batch(schema)
        _COMPILE_CACHE[key] = compiled
    return compiled


def clear_compile_cache() -> None:
    """Drop all cached compiled expressions (mainly for tests)."""
    _COMPILE_CACHE.clear()


def compile_row_expressions(
    expressions: Sequence[Expression], schema: Schema
) -> Callable[[Row], tuple]:
    """Compile a list of expressions into one ``row -> tuple`` closure.

    This is the shape of projection lists and GROUP BY keys.  When every
    expression is a plain column reference the whole tuple is produced by a
    single :func:`operator.itemgetter` call (C speed); otherwise each compiled
    expression is invoked in turn.
    """
    if not expressions:
        return lambda row: ()
    if all(isinstance(e, ColumnRef) for e in expressions):
        positions = [schema.index_of(e.name) for e in expressions]
        if len(positions) == 1:
            getter = operator.itemgetter(positions[0])
            return lambda row: (getter(row),)
        # itemgetter with several indices already returns a tuple.
        return operator.itemgetter(*positions)
    compiled = [compile_expression(e, schema) for e in expressions]
    return lambda row: tuple(fn(row) for fn in compiled)


def conjuncts(expression: Expression | None) -> list[Expression]:
    """Split an expression into its top-level AND conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, LogicalOp) and expression.op == "AND":
        result: list[Expression] = []
        for operand in expression.operands:
            result.extend(conjuncts(operand))
        return result
    return [expression]


def conjunction(expressions: Sequence[Expression]) -> Expression | None:
    """Combine expressions with AND; returns None for an empty sequence."""
    expressions = [e for e in expressions if e is not None]
    if not expressions:
        return None
    if len(expressions) == 1:
        return expressions[0]
    return LogicalOp("AND", expressions)
