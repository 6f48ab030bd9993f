"""Scalar expression AST and evaluation.

Expressions appear in selection predicates, projection lists, join conditions,
GROUP BY lists and HAVING clauses.  The AST is deliberately small -- the subset
used by the paper's query templates (Appendix A): column references, literals,
arithmetic, comparisons, BETWEEN, IS NULL, boolean connectives and aggregate
function calls (which the translator lifts out of expressions before plans are
evaluated).

Every node implements

* ``compile_batch(schema)`` -- the one lowering: specialise the expression
  for a schema, returning a column kernel ``(columns, n) -> value column``
  with all column positions pre-resolved,
* ``columns()`` -- the set of referenced attribute names,
* ``rename(mapping)`` -- structural copy with column names substituted, and
* a deterministic ``canonical()`` string used for query templates.

Callers go through :func:`compile_batch_expression`, which caches kernels per
``(expression, schema)`` so repeated maintenance rounds reuse them.  The
tree-walking interpreter that defines the semantics the lowering is tested
against is the oracle's (:mod:`repro.relational.oracle`); nothing here
evaluates an expression tree.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.core.errors import SchemaError, UnsupportedOperationError
from repro.relational.schema import Schema

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

    def compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        """Specialise the expression for column-at-a-time evaluation.

        The returned kernel maps a batch's columns to the value column of
        this expression.  Constant subexpressions are folded: an expression
        referencing no columns is evaluated once, over a one-entry batch
        without columns (unless evaluating it raises, in which case folding
        is skipped so the error keeps surfacing whenever there is an entry).
        """
        fn = self._compile_batch(schema)
        if not self.columns() and not self.contains_aggregate():
            try:
                (value,) = fn((), 1)
            except Exception:
                return fn
            return lambda columns, n: [value] * n
        return fn

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        """Node-specific lowering (no constant folding)."""
        raise NotImplementedError

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

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        operation = _COMPARISONS[self.op]
        # Fast path for the dominant predicate shape, ``column <op> constant``:
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

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        # Every operand column is fully evaluated (no short-circuit): a later
        # operand that raises must raise whatever the earlier ones return.
        # Three-valued merge: the dominating constant (False for AND, True
        # for OR) wins, then None, and anything else counts as the identity.
        compiled = [operand.compile_batch(schema) for operand in self.operands]
        first = compiled[0]
        rest = compiled[1:]
        dominating = self.op == "OR"
        identity = not dominating

        def run(columns: Sequence[list], n: int) -> list:
            result = [
                dominating if value is dominating else None if value is None else identity
                for value in first(columns, n)
            ]
            for fn in rest:
                for i, value in enumerate(fn(columns, n)):
                    if value is dominating:
                        result[i] = dominating
                    elif value is None and result[i] is identity:
                        result[i] = None
            return result

        return run

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
    a :class:`ColumnRef`.  Evaluating an aggregate call on any entry raises.
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

    def _compile_batch(self, schema: Schema) -> CompiledBatchExpression:
        handler = _SCALAR_FUNCTIONS.get(self.name)
        if self.is_aggregate or handler is None:
            # Aggregates and unknown functions raise as soon as there is an
            # entry to evaluate: the error belongs to evaluation, not planning.
            message = (
                f"aggregate {self.name}() cannot be evaluated per entry; "
                "the translator must place it in an Aggregation operator"
                if self.is_aggregate
                else f"unsupported scalar function {self.name!r}"
            )

            def fail(columns: Sequence[list], n: int) -> list:
                if n:
                    raise UnsupportedOperationError(message)
                return []

            return fail
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


_COMPILE_CACHE: dict[tuple[str, Schema], CompiledBatchExpression] = {}
_COMPILE_CACHE_LIMIT = 4096


def compile_batch_expression(
    expression: Expression, schema: Schema
) -> CompiledBatchExpression:
    """Column kernel of ``expression`` under ``schema``, cached.

    Kernels depend only on the expression structure and the schema, so they
    are shared across plan nodes and maintenance rounds via a process-wide
    cache keyed on ``(canonical form, schema)``.
    """
    key = (expression.canonical(), schema)
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


def strict_boolean(expression: Expression) -> bool:
    """Whether the value column of ``expression`` holds only ``True/False/None``.

    The boolean-producing node types normalise their output to strict
    three-valued logic, so their value columns can drive
    :func:`itertools.compress` directly.  Any other expression (a bare column
    reference, arithmetic, a scalar function call, a literal such as ``1``)
    may produce arbitrary truthy values, which SQL selection (``predicate is
    True``) rejects -- those masks must be normalised first.
    """
    if isinstance(expression, Literal):
        return expression.value is None or isinstance(expression.value, bool)
    return isinstance(expression, (Comparison, Between, IsNull, LogicalOp, Not))


def conjuncts(expression: Expression | None) -> list[Expression]:
    """Split an expression into its top-level AND conjuncts.

    AND counts every operand value but False/NULL as true while a selection
    keeps only ``is True``, so an operand that is not :func:`strict_boolean`
    stays inside a one-operand AND: each conjunct can then be selected on
    alone (``σ[a AND b] = σ[a](σ[b])``).
    """
    if expression is None:
        return []
    if isinstance(expression, LogicalOp) and expression.op == "AND":
        result: list[Expression] = []
        for operand in expression.operands:
            if strict_boolean(operand):
                result.extend(conjuncts(operand))
            else:
                result.append(LogicalOp("AND", [operand]))
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
