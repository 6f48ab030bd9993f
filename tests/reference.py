"""Reference semantics the engine is held to.

Scalar expressions: a tree-walking interpreter.

The engine only ever runs lowered expressions (``Expression.compile`` row
closures and ``Expression.compile_batch`` column kernels).  :func:`interpret`
states what those lowerings must compute -- SQL three-valued logic, NULL
propagation, NULL on division by zero -- one node at a time with no folding,
caching or fast paths, so the differential tests can hold both lowerings to
it (:func:`checked_value`).  It deliberately shares no code with
``repro.relational.expressions`` beyond the node classes themselves.

Whole queries: the reference oracle is
``Database.query(q, optimize_plans=False, vectorize=False)`` (literal plan,
row-at-a-time operators); :func:`assert_systems_match_oracle` drives the
middleware systems against it.
"""

from __future__ import annotations

import operator
from typing import Any

from repro.core.errors import UnsupportedOperationError
from repro.imp.middleware import IMPSystem, NoSketchSystem
from repro.relational.expressions import (
    AGGREGATE_FUNCTIONS,
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
from repro.relational.schema import Row, Schema

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}

_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


_SCALAR_FUNCTIONS = frozenset({"abs", "round", "coalesce", "to_date", "lower", "upper"})


def _scalar_function(name: str, args: list) -> Any:
    if name == "coalesce":
        return next((arg for arg in args if arg is not None), None)
    first = args[0]
    if name in ("lower", "upper"):
        return getattr(first, name)() if isinstance(first, str) else first
    if name == "to_date" or first is None:
        return first
    if name == "abs":
        return abs(first)
    return round(first, int(args[1]) if len(args) > 1 else 0)


def interpret(expression: Expression, row: Row, schema: Schema) -> Any:
    """The value of ``expression`` for ``row`` interpreted under ``schema``."""

    def value_of(operand: Expression) -> Any:
        return interpret(operand, row, schema)

    if isinstance(expression, ColumnRef):
        return row[schema.index_of(expression.name)]
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, BinaryOp):
        left, right = value_of(expression.left), value_of(expression.right)
        if left is None or right is None:
            return None
        if expression.op in "/%" and right == 0:
            return None
        return _ARITHMETIC[expression.op](left, right)
    if isinstance(expression, UnaryMinus):
        value = value_of(expression.operand)
        return None if value is None else -value
    if isinstance(expression, Comparison):
        left, right = value_of(expression.left), value_of(expression.right)
        if left is None or right is None:
            return None
        return bool(_COMPARISONS[expression.op](left, right))
    if isinstance(expression, Between):
        value = value_of(expression.operand)
        low, high = value_of(expression.low), value_of(expression.high)
        if value is None or low is None or high is None:
            return None
        return low <= value <= high
    if isinstance(expression, IsNull):
        return (value_of(expression.operand) is None) is not expression.negated
    if isinstance(expression, LogicalOp):
        # Every operand is evaluated (an operand that raises must raise), then
        # the dominating constant wins, then UNKNOWN, then the identity.
        values = [value_of(operand) for operand in expression.operands]
        dominating = expression.op == "OR"
        if any(value is dominating for value in values):
            return dominating
        if any(value is None for value in values):
            return None
        return not dominating
    if isinstance(expression, Not):
        value = value_of(expression.operand)
        return None if value is None else not value
    if isinstance(expression, FunctionCall):
        if expression.name in AGGREGATE_FUNCTIONS:
            raise UnsupportedOperationError(
                f"aggregate {expression.name}() cannot be evaluated per-row"
            )
        if expression.name not in _SCALAR_FUNCTIONS:
            raise UnsupportedOperationError(
                f"unsupported scalar function {expression.name!r}"
            )
        return _scalar_function(expression.name, [value_of(arg) for arg in expression.args])
    raise TypeError(f"no reference semantics for {type(expression).__name__}")


def checked_value(expression: Expression, row: Row, schema: Schema) -> Any:
    """The interpreted value, after asserting that the row-compiled and the
    batch-compiled form both produce exactly it (same value, same type)."""
    expected = interpret(expression, row, schema)
    compiled = expression.compile(schema)(row)
    assert compiled == expected and type(compiled) is type(expected)
    (batched,) = expression.compile_batch(schema)([[value] for value in row], 1)
    assert batched == expected and type(batched) is type(expected)
    return expected


def assert_systems_match_oracle(database, queries, insert_batches, num_fragments=16):
    """Run every query through ``IMPSystem`` and ``NoSketchSystem`` before each
    batch of inserts into ``r`` and assert both answer exactly as the
    reference oracle does.  Returns the IMP system for further assertions."""
    imp = IMPSystem(database, num_fragments=num_fragments)
    no_sketch = NoSketchSystem(database)
    for inserts in insert_batches:
        for sql in queries:
            reference = database.query(sql, optimize_plans=False, vectorize=False)
            assert imp.run_query(sql) == reference, sql
            assert no_sketch.run_query(sql) == reference, sql
        imp.apply_update("r", inserts=inserts)
    return imp


def random_insert_batches(rng, count, first_id=20_000):
    """``count`` small insert batches for a table ``r(id, a, b, c)``."""
    batches = []
    for _ in range(count):
        size = rng.randrange(1, 4)
        batches.append(
            [
                (first_id + i, rng.randrange(15), rng.randrange(100), rng.randrange(300))
                for i in range(size)
            ]
        )
        first_id += size
    return batches
