"""The reference oracle: expressions interpreted and plans evaluated one row
at a time.

:func:`interpret` states what an expression means -- SQL three-valued logic,
NULL propagation, NULL on division by zero -- by walking the tree one node at
a time with no folding, caching or fast paths.  The engine never calls it: it
runs the column kernels of ``Expression.compile_batch``, which the tests hold
to this interpreter, and the two share no code beyond the node classes.

:class:`RowEvaluator` states what a plan means with the plainest loops that
say it -- ``Relation.add`` per output row, every expression interpreted per
row, a nested loop for joins without an equality, ``sorted`` for top-k -- so
that the batch engine (:class:`~repro.relational.evaluator.Evaluator` over
:mod:`repro.relational.kernels`) can be compared against it bit for bit,
float-aggregate accumulation order and LIMIT ties included.
``Database.query(q, optimize_plans=False, vectorize=False)`` selects it; the
differential tests and the benchmark's verify pass are its only callers, and
nothing on the engine path imports this module.

It inherits from the engine the plan handling (:meth:`Evaluator.evaluate`)
and the two decisions that change *which* rows are read in *which* order and
so must be taken alike (index choice, hash-join key pairs); the ORDER BY rule
is :func:`repro.relational.schema.order_component`, applied per row by
:func:`make_order_key`.  Every operator below evaluates its own children
row-at-a-time.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.core.errors import AggregateError, PlanError, UnsupportedOperationError
from repro.relational.algebra import (
    AggregateFunction,
    Aggregation,
    Distinct,
    Join,
    PlanNode,
    Projection,
    Selection,
    TableScan,
    TopK,
)
from repro.relational.evaluator import Evaluator
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
from repro.relational.schema import (
    Relation,
    Row,
    Schema,
    descending_component,
    order_component,
)

_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
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
        return _OPERATORS[expression.op](left, right)
    if isinstance(expression, UnaryMinus):
        value = value_of(expression.operand)
        return None if value is None else -value
    if isinstance(expression, Comparison):
        left, right = value_of(expression.left), value_of(expression.right)
        if left is None or right is None:
            return None
        return bool(_OPERATORS[expression.op](left, right))
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


def make_order_key(order_by: Sequence, schema: Schema) -> Callable[[Row], tuple]:
    """Sort key of a row: the ORDER BY items interpreted over ``schema``, each
    value keyed by the rule the engine's top-k uses
    (:func:`~repro.relational.schema.order_component`, negated for DESC)."""
    components = [
        order_component if item.ascending else descending_component for item in order_by
    ]

    def order_key(row: Row) -> tuple:
        return tuple(
            component(interpret(item.expression, row, schema))
            for item, component in zip(order_by, components)
        )

    return order_key


def compute_aggregate(
    function: AggregateFunction, values: Iterable[tuple[object, int]]
) -> object:
    """Compute an aggregate over ``(value, multiplicity)`` pairs.

    NULL values are ignored (SQL semantics); an empty input yields NULL for
    sum/avg/min/max and 0 for count.  NaN sorts after every number, as in
    PostgreSQL: the min is NaN only when every value is, the max as soon as
    one is.  A value the function cannot aggregate (text in a sum,
    incomparable values in a min) raises :class:`AggregateError`.
    """
    total = 0.0
    count = 0
    minimum: object | None = None
    maximum: object | None = None
    seen_any = False
    for value, multiplicity in values:
        if value is None:
            continue
        seen_any = True
        count += multiplicity
        try:
            if function in (AggregateFunction.SUM, AggregateFunction.AVG):
                total += value * multiplicity  # type: ignore[operator]
            if function is AggregateFunction.MIN:
                if minimum is None or _sorts_before(value, minimum):
                    minimum = value
            if function is AggregateFunction.MAX:
                if maximum is None or _sorts_before(maximum, value):
                    maximum = value
        except TypeError as exc:
            raise AggregateError(
                f"{function.value}() cannot aggregate {type(value).__name__} value {value!r}"
            ) from exc
    if function is AggregateFunction.COUNT:
        return count
    if not seen_any:
        return None
    if function is AggregateFunction.SUM:
        return total
    if function is AggregateFunction.AVG:
        return total / count if count else None
    if function is AggregateFunction.MIN:
        return minimum
    if function is AggregateFunction.MAX:
        return maximum
    raise UnsupportedOperationError(f"unknown aggregate {function}")


def _sorts_before(first: object, second: object) -> bool:
    """``first < second`` with NaN after every number; values that do not
    compare raise ``TypeError`` (NaN included: it is a float)."""
    less = first < second  # type: ignore[operator]
    return less or (second != second and first == first)


class RowEvaluator(Evaluator):
    """Evaluate logical plans row-at-a-time over ``provider.relation``."""

    def _evaluate(self, node: PlanNode) -> Relation:
        if isinstance(node, TableScan):
            return self._table_scan(node)
        if isinstance(node, Selection):
            return self._selection(node)
        if isinstance(node, Projection):
            return self._projection(node)
        if isinstance(node, Join):
            return self._join(node)
        if isinstance(node, Aggregation):
            return self._aggregation(node)
        if isinstance(node, Distinct):
            return self._distinct(node)
        if isinstance(node, TopK):
            return self._top_k(node)
        raise PlanError(f"evaluator does not support plan node {type(node).__name__}")

    def _table_scan(self, node: TableScan) -> Relation:
        # The provider protocol guarantees the returned relation is caller-
        # owned, so re-labelling it with the alias-qualified schema in place
        # avoids copying every row (the rows themselves are identical).
        base = self._provider.relation(node.table)
        schema = base.schema.qualify(node.alias)
        if schema != base.schema:
            base.schema = schema
        return base

    def _selection(self, node: Selection) -> Relation:
        if isinstance(node.predicate, Literal):
            if node.predicate.value is True:
                return self._evaluate(node.child)
            return Relation(node.child.output_schema(self._provider))
        choice = self._index_choice(node)
        if choice is None:
            child = self._evaluate(node.child)
            schema, items = child.schema, child.items()
        else:
            # The rows the engine's index scan reads, in the order it reads
            # them; the full predicate is re-checked on them all the same.
            schema, attribute, intervals = choice
            items = self._provider.index_scan(node.child.table, attribute, intervals)
        result = Relation(schema)
        for row, multiplicity in items:
            if interpret(node.predicate, row, schema) is True:
                result.add(row, multiplicity)
        return result

    def _projection(self, node: Projection) -> Relation:
        child = self._evaluate(node.child)
        result = Relation(Schema(item.alias for item in node.items))
        for row, multiplicity in child.items():
            values = [interpret(item.expression, row, child.schema) for item in node.items]
            result.add(tuple(values), multiplicity)
        return result

    def _join(self, node: Join) -> Relation:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        schema, condition = left.schema.concat(right.schema), node.condition
        result = Relation(schema)
        # A nested loop that skips the pairs an equality conjunct rules out:
        # the right rows are grouped by the values the conjuncts compare
        # (one group, every row, when there is none), and the pairs that are
        # visited come in nested-loop order.
        pairs = self._equi_pairs(node.condition, left.schema, right.schema)
        groups: dict[tuple, list[tuple[Row, int]]] = {}
        for right_row, right_mult in right.items():
            key = tuple(right_row[p] for _, p in pairs)
            groups.setdefault(key, []).append((right_row, right_mult))
        for left_row, left_mult in left.items():
            key = tuple(left_row[p] for p, _ in pairs)
            for right_row, right_mult in groups.get(key, ()):
                combined = left_row + right_row
                if condition is None or interpret(condition, combined, schema) is True:
                    result.add(combined, left_mult * right_mult)
        return result

    def _aggregation(self, node: Aggregation) -> Relation:
        child = self._evaluate(node.child)
        groups: dict[tuple, list[tuple[Row, int]]] = {}
        for row, multiplicity in child.items():
            key = tuple(interpret(e, row, child.schema) for e in node.group_by)
            groups.setdefault(key, []).append((row, multiplicity))
        if not groups and not node.group_by:
            # Aggregation without GROUP BY over an empty input produces one row.
            groups[()] = []
        result = Relation(node.output_schema(self._provider))
        for key, rows in groups.items():
            values = tuple(
                sum(multiplicity for _row, multiplicity in rows)
                if agg.argument is None
                else compute_aggregate(
                    agg.function,
                    (
                        (interpret(agg.argument, row, child.schema), multiplicity)
                        for row, multiplicity in rows
                    ),
                )
                for agg in node.aggregates
            )
            result.add(key + values, 1)
        return result

    def _distinct(self, node: Distinct) -> Relation:
        child = self._evaluate(node.child)
        result = Relation(child.schema)
        for row in child.distinct_rows():
            result.add(row, 1)
        return result

    def _top_k(self, node: TopK) -> Relation:
        child = self._evaluate(node.child)
        order_key = make_order_key(node.order_by, child.schema)
        ordered = sorted(child.items(), key=lambda item: order_key(item[0]))
        result = Relation(child.schema)
        remaining = node.k
        for row, multiplicity in ordered:
            if remaining <= 0:
                break
            take = min(multiplicity, remaining)
            result.add(row, take)
            remaining -= take
        return result
