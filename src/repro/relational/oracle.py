"""The reference oracle: plans evaluated one row at a time.

:class:`RowEvaluator` states what a plan means with the plainest loops that
say it -- ``Relation.add`` per output row, compiled row expressions, a nested
loop for joins without an equality, ``sorted`` for top-k -- so that the batch
engine (:class:`~repro.relational.evaluator.Evaluator` over
:mod:`repro.relational.kernels`) can be compared against it bit for bit,
float-aggregate accumulation order and LIMIT ties included.
``Database.query(q, optimize_plans=False, vectorize=False)`` selects it; the
differential tests and the benchmark's verify pass are its only callers, and
nothing on the engine path imports this module.

It inherits from the engine the plan handling (:meth:`Evaluator.evaluate`)
and the two decisions that change *which* rows are read in *which* order and
so must be taken alike (index choice, hash-join key pairs); the ORDER BY rule
is :func:`repro.relational.schema.make_order_key`.  Every operator below
evaluates its own children row-at-a-time.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.errors import PlanError, UnsupportedOperationError
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
    Literal,
    compile_expression,
    compile_row_expressions,
)
from repro.relational.schema import Relation, Row, Schema, make_order_key


def compute_aggregate(
    function: AggregateFunction, values: Iterable[tuple[object, int]]
) -> object:
    """Compute an aggregate over ``(value, multiplicity)`` pairs.

    NULL values are ignored (SQL semantics); an empty input yields NULL for
    sum/avg/min/max and 0 for count.
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
        if function in (AggregateFunction.SUM, AggregateFunction.AVG):
            total += value * multiplicity  # type: ignore[operator]
        if function is AggregateFunction.MIN:
            minimum = value if minimum is None else min(minimum, value)  # type: ignore[type-var]
        if function is AggregateFunction.MAX:
            maximum = value if maximum is None else max(maximum, value)  # type: ignore[type-var]
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
        predicate = compile_expression(node.predicate, schema)
        for row, multiplicity in items:
            if predicate(row) is True:
                result.add(row, multiplicity)
        return result

    def _projection(self, node: Projection) -> Relation:
        child = self._evaluate(node.child)
        result = Relation(Schema(item.alias for item in node.items))
        project = compile_row_expressions(
            [item.expression for item in node.items], child.schema
        )
        for row, multiplicity in child.items():
            result.add(project(row), multiplicity)
        return result

    def _join(self, node: Join) -> Relation:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        schema = left.schema.concat(right.schema)
        result = Relation(schema)
        condition = (
            None if node.condition is None else compile_expression(node.condition, schema)
        )
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
                if condition is None or condition(combined) is True:
                    result.add(combined, left_mult * right_mult)
        return result

    def _aggregation(self, node: Aggregation) -> Relation:
        child = self._evaluate(node.child)
        group_key = compile_row_expressions(node.group_by, child.schema)
        arguments = [
            None if agg.argument is None else compile_expression(agg.argument, child.schema)
            for agg in node.aggregates
        ]
        groups: dict[tuple, list[tuple[Row, int]]] = {}
        for row, multiplicity in child.items():
            groups.setdefault(group_key(row), []).append((row, multiplicity))
        if not groups and not node.group_by:
            # Aggregation without GROUP BY over an empty input produces one row.
            groups[()] = []
        result = Relation(node.output_schema(self._provider))
        for key, rows in groups.items():
            values = tuple(
                sum(multiplicity for _row, multiplicity in rows)
                if argument is None
                else compute_aggregate(
                    agg.function,
                    ((argument(row), multiplicity) for row, multiplicity in rows),
                )
                for agg, argument in zip(node.aggregates, arguments)
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
        order_key = make_order_key(
            node.order_by,
            [compile_expression(item.expression, child.schema) for item in node.order_by],
        )
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
