"""Bag-semantics evaluation of relational algebra plans.

The evaluator is the reference ("full") query engine: the backend database
uses it to answer queries, the full-maintenance baseline uses it to recapture
sketches, and the test suite uses it as the oracle against which the
incremental engine is verified (tuple correctness, Theorem 6.1).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Protocol

from repro.core.errors import PlanError, UnsupportedOperationError
from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    Distinct,
    Join,
    OrderItem,
    PlanNode,
    Projection,
    Selection,
    TableScan,
    TopK,
)
from repro.relational import kernels
from repro.relational.columnar import ColumnBatch
from repro.relational.expressions import (
    ColumnRef,
    Comparison,
    CompiledExpression,
    Expression,
    Literal,
    compile_batch_expression,
    compile_expression,
    compile_row_expressions,
    conjuncts,
)
from repro.relational.schema import Relation, Row, Schema, order_component


class RelationProvider(Protocol):
    """Source of base relations, typically the backend database.

    ``relation`` must return a relation *owned by the caller*: the evaluator
    re-labels it with the scan alias and may hand it to the caller as the
    query result, so a provider must not return internal mutable state
    (:meth:`repro.storage.database.Database.relation` returns a fresh copy).
    """

    def relation(self, table: str) -> Relation:  # pragma: no cover - protocol
        ...

    def schema_of(self, table: str) -> Schema:  # pragma: no cover - protocol
        ...


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


def order_sort_key(values: tuple) -> tuple:
    """Total order over heterogeneous sort keys."""
    return tuple(order_component(value) for value in values)


def make_order_key(
    order_by: Sequence[OrderItem], compiled: Sequence[CompiledExpression]
) -> Callable[[Row], tuple]:
    """Build a sort-key function for ORDER BY items with compiled expressions.

    Shared by the reference evaluator, annotated capture and the incremental
    top-k operator so all three order rows identically.  Descending items
    invert numeric components directly; other values reverse through
    :class:`_Reversed`.
    """
    ascending = tuple(item.ascending for item in order_by)

    def order_key(row: Row) -> tuple:
        adjusted = []
        for fn, asc in zip(compiled, ascending):
            tag, component = order_component(fn(row))
            if asc:
                adjusted.append((tag, component))
            elif isinstance(component, (int, float)):
                adjusted.append((-tag, -component))
            else:
                adjusted.append((-tag, _Reversed(component)))
        return tuple(adjusted)

    return order_key


class Evaluator:
    """Evaluate logical plans against a :class:`RelationProvider`.

    There is one engine: the plan is rewritten by the logical optimizer
    (:mod:`repro.relational.optimizer` -- predicates pushed down to the scans
    where the index-scan fast path can serve them, joins re-ordered by
    estimated cardinality, unused columns pruned) and then runs
    column-at-a-time over :class:`ColumnBatch` data (table scan, selection
    including the index-scan recheck path, projection, equi hash join,
    distinct, grouped aggregation), converting to a :class:`Relation` at the
    boundary.  Operators without a kernel -- TopK (whose LIMIT tie-breaking
    depends on row encounter order), cross products and non-equi theta joins
    -- run on the row operators below, with vectorized children converted at
    the boundary.  A plan that already is optimizer output
    (:attr:`PlanNode.optimized`) is not rewritten again, so callers that
    repeat a query keep the :meth:`optimized` plan and pay for the rewrite
    once (sessions per SQL text, the sketch middleware per sketch version).

    ``Evaluator(provider, optimize_plans=False, vectorize=False)`` is the
    reference oracle: the literal plan shape on the row-at-a-time operators.
    The differential tests and the benchmark's verify pass compare the engine
    against it; results are bit-identical, including float-aggregate
    accumulation order.
    """

    def __init__(
        self,
        provider: RelationProvider,
        optimize_plans: bool = True,
        vectorize: bool = True,
    ) -> None:
        self._provider = provider
        self._optimize_plans = optimize_plans
        self._vectorize = vectorize
        self._optimizer = None
        self._estimator = None

    # -- public API --------------------------------------------------------------

    def evaluate(self, plan: PlanNode) -> Relation:
        """Evaluate ``plan`` and return its output relation."""
        if self._optimize_plans and not plan.optimized:
            plan = self.optimized(plan)
        return self._evaluate(plan)

    def optimized(self, plan: PlanNode) -> PlanNode:
        """The plan as the optimizer would rewrite it (EXPLAIN-style hook)."""
        if self._optimizer is None:
            from repro.relational.optimizer import PlanOptimizer

            self._optimizer = PlanOptimizer(self._provider)
        return self._optimizer.optimize(plan)

    # -- dispatch ----------------------------------------------------------------

    def _evaluate(self, node: PlanNode) -> Relation:
        if self._vectorize:
            batch = self._batch(node)
            if batch is not None:
                return batch.to_relation()
        return self._row_evaluate(node)

    def _row_evaluate(self, node: PlanNode) -> Relation:
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

    # -- vectorized pipeline -----------------------------------------------------

    def _batch(self, node: PlanNode) -> ColumnBatch | None:
        """Evaluate ``node`` column-at-a-time, or None when it has no kernel.

        Returning None falls back to the row engine *for this node only*: the
        row operators evaluate their children through :meth:`_evaluate`, so
        supported subtrees underneath still run vectorized and convert at the
        boundary.
        """
        if isinstance(node, TableScan):
            return self._scan_batch(node)
        if isinstance(node, Selection):
            return self._selection_batch(node)
        if isinstance(node, Projection):
            return self._projection_batch(node)
        if isinstance(node, Join):
            return self._join_batch(node)
        if isinstance(node, Aggregation):
            return self._aggregation_batch(node)
        if isinstance(node, Distinct):
            return kernels.distinct_batch(self._input_batch(node.child))
        # TopK stays row-based: its LIMIT tie-breaking depends on the row
        # engine's encounter order.  Unknown nodes fall back too (and the row
        # dispatch raises the PlanError).
        return None

    def _input_batch(self, node: PlanNode) -> ColumnBatch:
        """Child input of a vectorized operator, converting at the boundary."""
        batch = self._batch(node)
        if batch is not None:
            return batch
        return ColumnBatch.from_relation(self._row_evaluate(node))

    def _predicate_values(self, expression: Expression, batch: ColumnBatch) -> list:
        return compile_batch_expression(expression, batch.schema)(
            batch.columns, len(batch)
        )

    def _scan_batch(self, node: TableScan) -> ColumnBatch:
        provider = self._provider
        if hasattr(provider, "column_batch"):
            # The provider's batch is cached per table version and shared
            # between scans; relabel() aliases the schema without copying.
            base = provider.column_batch(node.table)
        else:
            base = ColumnBatch.from_relation(provider.relation(node.table))
        return base.relabel(base.schema.qualify(node.alias))

    def _selection_batch(self, node: Selection) -> ColumnBatch:
        if isinstance(node.predicate, Literal):
            if node.predicate.value is True:
                return self._input_batch(node.child)
            return ColumnBatch.empty(node.child.output_schema(self._provider))
        indexed = self._index_scan_batch(node)
        if indexed is not None:
            return indexed
        child = self._input_batch(node.child)
        return kernels.filter_batch(
            child,
            self._predicate_values(node.predicate, child),
            kernels.strict_boolean(node.predicate),
        )

    def _index_scan_batch(self, node: Selection) -> ColumnBatch | None:
        choice = self._index_choice(node)
        if choice is None:
            return None
        schema, attribute, intervals = choice
        # Lazy pivot: only the columns the recheck and the operators above
        # read are ever extracted from the fetched rows.
        fetched = ColumnBatch.from_fetched_items(
            schema,
            self._provider.index_scan(node.child.table, attribute, intervals),
            consolidated=True,
        )
        # Re-check the full predicate on the fetched rows, so that
        # over-approximated index bounds stay sound (same as the row path).
        return kernels.filter_batch(
            fetched,
            self._predicate_values(node.predicate, fetched),
            kernels.strict_boolean(node.predicate),
        )

    def _projection_batch(self, node: Projection) -> ColumnBatch:
        child = self._input_batch(node.child)
        n = len(child)
        value_columns = [
            compile_batch_expression(item.expression, child.schema)(child.columns, n)
            for item in node.items
        ]
        return kernels.project_batch(
            child, Schema(item.alias for item in node.items), value_columns
        )

    def _join_batch(self, node: Join) -> ColumnBatch | None:
        # Decide hash-joinability from the static schemas *before* touching
        # the children, so a fallback does not evaluate them twice.
        left_schema = node.left.output_schema(self._provider)
        right_schema = node.right.output_schema(self._provider)
        pairs = self._equi_pairs(node.condition, left_schema, right_schema)
        if not pairs:
            return None
        left = self._input_batch(node.left)
        right = self._input_batch(node.right)
        combined = kernels.hash_join_batch(left, right, pairs)
        # The full condition is re-checked on every matching pair, exactly
        # like the row hash join (this also rejects NULL key matches).
        assert node.condition is not None
        return kernels.filter_batch(
            combined,
            self._predicate_values(node.condition, combined),
            kernels.strict_boolean(node.condition),
        )

    def _aggregation_batch(self, node: Aggregation) -> ColumnBatch:
        # Consolidating first reproduces the row engine's child relation --
        # same distinct entries, same order -- so per-group float
        # accumulation is bit-identical.
        child = self._input_batch(node.child).consolidate()
        n = len(child)
        key_columns = [
            compile_batch_expression(expression, child.schema)(child.columns, n)
            for expression in node.group_by
        ]
        argument_columns = [
            None
            if aggregate.argument is None
            else compile_batch_expression(aggregate.argument, child.schema)(
                child.columns, n
            )
            for aggregate in node.aggregates
        ]
        return kernels.aggregate_batch(
            node.output_schema(self._provider),
            node.aggregates,
            key_columns,
            argument_columns,
            child.multiplicities,
            grouped=bool(node.group_by),
        )

    # -- operators ---------------------------------------------------------------

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
            # Constant predicates (e.g. the folded contradiction of an empty
            # sketch) need no scan at all: True passes everything through and
            # False/NULL filters everything out.
            if node.predicate.value is True:
                return self._evaluate(node.child)
            return Relation(node.child.output_schema(self._provider))
        indexed = self._try_index_scan(node)
        if indexed is not None:
            return indexed
        child = self._evaluate(node.child)
        result = Relation(child.schema)
        predicate = compile_expression(node.predicate, child.schema)
        for row, multiplicity in child.items():
            if predicate(row) is True:
                result.add(row, multiplicity)
        return result

    def _try_index_scan(self, node: Selection) -> Relation | None:
        """Serve a selection directly over a table scan from an ordered index.

        This is the physical design hook provenance-based data skipping relies
        on: when the predicate (e.g. the BETWEEN disjunction injected by the
        use rewrite) bounds an indexed attribute, only qualifying rows are
        fetched instead of scanning the whole table.  The full predicate is
        re-checked on the fetched rows, so over-approximated bounds stay sound.
        """
        choice = self._index_choice(node)
        if choice is None:
            return None
        schema, attribute, intervals = choice
        result = Relation(schema)
        predicate = compile_expression(node.predicate, schema)
        for row, multiplicity in self._provider.index_scan(
            node.child.table, attribute, intervals
        ):
            if predicate(row) is True:
                result.add(row, multiplicity)
        return result

    def _index_choice(
        self, node: Selection
    ) -> tuple[Schema, str, list] | None:
        """Pick the index to serve a selection-over-scan from, or None.

        Every indexed attribute for which the predicate yields selective
        intervals is a candidate; when there are several, they are ranked by
        the cardinality estimator's interval selectivity (fraction of rows
        inside the intervals, from the equi-depth histogram) and the most
        selective one wins, so e.g. a narrow range on one attribute beats a
        near-full range on another.  Ties keep the provider's (alphabetical)
        attribute order.  Shared by the row and vectorized selection paths.
        """
        child = node.child
        if not isinstance(child, TableScan):
            return None
        provider = self._provider
        if not hasattr(provider, "indexed_attributes") or not hasattr(provider, "index_scan"):
            return None
        from repro.relational.predicates import extract_intervals, intervals_are_selective

        candidates: list[tuple[str, list]] = []
        for attribute in provider.indexed_attributes(child.table):
            intervals = extract_intervals(node.predicate, attribute)
            if intervals_are_selective(intervals):
                candidates.append((attribute, intervals))
        if not candidates:
            return None
        if len(candidates) > 1:
            estimator = self._cardinality_estimator()
            candidates.sort(
                key=lambda candidate: estimator.intervals_selectivity(
                    child.table, candidate[0], candidate[1]
                )
            )
        attribute, intervals = candidates[0]
        schema = provider.schema_of(child.table).qualify(child.alias)
        return schema, attribute, intervals

    def _cardinality_estimator(self):
        if self._estimator is None:
            from repro.relational.optimizer import CardinalityEstimator

            self._estimator = CardinalityEstimator(self._provider)
        return self._estimator

    def _projection(self, node: Projection) -> Relation:
        child = self._evaluate(node.child)
        schema = Schema(item.alias for item in node.items)
        result = Relation(schema)
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
        pairs = self._equi_pairs(node.condition, left.schema, right.schema)
        if pairs:
            self._hash_join(node, left, right, schema, result, pairs)
            return result
        condition = (
            None if node.condition is None else compile_expression(node.condition, schema)
        )
        for left_row, left_mult in left.items():
            for right_row, right_mult in right.items():
                combined = left_row + right_row
                if condition is None or condition(combined) is True:
                    result.add(combined, left_mult * right_mult)
        return result

    @staticmethod
    def _equi_pairs(
        condition: Expression | None, left: Schema, right: Schema
    ) -> list[tuple[int, int]]:
        """Hashable ``(left position, right position)`` pairs of the condition.

        Any equality conjunct between one attribute of each side can drive a
        hash join, even when other conjuncts (range predicates pushed into the
        condition by the optimizer) ride along: the full condition is still
        re-checked on every matching pair.  Names resolve against the combined
        schema, exactly as the compiled condition will bind them.
        """
        if condition is None:
            return []
        combined = left.concat(right)
        split = len(left)
        pairs: list[tuple[int, int]] = []
        for conjunct in conjuncts(condition):
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                continue
            if not isinstance(conjunct.left, ColumnRef) or not isinstance(
                conjunct.right, ColumnRef
            ):
                continue
            try:
                a = combined.index_of(conjunct.left.name)
                b = combined.index_of(conjunct.right.name)
            except Exception:
                # Unresolvable or ambiguous references: the error belongs to
                # condition compilation, which the fallback path will surface.
                continue
            if a < split <= b:
                pairs.append((a, b - split))
            elif b < split <= a:
                pairs.append((b, a - split))
        return pairs

    def _hash_join(
        self,
        node: Join,
        left: Relation,
        right: Relation,
        schema: Schema,
        result: Relation,
        pairs: list[tuple[int, int]],
    ) -> None:
        left_positions = [pair[0] for pair in pairs]
        right_positions = [pair[1] for pair in pairs]
        condition = (
            None if node.condition is None else compile_expression(node.condition, schema)
        )
        index: dict[tuple, list[tuple[Row, int]]] = {}
        for right_row, right_mult in right.items():
            key = tuple(right_row[p] for p in right_positions)
            index.setdefault(key, []).append((right_row, right_mult))
        for left_row, left_mult in left.items():
            key = tuple(left_row[p] for p in left_positions)
            for right_row, right_mult in index.get(key, ()):
                combined = left_row + right_row
                if condition is None or condition(combined) is True:
                    result.add(combined, left_mult * right_mult)

    def _aggregation(self, node: Aggregation) -> Relation:
        child = self._evaluate(node.child)
        schema = node.output_schema(self._provider)
        group_key = compile_row_expressions(node.group_by, child.schema)
        argument_fns = [
            None if agg.argument is None else compile_expression(agg.argument, child.schema)
            for agg in node.aggregates
        ]
        groups: dict[tuple, list[tuple[Row, int]]] = {}
        for row, multiplicity in child.items():
            groups.setdefault(group_key(row), []).append((row, multiplicity))
        result = Relation(schema)
        if not groups and not node.group_by:
            # Aggregation without GROUP BY over an empty input produces one row.
            row = tuple(
                self._aggregate_values(agg, fn, [])
                for agg, fn in zip(node.aggregates, argument_fns)
            )
            result.add(row, 1)
            return result
        for key, rows in groups.items():
            aggregates = tuple(
                self._aggregate_values(agg, fn, rows)
                for agg, fn in zip(node.aggregates, argument_fns)
            )
            result.add(key + aggregates, 1)
        return result

    @staticmethod
    def _aggregate_values(
        aggregate: Aggregate,
        argument: CompiledExpression | None,
        rows: list[tuple[Row, int]],
    ) -> object:
        if argument is None:
            return sum(multiplicity for _row, multiplicity in rows)
        values = ((argument(row), multiplicity) for row, multiplicity in rows)
        return compute_aggregate(aggregate.function, values)

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


class _Reversed:
    """Wrapper that reverses comparison order for non-numeric sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(self.value)


def attribute_of(expression: Expression) -> str | None:
    """Return the attribute name when ``expression`` is a plain column reference."""
    if isinstance(expression, ColumnRef):
        return expression.name
    return None
